#include "plim/controller.hpp"

#include <string>

#include "util/error.hpp"

namespace rlim::plim {

void check_fits(const Program& program, Cell logical_cells) {
  program.validate();
  require(program.num_cells() <= logical_cells,
          "plim: program needs " + std::to_string(program.num_cells()) +
              " cells but the array has " + std::to_string(logical_cells) +
              " logical cells");
}

void PlimController::start(const Program& program) {
  check_fits(program, array_->logical_size());
  program_ = &program;
  pc_ = 0;
  state_ = program.size() == 0 ? State::Done : State::Running;
}

void PlimController::execute(RramArray& array, const Instruction& instruction) {
  const auto in_range = [&array](Operand operand) {
    return operand.is_constant() || operand.cell_index() < array.size();
  };
  require(in_range(instruction.a) && in_range(instruction.b) &&
              instruction.z < array.size(),
          "PlimController::execute: operand outside the array");
  execute_unchecked(array, instruction);
}

bool PlimController::step() {
  require(state_ == State::Running, "PlimController::step: not running");
  execute_unchecked(*array_, program_->instructions()[pc_]);
  ++pc_;
  if (pc_ == program_->size()) {
    state_ = State::Done;
    return false;
  }
  return true;
}

std::size_t PlimController::run() {
  require(program_ != nullptr, "PlimController::run: no program latched");
  std::size_t executed = 0;
  while (state_ == State::Running) {
    ++executed;
    step();
  }
  return executed;
}

std::size_t PlimController::run(const Program& program) {
  start(program);
  return run();
}

std::vector<std::uint64_t> evaluate(const Program& program,
                                    std::span<const std::uint64_t> pi_values) {
  RramArray array(program.num_cells());
  return evaluate(program, pi_values, array);
}

bool program_matches_mig(const Program& program, const mig::Mig& mig,
                         unsigned rounds, std::uint64_t seed) {
  if (program.pi_cells().size() != mig.num_pis() ||
      program.po_cells().size() != mig.num_pos()) {
    return false;
  }
  // A plain array has no endurance model, so every round is a fresh
  // execution: the check is the run-until-wrong loop surviving all rounds.
  RramArray array(program.num_cells());
  return executions_until_wrong(array, program, mig, rounds, seed) == rounds;
}

}  // namespace rlim::plim

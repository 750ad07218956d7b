#pragma once

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <span>
#include <vector>

#include "mig/mig.hpp"
#include "mig/simulate.hpp"
#include "plim/instruction.hpp"
#include "plim/program.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

/// The PLiM interpreter kernel: the one place RM3 instructions execute.
///
/// Execution contract. A program is validated against an array once, when
/// the two are paired (Interpreter's constructor, PlimController::start):
/// every instruction operand, PI and PO binding must lie inside the array's
/// *logical* cell space. After that each instruction runs with unchecked,
/// inline cell access through the concrete array type — plim::RramArray or
/// fault::FaultArray — so there is no virtual call and no per-operand bounds
/// check. Access order is fixed, and fault arrays draw their RNG in exactly
/// this order: per instruction, read A (when it is a cell), read B (when it
/// is a cell), read Z, then write Z. An execution resets values, preloads
/// the PI cells in PI order, runs the instructions, then reads the PO cells
/// in PO order.
namespace rlim::plim {

/// An array the kernel can drive: a logical cell space plus unchecked
/// access to it. The unchecked calls are only made on indices the pairing
/// validated.
template <class A>
concept CrossbarArray = requires(A& array, Cell cell, std::uint64_t value) {
  { array.logical_size() } -> std::convertible_to<Cell>;
  { array.read_unchecked(cell) } -> std::same_as<std::uint64_t>;
  array.write_unchecked(cell, value);
  array.preload_unchecked(cell, value);
  array.reset_values();
};

/// Throws rlim::Error unless `program` is internally consistent and
/// addresses only cells below `logical_cells`.
void check_fits(const Program& program, Cell logical_cells);

/// One RM3 on already-validated cell indices: Z ← ⟨A B̄ Z⟩.
template <CrossbarArray Array>
inline void execute_unchecked(Array& array, const Instruction& instruction) {
  const auto resolve = [&array](Operand operand) -> std::uint64_t {
    if (operand.is_constant()) {
      return operand.constant_value() ? ~0ULL : 0ULL;
    }
    return array.read_unchecked(operand.cell_index());
  };
  const auto a = resolve(instruction.a);
  const auto not_b = ~resolve(instruction.b);
  const auto z = array.read_unchecked(instruction.z);
  array.write_unchecked(instruction.z, (a & not_b) | (a & z) | (not_b & z));
}

/// One program paired with one array for repeated executions: validated
/// once on construction, then every run() is unchecked and reuses the PO
/// buffer. Both references must outlive the interpreter.
template <CrossbarArray Array>
class Interpreter {
public:
  Interpreter(const Program& program, Array& array)
      : program_(program), array_(array), po_values_(program.po_cells().size()) {
    check_fits(program, array.logical_size());
  }

  /// Runs the program once on the array (wear accumulates across runs) and
  /// returns the PO words; the view stays valid until the next run().
  std::span<const std::uint64_t> run(std::span<const std::uint64_t> pi_values) {
    const auto pi_cells = program_.pi_cells();
    require(pi_values.size() == pi_cells.size(), "evaluate: PI value count mismatch");
    array_.reset_values();
    for (std::size_t i = 0; i < pi_cells.size(); ++i) {
      array_.preload_unchecked(pi_cells[i], pi_values[i]);
    }
    for (const auto& instruction : program_.instructions()) {
      execute_unchecked(array_, instruction);
    }
    const auto po_cells = program_.po_cells();
    for (std::size_t i = 0; i < po_cells.size(); ++i) {
      po_values_[i] = array_.read_unchecked(po_cells[i]);
    }
    return po_values_;
  }

private:
  const Program& program_;
  Array& array_;
  std::vector<std::uint64_t> po_values_;
};

/// Executes `program` on `array` with fresh random PI words (drawn from a
/// Xoshiro256 seeded with `input_seed`) until its outputs first differ from
/// `reference`. Returns the number of correct executions, at most
/// `max_runs`. This is the one run-until-failure loop behind both the
/// endurance lifetime checks (core) and the fault sweeps (fault).
template <CrossbarArray Array>
std::uint64_t executions_until_wrong(Array& array, const Program& program,
                                     const mig::Mig& reference,
                                     std::uint64_t max_runs,
                                     std::uint64_t input_seed) {
  require(program.pi_cells().size() == reference.num_pis() &&
              program.po_cells().size() == reference.num_pos(),
          "executions_until_wrong: program and reference MIG disagree on the "
          "PI/PO profile");
  Interpreter<Array> interpreter(program, array);
  util::Xoshiro256 inputs(input_seed);
  std::vector<std::uint64_t> pi_values(reference.num_pis());
  std::vector<std::uint64_t> node_values;
  std::vector<std::uint64_t> expected;
  for (std::uint64_t run = 0; run < max_runs; ++run) {
    for (auto& word : pi_values) {
      word = inputs();
    }
    const auto actual = interpreter.run(pi_values);
    mig::simulate_into(reference, pi_values, node_values, expected);
    if (!std::equal(actual.begin(), actual.end(), expected.begin(), expected.end())) {
      return run;
    }
  }
  return max_runs;
}

}  // namespace rlim::plim

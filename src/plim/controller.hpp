#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "mig/mig.hpp"
#include "plim/kernel.hpp"
#include "plim/program.hpp"
#include "plim/rram_array.hpp"

namespace rlim::plim {

/// The PLiM controller [11]: a wrapper around the RRAM array with a program
/// counter and a small FSM. When the control signal is off the array behaves
/// as a plain RAM; when on, the controller fetches RM3 instructions and
/// performs them as write cycles on the array.
///
/// start() validates the program against the array once (plim/kernel.hpp);
/// step() then runs the kernel unchecked, so the latched program must not
/// change while it is running.
class PlimController {
public:
  enum class State { Idle, Running, Done };

  explicit PlimController(RramArray& array) : array_(&array) {}

  /// Latches a program and raises the control signal.
  void start(const Program& program);

  /// Executes one RM3 instruction; returns false when the program is done.
  bool step();

  /// Runs the latched program to completion; returns #instructions executed.
  std::size_t run();

  /// Convenience: start + run.
  std::size_t run(const Program& program);

  [[nodiscard]] State state() const { return state_; }
  [[nodiscard]] std::size_t program_counter() const { return pc_; }

  /// Executes a single RM3 on the array (usable without a latched program);
  /// throws rlim::Error when an operand lies outside the array.
  static void execute(RramArray& array, const Instruction& instruction);

private:
  RramArray* array_;
  const Program* program_ = nullptr;
  std::size_t pc_ = 0;
  State state_ = State::Idle;
};

/// Evaluates a program as a combinational function: binds `pi_values`
/// (64 patterns per word) to the PI cells, runs the program on a fresh array
/// and returns the PO words.
std::vector<std::uint64_t> evaluate(const Program& program,
                                    std::span<const std::uint64_t> pi_values);

/// Same on a caller-owned array, which keeps its accumulated wear across
/// calls: values are reset, wear is not. The program must fit the array's
/// logical cell space (checked before anything is written). Repeated
/// executions on one array should hold one Interpreter instead, which
/// validates once.
template <CrossbarArray Array>
std::vector<std::uint64_t> evaluate(const Program& program,
                                    std::span<const std::uint64_t> pi_values,
                                    Array& array) {
  Interpreter<Array> interpreter(program, array);
  const auto po_values = interpreter.run(pi_values);
  return {po_values.begin(), po_values.end()};
}

/// Monte-Carlo check that the program computes the same function as `mig`
/// (PI/PO correspondence by order). This is the compiler's end-to-end oracle.
bool program_matches_mig(const Program& program, const mig::Mig& mig,
                         unsigned rounds, std::uint64_t seed);

}  // namespace rlim::plim

#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "plim/instruction.hpp"
#include "util/stats.hpp"

namespace rlim::plim {

/// Endurance model of the crossbar.
struct RramConfig {
  /// Writes a cell can absorb before it hard-fails; 0 disables the model.
  /// (Real RRAM: ~1e10 [5] to ~1e11 [6]; tests use tiny values.)
  std::uint64_t endurance_limit = 0;
  /// Cell-to-cell variability: per-cell limits are drawn log-normally,
  /// limit_i = endurance_limit · exp(σ·N(0,1)). 0 = uniform limits.
  double endurance_sigma = 0.0;
  /// Seed of the per-cell variability draw. NOTE: every array built from the
  /// same config shares one draw — batch code that instantiates many arrays
  /// must derive a distinct seed per instance (util::mix_seed(job_seed,
  /// instance)) or every trial silently replays the same weak cells.
  std::uint64_t variation_seed = 1;
};

/// Functional model of the RRAM crossbar array underneath PLiM.
///
/// Values are 64-bit words so 64 input patterns evaluate in parallel.
/// Every `write` increments the cell's wear counter; a cell that has reached
/// the endurance limit becomes *stuck at its last value* (the common RRAM
/// hard-failure mode) — further writes (counted or not) are silently
/// dropped, which makes failure observable as wrong program outputs rather
/// than a crash.
///
/// Cell access comes in two forms with one behaviour. `read`/`write`/
/// `preload` check the index and throw rlim::Error when it is out of range.
/// The `*_unchecked` forms skip the check; they are for the interpreter
/// kernel (plim/kernel.hpp), which validates a program against the array
/// once and then drives it op by op. Fault models (fault::FaultArray) build
/// on this class privately and supply their own access; the kernel is a
/// template over the concrete array type.
class RramArray {
public:
  explicit RramArray(Cell num_cells, RramConfig config = {});

  [[nodiscard]] Cell size() const { return static_cast<Cell>(cells_.size()); }
  /// Cells a program may address: all of them on a plain array.
  [[nodiscard]] Cell logical_size() const { return size(); }

  [[nodiscard]] std::uint64_t read(Cell cell) const {
    check(cell);
    return read_unchecked(cell);
  }

  /// Counted write (wears the cell; dropped once the cell has failed).
  void write(Cell cell, std::uint64_t value) {
    check(cell);
    write_unchecked(cell, value);
  }

  /// Uncounted write: models data that is already resident (primary inputs)
  /// or an external initialization outside the program's write traffic.
  /// A failed cell is stuck for uncounted writes too — the preload is
  /// dropped and the cell keeps its last value.
  void preload(Cell cell, std::uint64_t value) {
    check(cell);
    preload_unchecked(cell, value);
  }

  [[nodiscard]] std::uint64_t read_unchecked(Cell cell) const {
    return cells_[cell].value;
  }
  void write_unchecked(Cell cell, std::uint64_t value) {
    auto& state = cells_[cell];
    if (hard_failed(state)) {
      return;  // stuck at last value; wear counter also saturates
    }
    state.value = value;
    ++state.writes;
  }
  void preload_unchecked(Cell cell, std::uint64_t value) {
    auto& state = cells_[cell];
    if (hard_failed(state)) {
      return;  // stuck cells ignore uncounted writes too
    }
    state.value = value;
  }

  [[nodiscard]] std::uint64_t write_count(Cell cell) const;
  [[nodiscard]] std::vector<std::uint64_t> write_counts() const;

  [[nodiscard]] bool is_failed(Cell cell) const;
  [[nodiscard]] std::size_t failed_cell_count() const;

  /// Effective endurance limit of a cell under the variability model;
  /// nullopt when the endurance model is disabled (the cell is unlimited).
  /// Distinct from a genuinely zero budget, which the variability draw
  /// clamps to 1 — an engaged model never yields a 0 limit.
  [[nodiscard]] std::optional<std::uint64_t> endurance_of(Cell cell) const;
  /// True when construction drew per-cell limits (endurance_limit != 0).
  [[nodiscard]] bool has_endurance_model() const {
    return config_.endurance_limit != 0;
  }

  /// Clears values but keeps accumulated wear (a fresh execution on an aged
  /// array). Failed cells are stuck and keep their last value even here.
  void reset_values();

  [[nodiscard]] util::WriteStats stats() const;

protected:
  struct CellState {
    std::uint64_t value = 0;
    std::uint64_t writes = 0;
    std::uint64_t limit = 0;  // 0 = unlimited
  };

  void check(Cell cell) const;

  /// Direct cell-state access for fault models, which keep their own
  /// logical→physical mapping and address this state by physical index.
  [[nodiscard]] CellState& state(Cell cell) { return cells_[cell]; }
  [[nodiscard]] const CellState& state(Cell cell) const { return cells_[cell]; }

  /// The base hard-failure criterion on raw state (wear >= drawn limit).
  [[nodiscard]] static bool hard_failed(const CellState& state) {
    return state.limit != 0 && state.writes >= state.limit;
  }

private:
  std::vector<CellState> cells_;
  RramConfig config_;
};

}  // namespace rlim::plim

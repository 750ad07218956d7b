#pragma once

#include <cstdint>
#include <vector>

#include "fault/fault.hpp"
#include "plim/rram_array.hpp"
#include "util/rng.hpp"

namespace rlim::fault {

/// plim::RramArray with a seeded fault overlay: manufacturing and
/// wear-induced stuck-at cells, per-read resistance-drift disturbances,
/// cycle-to-cycle write variability, mixed-mode region profiles, and
/// optional spare-cell remapping.
///
/// The array exposes `num_cells` *logical* cells — the indices the PLiM
/// program addresses — backed by `num_cells + profile.spares` physical cells
/// in the base class. `forward_` maps logical to physical; remapping
/// redirects a logical cell to a healthy spare. The base is private: a
/// FaultArray is not usable where a plain RramArray is expected (that would
/// silently drop the fault model), only through its own access functions or
/// the kernel template (plim/kernel.hpp).
///
/// Access is by logical cell. `read`/`write`/`preload` check the index;
/// the `*_unchecked` forms are what the kernel calls after validating a
/// program once against logical_size(). Both forms behave identically.
/// `read` is non-const: under drift it may disturb the cell it reads.
///
/// Determinism: all fault draws come from one Xoshiro256 stream seeded by
/// the constructor, and the endurance-variability draw uses a decorrelated
/// seed derived from the same value — two arrays built with equal arguments
/// behave identically.
class FaultArray final : private plim::RramArray {
 public:
  /// `memory_cells` marks the memory-mode region (typically the program's PI
  /// cells); empty means every cell is logic-mode. When non-empty its size
  /// must equal `num_cells`.
  FaultArray(plim::Cell num_cells, const FaultProfile& profile,
             std::uint64_t seed, std::vector<bool> memory_cells = {});

  /// Logical address space: the cells a program may use.
  [[nodiscard]] plim::Cell logical_size() const { return logical_; }
  /// Physical cells, spares included.
  [[nodiscard]] plim::Cell physical_size() const { return size(); }

  [[nodiscard]] std::uint64_t read(plim::Cell cell) {
    check_logical(cell);
    return read_unchecked(cell);
  }
  void write(plim::Cell cell, std::uint64_t value) {
    check_logical(cell);
    write_unchecked(cell, value);
  }
  void preload(plim::Cell cell, std::uint64_t value) {
    check_logical(cell);
    preload_unchecked(cell, value);
  }

  [[nodiscard]] std::uint64_t read_unchecked(plim::Cell cell) {
    const auto phys = forward_[cell];
    auto& st = state(phys);
    if (!drifts_ || stuck_[phys] != 0) {
      return st.value;  // stuck cells hold their value; drift cannot move them
    }
    const auto& region = region_of(cell);
    if (region.drift_rate > 0.0 && rng_.uniform01() < region.drift_rate) {
      // Resistance drift flips one of the 64 simulation lanes, persistently:
      // the disturbed value is what every later read returns.
      st.value ^= 1ULL << rng_.below(64);
      ++disturbed_;
    }
    return st.value;
  }

  void write_unchecked(plim::Cell cell, std::uint64_t value) {
    auto phys = forward_[cell];
    if (stuck_[phys] != 0 || hard_failed(state(phys))) {
      if (!try_remap(cell)) {
        ++dropped_;
        return;
      }
      phys = forward_[cell];
    }
    auto& st = state(phys);
    const auto& region = region_of(cell);
    st.writes += region.wear_per_write;
    // Cycle-to-cycle variability: the pulse wears the cell but fails to latch.
    if (region.write_fail_rate > 0.0 && rng_.uniform01() < region.write_fail_rate) {
      return;
    }
    st.value = value;
    if (region.wear_stuck_rate > 0.0 && rng_.uniform01() < region.wear_stuck_rate) {
      stuck_[phys] = 1;  // early wear-out: stuck at the value just written
    }
  }

  void preload_unchecked(plim::Cell cell, std::uint64_t value) {
    auto phys = forward_[cell];
    if (stuck_[phys] != 0 || hard_failed(state(phys))) {
      // The memory controller repairs resident data the same way it repairs
      // program writes; without repair the preload is dropped.
      if (!try_remap(cell)) {
        ++dropped_;
        return;
      }
      phys = forward_[cell];
    }
    state(phys).value = value;  // uncounted: data already resident
  }

  [[nodiscard]] bool is_failed(plim::Cell cell) const;
  /// Physical cells that are stuck (manufacturing, wear-induced) or have
  /// exhausted their endurance — unused healthy spares do not count.
  [[nodiscard]] std::size_t failed_cell_count() const;
  /// Clears values but keeps wear; stuck and worn-out cells keep theirs.
  void reset_values();

  /// Wear and endurance by *physical* cell: logical cell i starts at
  /// physical cell i, and spares follow at logical_size() onwards.
  using RramArray::endurance_of;
  using RramArray::write_count;
  using RramArray::write_counts;

  [[nodiscard]] bool is_stuck(plim::Cell cell) const;
  [[nodiscard]] std::size_t stuck_cell_count() const;
  [[nodiscard]] std::uint64_t remapped_count() const { return remapped_; }
  [[nodiscard]] std::uint64_t dropped_writes() const { return dropped_; }
  [[nodiscard]] std::uint64_t disturbed_reads() const { return disturbed_; }

 private:
  void check_logical(plim::Cell cell) const;
  [[nodiscard]] const RegionProfile& region_of(plim::Cell cell) const {
    return memory_cell_[cell] != 0 ? profile_.memory : profile_.logic;
  }
  /// Redirects `cell` to the next healthy spare; false when none remain.
  bool try_remap(plim::Cell cell);

  FaultProfile profile_;
  plim::Cell logical_;
  bool drifts_;                             // either region has drift_rate > 0
  std::vector<std::uint8_t> memory_cell_;   // logical index; 1 = memory-mode
  std::vector<std::uint8_t> stuck_;   // physical index; value latched in state
  std::vector<plim::Cell> forward_;   // logical -> physical
  plim::Cell next_spare_;
  util::Xoshiro256 rng_;
  std::uint64_t remapped_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t disturbed_ = 0;
};

}  // namespace rlim::fault

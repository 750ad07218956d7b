#include "fault/array.hpp"

#include "util/error.hpp"

namespace rlim::fault {

namespace {

// Distinct salts keep the endurance-variability stream and the fault stream
// decorrelated even though both derive from the constructor seed.
constexpr std::uint64_t kVariationSalt = 0x7661726961746eULL;  // "variatn"
constexpr std::uint64_t kFaultSalt = 0x6661756c74ULL;          // "fault"

plim::RramConfig base_config(const FaultProfile& profile, std::uint64_t seed) {
  return plim::RramConfig{
      .endurance_limit = profile.endurance,
      .endurance_sigma = profile.sigma,
      .variation_seed = util::mix_seed(seed, kVariationSalt),
  };
}

}  // namespace

FaultArray::FaultArray(plim::Cell num_cells, const FaultProfile& profile,
                       std::uint64_t seed, std::vector<bool> memory_cells)
    : RramArray(num_cells + profile.spares, base_config(profile, seed)),
      profile_(profile),
      logical_(num_cells),
      drifts_(profile.logic.drift_rate > 0.0 || profile.memory.drift_rate > 0.0),
      memory_cell_(num_cells, 0),
      stuck_(num_cells + profile.spares, 0),
      forward_(num_cells),
      next_spare_(num_cells),
      rng_(util::mix_seed(seed, kFaultSalt)) {
  require(memory_cells.empty() || memory_cells.size() == num_cells,
          "FaultArray: memory_cells mask must cover every logical cell");
  for (std::size_t cell = 0; cell < memory_cells.size(); ++cell) {
    memory_cell_[cell] = memory_cells[cell] ? 1 : 0;
  }
  for (plim::Cell cell = 0; cell < logical_; ++cell) {
    forward_[cell] = cell;
  }
  // Manufacturing defects: each physical cell is stuck at a random value with
  // its region's probability. Spares count as logic-mode — a spare only ever
  // substitutes for a cell the program writes.
  const auto physical = size();
  for (plim::Cell cell = 0; cell < physical; ++cell) {
    const auto& region = cell < logical_ ? region_of(cell) : profile_.logic;
    if (region.stuck_rate > 0.0 && rng_.uniform01() < region.stuck_rate) {
      stuck_[cell] = 1;
      state(cell).value = (rng_() & 1) != 0 ? ~0ULL : 0ULL;
    }
  }
}

void FaultArray::check_logical(plim::Cell cell) const {
  require(cell < logical_, "FaultArray: logical cell index out of range");
}

bool FaultArray::try_remap(plim::Cell cell) {
  if (profile_.repair != Repair::Remap) {
    return false;
  }
  const auto physical = size();
  while (next_spare_ < physical) {
    const auto spare = next_spare_++;
    if (stuck_[spare] == 0 && !hard_failed(state(spare))) {
      forward_[cell] = spare;
      ++remapped_;
      return true;
    }
  }
  return false;
}

bool FaultArray::is_failed(plim::Cell cell) const {
  check_logical(cell);
  const auto phys = forward_[cell];
  return stuck_[phys] != 0 || hard_failed(state(phys));
}

std::size_t FaultArray::failed_cell_count() const {
  std::size_t failed = 0;
  const auto physical = size();
  for (plim::Cell cell = 0; cell < physical; ++cell) {
    if (stuck_[cell] != 0 || hard_failed(state(cell))) {
      ++failed;
    }
  }
  return failed;
}

void FaultArray::reset_values() {
  const auto physical = size();
  for (plim::Cell cell = 0; cell < physical; ++cell) {
    if (stuck_[cell] != 0 || hard_failed(state(cell))) {
      continue;  // stuck cells keep their value across executions
    }
    state(cell).value = 0;
  }
}

bool FaultArray::is_stuck(plim::Cell cell) const {
  check_logical(cell);
  return stuck_[forward_[cell]] != 0;
}

std::size_t FaultArray::stuck_cell_count() const {
  std::size_t stuck = 0;
  for (const auto flag : stuck_) {
    stuck += flag != 0 ? 1 : 0;
  }
  return stuck;
}

}  // namespace rlim::fault

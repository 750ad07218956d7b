#pragma once

#include <cstdint>
#include <vector>

#include "mig/mig.hpp"
#include "plim/program.hpp"
#include "util/stats.hpp"

namespace rlim::core {

/// Architecture-lifetime projection from a write distribution — the paper's
/// motivation made quantitative: with a per-cell endurance E (~1e10 [5] to
/// ~1e11 [6]), the most-written cell bounds how often the PLiM computer can
/// execute the program before the first hard failure.
struct LifetimeEstimate {
  /// floor(E / max_writes): guaranteed-safe executions.
  std::uint64_t executions_to_first_failure = 0;
  /// E / mean_writes: executions if the same total traffic were spread
  /// perfectly evenly (the wear-leveling upper bound).
  double ideal_executions = 0.0;
  /// executions_to_first_failure / ideal_executions ∈ (0, 1]: how much of
  /// the ideal lifetime the write balance actually achieves.
  double balance_efficiency = 0.0;
};

[[nodiscard]] LifetimeEstimate estimate_lifetime(
    const util::WriteStats& writes, std::uint64_t cell_endurance = 10'000'000'000ULL);

/// Empirical cross-check: repeatedly executes `program` on an array with the
/// given (tiny) endurance limit and verifies the outputs against `reference`
/// each time. Returns the number of fully correct executions before the
/// first observed wrong output (or `max_runs` if none failed).
/// Guaranteed to be >= estimate_lifetime(...).executions_to_first_failure:
/// a stuck cell only matters once its stuck value is actually wrong.
[[nodiscard]] std::uint64_t measured_executions_until_failure(
    const plim::Program& program, const mig::Mig& reference,
    std::uint64_t cell_endurance, std::uint64_t max_runs, std::uint64_t seed);

/// Monte-Carlo lifetime study under cell-to-cell endurance variability:
/// `trials` arrays with log-normal per-cell limits (median `cell_endurance`,
/// sigma `endurance_sigma`), each executed until the first wrong output.
struct VariabilityStudy {
  std::vector<std::uint64_t> lifetimes;  ///< per-trial executions (sorted)
  std::uint64_t min = 0;
  std::uint64_t median = 0;
  double mean = 0.0;
};

/// Per-trial variability and input streams derive from `seed` via
/// util::mix_seed(seed, trial), so trials are independent and studies with
/// nearby base seeds never share a variability draw.
[[nodiscard]] VariabilityStudy lifetime_under_variability(
    const plim::Program& program, const mig::Mig& reference,
    std::uint64_t cell_endurance, double endurance_sigma, unsigned trials,
    std::uint64_t max_runs, std::uint64_t seed);

}  // namespace rlim::core

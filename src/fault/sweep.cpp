#include "fault/sweep.hpp"

#include <algorithm>
#include <functional>
#include <vector>

#include "fault/array.hpp"
#include "plim/kernel.hpp"
#include "sched/sched.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace rlim::fault {

namespace {

// Separates the per-trial input stream from the per-trial array seed.
constexpr std::uint64_t kInputSalt = 0x696e70757473ULL;  // "inputs"

/// Nearest-rank percentile over a sorted sample (interpolation-free so the
/// reported value is always an observed lifetime).
std::uint64_t percentile(const std::vector<std::uint64_t>& sorted, unsigned p) {
  const auto n = sorted.size();
  return sorted[(p * (n - 1) + 50) / 100];
}

/// Everything one trial contributes to the distribution. Trials write into
/// pre-sized index-addressed slots, so the parallel path aggregates in trial
/// order afterward and the result stays byte-identical to a serial run.
struct TrialOutcome {
  std::uint64_t lifetime = 0;
  std::uint64_t failed_cells = 0;
  std::uint64_t remapped = 0;
  std::uint64_t dropped_writes = 0;
};

TrialOutcome run_trial(const plim::Program& program, const mig::Mig& reference,
                       const SweepSpec& spec,
                       const std::vector<bool>& memory_cells,
                       std::uint32_t trial) {
  FaultArray array(program.num_cells(), spec.profile,
                   util::mix_seed(spec.seed, trial), memory_cells);
  TrialOutcome outcome;
  outcome.lifetime = plim::executions_until_wrong(
      array, program, reference, spec.runs,
      util::mix_seed(util::mix_seed(spec.seed, kInputSalt), trial));
  outcome.failed_cells = static_cast<std::uint64_t>(array.failed_cell_count());
  outcome.remapped = array.remapped_count();
  outcome.dropped_writes = array.dropped_writes();
  return outcome;
}

}  // namespace

LifetimeDistribution run_sweep(const plim::Program& program,
                               const mig::Mig& reference, const SweepSpec& spec) {
  require(spec.enabled, "run_sweep: spec does not request a sweep (fault=none)");
  require(program.pi_cells().size() == reference.num_pis() &&
              program.po_cells().size() == reference.num_pos(),
          "run_sweep: program and reference MIG disagree on the PI/PO profile");

  // Memory-mode region: the PI-resident cells. Everything the program writes
  // is logic-mode.
  std::vector<bool> memory_cells(program.num_cells(), false);
  for (const auto cell : program.pi_cells()) {
    memory_cells[cell] = true;
  }

  LifetimeDistribution dist;
  dist.trials = spec.trials;
  dist.runs_cap = spec.runs;

  // Trials are embarrassingly parallel and fully seeded (array and input
  // streams derive from (spec.seed, trial)), so when this sweep already
  // runs on a scheduler worker — a compile job inside flow::Service — it
  // forks the trials as child tasks and helps execute them. Each trial
  // writes its own pre-sized slot; aggregation below walks the slots in
  // trial order, so serial and parallel sweeps produce identical bytes.
  std::vector<TrialOutcome> outcomes(spec.trials);
  auto* scheduler = sched::Scheduler::current();
  if (scheduler != nullptr && spec.trials > 1) {
    std::vector<std::function<void()>> children;
    children.reserve(spec.trials);
    for (std::uint32_t trial = 0; trial < spec.trials; ++trial) {
      children.push_back([&, trial] {
        outcomes[trial] =
            run_trial(program, reference, spec, memory_cells, trial);
      });
    }
    // High: these are subtasks of a job someone is already waiting on —
    // they must not queue behind freshly arrived external work.
    scheduler->run_children(std::move(children), sched::Priority::High);
  } else {
    for (std::uint32_t trial = 0; trial < spec.trials; ++trial) {
      outcomes[trial] =
          run_trial(program, reference, spec, memory_cells, trial);
    }
  }

  std::vector<std::uint64_t> lifetimes;
  lifetimes.reserve(spec.trials);
  std::uint64_t failed_sum = 0;
  double lifetime_sum = 0.0;
  for (std::uint32_t trial = 0; trial < spec.trials; ++trial) {
    const auto& outcome = outcomes[trial];
    if (outcome.lifetime == spec.runs) {
      ++dist.censored;
    }
    lifetimes.push_back(outcome.lifetime);
    lifetime_sum += static_cast<double>(outcome.lifetime);

    failed_sum += outcome.failed_cells;
    if (trial == 0) {
      dist.failed_cells_min = outcome.failed_cells;
      dist.failed_cells_max = outcome.failed_cells;
    } else {
      dist.failed_cells_min =
          std::min(dist.failed_cells_min, outcome.failed_cells);
      dist.failed_cells_max =
          std::max(dist.failed_cells_max, outcome.failed_cells);
    }
    dist.remapped_total += outcome.remapped;
    dist.dropped_writes += outcome.dropped_writes;
  }

  std::sort(lifetimes.begin(), lifetimes.end());
  dist.lifetime_min = lifetimes.front();
  dist.lifetime_p50 = percentile(lifetimes, 50);
  dist.lifetime_p99 = percentile(lifetimes, 99);
  dist.lifetime_max = lifetimes.back();
  dist.lifetime_mean = lifetime_sum / static_cast<double>(spec.trials);
  dist.failed_cells_mean =
      static_cast<double>(failed_sum) / static_cast<double>(spec.trials);
  return dist;
}

}  // namespace rlim::fault

#pragma once

// Digests for the golden pins in test_rewriting, test_axioms and
// test_compiler. Each folds a whole observable outcome (graph structure,
// rewriting telemetry minus wall time, program bytes and compile statistics)
// into one 64-bit value, so a pinned constant catches any change to what a
// pass or the compiler produces while leaving the implementation free.

#include <cstdint>
#include <cstring>
#include <sstream>
#include <vector>

#include "benchmarks/suite.hpp"
#include "mig/mig.hpp"
#include "mig/rewriting.hpp"
#include "plim/compiler.hpp"
#include "test_helpers.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace rlim::test {

/// Folds a rewrite outcome: the result's structural fingerprint plus every
/// deterministic RewriteStats field (per-pass `wall_ns` is left out).
inline void fold_rewrite(util::Fnv1a64& hash, const mig::Mig& out,
                         const mig::RewriteStats& stats) {
  hash.u64(out.fingerprint())
      .u64(stats.initial_gates)
      .u64(stats.final_gates)
      .u64(stats.initial_complement_edges)
      .u64(stats.final_complement_edges)
      .u64(static_cast<std::uint64_t>(stats.cycles_run))
      .u64(stats.total_applications)
      .u64(stats.per_pass.size());
  for (const auto& pass : stats.per_pass) {
    hash.str(pass.name)
        .u64(pass.runs)
        .u64(pass.applications)
        .u64(static_cast<std::uint64_t>(pass.gate_delta))
        .u64(static_cast<std::uint64_t>(pass.complement_delta))
        .u64(static_cast<std::uint64_t>(pass.depth_delta));
  }
}

/// Folds a compile outcome: the program's serialized bytes plus every
/// CompileResult statistic (the stdev/mean doubles by bit pattern).
inline void fold_compile(util::Fnv1a64& hash, const plim::CompileResult& result) {
  std::ostringstream bytes;
  result.program.write(bytes);
  const auto bits = [](double value) {
    std::uint64_t out = 0;
    std::memcpy(&out, &value, sizeof out);
    return out;
  };
  const auto& stats = result.write_stats;
  hash.str(bytes.str())
      .u64(result.num_cells)
      .u64(result.gate_instructions)
      .u64(result.overhead_instructions)
      .u64(result.quarantined_cells)
      .u64(stats.count)
      .u64(stats.min)
      .u64(stats.max)
      .u64(stats.total)
      .u64(bits(stats.mean))
      .u64(bits(stats.stdev));
}

/// Seeded random graph with dead gates injected after its outputs: `dead`
/// extra gates over existing nodes that no output reaches.
inline mig::Mig random_mig_with_dead_gates(std::uint64_t seed,
                                           std::uint32_t dead = 12) {
  auto graph = random_mig(seed, 10, 150, 6);
  util::Xoshiro256 rng(seed ^ 0x5eedULL);
  for (std::uint32_t i = 0; i < dead; ++i) {
    const auto pick = [&] {
      const auto node =
          static_cast<std::uint32_t>(1 + rng.below(graph.num_nodes() - 1));
      return mig::Signal::from_node(node) ^ rng.chance(1, 3);
    };
    (void)graph.create_maj(pick(), pick(), pick());
  }
  return graph;
}

/// Seeds of the dead-gate graphs the golden pins cover.
inline constexpr std::uint64_t kDeadGateSeeds[] = {3, 17, 29, 41, 53, 67};

/// The mini suite, each graph as its generator builds it.
inline std::vector<mig::Mig> mini_suite_graphs() {
  std::vector<mig::Mig> graphs;
  for (const auto& spec : bench::mini_suite()) {
    graphs.push_back(spec.build());
  }
  return graphs;
}

/// One random_mig_with_dead_gates graph per kDeadGateSeeds entry.
inline std::vector<mig::Mig> dead_gate_graphs() {
  std::vector<mig::Mig> graphs;
  for (const auto seed : kDeadGateSeeds) {
    graphs.push_back(random_mig_with_dead_gates(seed));
  }
  return graphs;
}

}  // namespace rlim::test

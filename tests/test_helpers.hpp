#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "mig/mig.hpp"
#include "util/rng.hpp"

namespace rlim::test {

/// Deterministic random MIG for property tests: `gates` is a target (strash
/// and trivial simplification can make the result smaller).
inline mig::Mig random_mig(std::uint64_t seed, std::uint32_t num_pis,
                           std::uint32_t target_gates, std::uint32_t num_pos) {
  util::Xoshiro256 rng(seed);
  mig::Mig graph;
  std::vector<mig::Signal> pool;
  for (std::uint32_t i = 0; i < num_pis; ++i) {
    pool.push_back(graph.create_pi());
  }
  std::uint32_t attempts = 0;
  while (graph.num_gates() < target_gates && attempts < 8 * target_gates + 64) {
    ++attempts;
    auto pick = [&] {
      auto s = pool[rng.below(pool.size())];
      return s ^ rng.chance(2, 5);
    };
    auto a = pick();
    auto b = pick();
    auto c = rng.chance(1, 10) ? mig::Mig::get_constant(rng.chance(1, 2)) : pick();
    const auto out = graph.create_maj(a, b, c);
    if (!out.is_constant()) {
      pool.push_back(out);
    }
  }
  for (std::uint32_t i = 0; i < num_pos; ++i) {
    // Bias POs toward recently created (deep) signals.
    const auto idx = pool.size() - 1 - rng.below((pool.size() + 3) / 4);
    graph.create_po(pool[idx] ^ rng.chance(1, 4));
  }
  return graph;
}

/// An in-place pass's outcome on a copy of its input.
struct Applied {
  mig::Mig mig;
  std::size_t applications = 0;
};

/// Runs the in-place pass `fn` (`std::size_t fn(Mig&)`) on a copy of
/// `input`, leaving `input` as it was.
template <typename Fn>
Applied apply_pass(Fn fn, const mig::Mig& input) {
  Applied out{input};
  out.applications = fn(out.mig);
  return out;
}

}  // namespace rlim::test

#include "mig/simulate.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace rlim::mig {

namespace {

std::uint64_t word_of(const std::vector<std::uint64_t>& values, Signal s) {
  return values[s.index()] ^ (0ULL - static_cast<std::uint64_t>(s.is_complemented()));
}

void fill_nodes(const Mig& mig, std::span<const std::uint64_t> pi_values,
                std::vector<std::uint64_t>& values) {
  require(pi_values.size() == mig.num_pis(),
          "simulate_nodes: PI value count mismatch");
  values.resize(mig.num_nodes());
  values[0] = 0;
  std::copy(pi_values.begin(), pi_values.end(), values.begin() + 1);
  auto gate = mig.first_gate();
  for (const auto& fanin : mig.gate_fanins()) {
    const auto a = word_of(values, fanin[0]);
    const auto b = word_of(values, fanin[1]);
    const auto c = word_of(values, fanin[2]);
    values[gate++] = (a & b) | (a & c) | (b & c);
  }
}

}  // namespace

std::vector<std::uint64_t> simulate_nodes(const Mig& mig,
                                          std::span<const std::uint64_t> pi_values) {
  std::vector<std::uint64_t> values;
  fill_nodes(mig, pi_values, values);
  return values;
}

void simulate_into(const Mig& mig, std::span<const std::uint64_t> pi_values,
                   std::vector<std::uint64_t>& node_values,
                   std::vector<std::uint64_t>& po_values) {
  fill_nodes(mig, pi_values, node_values);
  const auto pos = mig.pos();
  po_values.resize(pos.size());
  for (std::size_t i = 0; i < pos.size(); ++i) {
    po_values[i] = word_of(node_values, pos[i]);
  }
}

std::vector<std::uint64_t> simulate(const Mig& mig,
                                    std::span<const std::uint64_t> pi_values) {
  std::vector<std::uint64_t> node_values;
  std::vector<std::uint64_t> po_values;
  simulate_into(mig, pi_values, node_values, po_values);
  return po_values;
}

std::uint64_t exhaustive_pattern(std::uint32_t pi, std::uint64_t chunk) {
  static constexpr std::uint64_t kMasks[6] = {
      0xaaaaaaaaaaaaaaaaULL, 0xccccccccccccccccULL, 0xf0f0f0f0f0f0f0f0ULL,
      0xff00ff00ff00ff00ULL, 0xffff0000ffff0000ULL, 0xffffffff00000000ULL};
  if (pi < 6) {
    return kMasks[pi];
  }
  return (chunk >> (pi - 6)) & 1 ? ~0ULL : 0ULL;
}

bool equivalent_random(const Mig& a, const Mig& b, unsigned rounds,
                       std::uint64_t seed) {
  if (a.num_pis() != b.num_pis() || a.num_pos() != b.num_pos()) {
    return false;
  }
  util::Xoshiro256 rng(seed);
  std::vector<std::uint64_t> pi_values(a.num_pis());
  for (unsigned round = 0; round < rounds; ++round) {
    for (auto& word : pi_values) {
      word = rng();
    }
    if (simulate(a, pi_values) != simulate(b, pi_values)) {
      return false;
    }
  }
  return true;
}

bool equivalent_exhaustive(const Mig& a, const Mig& b, std::uint32_t max_pis) {
  if (a.num_pis() != b.num_pis() || a.num_pos() != b.num_pos()) {
    return false;
  }
  require(a.num_pis() <= max_pis, "equivalent_exhaustive: too many PIs");
  const auto num_pis = a.num_pis();
  const std::uint64_t chunks = num_pis > 6 ? (1ULL << (num_pis - 6)) : 1;
  std::vector<std::uint64_t> pi_values(num_pis);
  for (std::uint64_t chunk = 0; chunk < chunks; ++chunk) {
    for (std::uint32_t pi = 0; pi < num_pis; ++pi) {
      pi_values[pi] = exhaustive_pattern(pi, chunk);
    }
    auto lhs = simulate(a, pi_values);
    auto rhs = simulate(b, pi_values);
    if (num_pis < 6) {
      // Only the first 2^num_pis rows are meaningful.
      const std::uint64_t mask = (1ULL << (1u << num_pis)) - 1;
      for (auto& word : lhs) word &= mask;
      for (auto& word : rhs) word &= mask;
    }
    if (lhs != rhs) {
      return false;
    }
  }
  return true;
}

std::uint64_t truth_table(const Mig& mig, std::uint32_t po) {
  require(mig.num_pis() <= 6, "truth_table: needs <= 6 PIs");
  require(po < mig.num_pos(), "truth_table: PO out of range");
  std::vector<std::uint64_t> pi_values(mig.num_pis());
  for (std::uint32_t pi = 0; pi < mig.num_pis(); ++pi) {
    pi_values[pi] = exhaustive_pattern(pi, 0);
  }
  auto result = simulate(mig, pi_values)[po];
  if (mig.num_pis() < 6) {
    result &= (1ULL << (1u << mig.num_pis())) - 1;
  }
  return result;
}

std::uint64_t simulation_signature(const Mig& mig, unsigned rounds,
                                   std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<std::uint64_t> pi_values(mig.num_pis());
  std::uint64_t signature = 0x6a09e667f3bcc908ULL;
  for (unsigned round = 0; round < rounds; ++round) {
    for (auto& word : pi_values) {
      word = rng();
    }
    for (const auto word : simulate(mig, pi_values)) {
      std::uint64_t state = signature ^ word;
      signature = util::splitmix64(state);
    }
  }
  return signature;
}

}  // namespace rlim::mig

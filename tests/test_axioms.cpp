#include <gtest/gtest.h>

#include <algorithm>

#include "mig/axioms.hpp"
#include "mig/mig.hpp"
#include "mig/simulate.hpp"
#include "golden.hpp"
#include "test_helpers.hpp"

namespace rlim::mig {
namespace {

// ---- targeted structural tests ----------------------------------------------

TEST(PassMajority, RemovesDeadAndMergesDuplicates) {
  Mig mig;
  const auto a = mig.create_pi();
  const auto b = mig.create_pi();
  const auto c = mig.create_pi();
  const auto g = mig.create_maj(a, b, c);
  mig.create_maj(!a, b, c);  // dead gate
  mig.create_po(g);
  const auto result = test::apply_pass(pass_majority, mig);
  EXPECT_EQ(result.mig.num_gates(), 1u);
  EXPECT_EQ(result.applications, 1u);
  EXPECT_TRUE(equivalent_exhaustive(mig, result.mig));
}

TEST(PassDistributivity, FusesSharedPairChildren) {
  // ⟨⟨xyu⟩⟨xyv⟩z⟩ → ⟨xy⟨uvz⟩⟩: 3 gates → 2 gates.
  Mig mig;
  const auto x = mig.create_pi();
  const auto y = mig.create_pi();
  const auto u = mig.create_pi();
  const auto v = mig.create_pi();
  const auto z = mig.create_pi();
  const auto g1 = mig.create_maj(x, y, u);
  const auto g2 = mig.create_maj(x, y, v);
  mig.create_po(mig.create_maj(g1, g2, z));
  const auto result = test::apply_pass(pass_distributivity_rl, mig);
  EXPECT_EQ(result.applications, 1u);
  EXPECT_EQ(result.mig.num_gates(), 2u);
  EXPECT_TRUE(equivalent_exhaustive(mig, result.mig));
}

TEST(PassDistributivity, FusesComplementedChildPair) {
  // ⟨¬⟨xyu⟩ ¬⟨xyv⟩ z⟩ — effective fanins share {x̄,ȳ}.
  Mig mig;
  const auto x = mig.create_pi();
  const auto y = mig.create_pi();
  const auto u = mig.create_pi();
  const auto v = mig.create_pi();
  const auto z = mig.create_pi();
  const auto g1 = mig.create_maj(x, y, u);
  const auto g2 = mig.create_maj(x, y, v);
  mig.create_po(mig.create_maj(!g1, !g2, z));
  const auto result = test::apply_pass(pass_distributivity_rl, mig);
  EXPECT_EQ(result.applications, 1u);
  EXPECT_EQ(result.mig.num_gates(), 2u);
  EXPECT_TRUE(equivalent_exhaustive(mig, result.mig));
}

TEST(PassDistributivity, SkipsMultiFanoutChildren) {
  Mig mig;
  const auto x = mig.create_pi();
  const auto y = mig.create_pi();
  const auto u = mig.create_pi();
  const auto v = mig.create_pi();
  const auto z = mig.create_pi();
  const auto g1 = mig.create_maj(x, y, u);
  const auto g2 = mig.create_maj(x, y, v);
  mig.create_po(mig.create_maj(g1, g2, z));
  mig.create_po(g1);  // g1 now has two fanouts — fusing would duplicate logic
  const auto result = test::apply_pass(pass_distributivity_rl, mig);
  EXPECT_EQ(result.applications, 0u);
  EXPECT_TRUE(equivalent_exhaustive(mig, result.mig));
}

TEST(PassDistributivity, SkipsMixedPolarityChildren) {
  Mig mig;
  const auto x = mig.create_pi();
  const auto y = mig.create_pi();
  const auto u = mig.create_pi();
  const auto v = mig.create_pi();
  const auto z = mig.create_pi();
  const auto g1 = mig.create_maj(x, y, u);
  const auto g2 = mig.create_maj(x, y, v);
  mig.create_po(mig.create_maj(g1, !g2, z));
  const auto result = test::apply_pass(pass_distributivity_rl, mig);
  EXPECT_EQ(result.applications, 0u);
  EXPECT_TRUE(equivalent_exhaustive(mig, result.mig));
}

TEST(PassAssociativity, SwapEnablesSimplification) {
  // ⟨x u ⟨x u z⟩⟩: swapping x↔z gives inner ⟨x u x⟩ = x, so one gate remains.
  Mig mig;
  const auto x = mig.create_pi();
  const auto u = mig.create_pi();
  const auto z = mig.create_pi();
  const auto inner = mig.create_maj(x, u, z);
  mig.create_po(mig.create_maj(x, u, inner));
  const auto result = test::apply_pass(pass_associativity, mig);
  EXPECT_GE(result.applications, 1u);
  EXPECT_EQ(result.mig.num_gates(), 1u);
  EXPECT_TRUE(equivalent_exhaustive(mig, result.mig));
}

TEST(PassAssociativity, NoSwapWithoutBenefit) {
  Mig mig;
  const auto x = mig.create_pi();
  const auto u = mig.create_pi();
  const auto y = mig.create_pi();
  const auto z = mig.create_pi();
  const auto inner = mig.create_maj(y, u, z);
  mig.create_po(mig.create_maj(x, u, inner));
  const auto result = test::apply_pass(pass_associativity, mig);
  EXPECT_EQ(result.applications, 0u);
  EXPECT_EQ(result.mig.num_gates(), 2u);
}

TEST(PassCompAssoc, ReplacesComplementOfOuterFanin) {
  // Ψ.C: ⟨x u ⟨y x̄ z⟩⟩ = ⟨x u ⟨y u z⟩⟩ — fires because the inner
  // complemented-edge count drops.
  Mig mig;
  const auto x = mig.create_pi();
  const auto u = mig.create_pi();
  const auto y = mig.create_pi();
  const auto z = mig.create_pi();
  const auto inner = mig.create_maj(y, !x, z);
  mig.create_po(mig.create_maj(x, u, inner));
  const auto result = test::apply_pass(pass_comp_assoc, mig);
  EXPECT_EQ(result.applications, 1u);
  EXPECT_TRUE(equivalent_exhaustive(mig, result.mig));
  // The rewritten inner gate has no complemented fanin.
  const auto& out = result.mig;
  for (std::uint32_t gate = out.first_gate(); gate < out.num_nodes(); ++gate) {
    EXPECT_LE(out.complement_count(gate), 0);
  }
}

TEST(PassCompAssoc, IdentityVerifiedExhaustively) {
  // Direct truth check of the corrected Ψ.C identity on all 16 assignments.
  Mig lhs;
  {
    const auto x = lhs.create_pi();
    const auto u = lhs.create_pi();
    const auto y = lhs.create_pi();
    const auto z = lhs.create_pi();
    lhs.create_po(lhs.create_maj(x, u, lhs.create_maj(y, !x, z)));
  }
  Mig rhs;
  {
    const auto x = rhs.create_pi();
    const auto u = rhs.create_pi();
    const auto y = rhs.create_pi();
    const auto z = rhs.create_pi();
    rhs.create_po(rhs.create_maj(x, u, rhs.create_maj(y, u, z)));
  }
  EXPECT_TRUE(equivalent_exhaustive(lhs, rhs));
}

TEST(PassInvReduce, NormalizesTwoAndThreeComplementGates) {
  Mig mig;
  const auto a = mig.create_pi();
  const auto b = mig.create_pi();
  const auto c = mig.create_pi();
  const auto two = mig.create_maj(!a, !b, c);
  const auto three = mig.create_maj(!a, !b, !c);
  mig.create_po(two);
  mig.create_po(three);
  const auto result = test::apply_pass(pass_inv_reduce, mig);
  EXPECT_EQ(result.applications, 2u);
  EXPECT_TRUE(equivalent_exhaustive(mig, result.mig));
  for (std::uint32_t gate = result.mig.first_gate(); gate < result.mig.num_nodes();
       ++gate) {
    EXPECT_LE(result.mig.complement_count(gate), 1);
  }
}

TEST(PassInvReduce, CascadesThroughParents) {
  // Flipping a child can push a parent to >= 2 complements; the pass handles
  // this within one sweep because parents see remapped fanins.
  Mig mig;
  const auto a = mig.create_pi();
  const auto b = mig.create_pi();
  const auto c = mig.create_pi();
  const auto d = mig.create_pi();
  const auto child = mig.create_maj(!a, !b, c);   // will flip
  const auto parent = mig.create_maj(child, !d, a);  // child flip adds a complement
  mig.create_po(parent);
  const auto result = test::apply_pass(pass_inv_reduce, mig);
  EXPECT_TRUE(equivalent_exhaustive(mig, result.mig));
  for (std::uint32_t gate = result.mig.first_gate(); gate < result.mig.num_nodes();
       ++gate) {
    EXPECT_LE(result.mig.complement_count(gate), 1);
  }
}

TEST(PassInvThree, OnlyFullyComplementedGatesFlip) {
  Mig mig;
  const auto a = mig.create_pi();
  const auto b = mig.create_pi();
  const auto c = mig.create_pi();
  const auto two = mig.create_maj(!a, !b, c);
  const auto three = mig.create_maj(!a, !b, !c);
  mig.create_po(two);
  mig.create_po(three);
  const auto result = test::apply_pass(pass_inv_three, mig);
  EXPECT_EQ(result.applications, 1u);
  EXPECT_TRUE(equivalent_exhaustive(mig, result.mig));
  bool saw_two_complement = false;
  for (std::uint32_t gate = result.mig.first_gate(); gate < result.mig.num_nodes();
       ++gate) {
    EXPECT_LE(result.mig.complement_count(gate), 2);
    saw_two_complement |= result.mig.complement_count(gate) == 2;
  }
  EXPECT_TRUE(saw_two_complement);  // the 2-complement gate is untouched
}

TEST(PassInvReduce, ConstantFaninsExcludedFromCount) {
  Mig mig;
  const auto a = mig.create_pi();
  const auto b = mig.create_pi();
  // ⟨1 ā b⟩ has one non-constant complement: already ideal, must not flip.
  const auto g = mig.create_maj(Mig::get_constant(true), !a, b);
  mig.create_po(g);
  const auto result = test::apply_pass(pass_inv_reduce, mig);
  EXPECT_EQ(result.applications, 0u);
  EXPECT_TRUE(equivalent_exhaustive(mig, result.mig));
}

// ---- property tests: every pass preserves the function ----------------------

using PassFn = std::size_t (*)(Mig&);

struct NamedPass {
  const char* name;
  PassFn fn;
};

class AxiomPreservation
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

const NamedPass kPasses[] = {
    {"majority", pass_majority},
    {"distributivity_rl", pass_distributivity_rl},
    {"associativity", pass_associativity},
    {"comp_assoc", pass_comp_assoc},
    {"inv_reduce", pass_inv_reduce},
    {"inv_three", pass_inv_three},
};

TEST_P(AxiomPreservation, RandomGraphsKeepTheirFunction) {
  const auto [pass_index, seed] = GetParam();
  const auto& pass = kPasses[pass_index];
  const auto mig = test::random_mig(seed, 10, 80, 5);
  const auto result = test::apply_pass(pass.fn, mig);
  EXPECT_TRUE(equivalent_random(mig, result.mig, 16, seed * 31 + 1))
      << "pass " << pass.name << " broke the function (seed " << seed << ")";
}

INSTANTIATE_TEST_SUITE_P(
    AllPassesManySeeds, AxiomPreservation,
    ::testing::Combine(::testing::Range(0, 6),
                       ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89)),
    [](const auto& info) {
      return std::string(kPasses[std::get<0>(info.param)].name) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

class AxiomPreservationDense
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AxiomPreservationDense, ChainedPassesKeepFunctionOnDenseGraphs) {
  const auto seed = GetParam();
  auto mig = test::random_mig(seed, 8, 200, 8);
  auto current = mig.cleanup();
  for (const auto& pass : kPasses) {
    pass.fn(current);
  }
  EXPECT_TRUE(equivalent_random(mig, current, 16, seed + 1000));
}

INSTANTIATE_TEST_SUITE_P(Seeds, AxiomPreservationDense,
                         ::testing::Values(101, 202, 303, 404, 505, 606, 707,
                                           808, 909, 1010));

TEST(PassInvariant, InvReduceLeavesAtMostOneComplementEverywhere) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const auto mig = test::random_mig(seed * 7, 9, 120, 6);
    const auto result = test::apply_pass(pass_inv_reduce, mig);
    for (std::uint32_t gate = result.mig.first_gate();
         gate < result.mig.num_nodes(); ++gate) {
      ASSERT_LE(result.mig.complement_count(gate), 1)
          << "seed " << seed << " gate " << gate;
    }
  }
}

TEST(PassInvariant, PassesNeverIncreaseGateCountExceptAssocFlavors) {
  // Ω.M, Ω.D(R→L), and the Ω.I flips never add gates.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const auto mig = test::random_mig(seed * 13, 9, 100, 6);
    const auto base = mig.cleanup().num_gates();
    EXPECT_LE(test::apply_pass(pass_majority, mig).mig.num_gates(), base);
    EXPECT_LE(test::apply_pass(pass_distributivity_rl, mig).mig.num_gates(), base);
    EXPECT_LE(test::apply_pass(pass_inv_reduce, mig).mig.num_gates(), base);
    EXPECT_LE(test::apply_pass(pass_inv_three, mig).mig.num_gates(), base);
  }
}

// ---- golden pins and the identity rule ---------------------------------------

struct PassGolden {
  const char* name;
  PassFn fn;
  std::uint64_t mini;  ///< over the mini suite as built
  std::uint64_t dead;  ///< over random graphs with dead gates
};

/// Each pass applied twice in a row (the second run sees the first one's
/// output, usually free of dead gates), folding fingerprint + firings of
/// both runs. Recorded before the passes learned to leave an idle graph
/// untouched.
const PassGolden kPassGoldens[] = {
    {"maj", pass_majority, 0x44c2a55bb29d5b33ULL, 0xf85c85de3a338546ULL},
    {"dist", pass_distributivity_rl, 0x25a389bc404920b4ULL, 0x52c0d1f2e6330224ULL},
    {"assoc", pass_associativity, 0xd67df966b39abfbcULL, 0xa95e3b375c3e7fdfULL},
    {"comp", pass_comp_assoc, 0x56ad476f8998558bULL, 0x25671bafa14d8654ULL},
    {"inv", pass_inv_reduce, 0xd443d01030f043fcULL, 0x40434e62171a50f1ULL},
    {"inv3", pass_inv_three, 0x2aa0313e17a96535ULL, 0x36377b72307a517cULL},
    {"relief", pass_level_balance, 0xab4b99d77128eb1fULL, 0x4d8f50c2a42dd36aULL},
};

std::uint64_t twice_digest(PassFn fn, const std::vector<Mig>& graphs) {
  util::Fnv1a64 hash;
  for (const auto& graph : graphs) {
    const auto first = test::apply_pass(fn, graph);
    hash.u64(first.mig.fingerprint()).u64(first.applications);
    const auto second = test::apply_pass(fn, first.mig);
    hash.u64(second.mig.fingerprint()).u64(second.applications);
  }
  return hash.digest();
}

TEST(PassGolden, DirectPassesArePinned) {
  const auto mini = test::mini_suite_graphs();
  const auto dead = test::dead_gate_graphs();
  for (const auto& golden : kPassGoldens) {
    EXPECT_EQ(twice_digest(golden.fn, mini), golden.mini) << golden.name;
    EXPECT_EQ(twice_digest(golden.fn, dead), golden.dead) << golden.name;
  }
}

/// Every observable section of the graph, compared exactly.
void expect_bit_identical(const Mig& a, const Mig& b, const char* pass) {
  EXPECT_TRUE(std::ranges::equal(a.gate_fanins(), b.gate_fanins())) << pass;
  EXPECT_TRUE(std::ranges::equal(a.pos(), b.pos())) << pass;
  EXPECT_EQ(a.num_pis(), b.num_pis()) << pass;
  EXPECT_EQ(a.pi_names().pool(), b.pi_names().pool()) << pass;
  EXPECT_TRUE(std::ranges::equal(a.pi_names().ends(), b.pi_names().ends())) << pass;
  EXPECT_EQ(a.po_names().pool(), b.po_names().pool()) << pass;
  EXPECT_TRUE(std::ranges::equal(a.po_names().ends(), b.po_names().ends())) << pass;
  EXPECT_TRUE(std::ranges::equal(a.levels(), b.levels())) << pass;
  EXPECT_TRUE(std::ranges::equal(a.fanout_counts(), b.fanout_counts())) << pass;
}

TEST(PassIdentity, IdlePassLeavesTheGraphBitIdentical) {
  // Drive each pass to its fixpoint on dead-gate-free graphs; the run that
  // fires nothing must hand back exactly its input.
  auto graphs = test::mini_suite_graphs();
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    graphs.push_back(test::random_mig(seed * 11, 10, 150, 6));
  }
  for (const auto& golden : kPassGoldens) {
    int idle_runs = 0;
    for (const auto& graph : graphs) {
      auto current = graph.cleanup();
      for (int round = 0; round < 8 && !current.has_dead_gates(); ++round) {
        auto next = test::apply_pass(golden.fn, current);
        if (next.applications == 0) {
          expect_bit_identical(next.mig, current, golden.name);
          ++idle_runs;
          break;
        }
        current = std::move(next.mig);
      }
    }
    EXPECT_GT(idle_runs, 0) << golden.name << " never went idle";
  }
}

TEST(PassIdentity, DeadGatesAreStillCleanedWhenNothingFires) {
  // The identity rule needs a dead-gate-free graph: an idle pass over a graph
  // with dead gates still rebuilds it, which is exactly Mig::cleanup().
  // (Their firing counts are pinned by PassGolden above.)
  int idle_runs = 0;
  for (const auto& graph : test::dead_gate_graphs()) {
    ASSERT_TRUE(graph.has_dead_gates());
    const auto cleaned = graph.cleanup();
    for (const auto& golden : kPassGoldens) {
      const auto result = test::apply_pass(golden.fn, graph);
      if (result.applications == 0) {
        expect_bit_identical(result.mig, cleaned, golden.name);
        ++idle_runs;
      }
    }
  }
  EXPECT_GT(idle_runs, 0);
}

TEST(PassMajority, EqualsCleanupOnGraphsWithDeadGates) {
  // create_maj applies Ω.M at construction, so the pass can only drop dead
  // gates: it is Mig::cleanup(), counting the gates removed.
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const auto graph = test::random_mig_with_dead_gates(seed * 101, 4 + seed);
    ASSERT_TRUE(graph.has_dead_gates());
    const auto cleaned = graph.cleanup();
    const auto result = test::apply_pass(pass_majority, graph);
    expect_bit_identical(result.mig, cleaned, "maj");
    EXPECT_EQ(result.applications, graph.num_gates() - cleaned.num_gates());
  }
}

}  // namespace
}  // namespace rlim::mig

#include <gtest/gtest.h>

#include <algorithm>

#include "mig/mig.hpp"
#include "mig/simulate.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"

namespace rlim::mig {
namespace {

TEST(Signal, ConstantsAndComplement) {
  const auto zero = Signal::constant(false);
  const auto one = Signal::constant(true);
  EXPECT_TRUE(zero.is_constant());
  EXPECT_TRUE(one.is_constant());
  EXPECT_FALSE(zero.constant_value());
  EXPECT_TRUE(one.constant_value());
  EXPECT_EQ(!zero, one);
  EXPECT_EQ(!!zero, zero);
  EXPECT_EQ(zero ^ true, one);
  EXPECT_EQ(zero ^ false, zero);
}

TEST(Signal, EncodingRoundTrip) {
  const auto s = Signal::from_node(17, true);
  EXPECT_EQ(s.index(), 17u);
  EXPECT_TRUE(s.is_complemented());
  EXPECT_EQ(s.raw(), 35u);
  EXPECT_EQ(Signal::from_raw(35).index(), 17u);
  EXPECT_EQ((!s).index(), 17u);
  EXPECT_FALSE((!s).is_complemented());
}

TEST(Mig, FreshGraphHasOnlyConstant) {
  const Mig mig;
  EXPECT_EQ(mig.num_nodes(), 1u);
  EXPECT_EQ(mig.num_pis(), 0u);
  EXPECT_EQ(mig.num_gates(), 0u);
  EXPECT_TRUE(mig.is_constant(0));
}

TEST(Mig, PiCreationAndNames) {
  Mig mig;
  const auto a = mig.create_pi("alpha");
  const auto b = mig.create_pi();
  EXPECT_EQ(mig.num_pis(), 2u);
  EXPECT_TRUE(mig.is_pi(a.index()));
  EXPECT_TRUE(mig.is_pi(b.index()));
  EXPECT_EQ(mig.pi_name(0), "alpha");
  EXPECT_EQ(mig.pi_name(1), "x1");
}

TEST(Mig, PiAfterGateThrows) {
  Mig mig;
  const auto a = mig.create_pi();
  const auto b = mig.create_pi();
  mig.create_and(a, b);
  EXPECT_THROW(mig.create_pi(), Error);
}

TEST(Mig, TrivialMajorityRules) {
  Mig mig;
  const auto x = mig.create_pi();
  const auto y = mig.create_pi();
  // ⟨xxy⟩ = x, ⟨xx̄y⟩ = y — all argument positions.
  EXPECT_EQ(mig.create_maj(x, x, y), x);
  EXPECT_EQ(mig.create_maj(x, y, x), x);
  EXPECT_EQ(mig.create_maj(y, x, x), x);
  EXPECT_EQ(mig.create_maj(x, !x, y), y);
  EXPECT_EQ(mig.create_maj(x, y, !x), y);
  EXPECT_EQ(mig.create_maj(y, x, !x), y);
  EXPECT_EQ(mig.num_gates(), 0u);
}

TEST(Mig, ConstantFoldingThroughTrivialRules) {
  Mig mig;
  const auto x = mig.create_pi();
  const auto zero = Mig::get_constant(false);
  const auto one = Mig::get_constant(true);
  EXPECT_EQ(mig.create_maj(zero, one, x), x);   // ⟨01x⟩ = x
  EXPECT_EQ(mig.create_maj(zero, zero, x), zero);
  EXPECT_EQ(mig.create_maj(one, one, x), one);
  EXPECT_EQ(mig.num_gates(), 0u);
}

TEST(Mig, StrashingMergesCommutativeVariants) {
  Mig mig;
  const auto a = mig.create_pi();
  const auto b = mig.create_pi();
  const auto c = mig.create_pi();
  const auto g1 = mig.create_maj(a, b, c);
  const auto g2 = mig.create_maj(c, a, b);
  const auto g3 = mig.create_maj(b, c, a);
  EXPECT_EQ(g1, g2);
  EXPECT_EQ(g2, g3);
  EXPECT_EQ(mig.num_gates(), 1u);
}

TEST(Mig, ComplementVariantsAreDistinctNodes) {
  // No complement canonicalization: ⟨abc⟩ and ⟨āb̄c⟩ must coexist.
  Mig mig;
  const auto a = mig.create_pi();
  const auto b = mig.create_pi();
  const auto c = mig.create_pi();
  const auto plain = mig.create_maj(a, b, c);
  const auto flipped = mig.create_maj(!a, !b, c);
  EXPECT_NE(plain.index(), flipped.index());
  EXPECT_EQ(mig.num_gates(), 2u);
}

TEST(Mig, FindMajLooksUpWithoutCreating) {
  Mig mig;
  const auto a = mig.create_pi();
  const auto b = mig.create_pi();
  const auto c = mig.create_pi();
  EXPECT_FALSE(mig.find_maj(a, b, c).has_value());
  const auto g = mig.create_maj(a, b, c);
  ASSERT_TRUE(mig.find_maj(c, b, a).has_value());
  EXPECT_EQ(*mig.find_maj(c, b, a), g);
  // Trivial lookups resolve without a node.
  EXPECT_EQ(*mig.find_maj(a, a, b), a);
  EXPECT_EQ(mig.num_gates(), 1u);
}

TEST(Mig, XorTruthTable) {
  Mig mig;
  const auto a = mig.create_pi();
  const auto b = mig.create_pi();
  mig.create_po(mig.create_xor(a, b));
  EXPECT_EQ(truth_table(mig, 0), 0b0110u);
}

TEST(Mig, MuxTruthTable) {
  Mig mig;
  const auto s = mig.create_pi();
  const auto t = mig.create_pi();
  const auto e = mig.create_pi();
  mig.create_po(mig.create_mux(s, t, e));
  // Rows ordered s,t,e (s is bit 0): out = s ? t : e.
  std::uint64_t expected = 0;
  for (unsigned row = 0; row < 8; ++row) {
    const bool sv = row & 1;
    const bool tv = row & 2;
    const bool ev = row & 4;
    if (sv ? tv : ev) {
      expected |= 1u << row;
    }
  }
  EXPECT_EQ(truth_table(mig, 0), expected);
}

TEST(Mig, AndOrTruthTables) {
  Mig mig;
  const auto a = mig.create_pi();
  const auto b = mig.create_pi();
  mig.create_po(mig.create_and(a, b));
  mig.create_po(mig.create_or(a, b));
  EXPECT_EQ(truth_table(mig, 0), 0b1000u);
  EXPECT_EQ(truth_table(mig, 1), 0b1110u);
}

TEST(Mig, FanoutCountsIncludePoReferences) {
  Mig mig;
  const auto a = mig.create_pi();
  const auto b = mig.create_pi();
  const auto c = mig.create_pi();
  const auto g = mig.create_maj(a, b, c);
  const auto h = mig.create_maj(g, a, b);
  mig.create_po(g);
  mig.create_po(h);
  const auto counts = mig.fanout_counts();
  EXPECT_EQ(counts[g.index()], 2u);  // fanin of h + PO
  EXPECT_EQ(counts[h.index()], 1u);  // PO only
  EXPECT_EQ(counts[a.index()], 2u);  // g and h
}

TEST(Mig, FanoutListsContainParents) {
  Mig mig;
  const auto a = mig.create_pi();
  const auto b = mig.create_pi();
  const auto c = mig.create_pi();
  const auto g = mig.create_maj(a, b, c);
  const auto h = mig.create_maj(g, !a, b);
  const auto lists = mig.fanout_lists();
  ASSERT_EQ(lists[g.index()].size(), 1u);
  EXPECT_EQ(lists[g.index()][0], h.index());
  EXPECT_EQ(lists[a.index()].size(), 2u);
}

TEST(Mig, HasDeadGatesMatchesReachability) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const auto graph = test::random_mig(seed, 8, 60, 1 + seed % 4);
    const auto reachable = graph.reachable_from_pos();
    const bool any_dead =
        std::find(reachable.begin() + graph.first_gate(), reachable.end(),
                  false) != reachable.end();
    EXPECT_EQ(graph.has_dead_gates(), any_dead) << "seed " << seed;
    EXPECT_FALSE(graph.cleanup().has_dead_gates()) << "seed " << seed;
  }
}

TEST(Mig, LevelsAndDepth) {
  Mig mig;
  const auto a = mig.create_pi();
  const auto b = mig.create_pi();
  const auto c = mig.create_pi();
  const auto g1 = mig.create_maj(a, b, c);
  const auto g2 = mig.create_maj(g1, a, b);
  const auto g3 = mig.create_maj(g2, g1, c);
  mig.create_po(g3);
  const auto level = mig.levels();
  EXPECT_EQ(level[a.index()], 0u);
  EXPECT_EQ(level[g1.index()], 1u);
  EXPECT_EQ(level[g2.index()], 2u);
  EXPECT_EQ(level[g3.index()], 3u);
  EXPECT_EQ(mig.depth(), 3u);
}

TEST(Mig, ComplementCountIgnoresConstants) {
  Mig mig;
  const auto a = mig.create_pi();
  const auto b = mig.create_pi();
  const auto g = mig.create_maj(Mig::get_constant(true), !a, b);
  EXPECT_EQ(mig.complement_count(g.index()), 1);
  const auto h = mig.create_maj(!a, !b, g);
  EXPECT_EQ(mig.complement_count(h.index()), 2);
  EXPECT_EQ(mig.complement_edge_count(), 3u);
}

TEST(Mig, CleanupRemovesDeadGates) {
  Mig mig;
  const auto a = mig.create_pi();
  const auto b = mig.create_pi();
  const auto c = mig.create_pi();
  const auto used = mig.create_maj(a, b, c);
  mig.create_maj(a, !b, c);  // dead
  mig.create_maj(!a, b, !c);  // dead
  mig.create_po(used);
  EXPECT_EQ(mig.num_gates(), 3u);
  const auto cleaned = mig.cleanup();
  EXPECT_EQ(cleaned.num_gates(), 1u);
  EXPECT_EQ(cleaned.num_pis(), 3u);
  EXPECT_EQ(cleaned.num_pos(), 1u);
  EXPECT_TRUE(equivalent_exhaustive(mig, cleaned));
}

TEST(Mig, CleanupPreservesNames) {
  Mig mig;
  const auto a = mig.create_pi("in_a");
  const auto b = mig.create_pi("in_b");
  mig.create_po(mig.create_and(a, b), "out");
  const auto cleaned = mig.cleanup();
  EXPECT_EQ(cleaned.pi_name(0), "in_a");
  EXPECT_EQ(cleaned.pi_name(1), "in_b");
  EXPECT_EQ(cleaned.po_name(0), "out");
}

TEST(Mig, CleanupPreservesComplementedAndConstantPos) {
  Mig mig;
  const auto a = mig.create_pi();
  const auto b = mig.create_pi();
  mig.create_po(!mig.create_and(a, b));
  mig.create_po(Mig::get_constant(true));
  mig.create_po(a);
  const auto cleaned = mig.cleanup();
  EXPECT_TRUE(equivalent_exhaustive(mig, cleaned));
}

TEST(Mig, ReachabilityMarksConeOnly) {
  Mig mig;
  const auto a = mig.create_pi();
  const auto b = mig.create_pi();
  const auto c = mig.create_pi();
  const auto used = mig.create_and(a, b);
  const auto dead = mig.create_or(b, c);
  mig.create_po(used);
  const auto reachable = mig.reachable_from_pos();
  EXPECT_TRUE(reachable[used.index()]);
  EXPECT_FALSE(reachable[dead.index()]);
  EXPECT_TRUE(reachable[a.index()]);
}

TEST(Mig, FaninsOfNonGateThrows) {
  Mig mig;
  const auto a = mig.create_pi();
  EXPECT_THROW(static_cast<void>(mig.fanins(a.index())), Error);
  EXPECT_THROW(static_cast<void>(mig.fanins(0)), Error);
}

TEST(Mig, CreateMajRejectsUnknownNodes) {
  Mig mig;
  const auto a = mig.create_pi();
  const auto bogus = Signal::from_node(99);
  EXPECT_THROW(mig.create_maj(a, bogus, a), Error);
  EXPECT_THROW(mig.create_po(bogus), Error);
}

TEST(Mig, FingerprintIsStableAndNameBlind) {
  const auto build = [](const char* pi_name) {
    Mig mig;
    const auto a = mig.create_pi(pi_name);
    const auto b = mig.create_pi();
    const auto c = mig.create_pi();
    mig.create_po(mig.create_maj(a, !b, c), "out");
    return mig;
  };
  // Same structure hashes equal, independent of names and across instances.
  EXPECT_EQ(build("x").fingerprint(), build("y").fingerprint());
  const auto graph = build("x");
  EXPECT_EQ(graph.fingerprint(), graph.fingerprint());
}

TEST(Mig, FingerprintSeparatesStructures) {
  Mig mig;
  const auto a = mig.create_pi();
  const auto b = mig.create_pi();
  const auto and_ = mig.create_and(a, b);
  Mig other;
  const auto c = other.create_pi();
  const auto d = other.create_pi();
  const auto or_ = other.create_or(c, d);
  mig.create_po(and_);
  other.create_po(or_);
  EXPECT_NE(mig.fingerprint(), other.fingerprint());

  // Complement placement is part of the identity (it drives RM3 cost).
  Mig inverted;
  const auto e = inverted.create_pi();
  const auto f = inverted.create_pi();
  inverted.create_po(!inverted.create_and(e, f));
  EXPECT_NE(mig.fingerprint(), inverted.fingerprint());
}

// ---- degenerate graphs -----------------------------------------------------

TEST(MigDegenerate, EmptyGraphStructuralQueries) {
  Mig mig;
  EXPECT_EQ(mig.num_nodes(), 1u);
  EXPECT_EQ(mig.num_pis(), 0u);
  EXPECT_EQ(mig.num_gates(), 0u);
  EXPECT_EQ(mig.num_pos(), 0u);
  EXPECT_EQ(mig.depth(), 0u);
  EXPECT_EQ(mig.complement_edge_count(), 0u);
  const auto levels = mig.levels();
  ASSERT_EQ(levels.size(), 1u);
  EXPECT_EQ(levels[0], 0u);
  const auto fanouts = mig.fanout_counts();
  ASSERT_EQ(fanouts.size(), 1u);
  EXPECT_EQ(fanouts[0], 0u);
  EXPECT_TRUE(mig.gate_fanins().empty());
  EXPECT_EQ(mig.reachable_from_pos().size(), 1u);
  EXPECT_EQ(mig.fingerprint(), Mig().fingerprint());
}

TEST(MigDegenerate, PiOnlyGraph) {
  Mig mig;
  const auto a = mig.create_pi("a");
  const auto b = mig.create_pi("b");
  mig.create_po(a, "pass");
  mig.create_po(!b);
  EXPECT_EQ(mig.num_gates(), 0u);
  EXPECT_EQ(mig.depth(), 0u);
  // Inverter accounting covers gate fanins only; the complemented PO edge is
  // not a memory write in the RM3 model.
  EXPECT_EQ(mig.complement_edge_count(), 0u);
  const auto fanouts = mig.fanout_counts();
  EXPECT_EQ(fanouts[a.index()], 1u);
  EXPECT_EQ(fanouts[b.index()], 1u);
  const auto reachable = mig.reachable_from_pos();
  EXPECT_TRUE(reachable[a.index()]);
  EXPECT_TRUE(reachable[b.index()]);
  // Cleanup on a gate-free graph is the identity (names included).
  const auto cleaned = mig.cleanup();
  EXPECT_EQ(cleaned.fingerprint(), mig.fingerprint());
  EXPECT_EQ(cleaned.num_pis(), 2u);
  EXPECT_EQ(cleaned.pi_name(0), "a");
  EXPECT_EQ(cleaned.po_name(0), "pass");
}

TEST(MigDegenerate, ConstantOnlyPo) {
  Mig mig;
  mig.create_po(Mig::get_constant(true), "one");
  mig.create_po(Mig::get_constant(false));
  EXPECT_EQ(mig.num_nodes(), 1u);
  EXPECT_EQ(mig.num_pos(), 2u);
  EXPECT_EQ(mig.depth(), 0u);
  // Constant-1 is node 0 complemented; constant edges are excluded from the
  // inverter count just like complement_count ignores constant fanins.
  EXPECT_EQ(mig.complement_edge_count(), 0u);
  const auto fanouts = mig.fanout_counts();
  EXPECT_EQ(fanouts[0], 2u);
  EXPECT_TRUE(mig.reachable_from_pos()[0]);
  const auto cleaned = mig.cleanup();
  EXPECT_EQ(cleaned.num_pos(), 2u);
  EXPECT_TRUE(simulate(cleaned, {})[0]);
  EXPECT_FALSE(simulate(cleaned, {})[1]);
}

// ---- adopt_raw validation --------------------------------------------------

namespace {

/// Extracts the raw sections of a graph, the same way the store's decoder
/// produces them.
Mig::RawGraph raw_of(const Mig& mig) {
  Mig::RawGraph raw;
  raw.num_pis = mig.num_pis();
  raw.fanins.assign(mig.gate_fanins().begin(), mig.gate_fanins().end());
  raw.pos.assign(mig.pos().begin(), mig.pos().end());
  raw.pi_names = mig.pi_names();
  raw.po_names = mig.po_names();
  return raw;
}

Mig small_graph() {
  Mig mig;
  const auto a = mig.create_pi("a");
  const auto b = mig.create_pi("b");
  const auto c = mig.create_pi("c");
  const auto g = mig.create_maj(a, !b, c);
  mig.create_po(mig.create_maj(a, g, !c), "out");
  return mig;
}

}  // namespace

TEST(MigAdoptRaw, RoundTripsStructureNamesAndMetadata) {
  const auto original = small_graph();
  auto adopted = Mig::adopt_raw(raw_of(original));
  EXPECT_EQ(adopted.fingerprint(), original.fingerprint());
  EXPECT_TRUE(std::ranges::equal(adopted.levels(), original.levels()));
  EXPECT_TRUE(
      std::ranges::equal(adopted.fanout_counts(), original.fanout_counts()));
  EXPECT_EQ(adopted.complement_edge_count(), original.complement_edge_count());
  EXPECT_EQ(adopted.pi_name(0), "a");
  EXPECT_EQ(adopted.po_name(0), "out");
  // The strash table is rebuilt: an adopted gate is found, not duplicated.
  const auto a = Signal::from_node(1);
  const auto b = Signal::from_node(2);
  const auto c = Signal::from_node(3);
  EXPECT_TRUE(adopted.find_maj(a, !b, c).has_value());
  const auto before = adopted.num_gates();
  static_cast<void>(adopted.create_maj(a, !b, c));
  EXPECT_EQ(adopted.num_gates(), before);
}

TEST(MigAdoptRaw, RejectsUnsortedOrTrivialFanins) {
  // Unsorted fanin order violates the Ω.C canonical form.
  auto raw = raw_of(small_graph());
  std::swap(raw.fanins[0][0], raw.fanins[0][1]);
  EXPECT_THROW(static_cast<void>(Mig::adopt_raw(std::move(raw))), Error);
  // A repeated fanin index is a trivial Ω.M gate that create_maj would have
  // folded away.
  raw = raw_of(small_graph());
  raw.fanins[0][1] = raw.fanins[0][0];
  EXPECT_THROW(static_cast<void>(Mig::adopt_raw(std::move(raw))), Error);
}

TEST(MigAdoptRaw, RejectsForwardAndOutOfRangeReferences) {
  auto raw = raw_of(small_graph());
  // A gate referencing itself (or any later node) breaks topological order.
  raw.fanins[0][2] = Signal::from_node(4);
  EXPECT_THROW(static_cast<void>(Mig::adopt_raw(std::move(raw))), Error);
  raw = raw_of(small_graph());
  raw.pos[0] = Signal::from_node(99);
  EXPECT_THROW(static_cast<void>(Mig::adopt_raw(std::move(raw))), Error);
}

TEST(MigAdoptRaw, RejectsDuplicateGates) {
  auto raw = raw_of(small_graph());
  ASSERT_GE(raw.fanins.size(), 2u);
  raw.fanins[1] = raw.fanins[0];
  EXPECT_THROW(static_cast<void>(Mig::adopt_raw(std::move(raw))), Error);
}

TEST(MigAdoptRaw, RejectsNameCountMismatch) {
  auto raw = raw_of(small_graph());
  raw.pi_names = NamePool();
  raw.pi_names.append("only-one");
  EXPECT_THROW(static_cast<void>(Mig::adopt_raw(std::move(raw))), Error);
}

}  // namespace
}  // namespace rlim::mig

#include <gtest/gtest.h>

#include <vector>

#include "mig/mig.hpp"
#include "mig/simulate.hpp"
#include "plim/compiler.hpp"
#include "plim/controller.hpp"
#include "golden.hpp"
#include "test_helpers.hpp"

namespace rlim::plim {
namespace {

using mig::Mig;
using mig::Signal;

// ---- translation cost model --------------------------------------------------

TEST(Translation, IdealGateIsOneInstruction) {
  // ⟨a b̄ c⟩: B←b free, A←a free, Z←c in place (last use) — paper's ideal.
  Mig graph;
  const auto a = graph.create_pi();
  const auto b = graph.create_pi();
  const auto c = graph.create_pi();
  graph.create_po(graph.create_maj(a, !b, c));
  const auto result = PlimCompiler(CompilerOptions{}).compile(graph);
  EXPECT_EQ(result.num_instructions(), 1u);
  EXPECT_EQ(result.num_cells, 3u);  // only the PI cells
  EXPECT_EQ(result.gate_instructions, 1u);
  EXPECT_EQ(result.overhead_instructions, 0u);
  EXPECT_TRUE(program_matches_mig(result.program, graph, 8, 1));
}

TEST(Translation, AndOrAreSingleInstructions) {
  // ⟨0ab⟩ and ⟨1ab⟩: the constant serves as B for free.
  Mig graph;
  const auto a = graph.create_pi();
  const auto b = graph.create_pi();
  graph.create_po(graph.create_and(a, b));
  const auto and_result = PlimCompiler(CompilerOptions{}).compile(graph);
  EXPECT_EQ(and_result.num_instructions(), 1u);
  EXPECT_TRUE(program_matches_mig(and_result.program, graph, 8, 2));

  Mig graph2;
  const auto a2 = graph2.create_pi();
  const auto b2 = graph2.create_pi();
  graph2.create_po(graph2.create_or(a2, b2));
  const auto or_result = PlimCompiler(CompilerOptions{}).compile(graph2);
  EXPECT_EQ(or_result.num_instructions(), 1u);
  EXPECT_TRUE(program_matches_mig(or_result.program, graph2, 8, 3));
}

TEST(Translation, ZeroComplementGateCostsTwoExtra) {
  // ⟨abc⟩ (no complement, no constant): B needs a complement copy.
  Mig graph;
  const auto a = graph.create_pi();
  const auto b = graph.create_pi();
  const auto c = graph.create_pi();
  graph.create_po(graph.create_maj(a, b, c));
  const auto result = PlimCompiler(CompilerOptions{}).compile(graph);
  EXPECT_EQ(result.num_instructions(), 3u);  // 2 (complement copy) + 1
  EXPECT_EQ(result.num_cells, 4u);           // 3 PI + 1 temp
  EXPECT_EQ(result.overhead_instructions, 2u);
  EXPECT_TRUE(program_matches_mig(result.program, graph, 8, 4));
}

TEST(Translation, TwoComplementGateCostsTwoExtra) {
  // ⟨ā b̄ c⟩: one complement rides B; the other needs a complement copy.
  Mig graph;
  const auto a = graph.create_pi();
  const auto b = graph.create_pi();
  const auto c = graph.create_pi();
  graph.create_po(graph.create_maj(!a, !b, c));
  const auto result = PlimCompiler(CompilerOptions{}).compile(graph);
  EXPECT_EQ(result.num_instructions(), 3u);
  EXPECT_TRUE(program_matches_mig(result.program, graph, 8, 5));
}

TEST(Translation, MultiFanoutDestinationForcesCopy) {
  // Fig. 1 situation: both feasible destinations still have other uses.
  Mig graph;
  const auto a = graph.create_pi();
  const auto b = graph.create_pi();
  const auto c = graph.create_pi();
  const auto g = graph.create_maj(a, !b, c);
  graph.create_po(g);
  graph.create_po(a);  // `a` has another fanout
  graph.create_po(c);  // `c` too: no free in-place destination
  const auto result = PlimCompiler(CompilerOptions{}).compile(graph);
  // 2 (copy one operand) + 1 (RM3) instructions, one extra cell.
  EXPECT_EQ(result.num_instructions(), 3u);
  EXPECT_EQ(result.num_cells, 4u);
  EXPECT_TRUE(program_matches_mig(result.program, graph, 8, 6));
}

TEST(Translation, ComplementedPoMaterialized) {
  Mig graph;
  const auto a = graph.create_pi();
  const auto b = graph.create_pi();
  const auto c = graph.create_pi();
  const auto g = graph.create_maj(a, !b, c);
  graph.create_po(!g);
  const auto result = PlimCompiler(CompilerOptions{}).compile(graph);
  EXPECT_EQ(result.num_instructions(), 3u);  // gate + 2 inversion
  EXPECT_TRUE(program_matches_mig(result.program, graph, 8, 7));
}

TEST(Translation, SharedComplementedPoMaterializedOnce) {
  Mig graph;
  const auto a = graph.create_pi();
  const auto b = graph.create_pi();
  const auto c = graph.create_pi();
  const auto g = graph.create_maj(a, !b, c);
  graph.create_po(!g, "p");
  graph.create_po(!g, "q");
  const auto result = PlimCompiler(CompilerOptions{}).compile(graph);
  EXPECT_EQ(result.num_instructions(), 3u);  // inversion shared by both POs
  EXPECT_EQ(result.program.po_cells()[0], result.program.po_cells()[1]);
}

TEST(Translation, ConstantAndPassthroughPos) {
  Mig graph;
  const auto a = graph.create_pi();
  graph.create_pi();
  graph.create_po(Mig::get_constant(true), "one");
  graph.create_po(a, "pass");
  const auto result = PlimCompiler(CompilerOptions{}).compile(graph);
  EXPECT_EQ(result.num_instructions(), 1u);  // one constant write
  EXPECT_EQ(result.program.po_cells()[1], result.program.pi_cells()[0]);
  EXPECT_TRUE(program_matches_mig(result.program, graph, 4, 8));
}

TEST(Translation, TwoComplementsWithConstantFanin) {
  // ⟨0 ā b̄⟩ (NOR): B absorbs one complement for free, the constant rides A,
  // and the second complement needs a 2-instruction complement copy as Z —
  // 3 instructions total, one temp cell.
  Mig graph;
  const auto a = graph.create_pi();
  const auto b = graph.create_pi();
  graph.create_po(graph.create_and(!a, !b));
  const auto result = PlimCompiler(CompilerOptions{}).compile(graph);
  EXPECT_EQ(result.num_instructions(), 3u);
  EXPECT_EQ(result.num_cells, 3u);  // 2 PIs + 1 temp
  EXPECT_TRUE(program_matches_mig(result.program, graph, 8, 9));
}

TEST(Translation, OrWithLiveOperandsCostsTwoExtra) {
  // ⟨1 a b⟩ (OR) where both a and b have other fanouts: in-place is
  // impossible — the constant rides B, one operand is A, the other is copied
  // into a fresh destination (2 extra instructions, 1 extra cell).
  Mig graph;
  const auto a = graph.create_pi();
  const auto b = graph.create_pi();
  graph.create_po(graph.create_or(a, b));
  graph.create_po(a);
  graph.create_po(b);
  const auto result = PlimCompiler(CompilerOptions{}).compile(graph);
  EXPECT_EQ(result.num_instructions(), 3u);
  EXPECT_EQ(result.num_cells, 3u);  // 2 PIs + 1 fresh destination
  EXPECT_TRUE(program_matches_mig(result.program, graph, 8, 10));
}

// ---- write accounting ---------------------------------------------------------

TEST(Compiler, StaticWriteCountsMatchAllocatorStats) {
  const auto graph = test::random_mig(77, 10, 120, 6);
  for (const auto policy : {AllocPolicy::Lifo, AllocPolicy::MinWrite}) {
    const auto result = PlimCompiler({SelectionPolicy::Plim21, policy, {}}).compile(graph);
    const auto program_stats =
        util::compute_stats(result.program.static_write_counts());
    EXPECT_EQ(program_stats.count, result.write_stats.count);
    EXPECT_EQ(program_stats.min, result.write_stats.min);
    EXPECT_EQ(program_stats.max, result.write_stats.max);
    EXPECT_DOUBLE_EQ(program_stats.stdev, result.write_stats.stdev);
    EXPECT_EQ(program_stats.total, result.num_instructions());
  }
}

TEST(Compiler, InstructionBreakdownSumsToTotal) {
  const auto graph = test::random_mig(31, 9, 90, 5);
  const auto result = PlimCompiler(CompilerOptions{}).compile(graph);
  EXPECT_EQ(result.gate_instructions + result.overhead_instructions,
            result.num_instructions());
}

TEST(Compiler, PiBindingsAreComplete) {
  const auto graph = test::random_mig(5, 12, 40, 4);
  const auto result = PlimCompiler(CompilerOptions{}).compile(graph);
  EXPECT_EQ(result.program.pi_cells().size(), graph.num_pis());
  EXPECT_EQ(result.program.po_cells().size(), graph.num_pos());
}

// ---- functional correctness across all option combinations --------------------

class CompilerCorrectness
    : public ::testing::TestWithParam<
          std::tuple<SelectionPolicy, AllocPolicy, std::uint64_t>> {};

TEST_P(CompilerCorrectness, ProgramComputesTheMigFunction) {
  const auto [selection, allocation, seed] = GetParam();
  const auto graph = test::random_mig(seed, 11, 140, 7);
  const auto result =
      PlimCompiler({selection, allocation, {}}).compile(graph);
  EXPECT_TRUE(program_matches_mig(result.program, graph, 12, seed * 3 + 1))
      << to_string(selection) << " / " << to_string(allocation);
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, CompilerCorrectness,
    ::testing::Combine(::testing::Values(SelectionPolicy::NaiveOrder,
                                         SelectionPolicy::Plim21,
                                         SelectionPolicy::EnduranceAware),
                       ::testing::Values(AllocPolicy::Lifo, AllocPolicy::Fifo,
                                         AllocPolicy::RoundRobin,
                                         AllocPolicy::MinWrite),
                       ::testing::Values(17, 99, 1234)),
    [](const auto& info) {
      auto name = to_string(std::get<0>(info.param)) + "_" +
                  to_string(std::get<1>(info.param)) + "_" +
                  std::to_string(std::get<2>(info.param));
      for (auto& ch : name) {
        if (ch == '-') {
          ch = '_';
        }
      }
      return name;
    });

// ---- maximum write count strategy ---------------------------------------------

class MaxWriteCap : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MaxWriteCap, CapIsNeverExceededAndFunctionHolds) {
  const auto cap = GetParam();
  const auto graph = test::random_mig(321, 10, 150, 6);
  CompilerOptions options{SelectionPolicy::EnduranceAware, AllocPolicy::MinWrite,
                          cap};
  const auto result = PlimCompiler(options).compile(graph);
  EXPECT_LE(result.write_stats.max, cap);
  EXPECT_TRUE(program_matches_mig(result.program, graph, 12, cap));
}

INSTANTIATE_TEST_SUITE_P(Caps, MaxWriteCap, ::testing::Values(3, 5, 10, 20, 50));

TEST(MaxWrite, TighterCapCostsMoreCells) {
  const auto graph = test::random_mig(555, 10, 200, 8);
  const auto uncapped =
      PlimCompiler({SelectionPolicy::Plim21, AllocPolicy::MinWrite, {}})
          .compile(graph);
  const auto capped =
      PlimCompiler({SelectionPolicy::Plim21, AllocPolicy::MinWrite, 4})
          .compile(graph);
  EXPECT_GE(capped.num_cells, uncapped.num_cells);
  EXPECT_GE(capped.num_instructions(), uncapped.num_instructions());
  EXPECT_LE(capped.write_stats.max, 4u);
}

TEST(MaxWrite, QuarantinedCellsReported) {
  const auto graph = test::random_mig(777, 8, 150, 6);
  const auto result =
      PlimCompiler({SelectionPolicy::Plim21, AllocPolicy::Lifo, 3}).compile(graph);
  // With the tightest legal cap some cell must saturate on a graph this size.
  EXPECT_GT(result.quarantined_cells, 0u);
}

// ---- endurance strategies actually help (in aggregate) -------------------------

TEST(Endurance, MinWriteLowersStdevOnAverage) {
  double lifo_total = 0.0;
  double min_write_total = 0.0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const auto graph = test::random_mig(seed * 37, 10, 180, 8);
    lifo_total += PlimCompiler({SelectionPolicy::Plim21, AllocPolicy::Lifo, {}})
                      .compile(graph)
                      .write_stats.stdev;
    min_write_total +=
        PlimCompiler({SelectionPolicy::Plim21, AllocPolicy::MinWrite, {}})
            .compile(graph)
            .write_stats.stdev;
  }
  EXPECT_LT(min_write_total, lifo_total);
}

TEST(Endurance, MinWriteDoesNotChangeCosts) {
  // Paper: "the minimum write count strategy does not influence the number of
  // required instructions and RRAMs."
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const auto graph = test::random_mig(seed * 11, 9, 120, 6);
    const auto lifo =
        PlimCompiler({SelectionPolicy::Plim21, AllocPolicy::Lifo, {}}).compile(graph);
    const auto min_write =
        PlimCompiler({SelectionPolicy::Plim21, AllocPolicy::MinWrite, {}})
            .compile(graph);
    EXPECT_EQ(lifo.num_instructions(), min_write.num_instructions());
    EXPECT_EQ(lifo.num_cells, min_write.num_cells);
  }
}

TEST(Compiler, DeadGatesAreNotCompiled) {
  Mig graph;
  const auto a = graph.create_pi();
  const auto b = graph.create_pi();
  const auto c = graph.create_pi();
  const auto used = graph.create_maj(a, !b, c);
  graph.create_maj(!a, b, c);  // dead
  graph.create_po(used);
  const auto result = PlimCompiler(CompilerOptions{}).compile(graph);
  EXPECT_EQ(result.gate_instructions, 1u);
}

TEST(Compiler, UnusedPiCellsAreReusable) {
  // An unused PI's cell joins the free set; with LIFO it is the first reuse
  // target, so #R does not grow for the temp.
  Mig graph;
  const auto a = graph.create_pi();
  const auto b = graph.create_pi();
  const auto c = graph.create_pi();
  graph.create_pi();  // unused
  graph.create_po(graph.create_maj(a, b, c));  // needs one temp (0 complements)
  const auto result =
      PlimCompiler({SelectionPolicy::Plim21, AllocPolicy::Lifo, {}}).compile(graph);
  EXPECT_EQ(result.num_cells, 4u);  // temp reused the dead PI cell
  EXPECT_TRUE(program_matches_mig(result.program, graph, 8, 11));
}

TEST(Compiler, SelectionPolicyNames) {
  EXPECT_EQ(to_string(SelectionPolicy::NaiveOrder), "naive-order");
  EXPECT_EQ(to_string(SelectionPolicy::Plim21), "plim21");
  EXPECT_EQ(to_string(SelectionPolicy::EnduranceAware), "endurance-aware");
}

TEST(Compiler, FactoryOptionsMatchEnumShorthand) {
  // CompilerOptions built from explicit factories and from the enum-backed
  // shorthand are the same policies — identical programs.
  const auto graph = test::random_mig(77, 9, 80, 4);
  CompilerOptions factory_options;
  factory_options.selector = [] {
    return make_selector(SelectionPolicy::EnduranceAware);
  };
  factory_options.allocator = [] {
    return make_allocator(AllocPolicy::MinWrite);
  };
  const auto via_factories = PlimCompiler(factory_options).compile(graph);
  const auto via_enums =
      PlimCompiler({SelectionPolicy::EnduranceAware, AllocPolicy::MinWrite})
          .compile(graph);
  EXPECT_EQ(via_factories.num_instructions(), via_enums.num_instructions());
  EXPECT_EQ(via_factories.num_cells, via_enums.num_cells);
  EXPECT_DOUBLE_EQ(via_factories.write_stats.stdev,
                   via_enums.write_stats.stdev);
}

TEST(Compiler, NullFactoriesAreRejected) {
  CompilerOptions options;
  options.selector = nullptr;
  EXPECT_THROW(PlimCompiler{options}, Error);
}

TEST(Compiler, WearQuotaSelectorCompilesCorrectPrograms) {
  // The stateful registry-only selector goes through the same contract as
  // the built-ins: every cap honored, function preserved.
  const auto graph = test::random_mig(88, 10, 120, 6);
  for (const auto* quota : {"1", "4", "1000000"}) {
    CompilerOptions options;
    options.selector = [quota] {
      return make_selector(
          util::PolicySpec{"wear_quota", {{"quota", quota}}});
    };
    options.allocator = [] { return make_allocator(AllocPolicy::MinWrite); };
    const auto result = PlimCompiler(options).compile(graph);
    EXPECT_TRUE(program_matches_mig(result.program, graph, 10, 3))
        << "quota " << quota;
  }
}

TEST(Compiler, HugeWearQuotaMatchesEnduranceAware) {
  // A quota no level can exhaust never rotates: the schedule degenerates to
  // Algorithm 3 exactly.
  const auto graph = test::random_mig(99, 10, 120, 6);
  CompilerOptions quota_options;
  quota_options.selector = [] {
    return make_selector(
        util::PolicySpec{"wear_quota", {{"quota", "1000000"}}});
  };
  quota_options.allocator = [] { return make_allocator(AllocPolicy::MinWrite); };
  const auto quota = PlimCompiler(quota_options).compile(graph);
  const auto endurance =
      PlimCompiler({SelectionPolicy::EnduranceAware, AllocPolicy::MinWrite})
          .compile(graph);
  EXPECT_EQ(quota.num_instructions(), endurance.num_instructions());
  EXPECT_DOUBLE_EQ(quota.write_stats.stdev, endurance.write_stats.stdev);
}

// ---- golden pins --------------------------------------------------------------

struct CompileGolden {
  const char* selector;
  const char* allocator;
  std::uint64_t cap;  ///< max_writes, 0 = uncapped
  std::uint64_t digest;
};

/// Folded program bytes + CompileResult statistics of every registered
/// selector x allocator, uncapped and under caps 4 and 10, over the mini
/// suite as built and after endurance rewriting. Cap 4 leaves one write of
/// slack for the 3-write copy idioms, so `acquire` rejects and restores
/// free cells constantly; wear_quota refreshes every candidate key each time
/// a level crosses its quota. Recorded before the candidate set and the
/// min-write free set became heaps.
constexpr CompileGolden kCompileGoldens[] = {
    {"endurance", "fifo", 0, 0x4c5fcef745dcfcffULL},
    {"endurance", "fifo", 4, 0x0944ae57508d7a25ULL},
    {"endurance", "fifo", 10, 0x533c1645d9e46395ULL},
    {"endurance", "lifo", 0, 0xddff616002b4f6a6ULL},
    {"endurance", "lifo", 4, 0x104e68b2dab462caULL},
    {"endurance", "lifo", 10, 0x6fd65cf1cecc8123ULL},
    {"endurance", "min_write", 0, 0x2bc690b214bbdddaULL},
    {"endurance", "min_write", 4, 0x91e8ab783c806c15ULL},
    {"endurance", "min_write", 10, 0x01353cefde6859d2ULL},
    {"endurance", "round_robin", 0, 0xfb2ddc1db31252eaULL},
    {"endurance", "round_robin", 4, 0xb83596ad57f2aeeaULL},
    {"endurance", "round_robin", 10, 0xcdfc1766a5f7873bULL},
    {"endurance", "start_gap", 0, 0x0a1ab372da47d11eULL},
    {"endurance", "start_gap", 4, 0xd6a272088b9a05b1ULL},
    {"endurance", "start_gap", 10, 0x11ba777d4c578f4bULL},
    {"naive", "fifo", 0, 0xf9ae3abe371a1fcdULL},
    {"naive", "fifo", 4, 0x6b320c60c5aff8cbULL},
    {"naive", "fifo", 10, 0xf54b20787af49b89ULL},
    {"naive", "lifo", 0, 0x11c66c5dba7202caULL},
    {"naive", "lifo", 4, 0xcd046cebad15cd7fULL},
    {"naive", "lifo", 10, 0x37cb308112499d70ULL},
    {"naive", "min_write", 0, 0x8a37eea55dfd775aULL},
    {"naive", "min_write", 4, 0x7ed1fd8302304fd7ULL},
    {"naive", "min_write", 10, 0x9ab0869354ece997ULL},
    {"naive", "round_robin", 0, 0x8728132947f992a5ULL},
    {"naive", "round_robin", 4, 0x06a6b2e66263afcfULL},
    {"naive", "round_robin", 10, 0x06190627987e3e30ULL},
    {"naive", "start_gap", 0, 0x40c4cde75bc790d6ULL},
    {"naive", "start_gap", 4, 0x188d4d41e14389b7ULL},
    {"naive", "start_gap", 10, 0xecda67fffe5ba140ULL},
    {"plim21", "fifo", 0, 0x8a38343e80f2b3f5ULL},
    {"plim21", "fifo", 4, 0xc404d01064e835cdULL},
    {"plim21", "fifo", 10, 0x19a97edfe56e0e7bULL},
    {"plim21", "lifo", 0, 0x0a724e9f1b4b2395ULL},
    {"plim21", "lifo", 4, 0x66d77681902e040dULL},
    {"plim21", "lifo", 10, 0xa48331b4b2de1c4bULL},
    {"plim21", "min_write", 0, 0x65208534112374c9ULL},
    {"plim21", "min_write", 4, 0x1a6a18e295395c95ULL},
    {"plim21", "min_write", 10, 0x793aaf388a0945bfULL},
    {"plim21", "round_robin", 0, 0x88eb7bcd92accfd1ULL},
    {"plim21", "round_robin", 4, 0xddd10ff3bb67def0ULL},
    {"plim21", "round_robin", 10, 0x7bfe69ef292b7de4ULL},
    {"plim21", "start_gap", 0, 0xd02a224e0c59e3a7ULL},
    {"plim21", "start_gap", 4, 0x26ae3a7e1885b15aULL},
    {"plim21", "start_gap", 10, 0x3ce33b53f0157419ULL},
    {"wear_quota", "fifo", 0, 0x837952599b75f93aULL},
    {"wear_quota", "fifo", 4, 0x993abcec1d244e9eULL},
    {"wear_quota", "fifo", 10, 0xbcc8cf89be753424ULL},
    {"wear_quota", "lifo", 0, 0xb6ce7e311a36a04eULL},
    {"wear_quota", "lifo", 4, 0xccd105aabeb22ab8ULL},
    {"wear_quota", "lifo", 10, 0x168cd2c1a2d87833ULL},
    {"wear_quota", "min_write", 0, 0x3ab5e5cca68842bbULL},
    {"wear_quota", "min_write", 4, 0x87a94fb445a644cdULL},
    {"wear_quota", "min_write", 10, 0x6f531fee1da9c861ULL},
    {"wear_quota", "round_robin", 0, 0x695da3c44d759cf1ULL},
    {"wear_quota", "round_robin", 4, 0xdd554a8b7d7fb57cULL},
    {"wear_quota", "round_robin", 10, 0x47db8a963dd7208eULL},
    {"wear_quota", "start_gap", 0, 0xec3ba1d17a0ae6d3ULL},
    {"wear_quota", "start_gap", 4, 0x50cf76944d4a10a6ULL},
    {"wear_quota", "start_gap", 10, 0x00545b3d4ea8dec7ULL},
};

TEST(CompilerGolden, EverySelectorAllocatorAndCapIsPinned) {
  auto graphs = test::mini_suite_graphs();
  const auto endurance = mig::make_rewrite(util::PolicySpec{"endurance", {}});
  for (std::size_t i = 0, n = graphs.size(); i < n; ++i) {
    graphs.push_back(endurance(graphs[i], nullptr));
  }
  std::size_t pinned = 0;
  for (const auto& golden : kCompileGoldens) {
    CompilerOptions options;
    const std::string selector = golden.selector;
    const std::string allocator = golden.allocator;
    options.selector = [selector] {
      return make_selector(util::PolicySpec{selector, {}});
    };
    options.allocator = [allocator] {
      return make_allocator(util::PolicySpec{allocator, {}});
    };
    if (golden.cap != 0) {
      options.max_writes = golden.cap;
    }
    util::Fnv1a64 hash;
    for (const auto& graph : graphs) {
      test::fold_compile(hash, PlimCompiler(options).compile(graph));
    }
    EXPECT_EQ(hash.digest(), golden.digest)
        << selector << " x " << allocator << " cap " << golden.cap;
    ++pinned;
  }
  // Every registered combination is pinned, at all three caps.
  EXPECT_EQ(pinned, selectors().list().size() * allocators().list().size() * 3);
}

}  // namespace
}  // namespace rlim::plim

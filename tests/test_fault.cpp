#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <set>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "core/endurance.hpp"
#include "core/registry.hpp"
#include "fault/array.hpp"
#include "fault/fault.hpp"
#include "fault/sweep.hpp"
#include "plim/allocator.hpp"
#include "plim/compiler.hpp"
#include "plim/controller.hpp"
#include "plim/kernel.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"

namespace rlim {
namespace {

using core::PipelineConfig;

// ---- model registry and spec grammar ---------------------------------------

TEST(FaultModels, RegistryListsTheBuiltins) {
  std::set<std::string> keys;
  for (const auto& info : fault::models().list()) {
    keys.insert(info.key);
  }
  for (const auto* key : {"none", "stuck", "drift", "variation", "mixed"}) {
    EXPECT_TRUE(keys.count(key)) << key;
  }
}

TEST(FaultModels, NoneIsDisabledAndEverythingElseEnabled) {
  EXPECT_FALSE(fault::make_sweep({"none", {}}).enabled);
  EXPECT_FALSE(fault::active({"none", {}}));
  for (const auto* key : {"stuck", "drift", "variation", "mixed"}) {
    EXPECT_TRUE(fault::make_sweep({key, {}}).enabled) << key;
    EXPECT_TRUE(fault::active({key, {}})) << key;
  }
}

TEST(FaultModels, StuckSpecMapsOntoTheProfile) {
  const auto spec = fault::make_sweep(
      {"stuck",
       {{"rate", "0.01"}, {"wear_rate", "1e-3"}, {"repair", "remap"},
        {"spares", "8"}, {"endurance", "100"}, {"sigma", "0.5"},
        {"seed", "9"}, {"trials", "7"}, {"runs", "50"}}});
  EXPECT_DOUBLE_EQ(spec.profile.logic.stuck_rate, 0.01);
  EXPECT_DOUBLE_EQ(spec.profile.logic.wear_stuck_rate, 1e-3);
  EXPECT_EQ(spec.profile.logic, spec.profile.memory);
  EXPECT_EQ(spec.profile.repair, fault::Repair::Remap);
  EXPECT_EQ(spec.profile.spares, 8u);
  EXPECT_EQ(spec.profile.endurance, 100u);
  EXPECT_DOUBLE_EQ(spec.profile.sigma, 0.5);
  EXPECT_EQ(spec.seed, 9u);
  EXPECT_EQ(spec.trials, 7u);
  EXPECT_EQ(spec.runs, 50u);
}

TEST(FaultModels, MixedSpecSeparatesTheRegions) {
  const auto spec = fault::make_sweep(
      {"mixed",
       {{"mem_rate", "0.001"}, {"logic_rate", "0.02"}, {"logic_wear", "3"}}});
  EXPECT_DOUBLE_EQ(spec.profile.memory.stuck_rate, 0.001);
  EXPECT_DOUBLE_EQ(spec.profile.logic.stuck_rate, 0.02);
  EXPECT_EQ(spec.profile.logic.wear_per_write, 3u);
  EXPECT_EQ(spec.profile.memory.wear_per_write, 1u);
}

TEST(FaultModels, RejectsBadParameters) {
  // Probabilities outside [0, 1], malformed numbers, unknown params.
  EXPECT_THROW((void)fault::make_sweep({"stuck", {{"rate", "1.5"}}}), Error);
  EXPECT_THROW((void)fault::make_sweep({"stuck", {{"rate", "-0.1"}}}), Error);
  EXPECT_THROW((void)fault::make_sweep({"stuck", {{"rate", "lots"}}}), Error);
  EXPECT_THROW((void)fault::make_sweep({"stuck", {{"bogus", "1"}}}), Error);
  EXPECT_THROW((void)fault::make_sweep({"stuck", {{"trials", "0"}}}), Error);
  EXPECT_THROW((void)fault::make_sweep({"stuck", {{"runs", "0"}}}), Error);
  EXPECT_THROW((void)fault::make_sweep({"stuck", {{"sigma", "-1"}}}), Error);
  EXPECT_THROW((void)fault::make_sweep({"stuck", {{"repair", "magic"}}}), Error);
  // repair=remap without spares is a configuration error, not a silent no-op.
  EXPECT_THROW((void)fault::make_sweep({"stuck", {{"repair", "remap"}}}), Error);
  EXPECT_THROW((void)fault::make_sweep({"mixed", {{"logic_wear", "0"}}}), Error);
  EXPECT_THROW((void)fault::make_sweep({"unheard_of", {}}), Error);
}

TEST(FaultModels, ConfigSpecRoundTripsThroughTheCanonicalKey) {
  // Same property style as the PR-3 config tests: parse(canonical_key())
  // reproduces the config for fault clauses, defaults filled.
  const auto config = PipelineConfig::parse(
      "full,fault=stuck:rate=1e-3:repair=remap:spares=4:trials=5");
  EXPECT_EQ(config.fault.key, "stuck");
  EXPECT_EQ(config.fault.params.at("rate"), "1e-3");
  EXPECT_EQ(config.fault.params.at("runs"), "500");  // default filled
  const auto key = config.canonical_key();
  EXPECT_NE(key.find("fault=stuck:"), std::string::npos);
  EXPECT_EQ(PipelineConfig::parse(key), config);
  EXPECT_EQ(PipelineConfig::parse(key).canonical_key(), key);
}

TEST(FaultModels, DefaultConfigKeyHasNoFaultClause) {
  // Byte-stability of pre-fault keys: the five paper presets must hash and
  // cache exactly as before the fault dimension existed.
  for (const auto& [alias, strategy] : core::strategy_aliases()) {
    const auto key = core::make_config(strategy).canonical_key();
    EXPECT_EQ(key.find("fault"), std::string::npos) << alias;
    EXPECT_EQ(PipelineConfig::parse(std::string(alias)).canonical_key(), key);
  }
}

// ---- FaultArray ------------------------------------------------------------

TEST(FaultArray, NoFaultsBehavesLikeTheBaseArray) {
  fault::FaultProfile clean;
  fault::FaultArray array(8, clean, 1);
  array.write(3, 42);
  EXPECT_EQ(array.read(3), 42u);
  EXPECT_EQ(array.write_count(3), 1u);
  EXPECT_FALSE(array.is_failed(3));
  EXPECT_EQ(array.failed_cell_count(), 0u);
  array.reset_values();
  EXPECT_EQ(array.read(3), 0u);
}

TEST(FaultArray, ManufacturingStuckCellsIgnoreWritesAndPreloads) {
  fault::FaultProfile profile;
  profile.logic.stuck_rate = 1.0;  // every cell stuck at construction
  fault::FaultArray array(4, profile, 7);
  EXPECT_EQ(array.stuck_cell_count(), 4u);
  EXPECT_EQ(array.failed_cell_count(), 4u);
  for (plim::Cell cell = 0; cell < 4; ++cell) {
    EXPECT_TRUE(array.is_stuck(cell));
    EXPECT_TRUE(array.is_failed(cell));
    const auto before = array.read(cell);
    array.write(cell, ~before);
    array.preload(cell, ~before);
    EXPECT_EQ(array.read(cell), before);  // value pinned
  }
  EXPECT_EQ(array.dropped_writes(), 8u);
  array.reset_values();
  // Stuck values survive reset (they are physical, not stored charge).
  EXPECT_EQ(array.stuck_cell_count(), 4u);
}

TEST(FaultArray, StuckValuesAreDeterministicInTheSeed) {
  fault::FaultProfile profile;
  profile.logic.stuck_rate = 0.5;
  for (const std::uint64_t seed : {1ull, 99ull, 12345ull}) {
    fault::FaultArray a(64, profile, seed);
    fault::FaultArray b(64, profile, seed);
    EXPECT_EQ(a.stuck_cell_count(), b.stuck_cell_count());
    for (plim::Cell cell = 0; cell < 64; ++cell) {
      EXPECT_EQ(a.is_stuck(cell), b.is_stuck(cell));
      EXPECT_EQ(a.read(cell), b.read(cell));
    }
  }
  // And different seeds give different defect maps (overwhelmingly likely
  // over 64 cells at rate 0.5).
  fault::FaultArray a(64, profile, 1);
  fault::FaultArray b(64, profile, 2);
  bool differs = a.stuck_cell_count() != b.stuck_cell_count();
  for (plim::Cell cell = 0; !differs && cell < 64; ++cell) {
    differs = a.is_stuck(cell) != b.is_stuck(cell);
  }
  EXPECT_TRUE(differs);
}

TEST(FaultArray, DriftDisturbsReadsPersistently) {
  fault::FaultProfile profile;
  profile.logic.drift_rate = 1.0;  // every read disturbs
  fault::FaultArray array(2, profile, 3);
  array.write(0, 0);
  const auto first = array.read(0);
  EXPECT_EQ(std::popcount(first), 1);  // exactly one lane flipped
  EXPECT_EQ(array.disturbed_reads(), 1u);
  // The disturbance is persistent: the next read starts from the disturbed
  // word and flips one more lane (possibly the same one back).
  const auto second = array.read(0);
  EXPECT_LE(std::popcount(first ^ second), 1);
  EXPECT_EQ(array.disturbed_reads(), 2u);
}

TEST(FaultArray, WriteVariabilityWearsWithoutLatching) {
  fault::FaultProfile profile;
  profile.logic.write_fail_rate = 1.0;  // every pulse fails to latch
  fault::FaultArray array(2, profile, 3);
  array.write(0, 7);
  EXPECT_EQ(array.read(0), 0u);         // value unchanged
  EXPECT_EQ(array.write_count(0), 1u);  // wear still accrued
}

TEST(FaultArray, MixedModeWearsLogicCellsFaster) {
  fault::FaultProfile profile;
  profile.logic.wear_per_write = 3;
  std::vector<bool> memory = {true, false};
  fault::FaultArray array(2, profile, 5, std::move(memory));
  array.write(0, 1);  // memory-mode: wear 1
  array.write(1, 1);  // logic-mode: wear 3
  EXPECT_EQ(array.write_count(0), 1u);
  EXPECT_EQ(array.write_count(1), 3u);
}

TEST(FaultArray, RemapRedirectsToHealthySpares) {
  fault::FaultProfile profile;
  profile.endurance = 2;
  profile.repair = fault::Repair::Remap;
  profile.spares = 1;
  fault::FaultArray array(2, profile, 11);
  array.write(0, 1);
  array.write(0, 2);
  EXPECT_TRUE(array.is_failed(0));  // wear limit reached, no spare used yet
  array.write(0, 3);                // triggers the remap, then latches
  EXPECT_EQ(array.remapped_count(), 1u);
  EXPECT_FALSE(array.is_failed(0));
  EXPECT_EQ(array.read(0), 3u);
  // The single spare is spent: once it wears out there is nowhere to go.
  array.write(0, 4);  // spare's second write reaches its own limit
  EXPECT_TRUE(array.is_failed(0));
  array.write(0, 5);
  EXPECT_EQ(array.dropped_writes(), 1u);
  EXPECT_EQ(array.read(0), 4u);
}

TEST(FaultArray, LargeSigmaStillDrawsPositiveLimits) {
  // Satellite regression: extreme endurance_sigma must clamp to limit >= 1
  // in the underlying variability draw, never 0 or negative.
  fault::FaultProfile profile;
  profile.endurance = 100;
  profile.sigma = 10.0;
  fault::FaultArray array(256, profile, 17);
  for (plim::Cell cell = 0; cell < 256; ++cell) {
    const auto limit = array.endurance_of(cell);
    ASSERT_TRUE(limit.has_value());
    EXPECT_GE(*limit, 1u);
  }
}

TEST(FaultArray, RejectsBadMemoryMask) {
  EXPECT_THROW(fault::FaultArray(4, {}, 1, std::vector<bool>(3, false)), Error);
}

// The base is private: code written for a plain array cannot take a fault
// array and silently run without its fault model.
static_assert(!std::is_convertible_v<fault::FaultArray*, plim::RramArray*>);
static_assert(plim::CrossbarArray<fault::FaultArray>);

TEST(FaultArray, ProgramWiderThanTheLogicalSpaceIsRejectedUpFront) {
  // 4 logical cells backed by 8 physical ones (4 spares). A 6-cell program
  // fits the physical array but not the logical space it addresses: the
  // pairing must be refused before anything is preloaded, read or worn.
  fault::FaultProfile profile;
  profile.repair = fault::Repair::Remap;
  profile.spares = 4;
  fault::FaultArray array(4, profile, 1);
  ASSERT_EQ(array.physical_size(), 8u);
  plim::Program program;
  program.bind_pi(0);
  program.append(plim::make_write_const(false, 1));  // in range, comes first
  program.append(plim::make_copy_step(0, 5));        // beyond logical cell 3
  program.bind_po(5);
  const std::vector<std::uint64_t> pis{42};
  EXPECT_THROW((void)plim::evaluate(program, pis, array), Error);
  EXPECT_THROW(plim::Interpreter<fault::FaultArray>(program, array), Error);
  EXPECT_EQ(array.write_counts(), std::vector<std::uint64_t>(8, 0));
  EXPECT_EQ(array.remapped_count(), 0u);
  EXPECT_EQ(array.dropped_writes(), 0u);
}

// ---- kernel vs. a reference interpreter ------------------------------------

/// Test-local reference interpreter: one execution through the public,
/// checked array API, op by op, in the documented access order.
template <class Array>
std::vector<std::uint64_t> reference_run(Array& array,
                                         const plim::Program& program,
                                         const std::vector<std::uint64_t>& pis) {
  array.reset_values();
  for (std::size_t i = 0; i < pis.size(); ++i) {
    array.preload(program.pi_cells()[i], pis[i]);
  }
  const auto operand = [&array](plim::Operand op) -> std::uint64_t {
    if (op.is_constant()) {
      return op.constant_value() ? ~0ULL : 0ULL;
    }
    return array.read(op.cell_index());
  };
  for (const auto& instruction : program.instructions()) {
    const auto a = operand(instruction.a);
    const auto not_b = ~operand(instruction.b);
    const auto z = array.read(instruction.z);
    array.write(instruction.z, (a & not_b) | (a & z) | (not_b & z));
  }
  std::vector<std::uint64_t> pos;
  for (const auto cell : program.po_cells()) {
    pos.push_back(array.read(cell));
  }
  return pos;
}

TEST(FaultKernel, MatchesTheReferenceInterpreterOnEveryModel) {
  const auto graph = test::random_mig(73, 8, 70, 4);
  const auto program =
      plim::PlimCompiler(plim::CompilerOptions{}).compile(graph).program;
  std::vector<bool> memory(program.num_cells(), false);
  for (const auto cell : program.pi_cells()) {
    memory[cell] = true;
  }
  const std::vector<util::PolicySpec> specs = {
      {"stuck", {{"rate", "0.02"}, {"wear_rate", "0.0005"}, {"endurance", "40"}}},
      {"stuck",
       {{"rate", "0.02"}, {"wear_rate", "0.0005"}, {"endurance", "40"},
        {"sigma", "0.4"}, {"repair", "remap"}, {"spares", "12"}}},
      {"drift", {{"rate", "0.01"}}},
      {"variation", {{"fail_rate", "0.01"}, {"endurance", "60"}}},
      {"mixed",
       {{"mem_rate", "0.02"}, {"logic_rate", "0.05"}, {"endurance", "50"},
        {"repair", "remap"}, {"spares", "6"}}},
  };
  constexpr int kExecutions = 40;
  std::uint64_t dropped = 0;
  std::uint64_t disturbed = 0;
  std::uint64_t remapped = 0;
  for (const auto& spec : specs) {
    SCOPED_TRACE(spec.canonical());
    const auto profile = fault::make_sweep(spec).profile;
    fault::FaultArray kernel_array(program.num_cells(), profile, 5, memory);
    fault::FaultArray reference_array(program.num_cells(), profile, 5, memory);
    plim::Interpreter interpreter(program, kernel_array);
    util::Xoshiro256 inputs(17);
    std::vector<std::uint64_t> pis(program.pi_cells().size());
    for (int run = 0; run < kExecutions; ++run) {
      for (auto& word : pis) {
        word = inputs();
      }
      const auto got = interpreter.run(pis);
      const auto want = reference_run(reference_array, program, pis);
      ASSERT_EQ(std::vector<std::uint64_t>(got.begin(), got.end()), want)
          << "execution " << run;
    }
    EXPECT_EQ(kernel_array.write_counts(), reference_array.write_counts());
    EXPECT_EQ(kernel_array.dropped_writes(), reference_array.dropped_writes());
    EXPECT_EQ(kernel_array.disturbed_reads(), reference_array.disturbed_reads());
    EXPECT_EQ(kernel_array.remapped_count(), reference_array.remapped_count());
    EXPECT_EQ(kernel_array.failed_cell_count(),
              reference_array.failed_cell_count());
    dropped += kernel_array.dropped_writes();
    disturbed += kernel_array.disturbed_reads();
    remapped += kernel_array.remapped_count();
  }
  // The models must actually fire, or the comparison proves nothing.
  EXPECT_GT(dropped, 0u);
  EXPECT_GT(disturbed, 0u);
  EXPECT_GT(remapped, 0u);
}

TEST(FaultKernel, MatchesTheReferenceInterpreterOnAPlainArray) {
  const auto graph = test::random_mig(79, 8, 70, 4);
  const auto program =
      plim::PlimCompiler(plim::CompilerOptions{}).compile(graph).program;
  const plim::RramConfig config{.endurance_limit = 30,
                                .endurance_sigma = 0.5,
                                .variation_seed = 3};
  plim::RramArray kernel_array(program.num_cells(), config);
  plim::RramArray reference_array(program.num_cells(), config);
  plim::Interpreter interpreter(program, kernel_array);
  util::Xoshiro256 inputs(19);
  std::vector<std::uint64_t> pis(program.pi_cells().size());
  for (int run = 0; run < 40; ++run) {
    for (auto& word : pis) {
      word = inputs();
    }
    const auto got = interpreter.run(pis);
    ASSERT_EQ(std::vector<std::uint64_t>(got.begin(), got.end()),
              reference_run(reference_array, program, pis))
        << "execution " << run;
  }
  EXPECT_EQ(kernel_array.write_counts(), reference_array.write_counts());
  EXPECT_EQ(kernel_array.failed_cell_count(), reference_array.failed_cell_count());
}

// ---- allocator decorators --------------------------------------------------

TEST(FaultDecorators, RetireDropsWornCells) {
  // Direct plim::make_allocator use needs the fault library's lazy decorator
  // registration first (the config/registry paths do this themselves).
  fault::ensure_registered();
  auto alloc = plim::make_allocator(
      util::PolicySpec{"retire", {{"threshold", "10"}}});
  alloc->push(0, 9);
  alloc->push(1, 10);  // retired
  alloc->push(2, 11);  // retired
  EXPECT_EQ(alloc->size(), 1u);
  EXPECT_EQ(alloc->pop(), std::optional<plim::Cell>{0});
  EXPECT_EQ(alloc->pop(), std::nullopt);
}

TEST(FaultDecorators, SpareHoldsBackAReserveServedLast) {
  fault::ensure_registered();
  auto alloc =
      plim::make_allocator(util::PolicySpec{"spare", {{"spares", "2"}}});
  alloc->push(0, 0);  // reserve
  alloc->push(1, 0);  // reserve
  alloc->push(2, 5);  // inner
  alloc->push(3, 1);  // inner (min_write serves this first)
  EXPECT_EQ(alloc->size(), 4u);
  EXPECT_EQ(alloc->pop(), std::optional<plim::Cell>{3});
  EXPECT_EQ(alloc->pop(), std::optional<plim::Cell>{2});
  // Inner pool dry — the reserve is served now.
  EXPECT_EQ(alloc->pop(), std::optional<plim::Cell>{1});
  EXPECT_EQ(alloc->pop(), std::optional<plim::Cell>{0});
  EXPECT_EQ(alloc->pop(), std::nullopt);
}

TEST(FaultDecorators, DecoratorsCannotNestAndValidateInner) {
  fault::ensure_registered();
  EXPECT_THROW((void)plim::make_allocator(
                   util::PolicySpec{"retire", {{"inner", "spare"}}}),
               Error);
  EXPECT_THROW((void)plim::make_allocator(
                   util::PolicySpec{"spare", {{"inner", "retire"}}}),
               Error);
  EXPECT_THROW((void)plim::make_allocator(
                   util::PolicySpec{"retire", {{"inner", "unregistered"}}}),
               Error);
  EXPECT_THROW((void)plim::make_allocator(
                   util::PolicySpec{"retire", {{"threshold", "0"}}}),
               Error);
}

TEST(FaultDecorators, DecoratedConfigCompilesACorrectProgram) {
  const auto graph = test::random_mig(23, 8, 70, 4);
  for (const auto* spec :
       {"full,alloc=retire:threshold=8", "full,alloc=spare:spares=2"}) {
    const auto config = PipelineConfig::parse(spec);
    const auto prepared = core::prepare(graph, config);
    const auto report = core::compile_prepared(prepared, config);
    EXPECT_TRUE(plim::program_matches_mig(report.program, prepared, 10, 5))
        << spec;
  }
}

// ---- Monte-Carlo sweeps ----------------------------------------------------

core::EnduranceReport compile_with(const mig::Mig& graph,
                                   const std::string& spec) {
  const auto config = PipelineConfig::parse(spec);
  return core::run_pipeline(graph, config, "t");
}

TEST(FaultSweep, ReportCarriesTheDistributionOnlyWhenRequested) {
  const auto graph = test::random_mig(31, 8, 60, 4);
  const auto plain = compile_with(graph, "full");
  EXPECT_FALSE(plain.fault_sweep.has_value());

  const auto faulty = compile_with(
      graph, "full,fault=stuck:rate=0.01:endurance=50:trials=4:runs=40");
  ASSERT_TRUE(faulty.fault_sweep.has_value());
  const auto& dist = *faulty.fault_sweep;
  EXPECT_EQ(dist.trials, 4u);
  EXPECT_EQ(dist.runs_cap, 40u);
  EXPECT_LE(dist.lifetime_min, dist.lifetime_p50);
  EXPECT_LE(dist.lifetime_p50, dist.lifetime_p99);
  EXPECT_LE(dist.lifetime_p99, dist.lifetime_max);
  EXPECT_LE(dist.lifetime_max, 40u);
  EXPECT_GE(dist.lifetime_mean, static_cast<double>(dist.lifetime_min));
  EXPECT_LE(dist.lifetime_mean, static_cast<double>(dist.lifetime_max));
  EXPECT_LE(dist.failed_cells_min, dist.failed_cells_max);
}

TEST(FaultSweep, SameSeedIsByteIdenticalDifferentSeedDiffers) {
  const auto graph = test::random_mig(37, 8, 60, 4);
  const auto a = compile_with(
      graph, "full,fault=stuck:rate=0.02:endurance=60:seed=5:trials=5:runs=50");
  const auto b = compile_with(
      graph, "full,fault=stuck:rate=0.02:endurance=60:seed=5:trials=5:runs=50");
  ASSERT_TRUE(a.fault_sweep && b.fault_sweep);
  EXPECT_EQ(*a.fault_sweep, *b.fault_sweep);

  const auto c = compile_with(
      graph, "full,fault=stuck:rate=0.02:endurance=60:seed=6:trials=5:runs=50");
  ASSERT_TRUE(c.fault_sweep.has_value());
  EXPECT_NE(*a.fault_sweep, *c.fault_sweep);
}

TEST(FaultSweep, HigherStuckRateShortensLifetimes) {
  const auto graph = test::random_mig(41, 8, 80, 4);
  const auto gentle = compile_with(
      graph, "full,fault=stuck:rate=0.0:endurance=200:trials=4:runs=120");
  const auto harsh = compile_with(
      graph, "full,fault=stuck:rate=0.3:endurance=200:trials=4:runs=120");
  ASSERT_TRUE(gentle.fault_sweep && harsh.fault_sweep);
  // 30% dead cells kill the program essentially immediately; a defect-free
  // array under the same endurance budget lives strictly longer.
  EXPECT_GT(gentle.fault_sweep->lifetime_min, harsh.fault_sweep->lifetime_max);
  EXPECT_GT(harsh.fault_sweep->failed_cells_min, 0u);
}

TEST(FaultSweep, RemapExtendsLifetimeUnderWear) {
  const auto graph = test::random_mig(43, 8, 80, 4);
  const auto base =
      "fault=stuck:rate=0:endurance=40:trials=4:runs=200";
  const auto bare = compile_with(graph, std::string("full,") + base);
  const auto repaired = compile_with(
      graph, std::string("full,") + base + ":repair=remap:spares=64");
  ASSERT_TRUE(bare.fault_sweep && repaired.fault_sweep);
  // With 64 spares absorbing the first exhausted cells, median lifetime
  // must improve over the unrepaired run (wear failure is deterministic
  // here: sigma=0, no stochastic faults).
  EXPECT_GT(repaired.fault_sweep->lifetime_p50, bare.fault_sweep->lifetime_p50);
  EXPECT_GT(repaired.fault_sweep->remapped_total, 0u);
}

TEST(FaultSweep, MixedModeSparesTheMemoryRegion) {
  const auto graph = test::random_mig(47, 8, 60, 4);
  const auto report = compile_with(
      graph,
      "full,fault=mixed:mem_rate=0:logic_rate=0.05:endurance=80:trials=3:"
      "runs=60");
  ASSERT_TRUE(report.fault_sweep.has_value());
  EXPECT_EQ(report.fault_sweep->trials, 3u);
}

TEST(FaultSweep, CensoringReportsTrialsThatNeverFailed) {
  const auto graph = test::random_mig(53, 8, 50, 4);
  // Unlimited endurance, no faults injected: every trial survives the cap.
  const auto report = compile_with(
      graph, "full,fault=stuck:rate=0:endurance=0:trials=3:runs=10");
  ASSERT_TRUE(report.fault_sweep.has_value());
  EXPECT_EQ(report.fault_sweep->censored, 3u);
  EXPECT_EQ(report.fault_sweep->lifetime_min, 10u);
}

TEST(FaultSweep, RunSweepRejectsDisabledSpecs) {
  const auto graph = test::random_mig(59, 6, 30, 3);
  const auto report = compile_with(graph, "naive");
  EXPECT_THROW(
      (void)fault::run_sweep(report.program, graph.cleanup(), fault::SweepSpec{}),
      Error);
}


// ---- golden distributions --------------------------------------------------
//
// Exact distributions for one fixed program and seed per fault model,
// recorded from the original per-operand interpreter. Same-binary replay
// tests cannot see a changed fault RNG draw order (per instruction: read A,
// B, Z, then write Z; PI preloads before the program, PO reads after it);
// these values move as soon as it changes.

fault::LifetimeDistribution golden(std::uint64_t min, std::uint64_t p50,
                                   std::uint64_t p99, std::uint64_t max,
                                   double mean, std::uint64_t failed_min,
                                   std::uint64_t failed_max, double failed_mean,
                                   std::uint64_t remapped,
                                   std::uint64_t dropped) {
  return {.trials = 6,
          .runs_cap = 300,
          .censored = 0,
          .lifetime_min = min,
          .lifetime_p50 = p50,
          .lifetime_p99 = p99,
          .lifetime_max = max,
          .lifetime_mean = mean,
          .failed_cells_min = failed_min,
          .failed_cells_max = failed_max,
          .failed_cells_mean = failed_mean,
          .remapped_total = remapped,
          .dropped_writes = dropped};
}

TEST(FaultGolden, DistributionsArePinned) {
  const auto graph = test::random_mig(71, 8, 70, 4);
  const auto program =
      plim::PlimCompiler(plim::CompilerOptions{}).compile(graph).program;
  const util::Params common = {{"seed", "9"}, {"trials", "6"}, {"runs", "300"}};
  const auto with_common = [&](util::Params params) {
    params.insert(common.begin(), common.end());
    return params;
  };
  const util::Params stuck = {{"rate", "0.01"},
                              {"wear_rate", "0.00002"},
                              {"endurance", "900"},
                              {"sigma", "0.3"}};
  auto stuck_remap = stuck;
  stuck_remap.insert({{"repair", "remap"}, {"spares", "16"}});

  const std::vector<std::tuple<util::PolicySpec, fault::LifetimeDistribution>>
      cases = {
          {{"stuck", with_common(stuck)},
           golden(34, 71, 82, 82, 62.333333333333336, 1, 1, 1, 0, 26)},
          {{"stuck", with_common(stuck_remap)},
           golden(224, 249, 276, 276, 242.16666666666666, 17, 17, 17, 95, 25)},
          {{"drift", with_common({{"rate", "0.0002"}, {"endurance", "0"}})},
           golden(7, 56, 246, 246, 77.5, 0, 0, 0, 0, 0)},
          {{"variation",
            with_common({{"fail_rate", "0.0002"},
                         {"endurance", "1500"},
                         {"sigma", "0.5"}})},
           golden(16, 61, 88, 88, 54.833333333333336, 0, 1, 0.33333333333333331,
                  0, 7)},
          {{"mixed",
            with_common({{"mem_rate", "0.01"},
                         {"logic_rate", "0.02"},
                         {"logic_wear", "2"},
                         {"endurance", "1500"},
                         {"repair", "remap"},
                         {"spares", "8"}})},
           golden(125, 150, 150, 150, 141.66666666666666, 9, 10,
                  9.6666666666666661, 47, 92)},
      };
  for (const auto& [spec, expected] : cases) {
    const auto got = fault::run_sweep(program, graph, fault::make_sweep(spec));
    SCOPED_TRACE(spec.canonical());
    EXPECT_EQ(got.trials, expected.trials);
    EXPECT_EQ(got.runs_cap, expected.runs_cap);
    EXPECT_EQ(got.censored, expected.censored);
    EXPECT_EQ(got.lifetime_min, expected.lifetime_min);
    EXPECT_EQ(got.lifetime_p50, expected.lifetime_p50);
    EXPECT_EQ(got.lifetime_p99, expected.lifetime_p99);
    EXPECT_EQ(got.lifetime_max, expected.lifetime_max);
    EXPECT_EQ(got.lifetime_mean, expected.lifetime_mean);
    EXPECT_EQ(got.failed_cells_min, expected.failed_cells_min);
    EXPECT_EQ(got.failed_cells_max, expected.failed_cells_max);
    EXPECT_EQ(got.failed_cells_mean, expected.failed_cells_mean);
    EXPECT_EQ(got.remapped_total, expected.remapped_total);
    EXPECT_EQ(got.dropped_writes, expected.dropped_writes);
    EXPECT_EQ(got, expected);  // no field left unpinned
  }
}

}  // namespace
}  // namespace rlim

// rlim_perfbench: the benchmark program behind BENCHMARK.json.
//
//   rlim_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  --out-dir DIR --work-dir DIR [--source-id TEXT]
//
// Prints one environment/details JSON line, then (last line) the result
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. Exits
// non-zero without a result on bad usage or an unexpected error.

#include <filesystem>
#include <fstream>
#include <iostream>
#include <string_view>
#include <thread>

#include "common.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;

struct MetricName {
  std::string_view name;
  std::string_view unit;
};

constexpr MetricName kEndToEnd[] = {
    {"setup_s", "s"},
    {"wall_s", "s"},
    {"sim_instr_per_s", "1/s"},
    {"max_rate_jobs_per_s", "1/s"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricName kPerLayer[] = {
    {"benchmarks.build_ms", "ms"},
    {"benchmarks.builds", "count"},
    {"mig.rewrite_ms.plim21", "ms"},
    {"mig.rewrite_ms.endurance", "ms"},
    {"mig.rewrite_ms.level_balanced", "ms"},
    {"mig.gates_after", "count"},
    {"mig.simulate_ns_per_gate", "ns"},
    {"pass.maj.runs", "count"},
    {"pass.maj.applications", "count"},
    {"pass.maj.ms", "ms"},
    {"pass.dist.runs", "count"},
    {"pass.dist.applications", "count"},
    {"pass.dist.ms", "ms"},
    {"pass.assoc.runs", "count"},
    {"pass.assoc.applications", "count"},
    {"pass.assoc.ms", "ms"},
    {"pass.comp.runs", "count"},
    {"pass.comp.applications", "count"},
    {"pass.comp.ms", "ms"},
    {"pass.inv.runs", "count"},
    {"pass.inv.applications", "count"},
    {"pass.inv.ms", "ms"},
    {"pass.inv3.runs", "count"},
    {"pass.inv3.applications", "count"},
    {"pass.inv3.ms", "ms"},
    {"pass.relief.runs", "count"},
    {"pass.relief.applications", "count"},
    {"pass.relief.ms", "ms"},
    {"pass.cleanup.runs", "count"},
    {"pass.cleanup.applications", "count"},
    {"pass.cleanup.ms", "ms"},
    {"pass.idle_share", "ratio"},
    {"plim.compile_ms", "ms"},
    {"plim.instructions", "count"},
    {"plim.cells", "count"},
    {"plim.max_writes", "count"},
    {"plim.evaluate_ns_per_instr", "ns"},
    {"fault.sweep_ms", "ms"},
    {"fault.executions", "count"},
    {"fault.ns_per_execution", "ns"},
    {"sched.queue_wait_ms.p50", "ms"},
    {"sched.queue_wait_ms.p99", "ms"},
    {"sched.busy_share", "ratio"},
    {"sched.steals", "count"},
    {"sched.parks", "count"},
    {"sched.forked", "count"},
    {"sched.overflows", "count"},
    {"flow.program_hit_ratio", "ratio"},
    {"flow.rewrite_hit_ratio", "ratio"},
    {"flow.coalesced_ratio", "ratio"},
    {"flow.hit_ms", "ms"},
    {"wire.result_bytes", "bytes"},
    {"wire.result_encode_ms", "ms"},
    {"wire.result_decode_ms", "ms"},
    {"wire.spec_encode_us", "us"},
    {"store.load_ms", "ms"},
    {"store.store_ms", "ms"},
    {"store.program_loads", "count"},
    {"store.stores", "count"},
    {"store.load_misses", "count"},
    {"store.evicted", "count"},
    {"store.bytes", "bytes"},
    {"net.ping_rtt_us", "us"},
    {"net.overhead_ms", "ms"},
    {"net.client.retries", "count"},
    {"net.server.decode_errors", "count"},
    {"net.server.dropped_connections", "count"},
    {"loadgen.lag_ms.p99", "ms"},
    {"loadgen.backlog_max", "count"},
    {"benchmarks.self_ms", "ms"},
    {"mig.self_ms", "ms"},
    {"pass.self_ms", "ms"},
    {"plim.self_ms", "ms"},
    {"fault.self_ms", "ms"},
    {"flow.self_ms", "ms"},
    {"wire.self_ms", "ms"},
    {"store.self_ms", "ms"},
    {"net.self_ms", "ms"},
    {"trace.untraced_wall_ms", "ms"},
    {"trace.self_sum_ms", "ms"},
    {"trace.overhead_ms", "ms"},
};

[[noreturn]] void usage(const std::string& message) {
  std::cerr << "rlim_perfbench: " << message
            << "\nusage: rlim_perfbench --workload "
               "table1_cold|fault_lifetime|serve_mixed --seed N --seconds S "
               "--trace 0|1 --out-dir DIR --work-dir DIR [--source-id TEXT]\n";
  std::exit(2);
}

std::string compiler() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

}  // namespace

int main(int argc, char** argv) try {
  Context ctx;
  std::string source_id = "unknown";
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      usage("option " + arg + " needs a value");
    }
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        ctx.workload = value;
      } else if (arg == "--seed") {
        ctx.seed = std::stoull(value);
        have_seed = true;
      } else if (arg == "--seconds") {
        ctx.seconds = std::stod(value);
        have_seconds = ctx.seconds > 0.0;
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") {
          usage("--trace takes 0 or 1");
        }
        ctx.trace = value == "1";
        have_trace = true;
      } else if (arg == "--out-dir") {
        ctx.out_dir = value;
      } else if (arg == "--work-dir") {
        ctx.work_dir = value;
      } else if (arg == "--source-id") {
        source_id = value;
      } else {
        usage("unknown option " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg + ": " + value);
    }
  }
  if (!have_seed || !have_seconds || !have_trace || ctx.out_dir.empty() ||
      ctx.work_dir.empty()) {
    usage("--seed, --seconds, --trace, --out-dir and --work-dir are required");
  }
  ctx.cpus = allowed_cpus();
  ctx.nproc = ctx.cpus.empty()
                  ? std::max(1u, std::thread::hardware_concurrency())
                  : static_cast<unsigned>(ctx.cpus.size());
  std::filesystem::create_directories(ctx.out_dir);
  std::filesystem::create_directories(ctx.work_dir);

  Outcome out;
  if (ctx.workload == "table1_cold") {
    out = run_table1_cold(ctx);
  } else if (ctx.workload == "fault_lifetime") {
    out = run_fault_lifetime(ctx);
  } else if (ctx.workload == "serve_mixed") {
    out = run_serve_mixed(ctx);
  } else {
    usage("unknown workload '" + ctx.workload + "'");
  }
  out.set("peak_rss_mb", peak_rss_mb(), "MB");

  JsonObject metrics;
  const auto emit = [&](const MetricName& wanted, bool required) {
    for (const auto& [name, metric] : out.metrics) {
      if (name == wanted.name) {
        metrics.obj(name, JsonObject()
                              .num("value", metric.value)
                              .str("unit", metric.unit));
        return;
      }
    }
    if (required) {
      throw std::logic_error("metric " + std::string(wanted.name) +
                             " was not measured");
    }
    metrics.obj(wanted.name,
                JsonObject().num("value", 0.0).str("unit", wanted.unit));
  };
  if (ctx.trace) {
    for (const auto& wanted : kPerLayer) {
      emit(wanted, false);
    }
  } else {
    for (const auto& wanted : kEndToEnd) {
      emit(wanted, true);
    }
  }

  const bool correct = out.mismatches == 0;
  JsonObject env;
  env.integer("nproc", ctx.nproc)
      .str("build_type", PERFBENCH_BUILD_TYPE)
      .str("compiler", compiler())
      .str("source", source_id)
      .str("workload", ctx.workload)
      .integer("seed", ctx.seed)
      .num("seconds", ctx.seconds)
      .boolean("trace", ctx.trace);
  std::string notes = "[";
  for (const auto& note : out.mismatch_notes) {
    notes += (notes.size() > 1 ? ", " : "") + json_string(note);
  }
  notes += "]";
  out.details.num("output_mismatches", static_cast<double>(out.mismatches))
      .raw("mismatch_notes", notes)
      .num("failed_ratio", out.attempted == 0
                               ? 0.0
                               : static_cast<double>(out.failed) /
                                     static_cast<double>(out.attempted));
  JsonObject record;
  record.obj("env", env).obj("details", out.details);
  JsonObject result;
  result.boolean("correct", correct)
      .integer("attempted", std::max<std::uint64_t>(1, out.attempted))
      .integer("failed", out.failed)
      .obj("metrics", metrics);

  std::ofstream(ctx.out_dir + "/" + ctx.workload + "-seed" +
                std::to_string(ctx.seed) + "-trace" + (ctx.trace ? "1" : "0") +
                ".json")
      << JsonObject(record).obj("result", result).text() << "\n";
  std::cout << record.text() << "\n" << result.text() << std::endl;
  return 0;
} catch (const std::exception& error) {
  std::cerr << "rlim_perfbench: " << error.what() << "\n";
  return 1;
}

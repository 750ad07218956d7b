#pragma once

// The three workloads of the rlim benchmark and the layer-attribution
// helpers they share. Each workload builds its inputs from the seed, runs
// its timed phase against the public API of the rlim libraries, checks every
// output, and fills an Outcome with either the end-to-end metrics (untraced
// run) or the per-layer metrics (traced run).

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "benchmarks/suite.hpp"
#include "common.hpp"
#include "core/config.hpp"
#include "flow/job.hpp"
#include "flow/service.hpp"
#include "sched/deque.hpp"
#include "trace.hpp"

namespace perfbench {

struct Context {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;   ///< result records and Chrome traces
  std::string work_dir;  ///< scratch space (disk stores); removed afterwards
  unsigned nproc = 1;
  std::vector<int> cpus;  ///< allowed CPUs; timed passes rotate over them
};

Outcome run_table1_cold(const Context& ctx);
Outcome run_fault_lifetime(const Context& ctx);
Outcome run_serve_mixed(const Context& ctx);

/// One job of a workload: a paper-profile graph under one configuration.
struct JobDesc {
  const rlim::bench::BenchmarkSpec* spec = nullptr;
  std::size_t graph = 0;  ///< index into the workload's distinct graphs
  rlim::core::PipelineConfig config;
  rlim::sched::Priority priority = rlim::sched::Priority::Normal;
  bool heavy = false;  ///< heavy-tail graph (div, multiplier, sqrt, mem_ctrl)
  std::string label;   ///< report label; empty = the source's label
};

[[nodiscard]] bool is_heavy_graph(const std::string& name);

/// Simulated executions of one sweep: every trial runs until its first
/// wrong execution (which counts) or the censoring cap.
[[nodiscard]] std::uint64_t sweep_executions(
    const rlim::fault::LifetimeDistribution& dist);

/// A BenchmarkSpec whose build() reports each call (start time, duration)
/// to `on_build` — how the benchmark observes, from outside, when a worker
/// first touches a job's graph.
struct BuildEvent {
  Clock::time_point start;
  double build_ms = 0.0;
};
[[nodiscard]] rlim::bench::BenchmarkSpec hooked_spec(
    const rlim::bench::BenchmarkSpec& spec,
    std::function<void(const BuildEvent&)> on_build);

/// Results of replaying a job list through the layer functions directly
/// (rewrite, compile, fault sweep), each call inside a span.
struct LayerReplay {
  double wall_ms = 0.0;
  /// One report per job, in job order (label left empty).
  std::vector<rlim::core::EnduranceReport> reports;
  /// The rewritten graph each job compiled (shared per rewrite flavour).
  std::vector<std::shared_ptr<const rlim::mig::Mig>> prepared;
  std::vector<rlim::mig::RewriteStats> rewrite_stats;
  /// Jobs whose rewrite actually ran (the first of each flavour).
  std::vector<std::size_t> distinct_rewrites;
  std::map<std::string, double> rewrite_ms;  ///< per rewrite flow key
  double compile_ms = 0.0;
  double sweep_ms = 0.0;
};

/// Replays `jobs` the way the timed phase computes them — graphs already
/// built, one rewrite per (graph, flow), one compile per job, one sweep per
/// fault job — so the spans tile the same work. Fault sweeps run on a
/// `sweep_workers`-thread scheduler, so trials fork exactly as they do
/// inside flow::Service.
LayerReplay replay_layers(const std::vector<JobDesc>& jobs,
                          const std::vector<rlim::flow::SourcePtr>& graphs,
                          unsigned sweep_workers, Tracer& tracer);

/// Sets the mig.rewrite_ms.*, mig.gates_after, pass.*, plim.* (compile
/// time and program statistics) and fault.* metrics from a replay.
void report_replay_metrics(const LayerReplay& replay,
                           const std::vector<JobDesc>& jobs, Outcome& out);

/// Compares the replay's span self times with the untraced wall time of the
/// same work: trace.self_sum_ms, trace.untraced_wall_ms and
/// trace.overhead_ms (traced minus untraced). Call before any probe spans.
void report_trace_check(const Tracer& tracer, double traced_wall_ms,
                        double untraced_wall_ms, Outcome& out);

/// Sets <layer>.self_ms for every span layer from everything recorded.
void report_self_times(const Tracer& tracer, Outcome& out);

/// Writes the spans to <out-dir>/<workload>-seed<N>.trace.json with the
/// tracing overhead and the untraced wall time beside them.
void write_trace(const Context& ctx, const Tracer& tracer, const Outcome& out);

/// Side probes on the workload's own jobs and results: graph builds,
/// simulate/evaluate microkernels, wire codec, disk store, and a loopback
/// server for ping RTT and transport overhead.
struct ProbeInput {
  const std::vector<JobDesc>* jobs = nullptr;
  const std::vector<rlim::flow::SourcePtr>* graphs = nullptr;
  /// Distinct results to encode/store (one per distinct job).
  std::vector<const rlim::flow::JobResult*> results;
  std::string work_dir;
  std::uint64_t seed = 1;
  bool store_counters = true;  ///< report the probe store's counters
};
void probe_layers(const ProbeInput& input, Tracer& tracer, Outcome& out);

/// Simulated RM3 instructions (64 lanes each) and the seconds they took.
struct CheckStats {
  double instructions = 0.0;
  double seconds = 0.0;
  CheckStats& operator+=(const CheckStats& other) {
    instructions += other.instructions;
    seconds += other.seconds;
    return *this;
  }
  [[nodiscard]] double rate() const {
    return seconds > 0.0 ? instructions / seconds : 0.0;
  }
};

/// Verifies every program against its input MIG with plim::program_matches_mig
/// (the MIG simulator is the independent reference).
CheckStats check_programs(const std::vector<const rlim::plim::Program*>& programs,
                          const std::vector<const rlim::mig::Mig*>& graphs,
                          unsigned rounds, std::uint64_t seed, Outcome& out);

/// The wire bytes of a result with its wall-clock telemetry (per-pass
/// wall_ns) zeroed: the deterministic part of a JobResult frame.
[[nodiscard]] std::string normalized_frame(rlim::flow::JobResult result);

/// Scheduler/flow metrics from a timed Service pass.
struct ServiceSnapshot {
  rlim::flow::ServiceStats service;
  rlim::sched::SchedulerStats sched;
  std::size_t rewrite_hits = 0, rewrite_misses = 0;
  std::size_t program_hits = 0, program_misses = 0;
};
[[nodiscard]] ServiceSnapshot snapshot(const rlim::flow::Service& service);
void report_service_metrics(const ServiceSnapshot& snap, Outcome& out);

}  // namespace perfbench

// The two batch workloads: table1_cold (the paper's Table I grid on a cold
// single-worker pipeline) and fault_lifetime (Monte-Carlo lifetime sweeps
// whose trials fork across a two-worker pool).

#include <atomic>
#include <functional>
#include <optional>
#include <sstream>
#include <thread>

#include "flow/report.hpp"
#include "flow/suite.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace rlim;

namespace {

/// FNV-1a 64 of `bench/table1_write_balance --format csv` on the paper
/// profile, recorded at the commit that introduced this benchmark
/// (identical at --jobs 1 and --jobs 4).
constexpr std::uint64_t kTable1CsvDigest = 0xe1f399da9026ea8bULL;

/// Input-pattern rounds (64 patterns each) of the program check after every
/// table1_cold pass.
constexpr unsigned kTable1CheckRounds = 8;

/// Minimum set-ups per run and the least time they span; setup_s is their
/// median.
constexpr int kSetupRepeats = 5;
constexpr double kSetupMinMs = 1000.0;

/// One timed pass of a batch through a fresh flow::Service configured the
/// way flow::Runner configures its own (no coalescing, no disk store), with
/// an on_finished hook so each job's completion time is observable.
struct Rep {
  double wall_ms = 0.0;
  double submit_ms = 0.0;
  std::vector<flow::JobResult> results;  ///< job order
  std::vector<double> latency_ms;        ///< job order, from batch start
  ServiceSnapshot snap;
  std::vector<double> hit_ms;  ///< program-cache hit latencies (if asked)
};

Rep run_rep(const std::vector<JobDesc>& jobs,
            const std::vector<flow::SourcePtr>& sources, unsigned workers,
            std::size_t hit_probes = 0) {
  const auto n = jobs.size();
  auto finish = std::make_shared<std::vector<Clock::time_point>>(n);
  auto done = std::make_shared<std::atomic<std::size_t>>(0);
  flow::ServiceOptions options;
  options.jobs = workers;
  options.coalesce = false;
  options.on_finished = [finish, done, n](flow::Ticket ticket) {
    if (ticket >= 1 && ticket <= n) {
      (*finish)[ticket - 1] = Clock::now();
      done->fetch_add(1);
    }
  };
  flow::Service service(options);

  std::vector<flow::Job> batch;
  batch.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    flow::Job job{sources[i], jobs[i].config, jobs[i].label};
    job.priority = jobs[i].priority;
    batch.push_back(std::move(job));
  }

  Rep rep;
  const auto start = Clock::now();
  const auto handle = service.submit_batch(std::move(batch));
  rep.submit_ms = ms_since(start);
  rep.results = service.collect(handle);
  rep.wall_ms = ms_since(start);
  while (done->load() < n) {
    std::this_thread::yield();
  }
  rep.latency_ms.reserve(n);
  for (const auto ticket : handle.tickets()) {
    rep.latency_ms.push_back(ms_between(start, (*finish)[ticket - 1]));
  }
  for (std::size_t i = 0; i < std::min(hit_probes, n); ++i) {
    flow::Job job{sources[i], jobs[i].config, jobs[i].label};
    const auto t = Clock::now();
    (void)service.wait(service.submit(std::move(job)));
    rep.hit_ms.push_back(ms_since(t));
  }
  rep.snap = snapshot(service);
  return rep;
}

std::vector<flow::SourcePtr> build_sources(
    const std::vector<const bench::BenchmarkSpec*>& graphs) {
  std::vector<flow::SourcePtr> sources;
  sources.reserve(graphs.size());
  for (const auto* spec : graphs) {
    sources.push_back(flow::Source::benchmark(*spec));
    (void)sources.back()->original();
  }
  return sources;
}

std::vector<flow::SourcePtr> per_job(const std::vector<JobDesc>& jobs,
                                     const std::vector<flow::SourcePtr>& by_graph) {
  std::vector<flow::SourcePtr> out;
  out.reserve(jobs.size());
  for (const auto& job : jobs) {
    out.push_back(by_graph[job.graph]);
  }
  return out;
}

/// Sets up at least `repeats` times and for at least kSetupMinMs (keeping
/// the last set-up), each time on the next of `cpus`, and returns the median.
double timed_setup(const std::vector<const bench::BenchmarkSpec*>& graphs,
                   std::vector<flow::SourcePtr>& sources, int repeats,
                   const std::vector<int>& cpus) {
  std::vector<double> samples;
  const auto start = Clock::now();
  for (int i = 0; i < repeats || (ms_since(start) < kSetupMinMs && i < 5000); ++i) {
    pin_thread(cpus, static_cast<std::size_t>(i));
    const auto t = Clock::now();
    sources = build_sources(graphs);
    samples.push_back(ms_since(t) / 1000.0);
  }
  unpin_thread(cpus);
  return median(samples);
}

/// The timed phase of a batch workload: calls `pass()` until `ctx.seconds`
/// have passed (at least twice). For each pass the calling thread, and so
/// every Service the pass starts, is pinned to `width` CPUs of `ctx.cpus`,
/// starting one CPU further on each time. Each core of a shared host runs at
/// its own, drifting speed; rotating gives every core the same share of the
/// passes, where otherwise a run's result hung on the core the OS kept the
/// worker on.
void pinned_passes(const Context& ctx, std::size_t width,
                   const std::function<void()>& pass) {
  const auto phase = Clock::now();
  for (std::size_t turn = 0;
       turn < 2 || ms_since(phase) < ctx.seconds * 1000.0; ++turn) {
    pin_thread(ctx.cpus, turn, width);
    pass();
  }
  unpin_thread(ctx.cpus);
}

void report_passes(const std::vector<double>& walls, Outcome& out) {
  std::string list = "[";
  for (const auto wall : walls) {
    list += (list.size() > 1 ? ", " : "") + json_number(wall);
  }
  out.details.num("passes", static_cast<double>(walls.size()))
      .raw("pass_wall_s", list + "]");
}

/// Rendered exactly like bench/table1_write_balance --format csv.
std::string table1_csv(const std::vector<const bench::BenchmarkSpec*>& graphs,
                       const std::vector<const core::EnduranceReport*>& reports) {
  flow::Report doc;
  doc.title = "Table I — write balance across endurance configurations "
              "(paper profile)";
  doc.columns = {"benchmark", "PI/PO",   "min/max", "STDEV", "min/max",
                 "STDEV",     "impr.",   "min/max", "STDEV", "impr.",
                 "min/max",   "STDEV",   "impr.",   "min/max", "STDEV",
                 "impr."};
  doc.add_note("columns: naive | PLiM compiler [21] | + min-write | "
               "+ endurance rewriting | + endurance compilation");
  double sum_stdev[5] = {};
  double sum_impr[4] = {};
  const auto min_max = [](const util::WriteStats& stats) {
    return std::to_string(stats.min) + "/" + std::to_string(stats.max);
  };
  for (std::size_t b = 0; b < graphs.size(); ++b) {
    const auto* row_reports = &reports[b * 5];
    std::vector<std::string> row{
        graphs[b]->name,
        std::to_string(graphs[b]->pis) + "/" + std::to_string(graphs[b]->pos)};
    for (int i = 0; i < 5; ++i) {
      row.push_back(min_max(row_reports[i]->writes));
      row.push_back(util::Table::fixed(row_reports[i]->writes.stdev));
      if (i > 0) {
        const auto impr =
            core::stdev_improvement(*row_reports[0], *row_reports[i]);
        row.push_back(util::Table::percent(impr));
        sum_impr[i - 1] += impr;
      }
      sum_stdev[i] += row_reports[i]->writes.stdev;
    }
    doc.add_row(std::move(row));
  }
  const auto denom = static_cast<double>(graphs.size());
  doc.add_separator();
  std::vector<std::string> avg{"AVG", "", "",
                               util::Table::fixed(sum_stdev[0] / denom)};
  for (int i = 1; i < 5; ++i) {
    avg.push_back("");
    avg.push_back(util::Table::fixed(sum_stdev[i] / denom));
    avg.push_back(util::Table::percent(sum_impr[i - 1] / denom));
  }
  doc.add_row(std::move(avg));
  doc.add_note("paper reference (avg impr. vs naive): [21] 30.95%  "
               "min-write 57.07%  +rewriting 64.42%  +compilation 72.17%");
  std::ostringstream os;
  flow::CsvSink().write(doc, os);
  return os.str();
}

/// Checks one pass's Table I bytes against the recorded digest.
void check_table1(const std::vector<const bench::BenchmarkSpec*>& graphs,
                  const std::vector<const core::EnduranceReport*>& reports,
                  const std::string& what, Outcome& out) {
  const auto digest = util::fnv1a64(table1_csv(graphs, reports));
  if (digest != kTable1CsvDigest) {
    std::ostringstream note;
    note << what << ": Table I CSV digest " << std::hex << digest
         << " != recorded " << kTable1CsvDigest;
    out.mismatch(note.str());
  }
}

std::vector<const core::EnduranceReport*> reports_of(
    const std::vector<flow::JobResult>& results, Outcome& out) {
  std::vector<const core::EnduranceReport*> reports;
  for (const auto& result : results) {
    if (!result.ok()) {
      ++out.failed;
    }
    reports.push_back(&result.report);
  }
  return reports;
}

/// Checks every program of a pass; returns the simulated instructions per
/// second of the check.
double check_rep_programs(const std::vector<JobDesc>& jobs,
                          const std::vector<flow::SourcePtr>& sources,
                          const Rep& rep, unsigned rounds, std::uint64_t seed,
                          Outcome& out) {
  std::vector<const plim::Program*> programs;
  std::vector<const mig::Mig*> graphs;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (rep.results[i].ok()) {
      programs.push_back(&rep.results[i].report.program);
      graphs.push_back(&sources[i]->original());
    }
  }
  return check_programs(programs, graphs, rounds, seed, out).rate();
}

/// Queue wait and busy share of one pass whose jobs each own a fresh
/// hooked Source: a job's first graph build marks when a worker picked it.
void report_queue_wait(const std::vector<JobDesc>& jobs, unsigned workers,
                       Outcome& out) {
  const auto n = jobs.size();
  auto starts = std::make_shared<std::vector<Clock::time_point>>(n);
  std::vector<flow::SourcePtr> sources;
  sources.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    sources.push_back(flow::Source::benchmark(hooked_spec(
        *jobs[i].spec, [starts, i](const BuildEvent& e) {
          (*starts)[i] = e.start;
        })));
  }
  const auto start = Clock::now();
  const auto rep = run_rep(jobs, sources, workers);
  std::vector<double> waits;
  double busy_ms = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    waits.push_back(ms_between(start, (*starts)[i]));
    busy_ms += rep.latency_ms[i] - waits.back();
  }
  out.set("sched.queue_wait_ms.p50", median(waits), "ms");
  out.set("sched.queue_wait_ms.p99", tail_percentile(waits).value, "ms");
  out.set("sched.busy_share",
          busy_ms / (static_cast<double>(workers) * rep.wall_ms), "ratio");
}

/// Shared traced-run body of the batch workloads. `check` validates one
/// pass's reports against the untraced pass.
void traced_batch(const Context& ctx, const std::vector<JobDesc>& jobs,
                  const std::vector<const bench::BenchmarkSpec*>& graphs,
                  unsigned workers,
                  const std::function<void(const std::vector<const core::EnduranceReport*>&,
                                           const std::string&)>& check,
                  Outcome& out) {
  std::vector<flow::SourcePtr> by_graph = build_sources(graphs);
  const auto sources = per_job(jobs, by_graph);

  const auto rep = run_rep(jobs, sources, workers, /*hit_probes=*/16);
  const auto reports = reports_of(rep.results, out);
  check(reports, "untraced pass");
  report_service_metrics(rep.snap, out);
  out.set("flow.hit_ms", median(rep.hit_ms), "ms");
  out.set("loadgen.lag_ms.p99", rep.submit_ms, "ms");
  out.set("loadgen.backlog_max", static_cast<double>(jobs.size()), "count");

  report_queue_wait(jobs, workers, out);

  Tracer tracer;
  const auto replay = replay_layers(jobs, by_graph, workers, tracer);
  std::vector<const core::EnduranceReport*> replay_reports;
  for (const auto& report : replay.reports) {
    replay_reports.push_back(&report);
  }
  check(replay_reports, "traced replay");
  report_replay_metrics(replay, jobs, out);

  report_trace_check(tracer, replay.wall_ms, rep.wall_ms, out);

  ProbeInput probe;
  probe.jobs = &jobs;
  probe.graphs = &by_graph;
  for (const auto& result : rep.results) {
    probe.results.push_back(&result);
  }
  probe.work_dir = ctx.work_dir;
  probe.seed = ctx.seed;
  probe_layers(probe, tracer, out);
  report_self_times(tracer, out);
  out.set("benchmarks.builds", static_cast<double>(graphs.size()), "count");

  write_trace(ctx, tracer, out);
  out.attempted += jobs.size();
}

}  // namespace

bool is_heavy_graph(const std::string& name) {
  return name == "div" || name == "multiplier" || name == "sqrt" ||
         name == "mem_ctrl";
}

Outcome run_table1_cold(const Context& ctx) {
  Outcome out;
  const auto& suite = bench::paper_suite();
  std::vector<const bench::BenchmarkSpec*> graphs;
  for (const auto& spec : suite) {
    graphs.push_back(&spec);
  }

  // The grid in Table I order. The grid itself is the paper's, so the seed
  // only draws the input patterns of the program checks.
  std::vector<JobDesc> jobs;
  for (std::size_t b = 0; b < graphs.size(); ++b) {
    for (const auto strategy : flow::paper_strategies()) {
      JobDesc job;
      job.spec = graphs[b];
      job.graph = b;
      job.config = core::make_config(strategy);
      job.heavy = is_heavy_graph(graphs[b]->name);
      jobs.push_back(std::move(job));
    }
  }
  const auto check = [&](const std::vector<const core::EnduranceReport*>& reports,
                         const std::string& what) {
    check_table1(graphs, reports, what, out);
  };

  if (ctx.trace) {
    traced_batch(ctx, jobs, graphs, 1, check, out);
    return out;
  }

  std::vector<flow::SourcePtr> by_graph;
  out.set("setup_s", timed_setup(graphs, by_graph, kSetupRepeats, ctx.cpus),
          "s");
  const auto sources = per_job(jobs, by_graph);

  // Worker-count independence: the same grid at nproc workers. It runs
  // before the timed phase, so it also warms the caches.
  {
    const auto wide = run_rep(jobs, sources, ctx.nproc);
    out.attempted += jobs.size();
    check(reports_of(wide.results, out),
          "pass at " + std::to_string(ctx.nproc) + " workers");
  }

  // Every pass's programs are checked right after it. The check is the
  // simulation this workload runs, so each check gives one rate sample.
  std::vector<double> walls, rates;
  pinned_passes(ctx, 1, [&] {
    const auto rep = run_rep(jobs, sources, 1);
    out.attempted += jobs.size();
    check(reports_of(rep.results, out),
          "pass " + std::to_string(walls.size() + 1) + " (1 worker)");
    walls.push_back(rep.wall_ms / 1000.0);
    rates.push_back(check_rep_programs(
        jobs, sources, rep, kTable1CheckRounds,
        util::mix_seed(ctx.seed, walls.size()), out));
  });
  const double wall_s = median(walls);
  out.set("wall_s", wall_s, "s");
  out.set("sim_instr_per_s", median(rates), "1/s");
  out.set("max_rate_jobs_per_s", static_cast<double>(jobs.size()) / wall_s,
          "1/s");
  report_passes(walls, out);
  return out;
}

namespace {

/// fault_lifetime: graphs × fault models, all under the full flow.
constexpr const char* kFaultGraphs[] = {"adder", "int2float", "router", "ctrl"};
constexpr std::uint32_t kFaultTrials = 8;
/// Workers of the fault_lifetime pool: enough for trials to fork and be
/// stolen. At nproc workers a pass waited on its slowest core, so every
/// core's share of a shared host's load showed in the pass time.
constexpr unsigned kFaultWorkers = 2;
constexpr std::uint64_t kFaultRuns = 2000;
constexpr std::uint64_t kFaultEndurance = 20000;

std::vector<std::string> fault_models(std::uint64_t seed) {
  const auto common = [&](int salt) {
    return ":endurance=" + std::to_string(kFaultEndurance) +
           ":trials=" + std::to_string(kFaultTrials) +
           ":runs=" + std::to_string(kFaultRuns) +
           ":seed=" + std::to_string(util::mix_seed(seed, salt) % 1000000007);
  };
  return {
      "full,fault=stuck:rate=0.00001" + common(1),
      "full,fault=stuck:rate=0.00001:repair=remap:spares=16" + common(2),
      "full,fault=drift:rate=0.000001" + common(3),
      "full,fault=mixed:mem_rate=0.000001:logic_rate=0.00001:logic_wear=2" +
          common(4),
  };
}

}  // namespace

Outcome run_fault_lifetime(const Context& ctx) {
  Outcome out;
  std::vector<const bench::BenchmarkSpec*> graphs;
  for (const auto* name : kFaultGraphs) {
    graphs.push_back(&bench::find_benchmark(name));
  }
  std::vector<JobDesc> jobs;
  const auto models = fault_models(ctx.seed);
  for (std::size_t g = 0; g < graphs.size(); ++g) {
    for (const auto& model : models) {
      JobDesc job;
      job.spec = graphs[g];
      job.graph = g;
      job.config = core::PipelineConfig::parse(model);
      // adder sweeps are the long pole; High priority starts them first so
      // the pass length does not depend on the submission order.
      job.heavy = graphs[g]->name == "adder";
      if (job.heavy) {
        job.priority = sched::Priority::High;
      }
      jobs.push_back(std::move(job));
    }
  }

  // Same-seed replays must reproduce the first pass's distributions.
  std::vector<std::optional<fault::LifetimeDistribution>> expected;
  const auto check = [&](const std::vector<const core::EnduranceReport*>& reports,
                         const std::string& what) {
    if (expected.empty()) {
      for (const auto* report : reports) {
        expected.push_back(report->fault_sweep);
      }
      return;
    }
    for (std::size_t i = 0; i < reports.size(); ++i) {
      if (!reports[i]->fault_sweep || reports[i]->fault_sweep != expected[i]) {
        out.mismatch(what + ": fault distribution of job " +
                     std::to_string(i) + " differs from the first pass");
      }
    }
  };

  const unsigned workers = std::min(kFaultWorkers, ctx.nproc);
  if (ctx.trace) {
    traced_batch(ctx, jobs, graphs, workers, check, out);
    return out;
  }

  std::vector<flow::SourcePtr> by_graph;
  out.set("setup_s", timed_setup(graphs, by_graph, kSetupRepeats, ctx.cpus),
          "s");
  const auto sources = per_job(jobs, by_graph);

  // An untimed warm-up pass; its distributions are the replay reference
  // and its programs are the ones checked.
  const auto first = run_rep(jobs, sources, workers);
  out.attempted += jobs.size();
  check(reports_of(first.results, out), "warm-up pass");

  std::vector<double> walls, rates;
  pinned_passes(ctx, workers, [&] {
    const auto rep = run_rep(jobs, sources, workers);
    out.attempted += jobs.size();
    check(reports_of(rep.results, out),
          "pass " + std::to_string(walls.size() + 1));
    double instructions = 0.0;
    for (const auto& result : rep.results) {
      if (result.report.fault_sweep) {
        instructions +=
            static_cast<double>(sweep_executions(*result.report.fault_sweep)) *
            static_cast<double>(result.report.program.size());
      }
    }
    walls.push_back(rep.wall_ms / 1000.0);
    rates.push_back(instructions / walls.back());
  });
  const double wall_s = median(walls);
  out.set("wall_s", wall_s, "s");
  out.set("sim_instr_per_s", median(rates), "1/s");
  out.set("max_rate_jobs_per_s", static_cast<double>(jobs.size()) / wall_s,
          "1/s");
  (void)check_rep_programs(jobs, sources, first, 64, ctx.seed, out);

  std::uint64_t total_executions = 0;
  for (const auto& result : first.results) {
    if (result.report.fault_sweep) {
      total_executions += sweep_executions(*result.report.fault_sweep);
    }
  }
  report_passes(walls, out);
  out.details.num("executions_per_pass", static_cast<double>(total_executions));
  return out;
}

}  // namespace perfbench

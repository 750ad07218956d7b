// Layer attribution shared by every workload: the traced replay through the
// layer functions, the side probes (builds, simulators, wire, store, net),
// and the output checks that need a reference implementation.

#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <set>

#include "core/endurance.hpp"
#include "fault/sweep.hpp"
#include "flow/cache.hpp"
#include "flow/wire.hpp"
#include "mig/simulate.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "plim/controller.hpp"
#include "sched/sched.hpp"
#include "store/disk_store.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace rlim;

namespace {

/// The eight built-in rewriting passes (pass::passes()).
constexpr const char* kPassKeys[] = {"maj", "dist",  "assoc",  "comp",
                                     "inv", "inv3", "relief", "cleanup"};
constexpr const char* kRewriteFlows[] = {"plim21", "endurance",
                                         "level_balanced"};
/// Layers that appear as spans in the traced run.
constexpr const char* kSpanLayers[] = {"benchmarks", "mig",  "pass",
                                       "plim",       "fault", "flow",
                                       "wire",       "store", "net"};

std::vector<std::uint64_t> random_words(std::size_t count,
                                        util::Xoshiro256& rng) {
  std::vector<std::uint64_t> words(count);
  for (auto& word : words) {
    word = rng();
  }
  return words;
}

}  // namespace

std::uint64_t sweep_executions(const fault::LifetimeDistribution& dist) {
  const auto lifetimes = static_cast<std::uint64_t>(
      std::llround(dist.lifetime_mean * static_cast<double>(dist.trials)));
  return lifetimes + (dist.trials - dist.censored);
}

bench::BenchmarkSpec hooked_spec(const bench::BenchmarkSpec& spec,
                                 std::function<void(const BuildEvent&)> on_build) {
  auto hooked = spec;
  hooked.build = [build = spec.build, on_build = std::move(on_build)] {
    BuildEvent event;
    event.start = Clock::now();
    auto graph = build();
    event.build_ms = ms_since(event.start);
    on_build(event);
    return graph;
  };
  return hooked;
}

LayerReplay replay_layers(const std::vector<JobDesc>& jobs,
                          const std::vector<flow::SourcePtr>& graphs,
                          unsigned sweep_workers, Tracer& tracer) {
  LayerReplay out;
  out.reports.resize(jobs.size());
  out.prepared.resize(jobs.size());
  out.rewrite_stats.resize(jobs.size());
  std::map<std::pair<std::size_t, std::string>, std::size_t> rewritten;

  const auto body = [&] {
    const auto start = Clock::now();
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      const auto& job = jobs[i];
      const auto& source = *graphs[job.graph];
      const Tracer::Span job_span(tracer, "flow", "job " + job.spec->name);

      if (job.config.rewrite.key == "none") {
        auto entry = flow::passthrough_rewrite(source);
        out.prepared[i] = std::move(entry.graph);
        out.rewrite_stats[i] = entry.stats;
      } else {
        const auto flavour = mig::rewrites().normalize(job.config.rewrite);
        const auto key = std::make_pair(job.graph, flavour.canonical());
        const auto it = rewritten.find(key);
        if (it != rewritten.end()) {
          out.prepared[i] = out.prepared[it->second];
          out.rewrite_stats[i] = out.rewrite_stats[it->second];
        } else {
          mig::RewriteStats stats;
          const auto t = Clock::now();
          {
            const Tracer::Span span(tracer, "mig", "rewrite " + flavour.key);
            out.prepared[i] = std::make_shared<const mig::Mig>(
                mig::make_rewrite(job.config.rewrite)(source.original(), &stats));
            auto offset = t;
            for (const auto& pass : stats.per_pass) {
              tracer.add_child("pass", pass.name, offset, pass.wall_ns);
              offset += std::chrono::nanoseconds(pass.wall_ns);
            }
          }
          out.rewrite_ms[flavour.key] += ms_since(t);
          out.rewrite_stats[i] = std::move(stats);
          out.distinct_rewrites.push_back(i);
          rewritten.emplace(key, i);
        }
      }

      auto compile_config = job.config;
      compile_config.fault = util::PolicySpec{"none", {}};
      const auto t = Clock::now();
      {
        const Tracer::Span span(tracer, "plim", "compile");
        out.reports[i] = core::compile_prepared(*out.prepared[i],
                                                compile_config, {},
                                                source.original().num_gates());
      }
      out.compile_ms += ms_since(t);
      out.reports[i].config = job.config;

      const auto sweep = fault::make_sweep(job.config.fault);
      if (sweep.enabled) {
        const auto s = Clock::now();
        const Tracer::Span span(tracer, "fault", "run_sweep");
        out.reports[i].fault_sweep =
            fault::run_sweep(out.reports[i].program, *out.prepared[i], sweep);
        out.sweep_ms += ms_since(s);
      }
    }
    out.wall_ms = ms_since(start);
  };

  if (sweep_workers <= 1) {
    body();
    return out;
  }
  // Run on a scheduler worker so fault::run_sweep forks its trials the way
  // it does inside flow::Service.
  // `done` outlives the scheduler, whose destructor joins the worker that
  // may still be returning from set_value().
  std::promise<void> done;
  sched::Scheduler scheduler({.workers = sweep_workers});
  scheduler.submit(sched::Task{[&] {
    try {
      body();
      done.set_value();
    } catch (...) {
      done.set_exception(std::current_exception());
    }
  }});
  done.get_future().get();
  return out;
}

void report_replay_metrics(const LayerReplay& replay,
                           const std::vector<JobDesc>& jobs, Outcome& out) {
  for (const auto* flow_key : kRewriteFlows) {
    const auto it = replay.rewrite_ms.find(flow_key);
    out.set(std::string("mig.rewrite_ms.") + flow_key,
            it == replay.rewrite_ms.end() ? 0.0 : it->second, "ms");
  }
  double gates_after = 0.0;
  std::map<std::string, mig::PassStats> by_pass;
  std::uint64_t pass_ns = 0, idle_ns = 0;
  for (const auto i : replay.distinct_rewrites) {
    const auto& stats = replay.rewrite_stats[i];
    gates_after += static_cast<double>(stats.final_gates);
    for (const auto& pass : stats.per_pass) {
      auto& total = by_pass[pass.name];
      total.runs += pass.runs;
      total.applications += pass.applications;
      total.wall_ns += pass.wall_ns;
      pass_ns += pass.wall_ns;
      if (pass.applications == 0) {
        idle_ns += pass.wall_ns;
      }
    }
  }
  out.set("mig.gates_after", gates_after, "count");
  for (const auto* key : kPassKeys) {
    const auto& total = by_pass[key];
    const std::string prefix = std::string("pass.") + key;
    out.set(prefix + ".runs", static_cast<double>(total.runs), "count");
    out.set(prefix + ".applications", static_cast<double>(total.applications),
            "count");
    out.set(prefix + ".ms", static_cast<double>(total.wall_ns) / 1e6, "ms");
  }
  out.set("pass.idle_share",
          pass_ns == 0 ? 0.0
                       : static_cast<double>(idle_ns) /
                             static_cast<double>(pass_ns),
          "ratio");

  double instructions = 0.0, cells = 0.0, max_writes = 0.0;
  std::uint64_t executions = 0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const auto& report = replay.reports[i];
    instructions += static_cast<double>(report.instructions);
    cells += static_cast<double>(report.rrams);
    max_writes += static_cast<double>(report.writes.max);
    if (report.fault_sweep) {
      executions += sweep_executions(*report.fault_sweep);
    }
  }
  out.set("plim.compile_ms", replay.compile_ms, "ms");
  out.set("plim.instructions", instructions, "count");
  out.set("plim.cells", cells, "count");
  out.set("plim.max_writes", max_writes, "count");
  out.set("fault.sweep_ms", replay.sweep_ms, "ms");
  out.set("fault.executions", static_cast<double>(executions), "count");
  out.set("fault.ns_per_execution",
          executions == 0 ? 0.0
                          : replay.sweep_ms * 1e6 /
                                static_cast<double>(executions),
          "ns");
}

void report_trace_check(const Tracer& tracer, double traced_wall_ms,
                        double untraced_wall_ms, Outcome& out) {
  double self_sum = 0.0;
  for (const auto& [layer, ms] : tracer.self_ms()) {
    self_sum += ms;
  }
  const double overhead = traced_wall_ms - untraced_wall_ms;
  out.set("trace.untraced_wall_ms", untraced_wall_ms, "ms");
  out.set("trace.self_sum_ms", self_sum, "ms");
  out.set("trace.overhead_ms", overhead, "ms");
  out.details.obj("trace_check",
                  JsonObject()
                      .num("untraced_wall_ms", untraced_wall_ms)
                      .num("traced_wall_ms", traced_wall_ms)
                      .num("self_sum_ms", self_sum)
                      .num("overhead_ms", overhead)
                      .boolean("self_sum_within_overhead",
                               std::abs(self_sum - untraced_wall_ms) <=
                                   std::abs(overhead) + 1.0));
}

void report_self_times(const Tracer& tracer, Outcome& out) {
  const auto self = tracer.self_ms();
  for (const auto* layer : kSpanLayers) {
    const auto it = self.find(layer);
    out.set(std::string(layer) + ".self_ms",
            it == self.end() ? 0.0 : it->second, "ms");
  }
}

void write_trace(const Context& ctx, const Tracer& tracer, const Outcome& out) {
  JsonObject other;
  other.str("workload", ctx.workload).integer("seed", ctx.seed);
  for (const auto& [name, metric] : out.metrics) {
    if (name.rfind("trace.", 0) == 0) {
      other.num(name, metric.value);
    }
  }
  std::ofstream file(ctx.out_dir + "/" + ctx.workload + "-seed" +
                     std::to_string(ctx.seed) + ".trace.json");
  tracer.write_chrome(file, other);
}

void probe_layers(const ProbeInput& input, Tracer& tracer, Outcome& out) {
  const auto& jobs = *input.jobs;
  const auto& graphs = *input.graphs;
  util::Xoshiro256 rng(util::mix_seed(input.seed, 0x9a0be));

  // benchmarks: one fresh build of each distinct graph.
  double build_ms = 0.0;
  std::set<std::size_t> seen;
  for (const auto& job : jobs) {
    if (!seen.insert(job.graph).second) {
      continue;
    }
    const auto t = Clock::now();
    const Tracer::Span span(tracer, "benchmarks", "build " + job.spec->name);
    const auto graph = job.spec->build();
    build_ms += ms_since(t);
  }
  out.set("benchmarks.build_ms", build_ms, "ms");

  // mig: bit-parallel simulation of every distinct input graph.
  {
    constexpr int kWords = 16;
    double ns = 0.0, gate_words = 0.0;
    for (const auto g : seen) {
      const auto& graph = graphs[g]->original();
      const auto pis = random_words(graph.num_pis(), rng);
      const Tracer::Span span(tracer, "mig", "simulate");
      const auto t = Clock::now();
      for (int w = 0; w < kWords; ++w) {
        (void)mig::simulate(graph, pis);
      }
      ns += ms_since(t) * 1e6;
      gate_words += static_cast<double>(graph.num_gates()) * kWords;
    }
    out.set("mig.simulate_ns_per_gate", ns / gate_words, "ns");
  }

  // plim: the interpreter on a plain RramArray, every distinct program.
  {
    constexpr int kWords = 16;
    double ns = 0.0, instr_words = 0.0;
    for (const auto* result : input.results) {
      if (!result->ok()) {
        continue;
      }
      const auto& program = result->report.program;
      const auto pis = random_words(program.pi_cells().size(), rng);
      const Tracer::Span span(tracer, "plim", "evaluate");
      const auto t = Clock::now();
      for (int w = 0; w < kWords; ++w) {
        (void)plim::evaluate(program, pis);
      }
      ns += ms_since(t) * 1e6;
      instr_words += static_cast<double>(program.size()) * kWords;
    }
    out.set("plim.evaluate_ns_per_instr", ns / instr_words, "ns");
  }

  // wire: the workload's own results and specs.
  {
    double bytes = 0.0, encode_ms = 0.0, decode_ms = 0.0;
    for (const auto* result : input.results) {
      auto t = Clock::now();
      std::string frame;
      {
        const Tracer::Span span(tracer, "wire", "encode result");
        frame = flow::wire::encode(*result);
      }
      encode_ms += ms_since(t);
      bytes += static_cast<double>(frame.size());
      t = Clock::now();
      {
        const Tracer::Span span(tracer, "wire", "decode result");
        (void)flow::wire::decode_job_result(frame);
      }
      decode_ms += ms_since(t);
    }
    out.set("wire.result_bytes", bytes, "bytes");
    out.set("wire.result_encode_ms", encode_ms, "ms");
    out.set("wire.result_decode_ms", decode_ms, "ms");

    constexpr int kLoops = 20;
    const Tracer::Span span(tracer, "wire", "encode specs");
    const auto t = Clock::now();
    std::size_t encoded = 0;
    for (int loop = 0; loop < kLoops; ++loop) {
      for (const auto& job : jobs) {
        encoded += flow::wire::encode(flow::wire::JobSpec::reference(
                                          "bench:" + job.spec->name, job.config,
                                          job.label))
                       .size();
      }
    }
    out.set("wire.spec_encode_us",
            ms_since(t) * 1000.0 / static_cast<double>(kLoops * jobs.size()),
            "us");
    static_cast<void>(encoded);
  }

  // store: write every distinct result through a fresh DiskStore, read it
  // back.
  {
    const auto dir = std::filesystem::path(input.work_dir) / "probe-store";
    std::filesystem::remove_all(dir);
    store::DiskStore disk(dir);
    double store_ms = 0.0, load_ms = 0.0;
    for (std::size_t i = 0; i < input.results.size(); ++i) {
      const auto* result = input.results[i];
      if (!result->ok()) {
        continue;
      }
      const auto fingerprint = graphs[jobs[i].graph]->fingerprint();
      const auto key = jobs[i].config.canonical_key();
      (void)disk.load_program(fingerprint, key);  // cold: a miss
      auto t = Clock::now();
      {
        const Tracer::Span span(tracer, "store", "store_program");
        disk.store_program(fingerprint, key, *result->prepared,
                           result->rewrite_stats, result->report);
      }
      store_ms += ms_since(t);
      t = Clock::now();
      {
        const Tracer::Span span(tracer, "store", "load_program");
        if (!disk.load_program(fingerprint, key, nullptr, &jobs[i].config)) {
          out.mismatch("store probe: entry " + std::to_string(i) +
                       " did not load back");
        }
      }
      load_ms += ms_since(t);
    }
    out.set("store.store_ms", store_ms, "ms");
    out.set("store.load_ms", load_ms, "ms");
    double bytes = 0.0;
    for (const auto& entry : std::filesystem::recursive_directory_iterator(dir)) {
      if (entry.is_regular_file()) {
        bytes += static_cast<double>(entry.file_size());
      }
    }
    out.set("store.bytes", bytes, "bytes");
    if (input.store_counters) {
      const auto counters = disk.counters();
      out.set("store.program_loads", static_cast<double>(counters.program_loads),
              "count");
      out.set("store.stores", static_cast<double>(counters.stores), "count");
      out.set("store.load_misses", static_cast<double>(counters.load_misses),
              "count");
      out.set("store.evicted",
              static_cast<double>(counters.evicted_corrupt +
                                  counters.evicted_version),
              "count");
    }
    std::filesystem::remove_all(dir);
  }

  // net: ping round trips, and loopback minus in-process latency for the
  // workload's light jobs (by-reference specs, warm caches on both sides).
  net::Server server({"127.0.0.1", 0}, {.jobs = 1});
  net::Client client(server.endpoint());
  {
    std::vector<double> rtt;
    for (int i = 0; i < 50; ++i) {
      const Tracer::Span span(tracer, "net", "ping");
      const auto t = Clock::now();
      (void)client.ping();
      rtt.push_back(ms_since(t) * 1000.0);
    }
    out.set("net.ping_rtt_us", median(rtt), "us");
  }
  flow::Service local({.jobs = 1});
  std::vector<double> overheads, local_hits;
  std::set<std::string> probed;
  for (const auto& job : jobs) {
    if (job.heavy || probed.size() >= 6) {
      continue;
    }
    const auto spec = flow::wire::JobSpec::reference("bench:" + job.spec->name,
                                                     job.config, job.label);
    if (!probed.insert(flow::wire::encode(spec)).second) {
      continue;
    }
    (void)client.run({spec});
    (void)local.wait(local.submit(spec.to_job()));
    std::vector<double> remote_ms, local_ms;
    for (int i = 0; i < 9; ++i) {
      auto t = Clock::now();
      {
        const Tracer::Span span(tracer, "net", "request");
        const auto results = client.run({spec});
        if (results.size() != 1 || !results.front().ok()) {
          ++out.failed;
        }
      }
      remote_ms.push_back(ms_since(t));
      t = Clock::now();
      (void)local.wait(local.submit(spec.to_job()));
      local_ms.push_back(ms_since(t));
    }
    out.attempted += 18;
    overheads.push_back(median(remote_ms) - median(local_ms));
    local_hits.insert(local_hits.end(), local_ms.begin(), local_ms.end());
  }
  out.set("net.overhead_ms", median(overheads), "ms");
  if (!out.has("flow.hit_ms")) {
    // By-reference program-cache hits, graph rebuild included.
    out.set("flow.hit_ms", median(local_hits), "ms");
  }
  out.set("net.client.retries",
          static_cast<double>(client.telemetry().retries), "count");
  const auto counters = server.counters();
  out.set("net.server.decode_errors",
          static_cast<double>(counters.decode_errors), "count");
  out.set("net.server.dropped_connections",
          static_cast<double>(counters.dropped_connections), "count");
}

CheckStats check_programs(const std::vector<const plim::Program*>& programs,
                          const std::vector<const mig::Mig*>& graphs,
                          unsigned rounds, std::uint64_t seed, Outcome& out) {
  CheckStats stats;
  const auto t = Clock::now();
  for (std::size_t i = 0; i < programs.size(); ++i) {
    if (!plim::program_matches_mig(*programs[i], *graphs[i], rounds,
                                   util::mix_seed(seed, i))) {
      out.mismatch("program " + std::to_string(i) +
                   " does not compute its input MIG");
    }
    stats.instructions += static_cast<double>(programs[i]->size()) * rounds;
  }
  stats.seconds = ms_since(t) / 1000.0;
  return stats;
}

std::string normalized_frame(flow::JobResult result) {
  for (auto& pass : result.rewrite_stats.per_pass) {
    pass.wall_ns = 0;
  }
  return flow::wire::encode(result);
}

ServiceSnapshot snapshot(const flow::Service& service) {
  ServiceSnapshot snap;
  snap.service = service.stats();
  snap.sched = service.scheduler_stats();
  const auto& cache = service.cache();
  snap.rewrite_hits = cache.hits();
  snap.rewrite_misses = cache.misses();
  snap.program_hits = cache.program_hits();
  snap.program_misses = cache.program_misses();
  return snap;
}

void report_service_metrics(const ServiceSnapshot& snap, Outcome& out) {
  const auto ratio = [](double part, double whole) {
    return whole > 0.0 ? part / whole : 0.0;
  };
  out.set("sched.steals", static_cast<double>(snap.sched.stolen), "count");
  out.set("sched.parks", static_cast<double>(snap.sched.parks), "count");
  out.set("sched.forked", static_cast<double>(snap.sched.forked), "count");
  out.set("sched.overflows", static_cast<double>(snap.sched.overflows),
          "count");
  out.set("flow.program_hit_ratio",
          ratio(static_cast<double>(snap.program_hits),
                static_cast<double>(snap.program_hits + snap.program_misses)),
          "ratio");
  out.set("flow.rewrite_hit_ratio",
          ratio(static_cast<double>(snap.rewrite_hits),
                static_cast<double>(snap.rewrite_hits + snap.rewrite_misses)),
          "ratio");
  out.set("flow.coalesced_ratio",
          ratio(static_cast<double>(snap.service.coalesced),
                static_cast<double>(snap.service.submitted)),
          "ratio");
}

}  // namespace perfbench

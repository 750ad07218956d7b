#include "trace.hpp"

#include <functional>
#include <thread>

namespace perfbench {

namespace {

/// Per-thread stack of open spans: each slot accumulates the nanoseconds
/// its already-closed children took.
thread_local std::vector<std::uint64_t> t_children_ns;

std::uint64_t ns_between(Clock::time_point from, Clock::time_point to) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(to - from).count());
}

}  // namespace

Tracer::Tracer() : origin_(Clock::now()) {}

Tracer::Span::Span(Tracer& tracer, std::string layer, std::string name)
    : tracer_(tracer), layer_(std::move(layer)), name_(std::move(name)) {
  t_children_ns.push_back(0);
  begin_ = Clock::now();
}

Tracer::Span::~Span() {
  const auto end = Clock::now();
  const auto total = ns_between(begin_, end);
  const auto children = t_children_ns.back();
  t_children_ns.pop_back();
  if (!t_children_ns.empty()) {
    t_children_ns.back() += total;
  }
  Event event{layer_, name_,
              std::chrono::duration<double, std::micro>(begin_ -
                                                        tracer_.origin_)
                  .count(),
              static_cast<double>(total) / 1000.0, 0, false};
  tracer_.record(std::move(event), layer_,
                 total > children ? total - children : 0);
}

void Tracer::add_child(const std::string& layer, const std::string& name,
                       Clock::time_point begin, std::uint64_t ns) {
  if (!t_children_ns.empty()) {
    t_children_ns.back() += ns;
  }
  Event event{layer, name,
              std::chrono::duration<double, std::micro>(begin - origin_)
                  .count(),
              static_cast<double>(ns) / 1000.0, 0, true};
  record(std::move(event), layer, ns);
}

std::uint32_t Tracer::thread_id() {
  const auto key = std::hash<std::thread::id>{}(std::this_thread::get_id());
  const auto [it, inserted] = thread_ids_.try_emplace(
      key, static_cast<std::uint32_t>(thread_ids_.size() + 1));
  return it->second;
}

void Tracer::record(Event event, const std::string& layer,
                    std::uint64_t self_ns) {
  const std::scoped_lock lock(mutex_);
  event.tid = thread_id();
  self_ns_[layer] += self_ns;
  events_.push_back(std::move(event));
}

std::map<std::string, double> Tracer::self_ms() const {
  const std::scoped_lock lock(mutex_);
  std::map<std::string, double> out;
  for (const auto& [layer, ns] : self_ns_) {
    out[layer] = static_cast<double>(ns) / 1e6;
  }
  return out;
}

void Tracer::write_chrome(std::ostream& os,
                          const JsonObject& other_data) const {
  const std::scoped_lock lock(mutex_);
  os << "{\"displayTimeUnit\": \"ms\", \"otherData\": " << other_data.text()
     << ", \"traceEvents\": [\n";
  bool first = true;
  for (const auto& event : events_) {
    if (!first) {
      os << ",\n";
    }
    first = false;
    JsonObject args;
    args.str("layer", event.layer);
    if (event.synthetic) {
      // Accumulated wall time reported by the layer itself; the position
      // inside the parent span is nominal.
      args.boolean("aggregated", true);
    }
    JsonObject line;
    line.str("name", event.name)
        .str("cat", event.layer)
        .str("ph", "X")
        .num("ts", event.begin_us)
        .num("dur", event.dur_us)
        .num("pid", 1)
        .num("tid", event.tid)
        .obj("args", args);
    os << line.text();
  }
  os << "\n]}\n";
}

}  // namespace perfbench

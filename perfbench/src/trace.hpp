#pragma once

// Span recorder of the traced run. Every call the benchmark makes into a
// layer's public function is wrapped in a Span; spans nest per thread, and
// each records its self time (duration minus the time of its children), so
// per-layer self times add up to the traced wall time without double
// counting. The recorded spans serialize as Chrome trace-event JSON, which
// chrome://tracing and Perfetto open directly.

#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

class Tracer {
 public:
  Tracer();

  /// RAII span: [construction, destruction) on the calling thread.
  class Span {
   public:
    Span(Tracer& tracer, std::string layer, std::string name);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer& tracer_;
    std::string layer_;
    std::string name_;
    Clock::time_point begin_;
    std::uint64_t parent_children_ns_ = 0;
  };

  /// Attributes `ns` of the innermost open span's time to a child of
  /// `layer` that the benchmark cannot wrap itself (e.g. the rewrite passes
  /// that run inside one rewrite call and report their own wall time).
  /// The child appears in the trace laid back-to-back from `begin`.
  void add_child(const std::string& layer, const std::string& name,
                 Clock::time_point begin, std::uint64_t ns);

  /// Self time per layer, in milliseconds, over every span recorded.
  [[nodiscard]] std::map<std::string, double> self_ms() const;

  /// Chrome trace-event JSON; `other_data` lands in the file's
  /// "otherData" block (Perfetto shows it as trace metadata).
  void write_chrome(std::ostream& os, const JsonObject& other_data) const;

 private:
  struct Event {
    std::string layer;
    std::string name;
    double begin_us = 0.0;
    double dur_us = 0.0;
    std::uint32_t tid = 0;
    bool synthetic = false;
  };

  void record(Event event, const std::string& layer, std::uint64_t self_ns);
  [[nodiscard]] std::uint32_t thread_id();

  Clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<Event> events_;
  std::map<std::string, std::uint64_t> self_ns_;
  std::map<std::uint64_t, std::uint32_t> thread_ids_;
};

}  // namespace perfbench

#pragma once

// Shared plumbing of the rlim benchmark program: clocks, order statistics,
// a minimal JSON writer, and the per-run outcome every workload fills.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}
inline double ms_since(Clock::time_point from) {
  return ms_between(from, Clock::now());
}

/// Nearest-rank percentile (q in [0, 1]) of an unsorted sample; 0 when empty.
double percentile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}

/// A tail percentile that is backed by data: the wanted quantile when the
/// sample has at least 10 values beyond it, otherwise the highest quantile
/// that does (never below the median).
struct Tail {
  double value = 0.0;
  double quantile = 0.0;
  std::size_t samples = 0;
};
Tail tail_percentile(const std::vector<double>& values, double wanted = 0.99);

/// Minimal JSON text builder: numbers keep every digit (shortest round-trip
/// form), strings are escaped.
std::string json_number(double value);
std::string json_string(std::string_view text);

class JsonObject {
 public:
  JsonObject& num(std::string_view key, double value);
  JsonObject& integer(std::string_view key, std::uint64_t value);
  JsonObject& str(std::string_view key, std::string_view value);
  JsonObject& boolean(std::string_view key, bool value);
  JsonObject& raw(std::string_view key, std::string raw_json);
  JsonObject& obj(std::string_view key, const JsonObject& value) {
    return raw(key, value.text());
  }
  [[nodiscard]] std::string text() const { return "{" + body_ + "}"; }
  [[nodiscard]] bool empty() const { return body_.empty(); }

 private:
  void key(std::string_view name);
  std::string body_;
};

/// A metric value with its unit, in report order.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one workload run produces. `mismatches` counts failed output checks;
/// `failed` counts jobs or requests that did not return a valid result.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t mismatches = 0;
  std::vector<std::pair<std::string, Metric>> metrics;
  JsonObject details;
  std::vector<std::string> mismatch_notes;

  void set(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] bool has(const std::string& name) const;
  /// Records a failed output check (kept short: the first few are printed).
  void mismatch(const std::string& note);
};

/// Peak resident set size of this process, in MiB.
double peak_rss_mb();

/// The CPUs this process may run on (its affinity mask at start-up).
std::vector<int> allowed_cpus();

/// Pins the calling thread to `width` CPUs of `cpus`, starting at the
/// `turn`-th and wrapping around. Threads it starts afterwards inherit the
/// pin. Does nothing when `cpus` is empty.
void pin_thread(const std::vector<int>& cpus, std::size_t turn,
                std::size_t width = 1);
/// Lets the calling thread run on every CPU of `cpus` again.
void unpin_thread(const std::vector<int>& cpus);

}  // namespace perfbench

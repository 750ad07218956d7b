#include "common.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <charconv>
#include <cstdio>

namespace perfbench {

double percentile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  const auto rank = static_cast<std::size_t>(
      std::llround(q * static_cast<double>(values.size() - 1)));
  std::nth_element(values.begin(), values.begin() + static_cast<long>(rank),
                   values.end());
  return values[rank];
}

Tail tail_percentile(const std::vector<double>& values, double wanted) {
  Tail tail;
  tail.samples = values.size();
  if (values.empty()) {
    return tail;
  }
  const auto n = static_cast<double>(values.size());
  tail.quantile = std::max(0.5, std::min(wanted, 1.0 - 10.0 / n));
  tail.value = percentile(values, tail.quantile);
  return tail;
}

std::string json_number(double value) {
  if (!std::isfinite(value)) {
    return "null";
  }
  char buffer[64];
  const auto result = std::to_chars(buffer, buffer + sizeof buffer, value);
  return std::string(buffer, result.ptr);
}

std::string json_string(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char escaped[8];
          std::snprintf(escaped, sizeof escaped, "\\u%04x", c);
          out += escaped;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

void JsonObject::key(std::string_view name) {
  if (!body_.empty()) {
    body_ += ", ";
  }
  body_ += json_string(name) + ": ";
}

JsonObject& JsonObject::num(std::string_view name, double value) {
  key(name);
  body_ += json_number(value);
  return *this;
}

JsonObject& JsonObject::integer(std::string_view name, std::uint64_t value) {
  key(name);
  body_ += std::to_string(value);
  return *this;
}

JsonObject& JsonObject::str(std::string_view name, std::string_view value) {
  key(name);
  body_ += json_string(value);
  return *this;
}

JsonObject& JsonObject::boolean(std::string_view name, bool value) {
  key(name);
  body_ += value ? "true" : "false";
  return *this;
}

JsonObject& JsonObject::raw(std::string_view name, std::string raw_json) {
  key(name);
  body_ += raw_json;
  return *this;
}

void Outcome::set(const std::string& name, double value,
                  const std::string& unit) {
  for (auto& [existing, metric] : metrics) {
    if (existing == name) {
      metric = {value, unit};
      return;
    }
  }
  metrics.push_back({name, {value, unit}});
}

bool Outcome::has(const std::string& name) const {
  for (const auto& [existing, metric] : metrics) {
    if (existing == name) {
      return true;
    }
  }
  return false;
}

void Outcome::mismatch(const std::string& note) {
  ++mismatches;
  if (mismatch_notes.size() < 8) {
    mismatch_notes.push_back(note);
  }
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::vector<int> allowed_cpus() {
  std::vector<int> cpus;
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof mask, &mask) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &mask)) {
        cpus.push_back(cpu);
      }
    }
  }
  return cpus;
}

namespace {

void set_affinity(const std::vector<int>& cpus, std::size_t first,
                  std::size_t count) {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  for (std::size_t k = 0; k < count; ++k) {
    CPU_SET(cpus[(first + k) % cpus.size()], &mask);
  }
  (void)sched_setaffinity(0, sizeof mask, &mask);
}

}  // namespace

void pin_thread(const std::vector<int>& cpus, std::size_t turn,
                std::size_t width) {
  if (!cpus.empty()) {
    set_affinity(cpus, turn, std::min(width, cpus.size()));
  }
}

void unpin_thread(const std::vector<int>& cpus) {
  if (!cpus.empty()) {
    set_affinity(cpus, 0, cpus.size());
  }
}

}  // namespace perfbench

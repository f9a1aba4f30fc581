// Result rows and the per-experiment JSON snapshot of the bench suite.
//
// Every experiment reports {name, value, unit} rows into a Results;
// run_suite renders each experiment as one snapshot
//   {"config":{...},"results":[{"name":...,"value":...,"unit":...},...],
//    "profile":{...},"memory":{...}}
// and nests the snapshots under "benches" in the suite document that
// bench_compare (obs/regression.hpp) reads. Non-finite values become JSON
// null (bare nan/inf are not JSON).
//
// Stopwatch is the suite's only clock: every `.elapsed` / `*_ms` row is a
// Stopwatch reading in fractional milliseconds.
#pragma once

#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/json.hpp"
#include "obs/memstats.hpp"
#include "obs/profile.hpp"

namespace miro::bench {

class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  /// Milliseconds since construction, with sub-millisecond resolution.
  double ms() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

struct Row {
  std::string name;
  double value;
  std::string unit;
};

class Results {
 public:
  void add(std::string name, double value, std::string unit) {
    rows_.push_back({std::move(name), value, std::move(unit)});
  }
  const std::vector<Row>& rows() const { return rows_; }

 private:
  std::vector<Row> rows_;
};

inline JsonValue json_value(double value) {
  return std::isfinite(value) ? JsonValue::make_number(value) : JsonValue();
}

/// One experiment's snapshot: `config` as given, the result rows, and the
/// profile / memory sections of the registries it ran under (either may be
/// null to omit the section). The memory section is informational; the
/// regression gate reads only "results".
inline JsonValue snapshot(JsonValue config, const Results& results,
                          const obs::ProfileRegistry* profile,
                          const obs::MemoryRegistry* memory) {
  JsonValue doc = JsonValue::make_object();
  doc.set("config", std::move(config));
  JsonValue rows = JsonValue::make_array();
  for (const Row& row : results.rows()) {
    JsonValue entry = JsonValue::make_object();
    entry.set("name", JsonValue::make_string(row.name));
    entry.set("value", json_value(row.value));
    entry.set("unit", JsonValue::make_string(row.unit));
    rows.push_back(std::move(entry));
  }
  doc.set("results", std::move(rows));
  if (profile != nullptr) {
    JsonValue spans = JsonValue::make_object();
    for (const auto& [name, stats] : profile->by_name()) {
      JsonValue span = JsonValue::make_object();
      const auto ms = [](std::uint64_t ns) {
        return json_value(static_cast<double>(ns) / 1e6);
      };
      span.set("count", json_value(static_cast<double>(stats.count)));
      span.set("total_ms", ms(stats.total_ns));
      span.set("self_ms", ms(stats.self_ns));
      span.set("max_ms", ms(stats.max_ns));
      spans.set(name, std::move(span));
    }
    doc.set("profile", std::move(spans));
  }
  if (memory != nullptr) {
    JsonValue accounts = JsonValue::make_object();
    for (const auto& [name, counters] : memory->accounts()) {
      JsonValue account = JsonValue::make_object();
      account.set("bytes", json_value(static_cast<double>(counters.current)));
      account.set("peak_bytes",
                  json_value(static_cast<double>(counters.peak)));
      accounts.set(name, std::move(account));
    }
    JsonValue section = JsonValue::make_object();
    section.set("accounts", std::move(accounts));
    if (memory->rss_samples() > 0) {
      section.set("rss_bytes",
                  json_value(static_cast<double>(memory->rss_bytes())));
      section.set("rss_peak_bytes",
                  json_value(static_cast<double>(memory->rss_peak_bytes())));
    }
    doc.set("memory", std::move(section));
  }
  return doc;
}

}  // namespace miro::bench

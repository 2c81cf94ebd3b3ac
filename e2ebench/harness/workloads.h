#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace e2ebench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;
  /// Human-readable lines (percentiles with n, notes, failed checks).
  std::vector<std::string> log;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void note(const std::string& line) { log.push_back(line); }
  /// A failed correctness check: the run is incorrect and counts a failure.
  void fail(const std::string& why) {
    correct = false;
    ++failed;
    log.push_back("CHECK FAILED: " + why);
  }
};

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

bool known_workload(const std::string& name);

/// Untraced run: end-to-end metrics. Traced run: per-layer metrics.
RunResult run_workload(const RunOptions& options);

/// Builds the workload's first serving unit and advances it to its first
/// simulated event; returns CLOCK_MONOTONIC nanoseconds at that point.
std::int64_t setup_probe(const std::string& workload, std::uint64_t seed);

}  // namespace e2ebench

// End-to-end benchmark harness for the poi360 simulator.
//
//   e2ebench run --workload NAME --seed N --seconds S --trace 0|1
//   e2ebench setup --workload NAME --seed N
//   e2ebench selftest
//   e2ebench facts
//
// `run` prints human-readable lines and, last, one JSON object with the
// keys correct/attempted/failed/metrics. `setup` prints the CLOCK_MONOTONIC
// time at which the workload's first simulated event has fired (run.py
// turns it into setup_s). run.py is the intended entry point.

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

int run_selftest();  // selftest.cpp

namespace {

#ifndef E2EBENCH_BUILD_TYPE
#define E2EBENCH_BUILD_TYPE "unknown"
#endif

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif

#ifdef __OPTIMIZE__
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

#ifdef POI360_SIMD
constexpr bool kSimd = true;
#else
constexpr bool kSimd = false;
#endif

std::string facts_json() {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"build_type\": \"%s\", \"optimized\": %s, \"sanitized\": %s, "
                "\"simd\": %s, \"nproc\": %ld, \"compiler\": \"%s\"}",
                E2EBENCH_BUILD_TYPE, kOptimized ? "true" : "false",
                kSanitized ? "true" : "false", kSimd ? "true" : "false",
                sysconf(_SC_NPROCESSORS_ONLN), __VERSION__);
  return buf;
}

void json_string(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
}

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: e2ebench run --workload NAME --seed N --seconds S --trace 0|1\n"
               "       e2ebench setup --workload NAME --seed N\n"
               "       e2ebench selftest | facts\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string mode = argv[1];
  if (mode == "facts") {
    std::printf("%s\n", facts_json().c_str());
    return 0;
  }
  if (mode == "selftest") return run_selftest();
  if (mode != "run" && mode != "setup") usage();
  if (kSanitized || !kOptimized) {
    std::fprintf(stderr, "e2ebench: refusing to measure a %s build\n",
                 kSanitized ? "sanitizer" : "unoptimized");
    return 3;
  }

  e2ebench::RunOptions o;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") o.workload = v;
    else if (flag == "--seed") o.seed = std::strtoull(v, nullptr, 10);
    else if (flag == "--seconds") o.seconds = std::atof(v);
    else if (flag == "--trace") o.trace = std::atoi(v) != 0;
    else usage();
  }
  if (!e2ebench::known_workload(o.workload) || !(o.seconds > 0.0)) usage();

  if (mode == "setup") {
    std::printf("SETUP_AT %lld\n",
                static_cast<long long>(e2ebench::setup_probe(o.workload, o.seed)));
    return 0;
  }

  e2ebench::RunResult r;
  try {
    r = e2ebench::run_workload(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2ebench: %s\n", e.what());
    return 1;
  }
  std::printf("# host: %s\n", facts_json().c_str());
  for (const std::string& line : r.log) std::printf("# %s\n", line.c_str());
  std::string out = "{\"correct\": ";
  out += r.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const e2ebench::Metric& m = r.metrics[i];
    if (i) out += ", ";
    json_string(out, m.name);
    char num[64];
    std::snprintf(num, sizeof(num), "%.17g", std::isfinite(m.value) ? m.value : 0.0);
    out += ": {\"value\": ";
    out += num;
    out += ", \"unit\": ";
    json_string(out, m.unit);
    out += "}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  return 0;
}

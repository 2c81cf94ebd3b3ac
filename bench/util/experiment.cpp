#include "util/experiment.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "poi360/common/table.h"
#include "util/options.h"

namespace poi360::bench {

namespace {

// Per-bench harness state: flag values plus the wall-clock / run counters
// reported at exit. All harness output goes to stderr so bench stdout stays
// byte-identical across --jobs settings.
struct HarnessState {
  std::string bench_name = "bench";
  int jobs = 0;  // 0 = auto (POI360_JOBS, else hardware_concurrency)
  bool progress = false;
  std::string out_json;
  std::string trace_dir;
  std::chrono::steady_clock::time_point start;
  long total_runs = 0;
  long failed_runs = 0;
  bool initialized = false;
};

HarnessState& state() {
  static HarnessState s;
  return s;
}

void report_at_exit() {
  HarnessState& s = state();
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    s.start)
          .count();
  const int resolved = runner::BatchRunner::resolve_jobs(s.jobs);
  std::fprintf(stderr, "[bench] %s runs=%ld failed=%ld jobs=%d wall_s=%.3f\n",
               s.bench_name.c_str(), s.total_runs, s.failed_runs, resolved,
               wall);
  if (!s.out_json.empty()) {
    std::ofstream out(s.out_json, std::ios::trunc);
    if (out) {
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "{\"bench\":\"%s\",\"jobs\":%d,\"runs\":%ld,"
                    "\"failed\":%ld,\"wall_s\":%.3f}\n",
                    s.bench_name.c_str(), resolved, s.total_runs,
                    s.failed_runs, wall);
      out << buf;
    } else {
      std::fprintf(stderr, "[bench] cannot write %s\n", s.out_json.c_str());
    }
  }
}

}  // namespace

void init(int argc, char** argv) {
  HarnessState& s = state();
  s.start = std::chrono::steady_clock::now();
  if (argc > 0) {
    const char* slash = std::strrchr(argv[0], '/');
    s.bench_name = slash ? slash + 1 : argv[0];
  }
  FlagParser parser;
  parser
      .on_value("--jobs", "N",
                [&s](const char* v) {
                  s.jobs = std::atoi(v);
                  return s.jobs >= 1;
                })
      .on_string("--out-json", "PATH", &s.out_json)
      .on_flag("--progress", &s.progress)
      .on_string("--trace-dir", "PATH", &s.trace_dir);
  parser.parse(argc, argv);
  if (!s.initialized) {
    s.initialized = true;
    std::atexit(report_at_exit);
  }
}

const std::string& trace_dir() { return state().trace_dir; }

runner::BatchResult run(const runner::ExperimentSpec& spec) {
  HarnessState& s = state();
  if (!s.initialized) {
    // Bench skipped init(): still time the sweep from the first batch.
    s.start = std::chrono::steady_clock::now();
    s.initialized = true;
    std::atexit(report_at_exit);
  }
  const runner::ExperimentSpec* effective = &spec;
  runner::ExperimentSpec traced;
  if (!s.trace_dir.empty() && spec.trace_dir().empty()) {
    std::filesystem::create_directories(s.trace_dir);
    traced = spec;
    traced.trace_dir(s.trace_dir);
    effective = &traced;
  }
  runner::BatchRunner::Options options;
  options.jobs = s.jobs;
  if (s.progress) {
    options.on_progress = [](const runner::RunResult& r, int done,
                             int total) {
      std::fprintf(stderr, "[bench] %d/%d %s%s%s\n", done, total,
                   r.spec.label().c_str(), r.ok ? "" : " FAILED: ",
                   r.ok ? "" : r.error.c_str());
    };
  }
  runner::BatchResult batch = runner::BatchRunner(options).run(*effective);
  s.total_runs += static_cast<long>(batch.runs.size());
  s.failed_runs += static_cast<long>(batch.failed_count());
  for (const runner::RunResult& r : batch.runs) {
    if (!r.ok && !s.progress) {
      std::fprintf(stderr, "[bench] run %s failed: %s\n",
                   r.spec.label().c_str(), r.error.c_str());
    }
  }
  return batch;
}

namespace {

template <typename Runs, typename Sampler>
SampleSet pooled(const Runs& runs, Sampler sampler) {
  SampleSet out;
  for (const auto& run : runs) {
    const SampleSet samples = sampler(run);
    for (double v : samples.samples()) out.add(v);
  }
  return out;
}

}  // namespace

SampleSet pooled_level_variation(
    const std::vector<const metrics::SessionMetrics*>& runs,
    SimDuration window) {
  return pooled(runs, [&](const metrics::SessionMetrics* m) {
    return m->roi_level_variation(window);
  });
}

SampleSet pooled_delays_ms(
    const std::vector<const metrics::SessionMetrics*>& runs) {
  return pooled(runs, [](const metrics::SessionMetrics* m) {
    return m->frame_delays_ms();
  });
}

void print_cdf(const std::string& title, const SampleSet& samples,
               const std::string& unit, int bins) {
  std::printf("%s  (n=%zu)\n", title.c_str(), samples.count());
  Table t({unit, "CDF"});
  for (const auto& [x, p] : samples.cdf_points(bins)) {
    t.add_row({fmt(x, 2), fmt(p, 3)});
  }
  std::printf("%s\n", t.to_string().c_str());
}

core::SessionConfig micro_config(core::CompressionScheme scheme,
                                 core::NetworkType network,
                                 SimDuration duration) {
  core::SessionConfig config = network == core::NetworkType::kWireline
                                   ? core::presets::wireline()
                                   : core::presets::cellular_static();
  config.compression = scheme;
  config.rate_control = core::RateControl::kGcc;
  config.duration = duration;
  return config;
}

core::SessionConfig transport_config(core::RateControl rate_control,
                                     SimDuration duration) {
  core::SessionConfig config = core::presets::cellular_static();
  config.compression = core::CompressionScheme::kPoi360;
  config.rate_control = rate_control;
  config.duration = duration;
  return config;
}

void print_mos_row(const std::string& label, const std::vector<double>& pdf) {
  std::printf("%-28s Bad=%5.1f%%  Poor=%5.1f%%  Fair=%5.1f%%  Good=%5.1f%%  "
              "Excellent=%5.1f%%\n",
              label.c_str(), pdf[0] * 100.0, pdf[1] * 100.0, pdf[2] * 100.0,
              pdf[3] * 100.0, pdf[4] * 100.0);
}

}  // namespace poi360::bench

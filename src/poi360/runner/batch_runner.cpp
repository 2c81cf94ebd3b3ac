#include "poi360/runner/batch_runner.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>

#include "poi360/core/session.h"
#include "poi360/obs/trace_export.h"

namespace poi360::runner {

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

bool matches(const RunResult& run, const BatchResult::Where& where) {
  for (const auto& [axis, label] : where) {
    if (run.spec.param(axis) != label) return false;
  }
  return true;
}

}  // namespace

std::size_t BatchResult::ok_count() const {
  return static_cast<std::size_t>(
      std::count_if(runs.begin(), runs.end(),
                    [](const RunResult& r) { return r.ok; }));
}

std::vector<const RunResult*> BatchResult::select(const Where& where) const {
  std::vector<const RunResult*> out;
  for (const RunResult& run : runs) {
    if (matches(run, where)) out.push_back(&run);
  }
  return out;
}

std::vector<const metrics::SessionMetrics*> BatchResult::metrics_where(
    const Where& where) const {
  std::vector<const metrics::SessionMetrics*> out;
  for (const RunResult& run : runs) {
    if (run.ok && matches(run, where)) out.push_back(&run.metrics);
  }
  return out;
}

metrics::SessionMetrics BatchResult::merged(const Where& where) const {
  return metrics::merge(metrics_where(where));
}

RunResult execute_run(const RunSpec& spec) {
  RunResult out;
  out.spec = spec;
  const auto t0 = std::chrono::steady_clock::now();
  try {
    core::SessionConfig config = spec.config;
    // A trace path implies tracing: the spec stays declarative and the flag
    // lives in one place. A pre-enabled config without a path still records
    // (the caller reads Session::trace() itself), it just isn't written.
    if (!spec.trace_path.empty()) config.trace.enabled = true;
    core::Session session(config);
    session.run();
    out.metrics = session.metrics();
    out.metrics.set_run_id(spec.run_id);
    if (!spec.trace_path.empty() && session.trace()) {
      obs::write_trace(spec.trace_path, *session.trace(), spec.label());
    }
    out.ok = true;
  } catch (const std::exception& e) {
    out.error = e.what();
  } catch (...) {
    out.error = "unknown exception";
  }
  out.wall_seconds = seconds_since(t0);
  return out;
}

int BatchRunner::resolve_jobs(int jobs) {
  if (jobs > 0) return jobs;
  if (const char* env = std::getenv("POI360_JOBS")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

BatchResult BatchRunner::run(const ExperimentSpec& spec) const {
  return run(spec.expand(), spec.name());
}

void BatchRunner::parallel_for(
    int jobs, std::size_t count,
    const std::function<void(std::size_t)>& task) {
  if (count == 0) return;
  const int workers = std::max(
      1, std::min(resolve_jobs(jobs), static_cast<int>(count)));

  // Each worker claims the next unstarted index, so output slots written by
  // `task` land in index order by construction regardless of scheduling.
  std::atomic<std::size_t> next{0};
  std::mutex error_mutex;
  std::exception_ptr first_error;
  std::size_t first_error_index = count;
  auto worker = [&] {
    while (true) {
      const std::size_t i = next.fetch_add(1);
      if (i >= count) return;
      try {
        task(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (i < first_error_index) {
          first_error_index = i;
          first_error = std::current_exception();
        }
      }
    }
  };

  if (workers == 1) {
    worker();  // inline: no thread overhead for serial batches
  } else {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(workers));
    for (int j = 0; j < workers; ++j) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
  }
  if (first_error) std::rethrow_exception(first_error);
}

BatchResult BatchRunner::run(std::vector<RunSpec> specs,
                             std::string experiment) const {
  BatchResult result;
  result.experiment = std::move(experiment);
  const int total = static_cast<int>(specs.size());
  result.jobs = std::max(1, std::min(resolve_jobs(options_.jobs), total));
  result.runs.resize(specs.size());
  const auto t0 = std::chrono::steady_clock::now();

  std::mutex progress_mutex;
  int completed = 0;
  // execute_run captures per-run exceptions into the result slot, so the
  // pool's own rethrow path only fires on harness bugs.
  parallel_for(result.jobs, specs.size(), [&](std::size_t i) {
    result.runs[i] = execute_run(specs[i]);
    if (options_.on_progress) {
      std::lock_guard<std::mutex> lock(progress_mutex);
      options_.on_progress(result.runs[i], ++completed, total);
    }
  });

  result.wall_seconds = seconds_since(t0);
  return result;
}

}  // namespace poi360::runner

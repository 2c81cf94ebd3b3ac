#pragma once

#include <string>
#include <vector>

#include "poi360/common/stats.h"
#include "poi360/core/config.h"
#include "poi360/core/session.h"
#include "poi360/metrics/session_metrics.h"
#include "poi360/runner/batch_runner.h"
#include "poi360/runner/experiment_spec.h"
#include "poi360/runner/result_io.h"

// Shared harness for the paper-reproduction benchmarks. Benches declare an
// runner::ExperimentSpec (base config + axes + repeats) and execute it with
// bench::run(), which farms the grid over the --jobs worker pool; results
// come back in grid order, so every figure is byte-identical no matter how
// many workers ran it.

namespace poi360::bench {

/// Parses the shared harness flags and starts the wall-clock that the
/// harness reports at exit (to stderr, plus --out-json when given — the
/// BENCH_*.json sweep-cost record). Call first in every bench main().
///
///   --jobs N        worker threads (default: POI360_JOBS env var, else
///                   hardware_concurrency)
///   --out-json P    write {"bench","jobs","runs","wall_s",...} to P at exit
///   --progress      report per-run completion on stderr
///   --trace-dir P   record every run with tracing enabled and write one
///                   Chrome-trace JSON per run into P (created if missing;
///                   filenames derive from the grid point + seed, see
///                   runner::trace_file_name). Off by default: without the
///                   flag no recorder exists and stdout is byte-identical.
void init(int argc, char** argv);

/// The --trace-dir value; empty when tracing is off.
const std::string& trace_dir();

/// Executes a spec on the harness's BatchRunner (jobs + progress wiring)
/// and accounts its runs/wall-clock into the per-bench report.
runner::BatchResult run(const runner::ExperimentSpec& spec);

/// Pools the per-run ROI-compression-level sliding-window variation samples
/// (Fig. 12) — must be computed per run, then pooled.
SampleSet pooled_level_variation(
    const std::vector<const metrics::SessionMetrics*>& runs,
    SimDuration window = sec(2));

/// Pools per-run frame-delay samples (ms).
SampleSet pooled_delays_ms(
    const std::vector<const metrics::SessionMetrics*>& runs);

/// Prints an evenly spaced CDF of `samples` ("value unit -> cdf").
void print_cdf(const std::string& title, const SampleSet& samples,
               const std::string& unit, int bins = 12);

/// Prints a 5-bucket MOS PDF row (Bad..Excellent).
void print_mos_row(const std::string& label, const std::vector<double>& pdf);

/// §6.1.1 microbenchmark setup: the given compression scheme over the given
/// network, with GCC as the transport for both (the paper isolates the
/// compression algorithms by fixing the rate control to WebRTC's default).
core::SessionConfig micro_config(core::CompressionScheme scheme,
                                 core::NetworkType network,
                                 SimDuration duration = sec(150));

/// §6.1.2 microbenchmark setup: POI360 compression over cellular with the
/// given transport.
core::SessionConfig transport_config(core::RateControl rate_control,
                                     SimDuration duration = sec(200));

}  // namespace poi360::bench

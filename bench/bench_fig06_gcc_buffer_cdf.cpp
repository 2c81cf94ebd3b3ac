// Reproduces paper Fig. 6: CDF of the uplink firmware buffer level while
// streaming a 4K panoramic video under WebRTC's default rate control (GCC).
//
// Paper shape to check: the buffer is (nearly) empty for a large fraction
// of the time (~40%) even though traffic always presses against the
// available bandwidth — the legacy R_rtp = R_v coupling cannot keep the
// proportional-fair scheduler fed.

#include <cstdio>
#include <stdexcept>

#include "poi360/common/table.h"
#include "util/experiment.h"

using namespace poi360;

int main(int argc, char** argv) {
  bench::init(argc, argv);
  const runner::BatchResult batch = bench::run(
      runner::ExperimentSpec(
          bench::transport_config(core::RateControl::kGcc, sec(200)))
          .repeats(5));
  if (batch.failed_count() > 0) {
    throw std::runtime_error("fig06: a run failed");
  }

  SampleSet levels;
  for (const metrics::SessionMetrics* run : batch.metrics_where()) {
    const SampleSet run_levels = run->buffer_levels_kb();
    for (double v : run_levels.samples()) levels.add(v);
  }

  std::printf("=== Fig. 6: firmware buffer level CDF under GCC ===\n");
  bench::print_cdf("buffer level", levels, "KB", 12);
  std::printf("fraction below 0.5 KB (\"empty\"): %s\n",
              fmt_pct(levels.cdf_at(0.5)).c_str());
  std::printf("median: %.1f KB, p90: %.1f KB\n", levels.median(),
              levels.percentile(0.9));
  std::printf("\nShape check: a large fraction of reports find the buffer "
              "empty; heavy tail into the tens of KB during grant famines.\n");
  return 0;
}

// Reproduces paper Fig. 12: short-term stability of the ROI compression
// level — CDF of the std of the displayed-ROI compression level over a 2 s
// sliding window, for each compression scheme over wireline and cellular.
//
// Paper shapes to check: all schemes stable over wireline; over cellular
// Conduit and Pyramid show ~14x and ~5x higher variation than POI360
// (Conduit oscillates between its only two levels on every ROI shift).

#include <cstdio>
#include <stdexcept>

#include "poi360/common/table.h"
#include "util/experiment.h"

using namespace poi360;

int main(int argc, char** argv) {
  bench::init(argc, argv);
  constexpr int kRuns = 10;
  const core::CompressionScheme schemes[] = {
      core::CompressionScheme::kPoi360, core::CompressionScheme::kConduit,
      core::CompressionScheme::kPyramid};
  const core::NetworkType networks[] = {core::NetworkType::kWireline,
                                        core::NetworkType::kCellular};

  for (auto network : networks) {
    std::printf("=== Fig. 12 (%s): ROI compression level variation ===\n",
                core::to_string(network).c_str());
    Table t({"scheme", "mean std", "median", "p90", "p99"});
    for (auto scheme : schemes) {
      const runner::BatchResult batch = bench::run(
          runner::ExperimentSpec(bench::micro_config(scheme, network))
              .repeats(kRuns));
      if (batch.failed_count() > 0) {
        throw std::runtime_error("fig12: a run failed");
      }
      const auto var = bench::pooled_level_variation(batch.metrics_where());
      t.add_row({core::to_string(scheme), fmt(var.mean(), 2),
                 fmt(var.median(), 2), fmt(var.percentile(0.9), 2),
                 fmt(var.percentile(0.99), 2)});
      bench::print_cdf("CDF: " + core::to_string(scheme), var, "std", 10);
    }
    std::printf("%s\n", t.to_string().c_str());
  }
  return 0;
}

// Reproduces paper Fig. 14: video freeze ratio (frames delayed > 600 ms,
// plus frames the sender had to skip) for each compression scheme over
// wireline and cellular.
//
// Paper shapes to check: everything < 2% over wireline (POI360 lowest at
// ~0.6%); over cellular Conduit and Pyramid fail with 8-17% while POI360
// stays below ~3%.

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

  Table t({"network", "scheme", "freeze ratio", "displayed", "skipped"});
  for (auto network : networks) {
    for (auto scheme : schemes) {
      const runner::BatchResult batch = bench::run(
          runner::ExperimentSpec(bench::micro_config(scheme, network))
              .repeats(kRuns));
      if (batch.failed_count() > 0) {
        throw std::runtime_error("fig14: a run failed");
      }
      const metrics::SessionMetrics merged = batch.merged();
      t.add_row({core::to_string(network), core::to_string(scheme),
                 fmt_pct(merged.freeze_ratio()),
                 std::to_string(merged.displayed_frames()),
                 std::to_string(merged.skipped_frames())});
    }
  }
  std::printf("=== Fig. 14: video freeze ratio ===\n%s",
              t.to_string().c_str());
  return 0;
}

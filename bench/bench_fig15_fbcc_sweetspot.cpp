// Reproduces paper Fig. 15: scatter of (firmware buffer level, per-second
// uplink TBS) under FBCC vs. GCC across 200 s telephony sessions.
//
// Paper shape to check: FBCC concentrates its samples at the "sweet spot" —
// the high-usage region where throughput has just saturated (buffer around
// 5-15 kB) — while GCC leaves a substantial fraction of samples in the
// low-usage region (empty-ish buffer, < 2 Mbps granted).

#include <cstdio>
#include <stdexcept>

#include "poi360/common/table.h"
#include "util/experiment.h"

using namespace poi360;

namespace {

void summarize(const char* label,
               const std::vector<const metrics::SessionMetrics*>& runs) {
  // Region split following the paper: low usage (TBS/s < 2 Mbps),
  // high usage (>= 2 Mbps, buffer below the saturation knee), overuse
  // (buffer beyond the knee, throughput no longer grows).
  constexpr double kKneeKb = 12.0;
  std::int64_t low = 0, high = 0, overuse = 0, total = 0;
  RunningStats buffer_kb, tbs_mbps;
  // Occupancy-binned mean TBS, 2 kB bins up to 20 kB.
  constexpr int kBins = 10;
  RunningStats bins[kBins + 1];

  for (const metrics::SessionMetrics* run : runs) {
    for (const auto& r : run->rate_samples()) {
      const double kb = static_cast<double>(r.fw_buffer_bytes) / 1024.0;
      const double mb = to_mbps(r.rphy);
      ++total;
      buffer_kb.add(kb);
      tbs_mbps.add(mb);
      if (mb < 2.0) {
        ++low;
      } else if (kb <= kKneeKb) {
        ++high;
      } else {
        ++overuse;
      }
      auto bin = static_cast<int>(kb / 2.0);
      if (bin > kBins) bin = kBins;
      bins[bin].add(mb);
    }
  }

  std::printf("--- %s ---\n", label);
  std::printf("samples %lld | mean buffer %.1f KB | mean TBS/s %.2f Mbps\n",
              static_cast<long long>(total), buffer_kb.mean(),
              tbs_mbps.mean());
  std::printf("regions: low usage %s | high usage (sweet) %s | overuse %s\n",
              fmt_pct(static_cast<double>(low) / total).c_str(),
              fmt_pct(static_cast<double>(high) / total).c_str(),
              fmt_pct(static_cast<double>(overuse) / total).c_str());
  Table t({"buffer bin (KB)", "mean TBS/s (Mbps)", "samples"});
  for (int b = 0; b <= kBins; ++b) {
    if (bins[b].count() < 20) continue;
    t.add_row({std::to_string(2 * b) + "-" + std::to_string(2 * b + 2),
               fmt(bins[b].mean(), 2), std::to_string(bins[b].count())});
  }
  std::printf("%s\n", t.to_string().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  bench::init(argc, argv);
  std::printf("=== Fig. 15: buffer level vs UL TBS/s, FBCC vs GCC ===\n\n");
  for (auto rc : {core::RateControl::kFbcc, core::RateControl::kGcc}) {
    const runner::BatchResult batch = bench::run(
        runner::ExperimentSpec(bench::transport_config(rc, sec(200)))
            .repeats(5));
    if (batch.failed_count() > 0) {
      throw std::runtime_error("fig15: a run failed");
    }
    summarize(core::to_string(rc).c_str(), batch.metrics_where());
  }
  std::printf("Shape check: FBCC mass in the high-usage band around the\n"
              "saturation knee; GCC mass in the low-usage region.\n");
  return 0;
}

// Reproduces paper Fig. 5: the relation between firmware buffer occupancy
// and the granted uplink TBS throughput on an LTE phone.
//
// Paper shape to check: with a small buffer, TBS/s grows roughly linearly
// with occupancy (the proportional-fair scheduler grants what the BSR
// advertises); beyond ~10 kB it saturates near the uplink capacity
// (~5.5 Mbps at strong signal).
//
// Method: inject constant-rate traffic at a sweep of rates so the buffer
// dwells at different levels, and bin per-subframe (occupancy, trailing
// 1 s TBS) samples by occupancy. The occupancy is read every 1 ms subframe;
// the TBS window is fed by the grant probe.

#include <cstdio>
#include <deque>

#include "poi360/common/table.h"
#include "poi360/lte/uplink.h"
#include "poi360/sim/simulator.h"
#include "util/experiment.h"

using namespace poi360;

namespace {
struct Blob {
  std::int64_t bytes;
};
}  // namespace

int main(int argc, char** argv) {
  bench::init(argc, argv);
  // One bin per kB of occupancy, up to 25 kB like the paper's axis.
  constexpr int kBins = 25;
  RunningStats bin_stats[kBins + 1];

  for (double rate_mbps = 0.5; rate_mbps <= 7.0; rate_mbps += 0.5) {
    sim::Simulator simulator;
    lte::ChannelConfig channel;  // strong static signal, idle cell
    channel.rss_dbm = -73.0;
    channel.mean_cell_load = 0.12;
    lte::UplinkConfig uplink_config;
    lte::LteUplink<Blob> uplink(simulator, channel, uplink_config,
                                /*seed=*/7 + static_cast<int>(rate_mbps * 10),
                                [](Blob, SimTime) {});

    // Trailing 1 s TBS window, fed by the subframe probe (once per grant).
    std::deque<std::pair<SimTime, std::int64_t>> window;
    std::int64_t window_bytes = 0;
    auto trim_window = [&](SimTime now) {
      while (!window.empty() && window.front().first < now - sec(1)) {
        window_bytes -= window.front().second;
        window.pop_front();
      }
    };
    uplink.set_subframe_probe(
        [&](SimTime now, std::int64_t, std::int64_t tbs) {
          window.emplace_back(now, tbs);
          window_bytes += tbs;
          trim_window(now);
        });
    simulator.schedule_periodic(msec(1), msec(1), [&]() {
      const SimTime now = simulator.now();
      if (now < sec(2)) return;  // warm-up
      trim_window(now);
      auto bin = static_cast<int>(uplink.buffer_bytes() / 1024);
      if (bin > kBins) bin = kBins;
      bin_stats[bin].add(static_cast<double>(window_bytes) * 8.0 / 1e6);
    });

    uplink.start();
    const Bitrate rate = mbps(rate_mbps);
    simulator.schedule_periodic(msec(5), msec(5), [&]() {
      uplink.push(Blob{bytes_at_rate(rate, msec(5))});
    });
    simulator.run_until(sec(30));
  }

  std::printf("=== Fig. 5: sum UL TBS/s vs firmware buffer occupancy ===\n");
  Table t({"buffer (KB)", "mean TBS/s (Mbps)", "samples"});
  for (int b = 0; b <= kBins; ++b) {
    if (bin_stats[b].count() < 50) continue;
    t.add_row({std::to_string(b), fmt(bin_stats[b].mean(), 2),
               std::to_string(bin_stats[b].count())});
  }
  std::printf("%s", t.to_string().c_str());
  std::printf("\nShape check: linear growth at low occupancy, saturation "
              "near ~5.5 Mbps beyond ~10 KB.\n");
  return 0;
}

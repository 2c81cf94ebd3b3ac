#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "poi360/common/stats.h"
#include "poi360/lte/uplink.h"
#include "poi360/sim/simulator.h"

namespace poi360::lte {
namespace {

struct Blob {
  int id = 0;
  std::int64_t bytes = 0;
};

ChannelConfig quiet_channel() {
  ChannelConfig c;
  c.rss_dbm = -73.0;
  c.mean_cell_load = 0.1;
  c.load_std = 0.0;
  c.fading_std = 0.0;
  c.outage_per_min = 0.0;
  return c;
}

UplinkConfig quiet_uplink() {
  UplinkConfig c;
  c.bler = 0.0;
  c.surge_mean_interval = sec(100000);
  c.famine_mean_interval = sec(100000);
  return c;
}

TEST(LteUplink, DeliversPushedPackets) {
  sim::Simulator s;
  std::vector<int> delivered;
  LteUplink<Blob> uplink(s, quiet_channel(), quiet_uplink(), 1,
                         [&](Blob b, SimTime) { delivered.push_back(b.id); });
  uplink.start();
  s.schedule_at(msec(10), [&]() {
    uplink.push({1, 1200});
    uplink.push({2, 1200});
  });
  s.run_until(sec(1));
  EXPECT_EQ(delivered, (std::vector<int>{1, 2}));
  EXPECT_EQ(uplink.buffer_bytes(), 0);
}

TEST(LteUplink, GrantGrowsWithBacklogThenSaturates) {
  // Measure throughput at two sustained injection rates: a low rate settles
  // at a low buffer (slope-limited grants), a very high rate saturates at
  // the channel capacity.
  auto run = [](Bitrate inject) {
    sim::Simulator s;
    std::int64_t delivered_bytes = 0;
    LteUplink<Blob> uplink(s, quiet_channel(), quiet_uplink(), 1,
                           [&](Blob b, SimTime) { delivered_bytes += b.bytes; });
    uplink.start();
    s.schedule_periodic(msec(5), msec(5), [&]() {
      uplink.push({0, bytes_at_rate(inject, msec(5))});
    });
    s.run_until(sec(20));
    return rate_of(delivered_bytes, sec(20));
  };
  const Bitrate low = run(mbps(1.0));
  const Bitrate high = run(mbps(20.0));
  EXPECT_NEAR(to_mbps(low), 1.0, 0.15);  // keeps up with low rate
  // Saturates near the idle-cell capacity (~6.5 * 0.9).
  EXPECT_GT(to_mbps(high), 4.0);
  EXPECT_LT(to_mbps(high), 7.0);
}

TEST(LteUplink, EmptyBufferEarnsNoGrants) {
  sim::Simulator s;
  std::int64_t tbs_total = 0;
  LteUplink<Blob> uplink(s, quiet_channel(), quiet_uplink(), 1,
                         [](Blob, SimTime) {});
  uplink.set_subframe_probe(
      [&](SimTime, std::int64_t, std::int64_t tbs) { tbs_total += tbs; });
  uplink.start();
  s.run_until(sec(5));
  EXPECT_EQ(tbs_total, 0);
  EXPECT_EQ(uplink.total_tbs_bytes(), 0);
}

TEST(LteUplink, DropTailAtBufferLimit) {
  sim::Simulator s;
  auto config = quiet_uplink();
  config.buffer_limit_bytes = 5000;
  LteUplink<Blob> uplink(s, quiet_channel(), config, 1, [](Blob, SimTime) {});
  uplink.start();
  s.schedule_at(0, [&]() {
    uplink.push({1, 3000});
    uplink.push({2, 3000});  // would exceed the 5000-byte cap
  });
  s.run_until(msec(1));
  EXPECT_EQ(uplink.dropped(), 1);
}

TEST(LteUplink, DiagReportsCadenceAndTbsSum) {
  sim::Simulator s;
  std::vector<DiagReport> reports;
  LteUplink<Blob> uplink(s, quiet_channel(), quiet_uplink(), 1,
                         [](Blob, SimTime) {});
  uplink.set_diag_sink([&](const DiagReport& r) { reports.push_back(r); });
  uplink.start();
  s.schedule_periodic(msec(5), msec(5), [&]() {
    uplink.push({0, bytes_at_rate(mbps(2), msec(5))});
  });
  s.run_until(sec(4));
  ASSERT_GE(reports.size(), 90u);
  for (std::size_t i = 1; i < reports.size(); ++i) {
    EXPECT_EQ(reports[i].time - reports[i - 1].time, msec(40));
    EXPECT_EQ(reports[i].interval, msec(40));
  }
  // The TBS sums over the steady interval should account for roughly the
  // injected traffic.
  std::int64_t tbs = 0;
  for (const auto& r : reports) tbs += r.tbs_bytes;
  const double expected = 2e6 / 8.0 * 4.0;  // 2 Mbps for 4 s in bytes
  EXPECT_NEAR(static_cast<double>(tbs), expected, expected * 0.2);
}

TEST(LteUplink, BsrDelayPostponesFirstGrant) {
  sim::Simulator s;
  std::vector<SimTime> drains;
  LteUplink<Blob> uplink(s, quiet_channel(), quiet_uplink(), 1,
                         [&](Blob, SimTime at) { drains.push_back(at); });
  std::int64_t first_tbs_at = -1;
  uplink.set_subframe_probe([&](SimTime t, std::int64_t, std::int64_t tbs) {
    if (tbs > 0 && first_tbs_at < 0) first_tbs_at = t;
  });
  uplink.start();
  s.schedule_at(msec(1), [&]() { uplink.push({1, 50'000}); });
  s.run_until(sec(1));
  // The scheduler cannot react before the BSR round trip (8 ms): the grant
  // at 4 ms samples the buffer, and the grant 8 ms later serves it.
  ASSERT_GT(first_tbs_at, 0);
  EXPECT_EQ(first_tbs_at, msec(12));
}

TEST(LteUplink, ProbeFiresOncePerGrant) {
  sim::Simulator s;
  LteUplink<Blob> uplink(s, quiet_channel(), quiet_uplink(), 1,
                         [](Blob, SimTime) {});
  std::vector<SimTime> grants;
  uplink.set_subframe_probe(
      [&](SimTime t, std::int64_t, std::int64_t) { grants.push_back(t); });
  uplink.start();
  s.run_until(sec(3));
  const auto in_second = std::count_if(
      grants.begin(), grants.end(),
      [](SimTime t) { return t > sec(1) && t <= sec(2); });
  EXPECT_EQ(in_second, 250);  // grant_period 4 x 1 ms subframes
  for (std::size_t i = 1; i < grants.size(); ++i) {
    ASSERT_EQ(grants[i] - grants[i - 1], msec(4));
  }
}

TEST(LteUplink, RejectsBsrDelayOffTheGrantCadence) {
  sim::Simulator s;
  auto make = [&](int period, SimDuration bsr_delay) {
    auto config = quiet_uplink();
    config.grant_period = period;
    config.bsr_delay = bsr_delay;
    LteUplink<Blob> uplink(s, quiet_channel(), config, 1,
                           [](Blob, SimTime) {});
  };
  EXPECT_THROW(make(4, msec(6)), std::invalid_argument);
  EXPECT_THROW(make(3, msec(8)), std::invalid_argument);
  EXPECT_THROW(make(4, -msec(4)), std::invalid_argument);
  EXPECT_NO_THROW(make(4, msec(8)));
  EXPECT_NO_THROW(make(1, msec(3)));
  EXPECT_NO_THROW(make(8, msec(16)));
}

TEST(LteUplink, BlerSlowsDraining) {
  auto run = [](double bler) {
    sim::Simulator s;
    std::int64_t delivered = 0;
    auto config = quiet_uplink();
    config.bler = bler;
    LteUplink<Blob> uplink(s, quiet_channel(), config, 1,
                           [&](Blob b, SimTime) { delivered += b.bytes; });
    uplink.start();
    s.schedule_periodic(msec(5), msec(5), [&]() {
      uplink.push({0, bytes_at_rate(mbps(12), msec(5))});  // saturating
    });
    s.run_until(sec(10));
    return delivered;
  };
  EXPECT_LT(run(0.3), run(0.0));
}

TEST(LteUplink, SurgeDrainsBufferFaster) {
  auto run = [](bool surges) {
    sim::Simulator s;
    auto config = quiet_uplink();
    if (surges) {
      config.surge_mean_interval = msec(500);
      config.surge_mean_duration = msec(200);
      config.surge_gain = 5.0;
    }
    poi360::RunningStats buffer;
    LteUplink<Blob> uplink(s, quiet_channel(), config, 1,
                           [](Blob, SimTime) {});
    uplink.set_subframe_probe([&](SimTime t, std::int64_t b, std::int64_t) {
      if (t > sec(2)) buffer.add(static_cast<double>(b));
    });
    uplink.start();
    s.schedule_periodic(msec(5), msec(5), [&]() {
      uplink.push({0, bytes_at_rate(mbps(2.5), msec(5))});
    });
    s.run_until(sec(20));
    return buffer.mean();
  };
  EXPECT_LT(run(true), run(false));
}

TEST(LteUplink, FamineBuildsBacklog) {
  auto run = [](bool famines) {
    sim::Simulator s;
    auto config = quiet_uplink();
    if (famines) {
      config.famine_mean_interval = msec(1500);
      config.famine_mean_duration = msec(500);
      config.famine_gain = 0.15;
    }
    poi360::RunningStats buffer;
    LteUplink<Blob> uplink(s, quiet_channel(), config, 1,
                           [](Blob, SimTime) {});
    uplink.set_subframe_probe([&](SimTime t, std::int64_t b, std::int64_t) {
      if (t > sec(2)) buffer.add(static_cast<double>(b));
    });
    uplink.start();
    s.schedule_periodic(msec(5), msec(5), [&]() {
      uplink.push({0, bytes_at_rate(mbps(2.5), msec(5))});
    });
    s.run_until(sec(20));
    return buffer.max();
  };
  EXPECT_GT(run(true), 2.0 * run(false));
}

TEST(LteUplink, GrantPeriodBatchesService) {
  // With a longer grant period the buffer oscillates more (service comes in
  // bigger, rarer chunks) but the mean throughput is unchanged.
  auto run = [](int period) {
    sim::Simulator s;
    auto config = quiet_uplink();
    config.grant_period = period;
    std::int64_t delivered = 0;
    poi360::RunningStats buffer;
    LteUplink<Blob> uplink(s, quiet_channel(), config, 1,
                           [&](Blob b, SimTime) { delivered += b.bytes; });
    // Sample every subframe: the probe fires only at grants, which would
    // see a long period's buffer at its peaks only.
    s.schedule_periodic(msec(1), msec(1), [&]() {
      if (s.now() > sec(2)) {
        buffer.add(static_cast<double>(uplink.buffer_bytes()));
      }
    });
    uplink.start();
    s.schedule_periodic(msec(5), msec(5), [&]() {
      uplink.push({0, bytes_at_rate(mbps(2), msec(5))});
    });
    s.run_until(sec(20));
    return std::pair{delivered, buffer.stddev()};
  };
  const auto [bytes1, std1] = run(1);
  const auto [bytes8, std8] = run(8);
  EXPECT_NEAR(static_cast<double>(bytes8), static_cast<double>(bytes1),
              bytes1 * 0.1);
  EXPECT_GT(std8, std1);
}

}  // namespace
}  // namespace poi360::lte

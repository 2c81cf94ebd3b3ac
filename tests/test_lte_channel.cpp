#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "poi360/common/rng.h"
#include "poi360/common/stats.h"
#include "poi360/lte/channel.h"
#include "poi360/lte/tbs.h"

namespace poi360::lte {
namespace {

TEST(RssMapping, AnchorsAndClamps) {
  EXPECT_NEAR(to_mbps(capacity_for_rss(-73.0)), 6.5, 1e-9);
  EXPECT_NEAR(to_mbps(capacity_for_rss(-115.0)), 1.6, 1e-9);
  EXPECT_NEAR(to_mbps(capacity_for_rss(-60.0)), 8.8, 1e-9);
  // Clamped outside the anchor range.
  EXPECT_NEAR(to_mbps(capacity_for_rss(-140.0)), 0.6, 1e-9);
  EXPECT_NEAR(to_mbps(capacity_for_rss(-20.0)), 8.8, 1e-9);
}

TEST(RssMapping, MonotoneInSignalStrength) {
  double prev = 0.0;
  for (double rss = -125.0; rss <= -55.0; rss += 2.5) {
    const double cap = capacity_for_rss(rss);
    EXPECT_GE(cap, prev) << "rss=" << rss;
    prev = cap;
  }
}

TEST(Channel, DeterministicForSeed) {
  ChannelConfig config;
  UplinkChannel a(config, 5), b(config, 5);
  for (int i = 1; i <= 2000; ++i) {
    EXPECT_DOUBLE_EQ(a.advance(msec(i)), b.advance(msec(i)));
  }
}

TEST(Channel, MeanCapacityNearExpectation) {
  ChannelConfig config;
  config.rss_dbm = -73.0;
  config.mean_cell_load = 0.2;
  config.outage_per_min = 0.0;  // isolate load+fading
  UplinkChannel ch(config, 11);
  RunningStats stats;
  for (int i = 1; i <= 120'000; ++i) {
    stats.add(ch.advance(msec(i)));
  }
  // E[cap] ~ base * E[e^x] * (1 - load); e^x has mean ~e^(std^2/2).
  const double expected = to_mbps(capacity_for_rss(-73.0)) * 0.8;
  EXPECT_NEAR(to_mbps(stats.mean()), expected, expected * 0.25);
}

TEST(Channel, BusyCellLowersCapacity) {
  ChannelConfig idle;
  idle.mean_cell_load = 0.1;
  idle.outage_per_min = 0.0;
  ChannelConfig busy = idle;
  busy.mean_cell_load = 0.5;
  UplinkChannel a(idle, 3), b(busy, 3);
  RunningStats sa, sb;
  for (int i = 1; i <= 60'000; ++i) {
    sa.add(a.advance(msec(i)));
    sb.add(b.advance(msec(i)));
  }
  EXPECT_LT(sb.mean(), sa.mean());
}

TEST(Channel, WeakSignalLowersCapacity) {
  ChannelConfig strong;
  strong.rss_dbm = -73.0;
  strong.outage_per_min = 0.0;
  ChannelConfig weak = strong;
  weak.rss_dbm = -115.0;
  UplinkChannel a(strong, 3), b(weak, 3);
  RunningStats sa, sb;
  for (int i = 1; i <= 30'000; ++i) {
    sa.add(a.advance(msec(i)));
    sb.add(b.advance(msec(i)));
  }
  EXPECT_LT(sb.mean(), 0.5 * sa.mean());
}

TEST(Channel, OutagesOccurWhenConfigured) {
  ChannelConfig config;
  config.outage_per_min = 30.0;  // very frequent for the test
  config.outage_mean_duration = msec(300);
  UplinkChannel ch(config, 9);
  int outage_subframes = 0;
  for (int i = 1; i <= 60'000; ++i) {
    ch.advance(msec(i));
    if (ch.in_outage()) ++outage_subframes;
  }
  // ~30 outages of ~300 ms each within 60 s => roughly 9 s +- wide margin.
  EXPECT_GT(outage_subframes, 2'000);
  EXPECT_LT(outage_subframes, 30'000);
}

TEST(Channel, NoOutagesWhenDisabled) {
  ChannelConfig config;
  config.outage_per_min = 0.0;
  UplinkChannel ch(config, 9);
  for (int i = 1; i <= 60'000; ++i) {
    ch.advance(msec(i));
    ASSERT_FALSE(ch.in_outage());
  }
}

TEST(Channel, SpeedAcceleratesFading) {
  ChannelConfig still;
  still.outage_per_min = 0.0;
  ChannelConfig fast = still;
  fast.speed_mph = 50.0;
  fast.outage_per_min = 0.0;
  UplinkChannel a(still, 17), b(fast, 17);
  // Count zero crossings of capacity around its mean as a proxy for the
  // fading rate.
  RunningStats ma, mb;
  std::vector<double> ca, cb;
  for (int i = 1; i <= 60'000; ++i) {
    ca.push_back(a.advance(msec(i)));
    cb.push_back(b.advance(msec(i)));
    ma.add(ca.back());
    mb.add(cb.back());
  }
  auto crossings = [](const std::vector<double>& v, double mean) {
    int n = 0;
    for (std::size_t i = 1; i < v.size(); ++i) {
      if ((v[i - 1] - mean) * (v[i] - mean) < 0) ++n;
    }
    return n;
  };
  EXPECT_GT(crossings(cb, mb.mean()), 2 * crossings(ca, ma.mean()));
}

TEST(Channel, CapacityNeverNegative) {
  ChannelConfig config;
  config.fading_std = 0.6;
  config.outage_per_min = 10.0;
  UplinkChannel ch(config, 23);
  for (int i = 1; i <= 120'000; ++i) {
    ASSERT_GE(ch.advance(msec(i)), 0.0);
  }
}

// Stationary statistics of one channel run, sampled every `step`.
struct ChannelMoments {
  RunningStats load;
  RunningStats log_fading;
  double outage_fraction = 0.0;
};

ChannelMoments exact_moments(const ChannelConfig& config, SimDuration step,
                             SimDuration duration, std::uint64_t seed) {
  UplinkChannel ch(config, seed);
  ChannelMoments m;
  std::int64_t samples = 0;
  std::int64_t outage = 0;
  for (SimTime t = step; t <= duration; t += step) {
    ch.advance(t);
    m.load.add(ch.current_load());
    m.log_fading.add(ch.current_log_fading());
    ++samples;
    if (ch.in_outage()) ++outage;
  }
  m.outage_fraction = static_cast<double>(outage) / samples;
  return m;
}

// Reference: the Euler-Maruyama discretisation stepped every 1 ms, with the
// channel's clamps and outage telegraph (`outage_per_min` must be > 0). At a
// 1 ms step the Euler bias is far below the tolerances.
ChannelMoments euler_moments(const ChannelConfig& config,
                             SimDuration duration, std::uint64_t seed) {
  Rng rng(seed);
  const double dt = 1e-3;
  const double tau_f = config.fading_tau_s / (1.0 + config.speed_mph / 6.0);
  const double mean_gap_s = 60.0 / config.outage_per_min;
  double load = config.mean_cell_load;
  double fading = 0.0;
  bool in_outage = false;
  SimTime outage_until = 0;
  SimTime next_outage = sec_f(rng.exponential(mean_gap_s));
  std::int64_t samples = 0;
  std::int64_t outage = 0;
  ChannelMoments m;
  for (SimTime t = msec(1); t <= duration; t += msec(1)) {
    const double a = dt / config.load_tau_s;
    load += a * (config.mean_cell_load - load) +
            config.load_std * std::sqrt(2.0 * a) * rng.normal(0.0, 1.0);
    load = std::clamp(load, 0.0, 0.95);
    const double b = dt / tau_f;
    fading += -b * fading +
              config.fading_std * std::sqrt(2.0 * b) * rng.normal(0.0, 1.0);
    fading = std::clamp(fading, -2.0, 1.0);
    if (in_outage && t >= outage_until) {
      in_outage = false;
      next_outage = t + sec_f(rng.exponential(mean_gap_s));
    }
    if (!in_outage && t >= next_outage) {
      in_outage = true;
      outage_until =
          t + std::max<SimDuration>(
                  msec(50), sec_f(rng.exponential(
                                to_seconds(config.outage_mean_duration))));
    }
    m.load.add(load);
    m.log_fading.add(fading);
    ++samples;
    if (in_outage) ++outage;
  }
  m.outage_fraction = static_cast<double>(outage) / samples;
  return m;
}

TEST(Channel, ExactOuAtGrantCadenceMatchesEulerReference) {
  ChannelConfig config;
  config.outage_per_min = 20.0;
  config.outage_mean_duration = msec(300);
  const SimDuration duration = sec(4000);
  const ChannelMoments exact = exact_moments(config, msec(4), duration, 31);
  const ChannelMoments euler = euler_moments(config, duration, 37);
  EXPECT_NEAR(exact.load.mean(), euler.load.mean(), 0.02);
  EXPECT_NEAR(exact.load.stddev(), euler.load.stddev(),
              0.12 * euler.load.stddev());
  EXPECT_NEAR(exact.log_fading.mean(), euler.log_fading.mean(), 0.05);
  EXPECT_NEAR(exact.log_fading.stddev(), euler.log_fading.stddev(),
              0.08 * euler.log_fading.stddev());
  // Both sit on the configured stationary law.
  EXPECT_NEAR(exact.log_fading.stddev(), config.fading_std,
              0.08 * config.fading_std);
  EXPECT_GT(euler.outage_fraction, 0.05);
  EXPECT_NEAR(exact.outage_fraction, euler.outage_fraction,
              0.15 * euler.outage_fraction);
}

TEST(Channel, ExactOuStatisticsIndependentOfStepSize) {
  ChannelConfig config;
  config.speed_mph = 50.0;  // τ ≈ 160 ms: Euler at 40 ms overstates σ by 7%
  config.outage_per_min = 0.0;
  const SimDuration duration = sec(2000);
  const ChannelMoments fine = exact_moments(config, msec(1), duration, 41);
  const ChannelMoments coarse = exact_moments(config, msec(40), duration, 43);
  EXPECT_NEAR(coarse.log_fading.stddev(), fine.log_fading.stddev(),
              0.05 * fine.log_fading.stddev());
  EXPECT_NEAR(coarse.log_fading.stddev(), config.fading_std,
              0.05 * config.fading_std);
  EXPECT_NEAR(coarse.load.mean(), fine.load.mean(), 0.02);
}

TEST(Tbs, QuantizerBehaviour) {
  TbsQuantizer q;
  EXPECT_EQ(q.quantize(0), 0);
  EXPECT_EQ(q.quantize(31), 0);          // below minimum grant
  EXPECT_EQ(q.quantize(32), 24);         // largest multiple of 24 <= 32
  EXPECT_EQ(q.quantize(48), 48);
  EXPECT_EQ(q.quantize(50), 48);
  EXPECT_EQ(q.quantize(1'000'000), 9000);  // per-subframe ceiling
}

TEST(Tbs, QuantizeNeverExceedsInput) {
  TbsQuantizer q;
  for (std::int64_t g = 0; g < 3000; g += 7) {
    EXPECT_LE(q.quantize(g), g);
  }
}

}  // namespace
}  // namespace poi360::lte

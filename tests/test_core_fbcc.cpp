#include <gtest/gtest.h>

#include <stdexcept>

#include "poi360/core/fbcc.h"

namespace poi360::core {
namespace {

lte::DiagReport report_at(SimTime t, std::int64_t buffer,
                          std::int64_t tbs = 12'000) {
  return lte::DiagReport{
      .time = t, .buffer_bytes = buffer, .tbs_bytes = tbs,
      .interval = msec(40)};
}

TEST(CongestionDetector, RequiresSustainedIncreaseAndThreshold) {
  CongestionDetector::Config config;
  config.k = 5;
  config.allowed_decreases = 0;
  CongestionDetector detector(config);
  // Low constant level: never congested.
  for (int i = 0; i < 20; ++i) EXPECT_FALSE(detector.on_report(1000));
  // Five consecutive increases that end above the long-term average.
  bool fired = false;
  for (int i = 1; i <= 6; ++i) {
    fired = detector.on_report(1000 + i * 2000);
  }
  EXPECT_TRUE(fired);
}

TEST(CongestionDetector, BrokenStreakResets) {
  CongestionDetector::Config config;
  config.k = 5;
  config.allowed_decreases = 0;
  CongestionDetector detector(config);
  for (int i = 0; i < 10; ++i) detector.on_report(1000);
  bool fired = false;
  for (int i = 1; i <= 4; ++i) fired = detector.on_report(1000 + i * 2000);
  EXPECT_FALSE(fired);
  fired = detector.on_report(500);  // dip breaks the streak
  EXPECT_FALSE(fired);
  fired = detector.on_report(20000);  // single jump is not enough
  EXPECT_FALSE(fired);
}

TEST(CongestionDetector, AllowedDecreasesTolerateNoise) {
  CongestionDetector::Config config;
  config.k = 6;
  config.allowed_decreases = 2;
  CongestionDetector detector(config);
  for (int i = 0; i < 10; ++i) detector.on_report(1000);
  // Net strong growth with one down-tick in the middle.
  const std::int64_t levels[] = {3000, 6000, 5500, 9000, 12000, 15000, 18000};
  bool fired = false;
  for (auto level : levels) fired = detector.on_report(level);
  EXPECT_TRUE(fired);
}

TEST(CongestionDetector, BelowGammaNeverFires) {
  CongestionDetector::Config config;
  config.k = 3;
  config.gamma_alpha = 0.5;  // gamma tracks quickly
  CongestionDetector detector(config);
  for (int i = 0; i < 50; ++i) detector.on_report(50'000);  // high baseline
  // A small rising wiggle far below the long-term average.
  EXPECT_FALSE(detector.on_report(100));
  EXPECT_FALSE(detector.on_report(200));
  EXPECT_FALSE(detector.on_report(300));
  EXPECT_FALSE(detector.on_report(400));
}

// Eq. 3 spans the last k + 1 reports, so a negative k has no meaning; k = 0
// keeps one report, which can never show an increase.
TEST(CongestionDetector, RejectsANegativeK) {
  CongestionDetector::Config config;
  config.k = -1;
  EXPECT_THROW(CongestionDetector{config}, std::invalid_argument);
  config.k = -100;
  EXPECT_THROW(CongestionDetector{config}, std::invalid_argument);
  config.k = 0;
  CongestionDetector detector(config);
  for (int i = 1; i <= 5; ++i) EXPECT_FALSE(detector.on_report(i * 10'000));
}

TEST(TbsEstimator, WindowedRate) {
  TbsWindowEstimator::Config config;
  config.window = msec(200);
  TbsWindowEstimator est(config);
  EXPECT_DOUBLE_EQ(est.rphy(), 0.0);
  // Five 40 ms reports of 10 kB each: 10 kB / 40 ms = 2 Mbps.
  for (int i = 1; i <= 5; ++i) {
    est.on_report(report_at(msec(40 * i), 5000, 10'000));
  }
  EXPECT_NEAR(to_mbps(est.rphy()), 2.0, 0.01);
}

TEST(TbsEstimator, EvictsOldReports) {
  TbsWindowEstimator::Config config;
  config.window = msec(120);
  TbsWindowEstimator est(config);
  est.on_report(report_at(msec(40), 5000, 100'000));  // will be evicted
  for (int i = 2; i <= 10; ++i) {
    est.on_report(report_at(msec(40 * i), 5000, 5'000));
  }
  // Only recent 5 kB/40 ms reports remain: 1 Mbps.
  EXPECT_NEAR(to_mbps(est.rphy()), 1.0, 0.05);
}

TEST(SweetSpot, PriorUntilEnoughSamples) {
  SweetSpotEstimator est;
  EXPECT_EQ(est.target_bytes(), 9 * 1024);
  est.on_sample(3000, mbps(1.5));
  EXPECT_EQ(est.target_bytes(), 9 * 1024);
}

TEST(SweetSpot, LearnsKneeFromSlopeAndSaturation) {
  SweetSpotEstimator::Config config;
  config.min_samples = 10;
  config.headroom = 1.0;
  SweetSpotEstimator est(config);
  // Slope: 540 bps per byte (samples in the low-occupancy band), and
  // saturation at 5.4 Mbps -> knee = 5.4e6 / 540 = 10000 bytes.
  for (int i = 0; i < 50; ++i) {
    est.on_sample(2000, 540.0 * 2000);
    est.on_sample(20'000, mbps(5.4));
  }
  EXPECT_NEAR(static_cast<double>(est.target_bytes()), 10'000, 500);
}

TEST(SweetSpot, ClampsToConfiguredRange) {
  SweetSpotEstimator::Config config;
  config.min_samples = 5;
  config.min_bytes = 4096;
  config.max_bytes = 8192;
  SweetSpotEstimator est(config);
  for (int i = 0; i < 20; ++i) {
    est.on_sample(2000, 540.0 * 2000);
    est.on_sample(20'000, mbps(50));  // absurd saturation -> clamp to max
  }
  EXPECT_EQ(est.target_bytes(), 8192);
}

TEST(Fbcc, FollowsGccWhenUncongested) {
  FbccController fbcc(mbps(2));
  fbcc.on_gcc_rate(mbps(3));
  fbcc.on_diag(report_at(msec(40), 4000));
  EXPECT_DOUBLE_EQ(fbcc.video_rate(), mbps(3));
  EXPECT_FALSE(fbcc.congested());
}

TEST(Fbcc, CongestionClampsVideoRateToTbsBandwidth) {
  FbccController::Config config;
  config.detector.k = 5;
  config.detector.allowed_decreases = 0;
  FbccController fbcc(mbps(3), config);
  fbcc.on_gcc_rate(mbps(5));
  fbcc.set_rtt(msec(100));

  // Ramp the buffer up over consecutive reports; TBS at 2 Mbps equivalent.
  SimTime t = 0;
  for (int i = 1; i <= 12; ++i) {
    t += msec(40);
    fbcc.on_diag(report_at(t, 4000 + i * 4000, 10'000));
  }
  EXPECT_TRUE(fbcc.congested());
  EXPECT_NEAR(to_mbps(fbcc.video_rate()), 2.0, 0.05);

  // The clamp holds for 2 RTT even after the congestion indicator clears...
  fbcc.on_diag(report_at(t + msec(40), 4000, 10'000));
  EXPECT_FALSE(fbcc.congested());
  EXPECT_NEAR(to_mbps(fbcc.video_rate()), 2.0, 0.05);

  // ...and reverts to R_gcc afterwards.
  fbcc.on_diag(report_at(t + msec(400), 4000, 10'000));
  EXPECT_DOUBLE_EQ(fbcc.video_rate(), mbps(5));
}

TEST(Fbcc, RtpRateSteersTowardSweetSpot) {
  FbccController::Config config;
  config.learn_sweet_spot = false;
  config.sweet_spot.prior_bytes = 8 * 1024;
  FbccController fbcc(mbps(3), config);
  fbcc.on_gcc_rate(mbps(3));

  // Buffer far below target: Eq. 7 raises the pacer rate.
  const Bitrate before = fbcc.rtp_rate();
  fbcc.on_diag(report_at(msec(40), 1024, 10'000));
  EXPECT_GT(fbcc.rtp_rate(), before);

  // Buffer far above target: the pacer rate comes back down, but never
  // below the video rate (throttling transport would just move the queue).
  for (int i = 2; i <= 10; ++i) {
    fbcc.on_diag(report_at(msec(40 * i), 60'000, 10'000));
  }
  EXPECT_GE(fbcc.rtp_rate(), fbcc.video_rate() - 1.0);
}

TEST(Fbcc, RtpRateCappedRelativeToVideoRate) {
  FbccController::Config config;
  config.learn_sweet_spot = false;
  config.rtp_over_video_cap = 3.0;
  FbccController fbcc(mbps(1), config);
  fbcc.on_gcc_rate(mbps(1));
  // Buffer pinned at zero: the integrator would wind up forever.
  for (int i = 1; i <= 200; ++i) {
    fbcc.on_diag(report_at(msec(40 * i), 0, 5'000));
  }
  EXPECT_LE(fbcc.rtp_rate(), 3.0 * fbcc.video_rate() + 1.0);
}

TEST(TbsEstimator, DropsOutOfOrderAndDuplicateReports) {
  TbsWindowEstimator::Config config;
  config.window = msec(400);
  TbsWindowEstimator est(config);
  for (int i = 1; i <= 5; ++i) {
    est.on_report(report_at(msec(40 * i), 5000, 10'000));
  }
  const Bitrate clean = est.rphy();
  // A duplicate timestamp and an out-of-order replay must not perturb the
  // window sum (they would double-count TBS bytes).
  est.on_report(report_at(msec(200), 5000, 10'000));  // duplicate of i=5
  est.on_report(report_at(msec(80), 5000, 99'000));   // stale replay
  EXPECT_DOUBLE_EQ(est.rphy(), clean);
  // Time keeps advancing normally afterwards.
  est.on_report(report_at(msec(240), 5000, 10'000));
  EXPECT_NEAR(to_mbps(est.rphy()), 2.0, 0.01);
}

TEST(TbsEstimator, ResetClearsWindow) {
  TbsWindowEstimator est;
  est.on_report(report_at(msec(40), 5000, 10'000));
  EXPECT_GT(est.rphy(), 0.0);
  est.reset();
  EXPECT_DOUBLE_EQ(est.rphy(), 0.0);
}

TEST(CongestionDetector, ResetForgetsIncreaseStreak) {
  CongestionDetector::Config config;
  config.k = 5;
  config.allowed_decreases = 0;
  CongestionDetector detector(config);
  for (int i = 0; i < 10; ++i) detector.on_report(1000);
  // Five increases: one report short of firing...
  for (int i = 1; i <= 5; ++i) detector.on_report(1000 + i * 2000);
  detector.reset();
  // ...so without reset the next rising report would complete the streak;
  // after reset it must not.
  EXPECT_FALSE(detector.on_report(13'000));
  EXPECT_FALSE(detector.last_signal());
}

TEST(Fbcc, StallTriggersGccFallbackWithinWatchdogPeriod) {
  FbccController::Config config;
  config.diag_timeout = msec(200);
  FbccController fbcc(mbps(2), config);
  fbcc.on_gcc_rate(mbps(3));
  SimTime t = 0;
  for (int i = 1; i <= 10; ++i) {
    t += msec(40);
    fbcc.on_diag(report_at(t, 4000), t);
  }
  EXPECT_FALSE(fbcc.degraded());

  // >500 ms of diag silence: the very next watchdog tick past the timeout
  // must enter degraded mode and pace by pure R_gcc with headroom.
  fbcc.on_tick(t + msec(550));
  EXPECT_TRUE(fbcc.degraded());
  EXPECT_EQ(fbcc.fallback_episodes(), 1);
  EXPECT_DOUBLE_EQ(fbcc.video_rate(), mbps(3));
  EXPECT_NEAR(fbcc.rtp_rate(), mbps(3) * config.fallback_pacing_factor,
              1.0);
  EXPECT_GT(fbcc.degraded_time(t + msec(600)), 0);

  // Degraded rates keep tracking GCC feedback with no diag reports at all.
  fbcc.on_gcc_rate(mbps(1.5));
  EXPECT_DOUBLE_EQ(fbcc.video_rate(), mbps(1.5));
}

TEST(Fbcc, NoStaleEq3SignalAcrossDiagGap) {
  FbccController::Config config;
  config.detector.k = 5;
  config.detector.allowed_decreases = 0;
  config.diag_timeout = msec(200);
  config.recovery_reports = 2;
  FbccController fbcc(mbps(3), config);
  fbcc.on_gcc_rate(mbps(5));

  // K rising reports — one short of a full K+1 window — then silence.
  SimTime t = 0;
  for (int i = 1; i <= 5; ++i) {
    t += msec(40);
    fbcc.on_diag(report_at(t, 2000 + i * 4000), t);
  }
  EXPECT_FALSE(fbcc.congested());
  fbcc.on_tick(t + msec(600));
  ASSERT_TRUE(fbcc.degraded());

  // Reports resume with high-and-rising levels. Pre-gap history is gone,
  // so no congestion signal may fire until a whole fresh window fills —
  // and the hysteresis keeps rates on GCC while the feed re-proves itself.
  SimTime r = t + msec(600);
  for (int i = 1; i <= 2; ++i) {
    r += msec(40);
    fbcc.on_diag(report_at(r, 30'000 + i * 4000), r);
    EXPECT_FALSE(fbcc.congested());
  }
  EXPECT_FALSE(fbcc.degraded());  // hysteresis satisfied
  EXPECT_DOUBLE_EQ(fbcc.video_rate(), mbps(5));
  // Still no J until the post-gap window is complete on its own terms.
  r += msec(40);
  fbcc.on_diag(report_at(r, 42'000), r);
  EXPECT_FALSE(fbcc.congested());
}

TEST(Fbcc, RecoveryRequiresHealthyStreak) {
  FbccController::Config config;
  config.diag_timeout = msec(200);
  config.recovery_reports = 4;
  FbccController fbcc(mbps(2), config);
  fbcc.on_gcc_rate(mbps(2));
  fbcc.on_diag(report_at(msec(40), 3000), msec(40));
  fbcc.on_tick(msec(500));
  ASSERT_TRUE(fbcc.degraded());

  // Two healthy reports, then a garbage one: the streak restarts.
  fbcc.on_diag(report_at(msec(520), 3000), msec(520));
  fbcc.on_diag(report_at(msec(560), 3000), msec(560));
  fbcc.on_diag(report_at(msec(600), -5), msec(600));  // negative buffer
  EXPECT_TRUE(fbcc.degraded());
  for (int i = 1; i <= 3; ++i) {
    fbcc.on_diag(report_at(msec(600 + 40 * i), 3000), msec(600 + 40 * i));
    EXPECT_TRUE(fbcc.degraded());
  }
  fbcc.on_diag(report_at(msec(760), 3000), msec(760));
  EXPECT_FALSE(fbcc.degraded());
  EXPECT_EQ(fbcc.fallback_episodes(), 1);
}

TEST(Fbcc, RejectsImplausibleReports) {
  FbccController fbcc(mbps(2));
  fbcc.on_gcc_rate(mbps(2));
  fbcc.on_diag(report_at(msec(40), 4000), msec(40));
  const Bitrate rtp_before = fbcc.rtp_rate();

  lte::DiagReport negative = report_at(msec(80), -100);
  lte::DiagReport absurd = report_at(msec(120), std::int64_t{1} << 40);
  lte::DiagReport duplicate = report_at(msec(40), 4000);
  lte::DiagReport from_future = report_at(msec(900), 4000);
  lte::DiagReport stale = report_at(msec(40), 4000);  // counter reset
  lte::DiagReport broken_interval = report_at(msec(160), 4000);
  broken_interval.interval = 0;
  lte::DiagReport negative_tbs = report_at(msec(200), 4000, -7);

  fbcc.on_diag(negative, msec(80));
  fbcc.on_diag(absurd, msec(120));
  fbcc.on_diag(duplicate, msec(120));
  fbcc.on_diag(from_future, msec(160));
  fbcc.on_diag(stale, msec(700));
  fbcc.on_diag(broken_interval, msec(160));
  fbcc.on_diag(negative_tbs, msec(200));
  EXPECT_EQ(fbcc.rejected_reports(), 7);
  // Rejected reports leave the controller's outputs untouched.
  EXPECT_DOUBLE_EQ(fbcc.rtp_rate(), rtp_before);
  EXPECT_FALSE(fbcc.congested());
}

TEST(Fbcc, ResetClearsHoldAndCongestion) {
  FbccController::Config config;
  config.detector.k = 3;
  config.detector.allowed_decreases = 0;
  FbccController fbcc(mbps(3), config);
  fbcc.on_gcc_rate(mbps(5));
  fbcc.set_rtt(msec(100));
  SimTime t = 0;
  for (int i = 1; i <= 8; ++i) {
    t += msec(40);
    fbcc.on_diag(report_at(t, 4000 + i * 4000, 10'000));
  }
  ASSERT_TRUE(fbcc.congested());
  ASSERT_LT(fbcc.video_rate(), mbps(5));

  fbcc.reset();
  EXPECT_FALSE(fbcc.congested());
  EXPECT_DOUBLE_EQ(fbcc.rphy(), 0.0);
  // The Eq. 6 hold is gone: the next uncongested report follows R_gcc.
  fbcc.on_diag(report_at(t + msec(40), 4000, 10'000));
  EXPECT_DOUBLE_EQ(fbcc.video_rate(), mbps(5));
}

TEST(Fbcc, DeadFeedFromStartTripsWatchdog) {
  FbccController::Config config;
  config.diag_timeout = msec(200);
  FbccController fbcc(mbps(2), config);
  fbcc.on_gcc_rate(mbps(2));
  fbcc.on_tick(msec(20));  // arms the staleness clock
  EXPECT_FALSE(fbcc.degraded());
  fbcc.on_tick(msec(240));
  EXPECT_TRUE(fbcc.degraded());
}

TEST(Fbcc, RefiringCongestionExtendsHold) {
  FbccController::Config config;
  config.detector.k = 3;
  config.detector.allowed_decreases = 0;
  FbccController fbcc(mbps(3), config);
  fbcc.on_gcc_rate(mbps(5));
  fbcc.set_rtt(msec(50));
  SimTime t = 0;
  // Continuous buffer growth: J keeps refiring, the clamp must persist.
  for (int i = 1; i <= 30; ++i) {
    t += msec(40);
    fbcc.on_diag(report_at(t, 2000 + i * 3000, 8'000));
  }
  EXPECT_LT(fbcc.video_rate(), mbps(5));
}

}  // namespace
}  // namespace poi360::core

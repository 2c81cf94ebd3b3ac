#include <gtest/gtest.h>

#include "poi360/core/config.h"
#include "poi360/core/session.h"
#include "poi360/metrics/session_metrics.h"

namespace poi360::metrics {
namespace {

FrameRecord frame(SimTime display, SimDuration delay, double psnr,
                  double roi_level = 1.0) {
  FrameRecord f;
  f.display_time = display;
  f.capture_time = display - delay;
  f.delay = delay;
  f.roi_psnr_db = psnr;
  f.mos = video::mos_from_psnr(psnr);
  f.roi_level = roi_level;
  return f;
}

TEST(Metrics, PsnrAggregates) {
  SessionMetrics m;
  m.add_frame(frame(sec(1), msec(300), 30.0));
  m.add_frame(frame(sec(2), msec(300), 40.0));
  EXPECT_DOUBLE_EQ(m.mean_roi_psnr(), 35.0);
  EXPECT_DOUBLE_EQ(m.std_roi_psnr(), 5.0);
  EXPECT_EQ(m.displayed_frames(), 2);
}

TEST(Metrics, MosPdfSumsToOne) {
  SessionMetrics m;
  m.add_frame(frame(sec(1), msec(300), 40.0));  // excellent
  m.add_frame(frame(sec(2), msec(300), 33.0));  // good
  m.add_frame(frame(sec(3), msec(300), 33.5));  // good
  m.add_frame(frame(sec(4), msec(300), 10.0));  // bad
  const auto pdf = m.mos_pdf();
  ASSERT_EQ(pdf.size(), 5u);
  EXPECT_DOUBLE_EQ(pdf[static_cast<int>(video::Mos::kExcellent)], 0.25);
  EXPECT_DOUBLE_EQ(pdf[static_cast<int>(video::Mos::kGood)], 0.5);
  EXPECT_DOUBLE_EQ(pdf[static_cast<int>(video::Mos::kBad)], 0.25);
  double total = 0.0;
  for (double p : pdf) total += p;
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(Metrics, FreezeRatioCountsLateAndSkipped) {
  SessionMetrics m;
  m.add_frame(frame(sec(1), msec(500), 35.0));
  m.add_frame(frame(sec(2), msec(700), 35.0));  // frozen
  m.add_frame(frame(sec(3), msec(601), 35.0));  // frozen
  m.note_sender_skipped_frame();                // frozen by definition
  EXPECT_DOUBLE_EQ(m.freeze_ratio(msec(600)), 3.0 / 4.0);
  EXPECT_EQ(m.skipped_frames(), 1);
}

TEST(Metrics, FreezeRatioEmptyIsZero) {
  SessionMetrics m;
  EXPECT_DOUBLE_EQ(m.freeze_ratio(), 0.0);
}

TEST(Metrics, FrameDelaysInMilliseconds) {
  SessionMetrics m;
  m.add_frame(frame(sec(1), msec(350), 35.0));
  m.add_frame(frame(sec(2), msec(450), 35.0));
  const auto d = m.frame_delays_ms();
  EXPECT_DOUBLE_EQ(d.median(), 400.0);
}

TEST(Metrics, RoiLevelVariationDetectsOscillation) {
  SessionMetrics stable, oscillating;
  for (int i = 0; i < 100; ++i) {
    stable.add_frame(frame(msec(28) * i, msec(300), 35.0, 1.0));
    oscillating.add_frame(
        frame(msec(28) * i, msec(300), 35.0, (i % 2 == 0) ? 1.0 : 64.0));
  }
  EXPECT_LT(stable.roi_level_variation().mean(), 0.01);
  EXPECT_GT(oscillating.roi_level_variation().mean(), 10.0);
}

TEST(Metrics, BufferLevelsFromRateSamples) {
  SessionMetrics m;
  RateSample s;
  s.fw_buffer_bytes = 2048;
  m.add_rate_sample(s);
  s.fw_buffer_bytes = 4096;
  m.add_rate_sample(s);
  const auto levels = m.buffer_levels_kb();
  EXPECT_DOUBLE_EQ(levels.mean(), 3.0);
}

TEST(Metrics, ThroughputStats) {
  SessionMetrics m;
  m.add_throughput_second(mbps(2));
  m.add_throughput_second(mbps(4));
  EXPECT_DOUBLE_EQ(to_mbps(m.mean_throughput()), 3.0);
  EXPECT_DOUBLE_EQ(to_mbps(m.std_throughput()), 1.0);
}

TEST(Metrics, VideoRateStats) {
  SessionMetrics m;
  RateSample s;
  s.video_rate = mbps(2);
  m.add_rate_sample(s);
  s.video_rate = mbps(3);
  m.add_rate_sample(s);
  EXPECT_DOUBLE_EQ(to_mbps(m.mean_video_rate()), 2.5);
}

TEST(Metrics, MergePoolsEverything) {
  SessionMetrics a, b;
  a.add_frame(frame(sec(1), msec(700), 30.0));
  a.note_sender_skipped_frame();
  a.add_throughput_second(mbps(2));
  b.add_frame(frame(sec(1), msec(300), 40.0));
  b.add_throughput_second(mbps(4));
  RateSample s;
  s.fw_buffer_bytes = 1024;
  b.add_rate_sample(s);

  const SessionMetrics merged = merge({&a, &b});
  EXPECT_EQ(merged.displayed_frames(), 2);
  EXPECT_EQ(merged.skipped_frames(), 1);
  EXPECT_DOUBLE_EQ(merged.mean_roi_psnr(), 35.0);
  EXPECT_DOUBLE_EQ(to_mbps(merged.mean_throughput()), 3.0);
  EXPECT_EQ(merged.rate_samples().size(), 1u);
  EXPECT_DOUBLE_EQ(merged.freeze_ratio(), 2.0 / 3.0);
}

TEST(Metrics, DegradedSampleFractionCountsFlaggedSamples) {
  SessionMetrics a, b;
  EXPECT_DOUBLE_EQ(a.degraded_sample_fraction(), 0.0);
  RateSample s;
  a.add_rate_sample(s);
  s.fbcc_degraded = true;
  a.add_rate_sample(s);
  a.add_rate_sample(s);
  s.fbcc_degraded = false;
  a.add_rate_sample(s);
  EXPECT_DOUBLE_EQ(a.degraded_sample_fraction(), 2.0 / 4.0);

  b.add_rate_sample(s);
  s.fbcc_degraded = true;
  b.add_rate_sample(s);
  EXPECT_DOUBLE_EQ(b.degraded_sample_fraction(), 1.0 / 2.0);
  EXPECT_DOUBLE_EQ(merge({&a, &b}).degraded_sample_fraction(), 3.0 / 6.0);
}

TEST(Metrics, SessionRegistryHoldsOnlyFinishCounters) {
  core::SessionConfig config = core::presets::cellular_static();
  config.duration = sec(5);
  config.seed = 1;
  core::Session session(config);
  session.run();
  const auto& m = session.metrics();
  ASSERT_GT(m.displayed_frames(), 0);
  ASSERT_FALSE(m.rate_samples().empty());
  const auto entries = m.registry().snapshot();
  ASSERT_FALSE(entries.empty());
  for (const auto& e : entries) {
    EXPECT_TRUE(e.name.starts_with("diag.") ||
                e.name.starts_with("transport."))
        << e.name;
    EXPECT_EQ(e.kind, "counter") << e.name;
  }
}

}  // namespace
}  // namespace poi360::metrics

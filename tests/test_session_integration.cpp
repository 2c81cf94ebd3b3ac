// End-to-end integration tests: full telephony sessions across the simulated
// networks, checking delivery, determinism, and the cross-module invariants
// the paper's evaluation relies on. Sessions are kept short (10-30 s) so the
// whole suite stays fast.

#include <gtest/gtest.h>

#include "poi360/core/config.h"
#include "poi360/core/session.h"

namespace poi360::core {
namespace {

// Every session samples the stochastic viewer; there is no recorded-viewer
// replay to configure.
template <typename C>
concept HasMotionTrace = requires(C c) { c.motion_trace; };
static_assert(!HasMotionTrace<SessionConfig>);

SessionConfig short_session(SessionConfig base, SimDuration duration,
                            std::uint64_t seed) {
  base.duration = duration;
  base.seed = seed;
  return base;
}

TEST(SessionIntegration, CellularFbccDeliversFrames) {
  Session session(short_session(presets::cellular_static(), sec(15), 1));
  session.run();
  const auto& m = session.metrics();
  // 36 FPS for 15 s minus pipeline warm-up: expect most frames displayed.
  EXPECT_GT(m.displayed_frames(), 450);
  EXPECT_GT(m.mean_roi_psnr(), 20.0);
  EXPECT_LT(m.freeze_ratio(), 0.5);
  EXPECT_GT(m.mean_throughput(), kbps(500));
}

TEST(SessionIntegration, WirelineGccDeliversFrames) {
  Session session(short_session(presets::wireline(), sec(15), 2));
  session.run();
  const auto& m = session.metrics();
  EXPECT_GT(m.displayed_frames(), 450);
  EXPECT_GT(m.mean_roi_psnr(), 25.0);
  EXPECT_LT(m.freeze_ratio(), 0.1);
}

TEST(SessionIntegration, FbccOverWirelineRejected) {
  SessionConfig config = presets::wireline();
  config.rate_control = RateControl::kFbcc;
  EXPECT_THROW(Session{config}, std::invalid_argument);
}

TEST(SessionIntegration, RunTwiceRejected) {
  Session session(short_session(presets::cellular_static(), sec(2), 3));
  session.run();
  EXPECT_THROW(session.run(), std::logic_error);
}

TEST(SessionIntegration, DeterministicForSeed) {
  auto run_once = [](std::uint64_t seed) {
    Session session(
        short_session(presets::cellular_static(), sec(10), seed));
    session.run();
    const auto& m = session.metrics();
    return std::tuple{m.displayed_frames(), m.mean_roi_psnr(),
                      m.mean_throughput(), m.freeze_ratio()};
  };
  EXPECT_EQ(run_once(77), run_once(77));
  EXPECT_NE(run_once(77), run_once(78));
}

TEST(SessionIntegration, AllCompressionSchemesRun) {
  for (auto scheme : {CompressionScheme::kPoi360, CompressionScheme::kConduit,
                      CompressionScheme::kPyramid}) {
    SessionConfig config =
        short_session(presets::cellular_static(), sec(10), 4);
    config.compression = scheme;
    config.rate_control = RateControl::kGcc;
    Session session(config);
    session.run();
    EXPECT_GT(session.metrics().displayed_frames(), 300)
        << to_string(scheme);
  }
}

TEST(SessionIntegration, FrameRecordsAreConsistent) {
  Session session(short_session(presets::cellular_static(), sec(10), 5));
  session.run();
  for (const auto& f : session.metrics().frames()) {
    EXPECT_EQ(f.delay, f.display_time - f.capture_time);
    EXPECT_GT(f.delay, 0);
    EXPECT_GE(f.roi_level, f.min_level);
    EXPECT_GE(f.min_level, 1.0);
    EXPECT_GE(f.roi_psnr_db, 0.0);
    EXPECT_LE(f.roi_psnr_db, 60.0);
    EXPECT_EQ(f.mos, video::mos_from_psnr(f.roi_psnr_db));
  }
}

TEST(SessionIntegration, Poi360ModeIdsWithinTable) {
  Session session(short_session(presets::cellular_static(), sec(10), 6));
  session.run();
  for (const auto& f : session.metrics().frames()) {
    EXPECT_GE(f.mode_id, 1);
    EXPECT_LE(f.mode_id, 8);
  }
}

TEST(SessionIntegration, BaselineModeIdsAreSchemeConstants) {
  SessionConfig config = short_session(presets::cellular_static(), sec(5), 7);
  config.compression = CompressionScheme::kConduit;
  config.rate_control = RateControl::kGcc;
  Session session(config);
  session.run();
  for (const auto& f : session.metrics().frames()) {
    EXPECT_EQ(f.mode_id, baseline::ConduitMode::kModeId);
  }
}

TEST(SessionIntegration, DiagnosticsSampledOnCellular) {
  Session session(short_session(presets::cellular_static(), sec(10), 8));
  session.run();
  const auto& samples = session.metrics().rate_samples();
  // One rate sample per 40 ms diagnostic report.
  EXPECT_GT(samples.size(), 200u);
  for (const auto& s : samples) {
    EXPECT_GE(s.fw_buffer_bytes, 0);
    EXPECT_GE(s.video_rate, 0.0);
    EXPECT_GE(s.rtp_rate, s.video_rate - 1.0);  // Eq. 7 floor
  }
}

TEST(SessionIntegration, TraceHookObservesSamples) {
  Session session(short_session(presets::cellular_static(), sec(5), 9));
  int observed = 0;
  session.set_trace_hook(
      [&](const metrics::RateSample&) { ++observed; });
  session.run();
  EXPECT_EQ(observed,
            static_cast<int>(session.metrics().rate_samples().size()));
}

TEST(SessionIntegration, StrongerSignalGivesMoreThroughput) {
  auto run_rss = [](double rss) {
    SessionConfig config =
        short_session(presets::cellular_rss(rss), sec(25), 10);
    Session session(config);
    session.run();
    return session.metrics().mean_throughput();
  };
  EXPECT_GT(run_rss(-73.0), 1.4 * run_rss(-115.0));
}

TEST(SessionIntegration, FrameDelayHasPipelineFloor) {
  SessionConfig config = short_session(presets::cellular_static(), sec(10), 11);
  Session session(config);
  session.run();
  const SimDuration floor =
      config.capture_encode_delay + config.render_delay;
  for (const auto& f : session.metrics().frames()) {
    EXPECT_GE(f.delay, floor);
  }
}

TEST(SessionIntegration, MismatchFramesHappenUnderMotion) {
  // With an actively moving viewer over a laggy network, some displayed
  // frames must catch the ROI outside the best-quality region — the
  // phenomenon of Fig. 3 that motivates the whole design.
  Session session(short_session(presets::cellular_static(), sec(20), 12));
  session.run();
  int mismatched = 0;
  for (const auto& f : session.metrics().frames()) {
    if (f.roi_mismatch) ++mismatched;
  }
  EXPECT_GT(mismatched, 0);
  EXPECT_LT(mismatched, session.metrics().displayed_frames());
}

}  // namespace
}  // namespace poi360::core

// Cross-module property tests: invariants that must hold for *any* input,
// checked against randomized (but seeded, hence reproducible) stimuli and
// full-session sweeps across the configuration matrix.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>

#include "poi360/common/rng.h"
#include "poi360/core/config.h"
#include "poi360/core/fbcc.h"
#include "poi360/core/session.h"
#include "poi360/gcc/gcc.h"
#include "poi360/net/link.h"
#include "poi360/rtp/pacer.h"
#include "poi360/video/encoder.h"

namespace poi360 {
namespace {

// ---------------------------------------------------------------- session --

struct SessionCase {
  core::CompressionScheme scheme;
  core::RateControl rc;
  core::NetworkType net;
};

class SessionMatrix : public ::testing::TestWithParam<SessionCase> {};

TEST_P(SessionMatrix, UniversalInvariants) {
  const auto [scheme, rc, net] = GetParam();
  core::SessionConfig config = net == core::NetworkType::kWireline
                                   ? core::presets::wireline()
                                   : core::presets::cellular_static();
  config.compression = scheme;
  if (net == core::NetworkType::kCellular) config.rate_control = rc;
  config.duration = sec(12);
  config.seed = 1234;

  core::Session session(config);
  session.run();
  const auto& m = session.metrics();

  // Frames were actually delivered.
  EXPECT_GT(m.displayed_frames(), 150);  // Pyramid+GCC skips many under backlog

  const SimDuration pipeline_floor =
      config.capture_encode_delay + config.render_delay;
  std::set<std::int64_t> seen_ids;
  for (const auto& f : m.frames()) {
    // Delay accounting is self-consistent and bounded below by the fixed
    // pipeline.
    EXPECT_EQ(f.delay, f.display_time - f.capture_time);
    EXPECT_GE(f.delay, pipeline_floor);
    // The viewed tile can never beat the frame's best level; quality is in
    // the model's range; MOS matches PSNR.
    EXPECT_GE(f.roi_level, f.min_level);
    EXPECT_GE(f.roi_psnr_db, config.quality.floor_db - 1e-9);
    EXPECT_LE(f.roi_psnr_db, config.quality.ceiling_db + 1e-9);
    EXPECT_EQ(f.mos, video::mos_from_psnr(f.roi_psnr_db));
    // Each frame is displayed exactly once. (Display order can differ from
    // capture order: a NACK-recovered frame may complete after its
    // successors — the adaptive playout buffer, off by default, is what
    // reorders in a production receiver.)
    EXPECT_TRUE(seen_ids.insert(f.frame_id).second);
  }

  // Rate-control telemetry respects configured bounds.
  for (const auto& r : m.rate_samples()) {
    EXPECT_GE(r.video_rate, 0.0);
    EXPECT_LE(r.video_rate, mbps(12) + 1.0);
    EXPECT_GE(r.fw_buffer_bytes, 0);
    EXPECT_GE(r.app_buffer_bytes, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ConfigMatrix, SessionMatrix,
    ::testing::Values(
        SessionCase{core::CompressionScheme::kPoi360,
                    core::RateControl::kFbcc, core::NetworkType::kCellular},
        SessionCase{core::CompressionScheme::kPoi360,
                    core::RateControl::kGcc, core::NetworkType::kCellular},
        SessionCase{core::CompressionScheme::kConduit,
                    core::RateControl::kFbcc, core::NetworkType::kCellular},
        SessionCase{core::CompressionScheme::kConduit,
                    core::RateControl::kGcc, core::NetworkType::kCellular},
        SessionCase{core::CompressionScheme::kPyramid,
                    core::RateControl::kFbcc, core::NetworkType::kCellular},
        SessionCase{core::CompressionScheme::kPyramid,
                    core::RateControl::kGcc, core::NetworkType::kCellular},
        SessionCase{core::CompressionScheme::kPoi360,
                    core::RateControl::kGcc, core::NetworkType::kWireline},
        SessionCase{core::CompressionScheme::kConduit,
                    core::RateControl::kGcc, core::NetworkType::kWireline},
        SessionCase{core::CompressionScheme::kPyramid,
                    core::RateControl::kGcc, core::NetworkType::kWireline}));

// ----------------------------------------------------------------- fuzz --

TEST(Fuzz, EncoderBytesAlwaysWithinModelBounds) {
  const auto grid = video::TileGrid::paper_default();
  video::EncoderConfig config;
  config.refresh_intra_factor = 0.0;
  video::PanoramicEncoder enc(grid, config);
  Rng rng(99);
  const video::ModeTable table(8, 1.8, 1.1);
  for (int i = 0; i < 500; ++i) {
    const auto& mode = table.mode(static_cast<int>(rng.uniform_int(1, 8)));
    const video::TileIndex roi{static_cast<int>(rng.uniform_int(0, 11)),
                               static_cast<int>(rng.uniform_int(0, 7))};
    const auto matrix =
        std::make_shared<const video::CompressionMatrix>(
            mode.matrix_for(grid, roi));
    const Bitrate rv = rng.uniform(0.0, 15e6);
    const auto frame = enc.encode(msec(i), roi, 1, matrix, rv);
    const double eff_px =
        matrix->effective_tiles() * static_cast<double>(grid.tile_pixels());
    const double bits =
        static_cast<double>(frame.bytes - config.overhead_bytes) * 8.0;
    EXPECT_GE(bits, config.floor_bpp * eff_px - 8.0);
    EXPECT_LE(bits, config.saturation_bpp * eff_px + 8.0);
    EXPECT_GE(frame.bpp, config.floor_bpp - 1e-12);
    EXPECT_LE(frame.bpp, config.saturation_bpp + 1e-12);
  }
}

TEST(Fuzz, FbccRtpRateNeverBelowVideoRate) {
  core::FbccController fbcc(mbps(2));
  Rng rng(7);
  SimTime t = 0;
  for (int i = 0; i < 5000; ++i) {
    t += msec(40);
    fbcc.on_gcc_rate(rng.uniform(0.1e6, 10e6));
    lte::DiagReport report{
        .time = t,
        .buffer_bytes = rng.uniform_int(0, 200'000),
        .tbs_bytes = rng.uniform_int(0, 40'000),
        .interval = msec(40)};
    fbcc.on_diag(report);
    EXPECT_GE(fbcc.rtp_rate(), fbcc.video_rate() - 1.0);
    EXPECT_GT(fbcc.video_rate(), 0.0);
  }
}

TEST(Fuzz, CongestionDetectorOnlyFiresAboveCurrentGamma) {
  // Γ(t) adapts online; the invariant is that any J = 1 report saw a level
  // above the Γ in force at that moment.
  core::CongestionDetector detector;
  Rng rng(13);
  for (int i = 0; i < 5000; ++i) {
    const double gamma_before = detector.gamma();
    const auto level = rng.uniform_int(0, 50'000);
    if (detector.on_report(level)) {
      EXPECT_GT(static_cast<double>(level), gamma_before);
    }
  }
}

TEST(Fuzz, GccSenderRateAlwaysClamped) {
  gcc::GccSender sender(mbps(3));
  Rng rng(21);
  for (int i = 0; i < 2000; ++i) {
    gcc::GccFeedback fb;
    fb.delay_based_rate = rng.uniform(0.0, 30e6);
    fb.loss_fraction = rng.uniform(0.0, 1.0);
    fb.incoming_rate = rng.uniform(0.0, 10e6);
    const Bitrate r = sender.on_feedback(fb);
    EXPECT_GE(r, kbps(200) - 1.0);
    EXPECT_LE(r, mbps(12) + 1.0);
  }
}

TEST(Fuzz, DelayLinkNeverDeliversBeforePropagationFloorOrOutOfOrder) {
  sim::Simulator s;
  Rng rng(5);
  SimTime last_delivery = -1;
  std::vector<std::pair<SimTime, SimTime>> sent_received;
  struct M {
    SimTime sent;
    std::int64_t bytes = 10;
  };
  net::DelayLink<M> link(s, {msec(20), msec(30), 0.0}, 3,
                         [&](M m, SimTime at) {
                           EXPECT_GE(at, last_delivery);
                           last_delivery = at;
                           sent_received.emplace_back(m.sent, at);
                         });
  for (int i = 0; i < 2000; ++i) {
    const SimTime at = msec(rng.uniform_int(0, 10'000));
    s.schedule_at(at, [&link, at]() { link.send({at}); });
  }
  s.run_until(sec(60));
  ASSERT_EQ(sent_received.size(), 2000u);
  for (const auto& [sent, received] : sent_received) {
    EXPECT_GE(received, sent);  // jitter can shrink but never below send time
  }
}

TEST(Fuzz, PacerLongRunThroughputMatchesRate) {
  sim::Simulator s;
  std::int64_t sent_bytes = 0;
  rtp::Pacer pacer(s, mbps(2), [&](rtp::RtpPacket p) { sent_bytes += p.bytes; });
  pacer.start();
  Rng rng(17);
  // Saturate the pacer with randomly sized packets.
  s.schedule_periodic(msec(10), msec(10), [&]() {
    while (pacer.queued_bytes() < 100'000) {
      rtp::RtpPacket p;
      p.bytes = rng.uniform_int(200, 1500);
      pacer.enqueue(p);
    }
  });
  s.run_until(sec(30));
  const double rate = static_cast<double>(sent_bytes) * 8.0 / 30.0;
  EXPECT_NEAR(rate, 2e6, 2e6 * 0.03);
}

TEST(Fuzz, SweetSpotTargetAlwaysInRange) {
  core::SweetSpotEstimator::Config config;
  config.min_bytes = 2048;
  config.max_bytes = 30'000;
  core::SweetSpotEstimator est(config);
  Rng rng(31);
  for (int i = 0; i < 5000; ++i) {
    est.on_sample(rng.uniform_int(0, 100'000), rng.uniform(0.0, 8e6));
    const auto target = est.target_bytes();
    EXPECT_GE(target, 2048);
    EXPECT_LE(target, 30'000);
  }
}

}  // namespace
}  // namespace poi360

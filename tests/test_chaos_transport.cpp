// Chaos suite for the transport-path fault injector (net::ChaosLink) and
// the bounded loss recovery riding on it: sustained burst loss, blackouts
// and reordering must never grow the receiver's state past its caps, every
// incomplete frame must be abandoned within its deadline, and the sender's
// feedback-staleness watchdog must fall back — and recover — when the
// reverse path goes dark.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "poi360/common/rng.h"
#include "poi360/core/config.h"
#include "poi360/core/session.h"

namespace poi360::core {
namespace {

// Bounded-recovery receiver profile used by every chaos scenario; clean
// sessions keep the legacy defaults.
rtp::RtpReceiver::Config bounded_receiver() {
  rtp::RtpReceiver::Config r;
  r.nack_retry_budget = 4;
  r.nack_backoff = true;
  r.frame_deadline = msec(600);
  r.max_assemblies = 64;
  r.max_outstanding_nacks = 512;
  return r;
}

net::ChaosConfig burst_loss_profile() {
  net::ChaosConfig c;
  c.ge_p_good_bad = 0.02;
  c.ge_p_bad_good = 0.2;       // ~9% average loss in bursts of ~5
  c.ge_loss_bad = 0.95;
  // Outages outlasting the 600 ms frame deadline: a frame caught mid-flight
  // cannot be rescued by retransmission, so abandonment must kick in.
  c.blackout_per_min = 9.0;
  c.blackout_mean_duration = msec(1000);
  c.blackout_min_duration = msec(800);
  c.reorder_prob = 0.02;
  c.duplicate_prob = 0.01;
  c.spike_per_min = 4.0;
  return c;
}

void expect_sane(const metrics::SessionMetrics& m, SimDuration duration) {
  std::set<std::int64_t> ids;
  for (const auto& f : m.frames()) {
    EXPECT_TRUE(ids.insert(f.frame_id).second) << "duplicate frame id";
    EXPECT_GT(f.delay, 0);
    EXPECT_LE(f.display_time, duration);
  }
  const auto& t = m.transport_robustness();
  EXPECT_GE(t.frames_abandoned, 0);
  EXPECT_GE(t.keyframe_requests, t.frames_abandoned);
  EXPECT_GE(t.feedback_stale_time, 0);
  EXPECT_LE(t.feedback_stale_time, duration);
}

TEST(ChaosTransport, SustainedBurstLossKeepsReceiverStateBounded) {
  SessionConfig config = presets::cellular_static();
  config.duration = sec(20);
  config.seed = 42;
  config.media_chaos = burst_loss_profile();
  config.receiver = bounded_receiver();

  Session session(config);
  session.run();  // termination == no wedge
  const auto& m = session.metrics();
  expect_sane(m, config.duration);

  const auto& rec = session.observers().receiver->recovery_stats();
  // The chaos actually bit: bursts dropped packets and frames were lost.
  EXPECT_GT(session.observers().media_chaos->dropped_burst, 100);
  EXPECT_GT(rec.frames_abandoned, 0);
  // Bounded state: the high-water marks never crossed the caps.
  EXPECT_LE(rec.peak_assemblies, config.receiver.max_assemblies);
  EXPECT_LE(rec.peak_outstanding_nacks,
            config.receiver.max_outstanding_nacks);
  // Every incomplete frame is abandoned within the deadline: at the horizon
  // only assemblies younger than ~deadline can remain (< 22 frames at
  // 36 FPS for a 600 ms deadline).
  EXPECT_LE(session.observers().receiver->assemblies(), 24u);
  // The session kept displaying through it all.
  EXPECT_GT(m.displayed_frames(), 200);
  // Receiver losses count as frozen time, like sender skips.
  EXPECT_GT(m.freeze_ratio(), 0.0);
}

TEST(ChaosTransport, AbandonedFramesArePurgedFromTheSender) {
  SessionConfig config = presets::cellular_static();
  config.duration = sec(15);
  config.seed = 7;
  config.media_chaos = burst_loss_profile();
  config.receiver = bounded_receiver();

  Session session(config);
  session.run();
  const auto& t = session.metrics().transport_robustness();
  ASSERT_GT(t.frames_abandoned, 0);
  // PLI-style requests crossed the reverse path and the sender dropped the
  // in-flight state (the reverse path is lossy-free here, so most arrive).
  EXPECT_GT(t.keyframe_requests, 0);
  EXPECT_GT(t.sender_frames_dropped, 0);
  EXPECT_LE(t.sender_frames_dropped, t.keyframe_requests);
}

TEST(ChaosTransport, BlackoutOverNackBackoffReconcilesPliAccounting) {
  // Media-path blackouts (>= 800 ms) overlap the whole NACK retry budget:
  // with backoff the 4 retries span roughly 100+200+400+800 ms, so a frame
  // caught at an outage's onset burns its budget into the void and then
  // crosses the 600 ms deadline. The receiver must abandon it, fire PLI
  // exactly once per abandoned frame, and the session metrics must carry
  // the receiver's counters verbatim.
  SessionConfig config = presets::cellular_static();
  config.duration = sec(20);
  config.seed = 17;
  config.media_chaos = burst_loss_profile();
  config.receiver = bounded_receiver();
  // Lift the assembly cap out of the way: with no cap-driven evictions the
  // PLI identity collapses to keyframe_requests == frames_abandoned.
  config.receiver.max_assemblies = 4096;
  config.receiver.max_outstanding_nacks = 4096;

  Session session(config);
  session.run();
  const auto& m = session.metrics();
  expect_sane(m, config.duration);
  const auto& rec = session.observers().receiver->recovery_stats();
  const auto& t = m.transport_robustness();

  // Retries burned out mid-outage and deadlines expired.
  EXPECT_GT(rec.nack_give_ups, 0);
  ASSERT_GT(rec.frames_abandoned, 0);
  EXPECT_EQ(rec.assembly_evictions, 0);

  // PLI fires exactly once per abandoned frame — no double counting when a
  // frame both exhausts its NACK budget and expires.
  EXPECT_EQ(rec.keyframe_requests,
            rec.frames_abandoned + rec.assembly_evictions);

  // The reported robustness block is the receiver's ledger, field by field.
  EXPECT_EQ(t.frames_abandoned, rec.frames_abandoned);
  EXPECT_EQ(t.assembly_evictions, rec.assembly_evictions);
  EXPECT_EQ(t.nack_give_ups, rec.nack_give_ups);
  EXPECT_EQ(t.nack_evictions, rec.nack_evictions);
  EXPECT_EQ(t.invalid_packets, rec.invalid_packets);
  EXPECT_EQ(t.stale_packets, rec.stale_packets);
  EXPECT_EQ(t.keyframe_requests, rec.keyframe_requests);
}

TEST(ChaosTransport, FeedbackBlackoutTriggersGuardAndSessionRecovers) {
  SessionConfig config = presets::cellular_static();
  config.duration = sec(25);
  config.seed = 11;
  config.receiver = bounded_receiver();
  // Reverse path goes dark for seconds at a time: long blackouts starve
  // ROI + GCC + RTCP feedback together.
  config.feedback_chaos.blackout_per_min = 5.0;
  config.feedback_chaos.blackout_mean_duration = msec(1500);
  config.feedback_chaos.blackout_min_duration = msec(1200);

  Session session(config);
  session.run();
  const auto& m = session.metrics();
  expect_sane(m, config.duration);
  const auto& t = m.transport_robustness();

  // The watchdog engaged at least once and accounted its dark time...
  EXPECT_GE(t.feedback_stale_episodes, 1);
  EXPECT_GT(t.feedback_stale_time, 0);
  // ...but did not latch: blackouts cover a fraction of the run.
  EXPECT_LT(t.feedback_stale_time, config.duration / 2);

  // Recovery is real: frames still display in the closing seconds.
  SimTime last_display = 0;
  for (const auto& f : m.frames()) {
    last_display = std::max(last_display, f.display_time);
  }
  EXPECT_GT(last_display, config.duration - sec(5));
  EXPECT_GT(m.displayed_frames(), 300);
}

TEST(ChaosTransport, GuardStaysQuietOnACleanFeedbackPath) {
  SessionConfig config = presets::cellular_static();
  config.duration = sec(15);
  config.seed = 3;

  Session session(config);
  session.run();
  const auto& t = session.metrics().transport_robustness();
  EXPECT_EQ(t.feedback_stale_episodes, 0);
  EXPECT_EQ(t.feedback_stale_time, 0);
  EXPECT_EQ(t.frames_abandoned, 0);
  EXPECT_EQ(t.invalid_packets, 0);
  EXPECT_EQ(session.observers().media_chaos->dropped_burst, 0);
  EXPECT_EQ(session.observers().media_chaos->duplicated, 0);
}

TEST(ChaosTransport, GccSessionsSurviveTheSameChaos) {
  // The recovery layers are transport-agnostic: a GCC session under the
  // same media + feedback chaos keeps its state bounded and keeps playing.
  SessionConfig config = presets::cellular_static();
  config.rate_control = RateControl::kGcc;
  config.duration = sec(15);
  config.seed = 21;
  config.media_chaos = burst_loss_profile();
  config.feedback_chaos.blackout_per_min = 4.0;
  config.feedback_chaos.blackout_mean_duration = msec(1000);
  config.receiver = bounded_receiver();

  Session session(config);
  session.run();
  const auto& m = session.metrics();
  expect_sane(m, config.duration);
  const auto& rec = session.observers().receiver->recovery_stats();
  EXPECT_LE(rec.peak_assemblies, config.receiver.max_assemblies);
  EXPECT_GT(m.displayed_frames(), 150);
}

TEST(ChaosTransport, WirelinePathTakesChaosToo) {
  SessionConfig config = presets::wireline();
  config.duration = sec(12);
  config.seed = 5;
  config.media_chaos = burst_loss_profile();
  config.receiver = bounded_receiver();

  Session session(config);
  session.run();
  const auto& m = session.metrics();
  expect_sane(m, config.duration);
  EXPECT_GT(session.observers().media_chaos->dropped(), 50);
  EXPECT_GT(m.displayed_frames(), 60);
}

TEST(ChaosTransport, NackedPacketsQueueForRetransmissionOnce) {
  // After a blackout the receiver re-NACKs every missing packet on its
  // backoff schedule while GCC has cut the pacer to a crawl. A packet whose
  // retransmission still waits in the pacer must not be queued again, so
  // the app backlog stays within one copy of every lost packet plus the
  // encoder's own backlog allowance.
  SessionConfig config = presets::wireline();
  config.duration = sec(12);
  config.seed = 5;
  config.media_chaos = burst_loss_profile();
  config.receiver = bounded_receiver();

  Session session(config);
  session.run();
  const auto& m = session.metrics();
  std::int64_t peak_backlog = 0;
  Bitrate peak_rate = 0.0;
  for (const auto& r : m.rate_samples()) {
    peak_backlog = std::max(peak_backlog, r.app_buffer_bytes);
    peak_rate = std::max(peak_rate, r.video_rate);
  }
  const std::int64_t mtu = 1200;
  const std::int64_t lost_copies =
      session.observers().media_chaos->dropped() * mtu;
  const std::int64_t fresh_media =
      bytes_at_rate(peak_rate, config.max_app_backlog) + 8 * mtu;
  EXPECT_GT(m.transport_robustness().nack_give_ups, 0);
  EXPECT_LE(peak_backlog, lost_copies + fresh_media);
}

TEST(ChaosTransport, RandomizedProfilesNeverWedgeTheSession) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed * 104729);
    net::ChaosConfig c;
    c.ge_p_good_bad = rng.uniform(0.0, 0.05);
    c.ge_p_bad_good = rng.uniform(0.1, 0.5);
    c.ge_loss_bad = rng.uniform(0.5, 1.0);
    c.reorder_prob = rng.uniform(0.0, 0.1);
    c.duplicate_prob = rng.uniform(0.0, 0.05);
    c.blackout_per_min = rng.uniform(0.0, 8.0);
    c.spike_per_min = rng.uniform(0.0, 8.0);

    SessionConfig config = presets::cellular_static();
    config.duration = sec(10);
    config.seed = 800 + seed;
    config.media_chaos = c;
    config.feedback_chaos.blackout_per_min = rng.uniform(0.0, 4.0);
    config.receiver = bounded_receiver();

    Session session(config);
    session.run();
    const auto& m = session.metrics();
    expect_sane(m, config.duration);
    const auto& rec = session.observers().receiver->recovery_stats();
    EXPECT_LE(rec.peak_assemblies, config.receiver.max_assemblies)
        << "seed " << seed;
    EXPECT_LE(rec.peak_outstanding_nacks,
              config.receiver.max_outstanding_nacks)
        << "seed " << seed;
    EXPECT_GT(m.displayed_frames() + m.skipped_frames(), 100)
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace poi360::core

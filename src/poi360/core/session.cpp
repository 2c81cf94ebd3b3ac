#include "poi360/core/session.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace poi360::core {

namespace {
constexpr SimDuration kThroughputSamplePeriod = sec(1);
constexpr SimDuration kRetxDedupWindow = msec(150);
constexpr SimDuration kFbccWatchdogPeriod = msec(20);

/// The process-wide mode tables of `config`: the adaptive table's modes
/// 1..K plus both baselines, keyed by mode id.
std::shared_ptr<const video::ModeTables> mode_tables_for(
    const SessionConfig& config, const video::TileGrid& grid,
    const video::ModeTable& table) {
  const baseline::ConduitMode conduit(config.conduit_fov_radius,
                                      config.conduit_non_roi_level);
  const baseline::PyramidMode pyramid(config.pyramid_c,
                                      config.baseline_max_level);
  std::vector<video::ModeTables::ModeSpec> modes;
  modes.reserve(static_cast<std::size_t>(table.size()) + 2);
  for (int m = 1; m <= table.size(); ++m) modes.push_back({m, &table.mode(m)});
  modes.push_back({baseline::ConduitMode::kModeId, &conduit});
  modes.push_back({baseline::PyramidMode::kModeId, &pyramid});
  return video::ModeTables::shared_for(
      grid, config.quality, {config.encoder.floor_bpp, config.encoder.fps},
      modes);
}
}  // namespace

Session::Session(SessionConfig config)
    : config_(config),
      grid_(config.grid_cols, config.grid_rows, config.frame_width_px,
            config.frame_height_px),
      rng_(config.seed),
      encoder_(grid_, config.encoder),
      packetizer_(),
      adaptive_(config.adaptive),
      matrix_cache_(mode_tables_for(config, grid_, adaptive_.table())),
      gcc_sender_(config.initial_rate, config.gcc_loss),
      sender_roi_{config.grid_cols / 2, config.grid_rows / 2},
      roi_predictor_(config.roi_predictor),
      encoded_frames_(sim_,
                      [this](std::int64_t id, SimTime) {
                        hand_frame_to_pacer(id);
                      }),
      // The viewer's seed must stay the first draw from rng_: every other
      // component's fork follows it.
      head_motion_(config.head_motion, rng_.fork(0xA11CE).engine()()),
      mismatch_tracker_(config.mismatch),
      gcc_receiver_(config.initial_rate, config.gcc_receiver),
      playout_(config.playout),
      displays_(sim_, [this](rtp::RtpReceiver::CompletedFrame f, SimTime) {
        on_display(f);
      }) {
  const bool cellular = config_.network == NetworkType::kCellular;
  if (!cellular && config_.rate_control == RateControl::kFbcc) {
    throw std::invalid_argument(
        "FBCC requires the cellular network: it reads modem diagnostics");
  }

  // Per-mode quality-floor bitrates for the adaptive controller, from the
  // shared mode tables (see ModeTables::floor_rate).
  {
    std::vector<Bitrate> floors(
        static_cast<std::size_t>(config_.adaptive.num_modes) + 1, 0.0);
    for (int m = 1; m <= config_.adaptive.num_modes; ++m) {
      floors[static_cast<std::size_t>(m)] =
          matrix_cache_.tables()->floor_rate(m);
    }
    adaptive_.set_mode_floor_rates(std::move(floors));
  }

  if (config_.rate_control == RateControl::kFbcc) {
    fbcc_ = std::make_unique<FbccController>(config_.initial_rate,
                                             config_.fbcc);
  }

  // Media path, back to front: receiver <- core/wireline <- pacer.
  receiver_ = std::make_unique<rtp::RtpReceiver>(
      sim_, config_.receiver,
      [this](const rtp::RtpReceiver::CompletedFrame& f) {
        on_frame_complete(f);
      },
      [this](const std::vector<std::int64_t>& seqs) {
        nack_link_->send(NackMsg{.seqs = seqs, .pli_frames = {}});
      });
  receiver_->set_pli_sink([this](const std::vector<std::int64_t>& frames) {
    nack_link_->send(NackMsg{.seqs = {}, .pli_frames = frames});
  });

  media_link_ = std::make_unique<net::ChaosLink<rtp::RtpPacket, MediaSink>>(
      sim_,
      cellular ? net::DelayLinkConfig{config_.core_delay, config_.core_jitter,
                                      config_.core_loss}
               : net::DelayLinkConfig{config_.wireline_delay,
                                      config_.wireline_jitter,
                                      config_.wireline_loss},
      config_.media_chaos, rng_.fork(0xC0DE).engine()(), MediaSink{this});
  if (cellular) {
    uplink_ = std::make_unique<lte::LteUplink<rtp::RtpPacket, AccessSink>>(
        sim_, config_.channel, config_.uplink, rng_.fork(0x17E).engine()(),
        AccessSink{this});
    if (config_.cell_handle.attached()) {
      uplink_->set_cell(config_.cell_handle);
    }
    if (config_.diag_faults.enabled) {
      diag_faults_ = std::make_unique<lte::DiagFaultModel>(
          sim_, config_.diag_faults, rng_.fork(0xFA117).engine()(),
          [this](const lte::DiagReport& r) { on_diag(r); });
      diag_faults_->set_handover_hook(
          [this](SimDuration detach, double gain, SimDuration span) {
            uplink_->begin_handover(detach, gain, span);
          });
      uplink_->set_diag_sink(
          [this](const lte::DiagReport& r) { diag_faults_->on_report(r); });
    } else {
      uplink_->set_diag_sink(
          [this](const lte::DiagReport& r) { on_diag(r); });
    }
  } else {
    wireline_queue_ =
        std::make_unique<net::DrainQueue<rtp::RtpPacket, AccessSink>>(
            sim_, config_.wireline_rate, config_.wireline_buffer_bytes,
            AccessSink{this});
  }

  pacer_ = std::make_unique<rtp::Pacer<PacedSink>>(sim_, config_.initial_rate,
                                                   PacedSink{this});

  // Reverse path (feedback + NACK) shares the downlink/back-channel delays.
  const bool wl = !cellular;
  net::DelayLinkConfig reverse{
      wl ? config_.wireline_feedback_delay : config_.feedback_delay,
      wl ? config_.wireline_feedback_jitter : config_.feedback_jitter,
      wl ? config_.wireline_loss : config_.feedback_loss};
  feedback_link_ = std::make_unique<net::ChaosLink<FeedbackMsg>>(
      sim_, reverse, config_.feedback_chaos, rng_.fork(0xFEED).engine()(),
      [this](FeedbackMsg m, SimTime at) { on_feedback(m, at); });
  nack_link_ = std::make_unique<net::ChaosLink<NackMsg>>(
      sim_, reverse, config_.feedback_chaos, rng_.fork(0x7ACC).engine()(),
      [this](NackMsg m, SimTime) { on_nack(m); });

  // Observability last, once every component exists. With tracing off no
  // recorder is built and every `if (trace_)` below stays a null test —
  // the session consumes the RNG identically either way.
  if (config_.trace.enabled) {
    trace_ = std::make_unique<obs::TraceRecorder>(config_.trace.capacity);
    obs::TraceRecorder* t = trace_.get();
    adaptive_.set_trace(t);
    if (fbcc_) fbcc_->set_trace(t);
    pacer_->set_trace(t);
    receiver_->set_trace(t);
    if (uplink_) uplink_->set_trace(t);
    media_link_->set_trace(t, "chaos.media");
    feedback_link_->set_trace(t, "chaos.feedback");
    nack_link_->set_trace(t, "chaos.nack");
  }
}

Session::~Session() = default;

Session::Observers Session::observers() const {
  Observers o;
  o.diag_faults = diag_faults_.get();
  o.media_chaos = &media_link_->stats();
  o.feedback_chaos = feedback_link_ ? &feedback_link_->stats() : nullptr;
  o.receiver = receiver_.get();
  return o;
}

std::int64_t Session::lost_frames() const {
  const rtp::RtpReceiver::RecoveryStats& r = receiver_->recovery_stats();
  return metrics_.skipped_frames() + r.frames_abandoned + r.assembly_evictions;
}

void Session::run() {
  start();
  advance_until(config_.duration);
  finish();
}

void Session::start() {
  if (ran_) throw std::logic_error("Session::start may be called once");
  ran_ = true;

  if (uplink_) uplink_->start();
  pacer_->start();
  receiver_->start();

  const SimDuration frame_interval = encoder_.frame_interval();
  sim_.schedule_periodic(msec(5), frame_interval, [this]() { on_capture(); });
  sim_.schedule_periodic(msec(5) + frame_interval / 2, frame_interval,
                         [this]() { on_feedback_timer(); });
  sim_.schedule_periodic(kThroughputSamplePeriod, kThroughputSamplePeriod,
                         [this]() { on_throughput_second(); });
  if (fbcc_) {
    // Staleness watchdog: a dead diag feed delivers nothing to hang the
    // fallback decision on, so the check runs on its own clock. The tick
    // also republishes the pacer rate — in degraded mode it moves on GCC
    // feedback, not on diag reports.
    sim_.schedule_periodic(kFbccWatchdogPeriod, kFbccWatchdogPeriod,
                           [this]() {
                             fbcc_->on_tick(sim_.now());
                             pacer_->set_rate(fbcc_->rtp_rate());
                           });
  }
  if (!uplink_) {
    // No diagnostics over wireline: sample rate telemetry on a timer.
    sim_.schedule_periodic(msec(40), msec(40), [this]() {
      record_rate_sample(sim_.now(), 0, 0.0, false);
    });
  }
  // Feedback-staleness watchdog: the feedback channel going dark delivers
  // nothing to hang the decision on (same reasoning as the FBCC watchdog
  // above), so it runs on its own clock. Draws no randomness and does
  // nothing while the gap stays under the timeout, which is why clean runs
  // are unaffected.
  sim_.schedule_periodic(config_.feedback_guard.check_period,
                         config_.feedback_guard.check_period,
                         [this]() { on_feedback_guard_tick(); });
}

void Session::advance_until(SimTime end) {
  if (!ran_) throw std::logic_error("Session::advance_until before start");
  sim_.run_until(end);
}

void Session::finish() {
  if (!ran_) throw std::logic_error("Session::finish before start");
  if (finished_) return;
  finished_ = true;

  if (fbcc_) {
    metrics_.set_diag_robustness(metrics::DiagRobustness{
        .fallback_episodes = fbcc_->fallback_episodes(),
        .degraded_time = fbcc_->degraded_time(sim_.now()),
        .rejected_reports = fbcc_->rejected_reports(),
    });
  }

  if (feedback_stale_) {  // close an episode still open at session end
    stale_total_ += sim_.now() - stale_since_;
    feedback_stale_ = false;
  }
  const rtp::RtpReceiver::RecoveryStats& rec = receiver_->recovery_stats();
  metrics_.set_transport_robustness(metrics::TransportRobustness{
      .frames_abandoned = rec.frames_abandoned,
      .assembly_evictions = rec.assembly_evictions,
      .nack_give_ups = rec.nack_give_ups,
      .nack_evictions = rec.nack_evictions,
      .invalid_packets = rec.invalid_packets,
      .stale_packets = rec.stale_packets,
      .keyframe_requests = rec.keyframe_requests,
      .sender_frames_dropped = sender_frames_dropped_,
      .feedback_stale_episodes = stale_episodes_,
      .feedback_stale_time = stale_total_,
  });
}

void Session::nudge_conservative() {
  if (config_.compression == CompressionScheme::kPoi360) {
    adaptive_.nudge_conservative(current_video_rate(), sim_.now());
  }
}

// ---------------------------------------------------------------- sender --

Bitrate Session::current_video_rate() const {
  return fbcc_ ? fbcc_->video_rate() : gcc_sender_.target();
}

std::shared_ptr<const video::CompressionMatrix> Session::current_matrix_for(
    video::TileIndex roi) const {
  switch (config_.compression) {
    case CompressionScheme::kPoi360:
      return matrix_cache_.matrix(adaptive_.mode_index(), roi);
    case CompressionScheme::kConduit:
      return matrix_cache_.matrix(baseline::ConduitMode::kModeId, roi);
    case CompressionScheme::kPyramid:
      return matrix_cache_.matrix(baseline::PyramidMode::kModeId, roi);
  }
  throw std::logic_error("unknown compression scheme");
}

int Session::current_mode_id() const {
  switch (config_.compression) {
    case CompressionScheme::kPoi360:
      return adaptive_.mode_index();
    case CompressionScheme::kConduit:
      return baseline::ConduitMode::kModeId;
    case CompressionScheme::kPyramid:
      return baseline::PyramidMode::kModeId;
  }
  throw std::logic_error("unknown compression scheme");
}

void Session::on_capture() {
  const Bitrate rv = current_video_rate();
  // Encoder backpressure: when the app buffer holds more than the allowed
  // backlog of playtime, skip this frame (it would only rot in the queue).
  const std::int64_t backlog_limit =
      bytes_at_rate(rv, config_.max_app_backlog);
  if (pacer_->queued_bytes() > backlog_limit) {
    metrics_.note_sender_skipped_frame();
    if (trace_) {
      trace_->instant(
          sim_.now(), "frame", "skip",
          {{"queued_bytes", static_cast<double>(pacer_->queued_bytes())},
           {"backlog_limit", static_cast<double>(backlog_limit)}});
    }
    return;
  }

  // With prediction enabled, compress for where the viewer is heading
  // rather than where the last feedback saw them (§8). Not while feedback
  // is stale: extrapolating the pre-blackout trajectory drifts further from
  // the viewer every frame, so the last reported ROI is the safer anchor.
  video::TileIndex roi = sender_roi_;
  if (config_.roi_prediction_horizon > 0 && roi_predictor_.has_estimate() &&
      !feedback_stale_) {
    const roi::Orientation predicted =
        roi_predictor_.predict(sim_.now() + config_.roi_prediction_horizon);
    roi = grid_.tile_at(predicted.yaw_deg, predicted.pitch_deg);
  }
  video::EncodedFrame frame = encoder_.encode(
      sim_.now(), roi, current_mode_id(),
      current_matrix_for(roi), rv);

  // Content-complexity churn: per-frame size varies lognormally around the
  // target while the encoder holds quality (it spends what the scene needs).
  // The -sigma^2/2 shift keeps the multiplier's mean at 1 so the noise does
  // not inflate the average bitrate.
  if (config_.frame_size_noise_std > 0.0) {
    const double sigma = config_.frame_size_noise_std;
    const double f = std::exp(rng_.normal(-0.5 * sigma * sigma, sigma));
    frame.bytes = std::max<std::int64_t>(
        config_.encoder.overhead_bytes,
        static_cast<std::int64_t>(static_cast<double>(frame.bytes) *
                                  std::clamp(f, 0.5, 2.0)));
  }

  const std::int64_t id = frame.id;
  if (trace_) {
    // Frame-lifecycle chain opens here: capture instant (with the tile-
    // compression decision) and the encode span covering the stitch/encode
    // pipeline latency, closed in hand_frame_to_pacer.
    trace_->instant(sim_.now(), "frame", "capture",
                    {{"mode", static_cast<double>(frame.mode_id)},
                     {"roi_i", static_cast<double>(roi.i)},
                     {"roi_j", static_cast<double>(roi.j)},
                     {"rv_bps", rv}},
                    id);
    trace_->span_begin(sim_.now(), "frame", "encode", id,
                       {{"bytes", static_cast<double>(frame.bytes)}});
  }
  in_flight_.try_emplace(id, std::move(frame));
  encoded_frames_.push(sim_.now() + config_.capture_encode_delay, id);
}

void Session::hand_frame_to_pacer(std::int64_t frame_id) {
  const video::EncodedFrame* found = in_flight_.find(frame_id);
  if (found == nullptr) return;
  const video::EncodedFrame& frame = *found;
  if (trace_) {
    trace_->span_end(sim_.now(), "frame", "encode", frame_id,
                     {{"bytes", static_cast<double>(frame.bytes)}});
  }
  packetizer_.packetize(
      frame.id, frame.capture_time, frame.bytes,
      [this](const rtp::RtpPacket& p) { pacer_->enqueue(p); });
}

void Session::on_packet_paced(rtp::RtpPacket packet) {
  if (trace_ && !packet.is_retransmission && packet.fragment == 0) {
    // PHY span: first fragment enters the modem buffer (or wireline queue)
    // here; the last fragment leaving the access segment closes it in
    // AccessSink below.
    trace_->span_begin(sim_.now(), "frame", "phy", packet.frame_id,
                       {{"fragments", static_cast<double>(packet.fragments)}});
  }
  sent_cache_.insert(packet);
  if (uplink_) {
    uplink_->push(std::move(packet));
  } else {
    wireline_queue_->push(std::move(packet));
  }
}

void Session::PacedSink::operator()(rtp::RtpPacket packet) const {
  session->on_packet_paced(std::move(packet));
}

void Session::AccessSink::operator()(rtp::RtpPacket packet, SimTime at) const {
  // The last fragment leaving the access segment closes the frame's PHY
  // span.
  if (session->trace_ && !packet.is_retransmission &&
      packet.fragment == packet.fragments - 1) {
    session->trace_->span_end(at, "frame", "phy", packet.frame_id);
  }
  session->media_link_->send(std::move(packet));
}

void Session::on_feedback(const FeedbackMsg& msg, SimTime arrival) {
  last_feedback_seen_ = sim_.now();
  if (feedback_stale_ &&
      ++healthy_streak_ >= config_.feedback_guard.recovery_feedbacks) {
    // Enough consecutive feedbacks: leave the fallback. The GCC target is
    // not restored explicitly — the next on_feedback below republishes the
    // receiver's fresh estimate, which the decay never touched.
    feedback_stale_ = false;
    stale_total_ += sim_.now() - stale_since_;
    healthy_streak_ = 0;
    if (trace_) {
      trace_->instant(sim_.now(), "control", "feedback_guard",
                      {{"stale", 0.0},
                       {"episode_ms", to_millis(sim_.now() - stale_since_)}});
    }
  }

  sender_roi_ = msg.roi;
  if (config_.roi_prediction_horizon > 0) {
    roi_predictor_.add_sample(msg.sent_at, msg.gaze);
  }
  if (!feedback_stale_) {
    // While still inside the recovery streak the reported mismatch average
    // spans the blackout and is dominated by it; feeding it to the mode
    // selector would double-count the damage the nudges already priced in.
    adaptive_.on_feedback(msg.mismatch_avg, current_video_rate(), sim_.now());
  }
  const Bitrate rgcc = gcc_sender_.on_feedback(msg.gcc);
  rtt_estimator_.on_report(msg.rtcp, arrival);
  if (fbcc_) {
    fbcc_->on_gcc_rate(rgcc);
    fbcc_->set_rtt(rtt_estimator_.has_estimate()
                       ? rtt_estimator_.smoothed_rtt()
                       : (arrival - msg.sent_at) + msg.last_net_delay);
  } else {
    // Legacy WebRTC behaviour (§3.3): the RTP sending rate simply follows
    // the video encoding rate (plus the pacer's small burst headroom).
    pacer_->set_rate(rgcc * config_.gcc_pacing_factor);
  }
}

void Session::on_nack(const NackMsg& msg) {
  // PLI-style keyframe-recovery requests: the receiver abandoned these
  // frames, so pending packets for them are pure waste on a path that is
  // already losing — purge them from the pacer and forget the frame.
  for (std::int64_t frame_id : msg.pli_frames) {
    if (!in_flight_.erase(frame_id)) continue;
    pacer_->drop_frame(frame_id);
    ++sender_frames_dropped_;
  }

  for (std::int64_t seq : msg.seqs) {
    // A retransmission is in flight while it still waits in the pacer and
    // for a dedup window after it was queued. Queueing a second copy behind
    // a slow pacer would only grow the backlog every frame waits behind. A
    // copy a PLI purged from the pacer stays marked queued: the receiver
    // has given up on its frame.
    if (auto packet = sent_cache_.claim_retransmission(seq, sim_.now(),
                                                       kRetxDedupWindow)) {
      packet->is_retransmission = true;
      pacer_->enqueue_front(*packet);
    }
  }
}

void Session::on_feedback_guard_tick() {
  const SimTime now = sim_.now();
  if (now - last_feedback_seen_ <= config_.feedback_guard.timeout) return;

  if (!feedback_stale_) {
    feedback_stale_ = true;
    stale_since_ = now;
    ++stale_episodes_;
    if (trace_) {
      trace_->instant(now, "control", "feedback_guard",
                      {{"stale", 1.0},
                       {"gap_ms", to_millis(now - last_feedback_seen_)}});
    }
  }
  healthy_streak_ = 0;  // any feedback that trickled in did not stick

  // Circuit-breaker decay (RFC 8083 spirit): shrink the published GCC
  // target every check the channel stays dark. Only the published target
  // decays — the internal loss/delay estimators are untouched, so recovery
  // snaps back to the receiver's estimate with the first fresh feedback.
  const Bitrate decayed =
      gcc_sender_.decay_target(config_.feedback_guard.stale_rate_decay);
  if (fbcc_) {
    fbcc_->on_gcc_rate(decayed);
    pacer_->set_rate(fbcc_->rtp_rate());
  } else {
    pacer_->set_rate(decayed * config_.gcc_pacing_factor);
  }

  // With no fresh ROI the viewer may be anywhere: flatten the falloff one
  // step per tick (F_K-ward), bounded by the mode table's conservative end
  // and by each mode's quality-floor budget at the decayed rate.
  if (config_.compression == CompressionScheme::kPoi360) {
    adaptive_.nudge_conservative(current_video_rate(), now);
  }
}

void Session::on_diag(const lte::DiagReport& report) {
  diag_history_.push_back(report);
  while (!diag_history_.empty() &&
         diag_history_.front().time < report.time - sec(1)) {
    diag_history_.pop_front();
  }

  if (fbcc_) {
    fbcc_->on_diag(report, sim_.now());
    pacer_->set_rate(fbcc_->rtp_rate());
  }

  record_rate_sample(report.time, report.buffer_bytes, trailing_rphy(sec(1)),
                     fbcc_ && fbcc_->congested());
}

Bitrate Session::trailing_rphy(SimDuration window) const {
  if (diag_history_.empty()) return 0.0;
  std::int64_t bytes = 0;
  SimDuration span = 0;
  for (std::size_t i = diag_history_.size(); i-- > 0 && span < window;) {
    bytes += diag_history_[i].tbs_bytes;
    span += diag_history_[i].interval;
  }
  return span > 0 ? rate_of(bytes, span) : 0.0;
}

// ---------------------------------------------------------------- viewer --

void Session::MediaSink::operator()(const rtp::RtpPacket& packet,
                                    SimTime at) const {
  session->receiver_->on_packet(packet, at);
}

void Session::on_frame_complete(const rtp::RtpReceiver::CompletedFrame& f) {
  // GCC bases its multiplicative decrease on the incoming-rate estimate;
  // WebRTC measures it over a trailing window long enough to lag transient
  // famines (which is precisely why its cuts land off-target).
  gcc_receiver_.on_frame(f.last_send_time, f.completion,
                         receiver_->incoming_rate(sec(1)));
  last_net_delay_ = f.completion - f.first_send_time;

  // RTCP bookkeeping: the media stream acts as the "sender report"; the
  // next feedback message echoes it as LSR/DLSR so the sender can compute
  // the true control-loop RTT.
  last_sr_timestamp_ = f.first_send_time;
  last_sr_received_ = f.completion;

  // The playout buffer always observes arrivals (its jitter estimate rides
  // the RTCP reports); its schedule only governs display when enabled.
  const SimTime playout_at =
      playout_.schedule(f.capture_time, f.completion) + config_.render_delay;
  const SimTime display_at = config_.use_adaptive_playout
                                 ? playout_at
                                 : f.completion + config_.render_delay;
  displays_.push(display_at, f);
}

void Session::on_display(const rtp::RtpReceiver::CompletedFrame& f) {
  const video::EncodedFrame* found = in_flight_.find(f.frame_id);
  if (found == nullptr) return;
  const video::EncodedFrame& frame = *found;

  const SimTime now = sim_.now();
  const roi::Orientation gaze = head_motion_.orientation_at(now);
  const video::TileIndex actual_roi =
      grid_.tile_at(gaze.yaw_deg, gaze.pitch_deg);

  const double roi_level = frame.levels->at(actual_roi);
  const double min_level = frame.levels->min_level();
  const SimDuration delay = now - frame.capture_time;

  mismatch_tracker_.on_frame(now, delay, roi_level, min_level, actual_roi);

  const double psnr = video::roi_region_psnr(config_.quality, grid_,
                                              *frame.levels, actual_roi,
                                              frame.bpp);
  if (trace_) {
    trace_->instant(now, "frame", "display",
                    {{"delay_ms", to_millis(delay)},
                     {"psnr_db", psnr},
                     {"roi_level", roi_level},
                     {"mode", static_cast<double>(frame.mode_id)}},
                    f.frame_id);
  }
  metrics_.add_frame(metrics::FrameRecord{
      .frame_id = f.frame_id,
      .capture_time = frame.capture_time,
      .display_time = now,
      .delay = delay,
      .roi_level = roi_level,
      .min_level = min_level,
      .roi_psnr_db = psnr,
      .mos = video::mos_from_psnr(psnr),
      .mode_id = frame.mode_id,
      .roi_mismatch = roi_level > min_level * config_.mismatch.level_tolerance,
  });

  in_flight_.erase(f.frame_id);
}

void Session::on_feedback_timer() {
  const SimTime now = sim_.now();
  const roi::Orientation gaze = head_motion_.orientation_at(now);
  FeedbackMsg msg;
  msg.roi = grid_.tile_at(gaze.yaw_deg, gaze.pitch_deg);
  msg.gaze = gaze;
  msg.mismatch_avg = mismatch_tracker_.average();
  msg.gcc = gcc::GccFeedback{
      .delay_based_rate = gcc_receiver_.delay_based_rate(),
      .loss_fraction = receiver_->take_loss_fraction(),
      .incoming_rate = receiver_->incoming_rate(),
      .sent_at = now,
  };
  msg.rtcp = rtp::ReceiverReport{
      .last_sr_timestamp = last_sr_timestamp_,
      .delay_since_last_sr =
          last_sr_timestamp_ > 0 ? now - last_sr_received_ : 0,
      .jitter = playout_.measured_jitter(),
      .fraction_lost = 0.0,  // carried in msg.gcc.loss_fraction
  };
  msg.sent_at = now;
  msg.last_net_delay = last_net_delay_;
  feedback_link_->send(msg);
}

// ------------------------------------------------------------- telemetry --

void Session::on_throughput_second() {
  const std::int64_t total = receiver_->total_media_bytes();
  metrics_.add_throughput_second(
      rate_of(total - last_second_bytes_, kThroughputSamplePeriod));
  last_second_bytes_ = total;
}

void Session::record_rate_sample(SimTime now, std::int64_t buffer_bytes,
                                 Bitrate rphy, bool congested) {
  const metrics::RateSample sample{
      .time = now,
      .video_rate = current_video_rate(),
      .rtp_rate = pacer_->rate(),
      .fw_buffer_bytes = buffer_bytes,
      .app_buffer_bytes = pacer_->queued_bytes(),
      .rphy = rphy,
      .congested = congested,
      .fbcc_degraded = fbcc_ && fbcc_->degraded(),
  };
  metrics_.add_rate_sample(sample);
  if (trace_hook_) trace_hook_(sample);
}

}  // namespace poi360::core

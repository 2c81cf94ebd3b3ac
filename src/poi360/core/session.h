#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "poi360/baseline/conduit.h"
#include "poi360/baseline/pyramid.h"
#include "poi360/common/fifo.h"
#include "poi360/common/id_ring.h"
#include "poi360/common/rng.h"
#include "poi360/core/adaptive_compression.h"
#include "poi360/core/config.h"
#include "poi360/core/fbcc.h"
#include "poi360/core/mismatch.h"
#include "poi360/gcc/gcc.h"
#include "poi360/lte/uplink.h"
#include "poi360/metrics/session_metrics.h"
#include "poi360/net/chaos.h"
#include "poi360/net/link.h"
#include "poi360/net/queue.h"
#include "poi360/roi/head_motion.h"
#include "poi360/roi/prediction.h"
#include "poi360/rtp/pacer.h"
#include "poi360/rtp/packetizer.h"
#include "poi360/rtp/receiver.h"
#include "poi360/rtp/jitter_buffer.h"
#include "poi360/rtp/retx.h"
#include "poi360/rtp/rtcp.h"
#include "poi360/sim/fifo_lane.h"
#include "poi360/sim/simulator.h"
#include "poi360/video/encoder.h"

namespace poi360::core {

/// ROI + congestion feedback message on the viewer -> sender path
/// (WebRTC data channel in the prototype, §5).
struct FeedbackMsg {
  video::TileIndex roi;
  roi::Orientation gaze;          // raw sensor angles (enables prediction)
  SimDuration mismatch_avg = 0;   // windowed M (Eq. 2)
  gcc::GccFeedback gcc;
  rtp::ReceiverReport rtcp;       // LSR/DLSR echo + jitter (RFC 3550 style)
  SimTime sent_at = 0;
  SimDuration last_net_delay = 0;  // network part of the last frame's delay
};

/// NACK batch on the reverse path. `pli_frames` piggybacks PLI-style
/// keyframe-recovery requests: frames the receiver abandoned (deadline or
/// cap eviction) whose remaining packets the sender should stop spending
/// uplink on.
struct NackMsg {
  std::vector<std::int64_t> seqs;
  std::vector<std::int64_t> pli_frames;
};

/// One end-to-end 360° telephony session: sender (camera -> adaptive
/// compression -> encoder -> packetizer -> pacer), access network (LTE
/// uplink + core, or wireline), viewer (reassembly -> display -> ROI &
/// congestion feedback), and the configured rate control closing the loop.
///
/// Construct, `run()`, then read `metrics()`. Each (config, seed) pair is a
/// fully deterministic replayable run.
class Session {
 public:
  explicit Session(SessionConfig config);
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Runs the full session; call exactly once. Equivalent to
  /// `start(); advance_until(config.duration); finish();`.
  void run();

  /// Incremental lifecycle, used by the serving layer (poi360/serve/) to
  /// interleave many sessions on one master timeline. `start()` schedules
  /// every periodic stream (call once), `advance_until()` runs the private
  /// event timeline up to `end` (monotone across calls), and `finish()`
  /// closes open episodes and assembles the final robustness metrics
  /// (idempotent). `run()` is exactly these three in sequence, so batch
  /// callers are unaffected.
  void start();
  void advance_until(SimTime end);
  void finish();

  /// Current simulated time of this session's private timeline.
  SimTime now() const { return sim_.now(); }

  /// Overload hook for the serving layer's admission controller: steps the
  /// adaptive compression one mode toward the conservative end — the same
  /// graceful-degradation path the feedback-staleness watchdog uses — so an
  /// overloaded cell can degrade admitted sessions instead of rejecting new
  /// ones. No-op for the baseline compression schemes.
  void nudge_conservative();

  const metrics::SessionMetrics& metrics() const { return metrics_; }
  const SessionConfig& config() const { return config_; }

  /// Frames captured but never displayed, read live: sender skips plus the
  /// receiver's deadline abandons and cap evictions. These are the frames
  /// `SessionMetrics::freeze_ratio` counts as frozen; unlike the
  /// `transport.*` registry counters they are current before `finish()`.
  std::int64_t lost_frames() const;

  /// Read-only window into the session's internals for tests, benches and
  /// the serving layer. Uniform optional semantics: every member is a
  /// pointer that is non-null exactly when the component exists under this
  /// config — no mixed raw-pointer/reference conventions.
  struct Observers {
    /// Diag-feed fault injector; present only when `config.diag_faults
    /// .enabled` on a cellular session.
    const lte::DiagFaultModel* diag_faults = nullptr;
    /// Chaos statistics of the media link past the radio (core link on
    /// cellular, last-hop link on wireline).
    const net::ChaosStats* media_chaos = nullptr;
    /// Chaos statistics of the reverse (feedback) link.
    const net::ChaosStats* feedback_chaos = nullptr;
    /// Receiver internals (bounded-state peak counters mid-flight, recovery
    /// statistics); always present.
    const rtp::RtpReceiver* receiver = nullptr;
  };
  Observers observers() const;

  /// Optional observer invoked on every rate-control telemetry sample
  /// (used by the rate_control_trace example).
  using TraceHook = std::function<void(const metrics::RateSample&)>;
  void set_trace_hook(TraceHook hook) { trace_hook_ = std::move(hook); }

  /// The span/event recorder, present only when `config.trace.enabled`
  /// (nullptr otherwise). Read it after run() for export.
  const obs::TraceRecorder* trace() const { return trace_.get(); }
  /// Writable recorder for external observers (the serving layer's SLO
  /// engine emits breach/recovery instants into the session's own trace).
  obs::TraceRecorder* trace() { return trace_.get(); }

 private:
  // The typed sinks of the media path. Each forwards to one Session
  // member, so every packet's hop (pacer -> uplink or wireline queue ->
  // media link -> lane -> receiver) is a direct call instead of a
  // std::function dispatch.
  struct PacedSink {  // the pacer released a packet
    Session* session;
    void operator()(rtp::RtpPacket packet) const;
  };
  struct AccessSink {  // the uplink or wireline queue drained a packet
    Session* session;
    void operator()(rtp::RtpPacket packet, SimTime at) const;
  };
  struct MediaSink {  // the media link delivered a packet to the viewer
    Session* session;
    void operator()(const rtp::RtpPacket& packet, SimTime at) const;
  };

  // Sender side.
  void on_capture();
  void hand_frame_to_pacer(std::int64_t frame_id);
  void on_packet_paced(rtp::RtpPacket packet);
  void on_feedback(const FeedbackMsg& msg, SimTime arrival);
  void on_nack(const NackMsg& msg);
  void on_diag(const lte::DiagReport& report);
  void on_feedback_guard_tick();
  Bitrate current_video_rate() const;
  std::shared_ptr<const video::CompressionMatrix> current_matrix_for(
      video::TileIndex roi) const;
  int current_mode_id() const;

  // Viewer side.
  void on_frame_complete(const rtp::RtpReceiver::CompletedFrame& frame);
  void on_display(const rtp::RtpReceiver::CompletedFrame& frame);
  void on_feedback_timer();

  // Telemetry.
  void on_throughput_second();
  void record_rate_sample(SimTime now, std::int64_t buffer_bytes,
                          Bitrate rphy, bool congested);
  Bitrate trailing_rphy(SimDuration window) const;

  SessionConfig config_;
  video::TileGrid grid_;
  sim::Simulator sim_;
  Rng rng_;

  // Sender.
  video::PanoramicEncoder encoder_;
  rtp::Packetizer packetizer_;
  rtp::SentPacketCache sent_cache_;
  std::unique_ptr<rtp::Pacer<PacedSink>> pacer_;
  AdaptiveCompressionController adaptive_;
  // Memoized (mode, ROI) compression matrices shared by every per-frame
  // lookup — adaptive modes 1..K plus both baselines — over the process's
  // shared ModeTables for this configuration (see compression.h).
  video::ModeMatrixCache matrix_cache_;
  gcc::GccSender gcc_sender_;
  std::unique_ptr<FbccController> fbcc_;
  video::TileIndex sender_roi_;
  roi::RoiPredictor roi_predictor_;
  // Frames captured and not yet displayed or purged, by frame id.
  IdRing<video::EncodedFrame> in_flight_;
  // Frame ids whose encode delay elapses, in capture order.
  sim::FifoLane<std::int64_t> encoded_frames_;

  // Network. Every link is a ChaosLink; with the default all-zero fault
  // profile each one degenerates draw-for-draw into the plain DelayLink.
  // The access segment is the LTE uplink (cellular) or the wireline
  // bottleneck queue; the media link behind it is the core network or the
  // wireline last hop.
  std::unique_ptr<lte::LteUplink<rtp::RtpPacket, AccessSink>> uplink_;
  std::unique_ptr<lte::DiagFaultModel> diag_faults_;
  std::unique_ptr<net::DrainQueue<rtp::RtpPacket, AccessSink>>
      wireline_queue_;
  std::unique_ptr<net::ChaosLink<rtp::RtpPacket, MediaSink>> media_link_;
  std::unique_ptr<net::ChaosLink<FeedbackMsg>> feedback_link_;
  std::unique_ptr<net::ChaosLink<NackMsg>> nack_link_;

  // Viewer.
  std::unique_ptr<rtp::RtpReceiver> receiver_;
  roi::StochasticHeadMotion head_motion_;
  MismatchTracker mismatch_tracker_;
  gcc::GccReceiver gcc_receiver_;
  rtp::JitterBuffer playout_;
  sim::FifoLane<rtp::RtpReceiver::CompletedFrame> displays_;
  SimDuration last_net_delay_ = 0;
  SimTime last_sr_timestamp_ = 0;   // first_send_time of last completed frame
  SimTime last_sr_received_ = 0;    // when that frame completed

  // Sender-side RTT bookkeeping (RFC 3550 LSR/DLSR).
  rtp::RttEstimator rtt_estimator_;

  // Feedback-staleness watchdog state (see FeedbackGuardConfig).
  SimTime last_feedback_seen_ = 0;
  bool feedback_stale_ = false;
  SimTime stale_since_ = 0;
  SimDuration stale_total_ = 0;
  std::int64_t stale_episodes_ = 0;
  int healthy_streak_ = 0;
  std::int64_t sender_frames_dropped_ = 0;  // purged on PLI requests

  // Telemetry.
  metrics::SessionMetrics metrics_;
  std::unique_ptr<obs::TraceRecorder> trace_;
  TraceHook trace_hook_;
  Fifo<lte::DiagReport> diag_history_;
  std::int64_t last_second_bytes_ = 0;
  bool ran_ = false;
  bool finished_ = false;
};

}  // namespace poi360::core

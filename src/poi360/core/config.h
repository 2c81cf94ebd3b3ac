#pragma once

#include <cstdint>
#include <string>

#include "poi360/common/time.h"
#include "poi360/common/units.h"
#include "poi360/core/adaptive_compression.h"
#include "poi360/core/fbcc.h"
#include "poi360/core/mismatch.h"
#include "poi360/gcc/gcc.h"
#include "poi360/lte/channel.h"
#include "poi360/lte/diag_fault.h"
#include "poi360/lte/uplink.h"
#include "poi360/net/chaos.h"
#include "poi360/obs/trace.h"
#include "poi360/roi/head_motion.h"
#include "poi360/roi/prediction.h"
#include "poi360/rtp/jitter_buffer.h"
#include "poi360/rtp/receiver.h"
#include "poi360/video/encoder.h"
#include "poi360/video/quality.h"

namespace poi360::core {

/// Spatial compression scheme under test (§6.1.1 comparison set).
enum class CompressionScheme { kPoi360, kConduit, kPyramid };

/// Transport rate control under test (§6.1.2 comparison set).
enum class RateControl { kFbcc, kGcc };

/// Access network of the telephony session.
enum class NetworkType { kCellular, kWireline };

std::string to_string(CompressionScheme s);
std::string to_string(RateControl r);
std::string to_string(NetworkType n);

/// Sender-side feedback-staleness watchdog (the transport twin of FBCC's
/// diag-feed fallback): when the combined ROI/mismatch/RTCP feedback channel
/// goes dark — downlink blackout, peer stall — the sender stops trusting its
/// last ROI and rate picture. While stale it steps compression toward the
/// conservative end (the viewer may be anywhere by now) and decays the GCC
/// target multiplicatively, RFC 8083 circuit-breaker style, instead of
/// streaming at the last pre-blackout estimate into an unknown network.
struct FeedbackGuardConfig {
  /// Feedback gap that triggers the fallback. Feedback rides the frame
  /// clock (~28 ms at 36 FPS), so 600 ms means ~20 consecutive losses —
  /// never reached by ordinary jitter.
  SimDuration timeout = msec(600);
  SimDuration check_period = msec(100);
  /// Multiplicative decay of the published GCC target per check while
  /// stale (0.94^10 ≈ 0.54: roughly halves the rate per dark second).
  double stale_rate_decay = 0.94;
  /// Consecutive feedback messages required before leaving the fallback —
  /// hysteresis so one surviving packet inside a blackout cannot flap the
  /// mode and rate back and forth.
  int recovery_feedbacks = 3;
};

/// Complete configuration of one 360° telephony session.
///
/// Defaults reproduce the paper's baseline setup: a 4K / 36 FPS panoramic
/// stream from a virtual webcam, 12x8 tiles, a commercial-LTE-like uplink
/// with strong static signal, and a stochastic viewer.
struct SessionConfig {
  CompressionScheme compression = CompressionScheme::kPoi360;
  RateControl rate_control = RateControl::kFbcc;
  NetworkType network = NetworkType::kCellular;

  SimDuration duration = sec(60);
  std::uint64_t seed = 1;

  // -- video --------------------------------------------------------------
  int grid_cols = 12;
  int grid_rows = 8;
  int frame_width_px = 3840;
  int frame_height_px = 1920;
  video::EncoderConfig encoder{};
  video::QualityModel quality{};
  /// Lognormal std of per-frame size variation (content complexity churn);
  /// drives the app-buffer burstiness behind Fig. 6.
  double frame_size_noise_std = 0.22;

  // -- viewer ---------------------------------------------------------------
  roi::HeadMotionParams head_motion{};
  MismatchTracker::Config mismatch{};
  /// Motion-based ROI prediction horizon (§8); 0 disables prediction and
  /// the sender uses the viewer's last reported ROI verbatim.
  SimDuration roi_prediction_horizon = 0;
  roi::RoiPredictor::Config roi_predictor{};

  // -- compression controllers ---------------------------------------------
  AdaptiveCompressionController::Config adaptive{};
  int conduit_fov_radius = 1;
  double conduit_non_roi_level = 256.0;
  double pyramid_c = 1.3;
  double baseline_max_level = 64.0;

  // -- rate control ---------------------------------------------------------
  Bitrate initial_rate = mbps(1.5);
  /// Legacy WebRTC sets R_rtp to follow R_v (§3.3); real pacers keep a small
  /// headroom so application bursts drain instead of accumulating.
  double gcc_pacing_factor = 1.15;
  FbccController::Config fbcc{};
  gcc::GccReceiver::Config gcc_receiver{};
  gcc::LossBasedController::Config gcc_loss{};

  // -- cellular path ----------------------------------------------------------
  lte::ChannelConfig channel{};
  lte::UplinkConfig uplink{};
  /// Fleet seam: when attached, this session's uplink is one registered UE
  /// of an externally owned `lte::SharedCell` — it reports its backlog as
  /// demand and its capacity is scaled by the cell's proportional-fair
  /// share (`serve::FleetDriver` builds these). Detached by default: the
  /// session owns its cell via `channel` and behaves exactly as before.
  /// Fleet configs should also disable the private competition models
  /// (`channel.mean_cell_load`/`load_std` = 0, `explicit_users` = -1) so
  /// the shared cell is the only contention source.
  lte::CellHandle cell_handle{};
  /// Fault injection on the modem diagnostic feed (loss, stalls, jitter,
  /// duplicates, garbage, handovers). Disabled by default: the clean feed
  /// stays byte-identical. Handover events also hit the physical uplink
  /// (buffer flush + detach + capacity step), so they apply to GCC runs
  /// too; the sensor-side faults only matter to FBCC.
  lte::DiagFaultConfig diag_faults{};
  SimDuration core_delay = msec(18);       // eNB -> peer one-way
  SimDuration core_jitter = msec(3);
  double core_loss = 0.0005;
  SimDuration feedback_delay = msec(60);   // peer -> sender (LTE downlink)
  SimDuration feedback_jitter = msec(20);
  double feedback_loss = 0.001;

  // -- transport chaos + recovery ---------------------------------------------
  /// Fault injection on the media path past the radio (core/wireline link):
  /// Gilbert–Elliott burst loss, reordering, duplication, handover-style
  /// blackouts, delay spikes. All off by default — a zero-fault ChaosLink is
  /// draw-for-draw identical to the plain DelayLink it wraps.
  net::ChaosConfig media_chaos{};
  /// Same injectors for the reverse path (ROI/RTCP feedback + NACK links);
  /// this is what starves the sender and exercises `feedback_guard`.
  net::ChaosConfig feedback_chaos{};
  /// Receiver-side bounded recovery: NACK retry budget/backoff, frame
  /// abandonment deadline, assembly/NACK state caps, packet validation.
  /// Defaults reproduce the legacy unbounded-retry receiver.
  rtp::RtpReceiver::Config receiver{};
  /// Sender-side feedback-staleness fallback (see FeedbackGuardConfig).
  FeedbackGuardConfig feedback_guard{};

  // -- wireline path ----------------------------------------------------------
  Bitrate wireline_rate = mbps(20);
  std::int64_t wireline_buffer_bytes = 256 * 1024;
  SimDuration wireline_delay = msec(12);   // one-way
  SimDuration wireline_jitter = msec(2);
  double wireline_loss = 0.0001;
  SimDuration wireline_feedback_delay = msec(12);
  SimDuration wireline_feedback_jitter = msec(2);

  // -- display pipeline --------------------------------------------------------
  /// Camera capture + stitch + canvas compose + encode latency.
  SimDuration capture_encode_delay = msec(120);
  /// Jitter buffer + decode + unfold + WebGL stereo render latency.
  SimDuration render_delay = msec(170);

  /// Sender skips encoding when the app backlog exceeds this much playtime
  /// (a real encoder pauses under backpressure); skipped frames count as
  /// frozen.
  SimDuration max_app_backlog = msec(1000);

  /// Frame delay beyond which a frame counts as frozen (§6.1.1).
  SimDuration freeze_threshold = msec(600);

  /// Frame-lifecycle + control-decision tracing (see poi360/obs/). Off by
  /// default: no recorder is constructed and every instrumented hot path
  /// reduces to a null-pointer test.
  obs::TraceConfig trace{};

  /// Enable the adaptive playout (jitter) buffer at the viewer. Off by
  /// default: the paper measures raw frame delay through a fixed render
  /// pipeline, and the headline calibration preserves that. When on, the
  /// display time additionally honors the measured-jitter playout target.
  bool use_adaptive_playout = false;
  rtp::JitterBuffer::Config playout{};
};

/// Canned configurations for the paper's experiment conditions.
namespace presets {

/// Strong-signal, idle-cell, static LTE (the microbenchmark default).
SessionConfig cellular_static();

/// Campus wireline control group.
SessionConfig wireline();

/// §6.2 background-load conditions.
SessionConfig cellular_idle_cell();
SessionConfig cellular_busy_cell();

/// §6.2 signal-strength conditions.
SessionConfig cellular_rss(double rss_dbm);

/// §6.2 mobility conditions (driving at mph; highway has strong RSS).
SessionConfig cellular_driving(double speed_mph);

/// §8 future work: mobile-edge-computing relay at the base station. Both
/// call legs terminate at the edge instead of crossing the Internet, which
/// shortens the media path and, crucially, the ROI feedback loop.
SessionConfig cellular_mec();

}  // namespace presets

}  // namespace poi360::core

#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "poi360/common/stats.h"
#include "poi360/common/time.h"
#include "poi360/common/units.h"
#include "poi360/obs/metrics_registry.h"
#include "poi360/video/quality.h"

namespace poi360::metrics {

/// Everything measured about one displayed 360° frame at the viewer.
struct FrameRecord {
  std::int64_t frame_id = 0;
  SimTime capture_time = 0;
  SimTime display_time = 0;
  SimDuration delay = 0;          // display - capture (end-to-end, §5)
  double roi_level = 1.0;         // compression level of the viewed tile
  double min_level = 1.0;         // best level anywhere in the frame
  double roi_psnr_db = 0.0;       // displayed quality in the actual ROI
  video::Mos mos = video::Mos::kBad;
  int mode_id = 0;                // compression mode the sender used
  bool roi_mismatch = false;      // viewed tile not at the frame's best level
};

/// Periodic rate-control telemetry (one sample per diagnostic report).
struct RateSample {
  SimTime time = 0;
  Bitrate video_rate = 0.0;       // R_v
  Bitrate rtp_rate = 0.0;         // R_rtp
  std::int64_t fw_buffer_bytes = 0;
  std::int64_t app_buffer_bytes = 0;  // pacer (video buffer) backlog
  Bitrate rphy = 0.0;             // trailing TBS-derived PHY throughput
  bool congested = false;         // FBCC's J signal (always false for GCC)
  bool fbcc_degraded = false;     // FBCC in sensor-fallback (pure GCC) mode
};

// -- CSV schema -------------------------------------------------------------
// Single source of truth for the per-frame / per-sample CSV layout. Every
// emitter (the CLI's --csv dump, tooling) reads the same column tables, so
// header and rows can never drift apart again. Column order matches the
// historical output byte for byte.

struct FrameColumn {
  const char* name;
  std::string (*value)(const FrameRecord&);
};
struct RateColumn {
  const char* name;
  std::string (*value)(const RateSample&);
};

std::span<const FrameColumn> frame_csv_columns();
std::span<const RateColumn> rate_csv_columns();
std::string frame_csv_header();
std::string frame_csv_row(const FrameRecord& f);
std::string rate_csv_header();
std::string rate_csv_row(const RateSample& s);

/// FBCC sensor-path health over a session: how often the controller had to
/// stop trusting the diag feed and fall back to end-to-end (GCC) pacing.
/// Assembled on demand from the registry counters `diag.*`.
struct DiagRobustness {
  std::int64_t fallback_episodes = 0;  // degraded-mode entries
  SimDuration degraded_time = 0;       // total time spent degraded
  std::int64_t rejected_reports = 0;   // diag reports failing validation
};

/// Transport-path health over a session — the packet-path twin of
/// `DiagRobustness`: what the bounded-recovery receiver, the sender's
/// keyframe-recovery path, and the feedback-staleness watchdog had to do.
/// Assembled on demand from the registry counters `transport.*`.
struct TransportRobustness {
  std::int64_t frames_abandoned = 0;    // receiver deadline expiries
  std::int64_t assembly_evictions = 0;  // receiver cap-driven evictions
  std::int64_t nack_give_ups = 0;       // NACK retry budget exhausted
  std::int64_t nack_evictions = 0;      // NACK state dropped at the cap
  std::int64_t invalid_packets = 0;     // failed receiver validation
  std::int64_t stale_packets = 0;       // late packets of finished frames
  std::int64_t keyframe_requests = 0;   // PLI-style requests emitted
  std::int64_t sender_frames_dropped = 0;  // in-flight state purged on PLI
  std::int64_t feedback_stale_episodes = 0;  // watchdog fallback entries
  SimDuration feedback_stale_time = 0;       // total time feedback was dark
};

/// Collects per-session measurements and computes the aggregates each paper
/// figure reports. Populated by core::Session; consumed by tests, examples
/// and the bench harnesses.
///
/// Each fact is stored once. Per-frame and per-sample facts live only in the
/// columns (`frames()`, `rate_samples()`, `throughput_samples()`): the
/// paper's distribution figures (CDFs, pooled PDFs, the Fig. 15 scatter)
/// need every sample, and every aggregate below is computed from them. The
/// registry holds only the `diag.*` / `transport.*` health counters that
/// `core::Session::finish()` writes once; the robustness structs above are
/// views reassembled from them.
class SessionMetrics {
 public:
  friend SessionMetrics merge(std::span<const SessionMetrics* const> runs);

  // -- ingestion ----------------------------------------------------------
  void add_frame(const FrameRecord& record) { frames_.push_back(record); }
  void add_rate_sample(const RateSample& sample) {
    rate_samples_.push_back(sample);
  }
  void add_throughput_second(Bitrate received_rate) {
    throughput_bps_.push_back(received_rate);
  }
  void note_sender_skipped_frame() { ++skipped_frames_; }
  void set_diag_robustness(const DiagRobustness& r);
  void set_transport_robustness(const TransportRobustness& r);
  /// Identity of the run these metrics came from (the runner assigns the
  /// grid index); merge() orders its inputs by this so pooled distributions
  /// are invariant to completion order. -1 = unassigned (input order kept).
  void set_run_id(std::int64_t id) { run_id_ = id; }
  std::int64_t run_id() const { return run_id_; }

  // -- raw access ---------------------------------------------------------
  const std::vector<FrameRecord>& frames() const { return frames_; }
  const std::vector<RateSample>& rate_samples() const { return rate_samples_; }
  const std::vector<double>& throughput_samples() const {
    return throughput_bps_;
  }
  const obs::MetricsRegistry& registry() const { return registry_; }

  // -- aggregates (one per paper metric) -----------------------------------
  /// Mean / std of ROI PSNR across displayed frames (Fig. 11a/b bars).
  double mean_roi_psnr() const;
  double std_roi_psnr() const;

  /// MOS bucket PDF over displayed frames (Fig. 11c/d, 16b, 17b/d/f).
  std::vector<double> mos_pdf() const;  // indexed by video::Mos

  /// Freeze ratio: frames delayed beyond the threshold, plus frames the
  /// sender had to skip under backlog and frames the receiver abandoned
  /// under loss (neither was ever shown on time).
  double freeze_ratio(SimDuration threshold = msec(600)) const;

  /// Distribution of end-to-end frame delay in ms (Fig. 13 CDFs).
  SampleSet frame_delays_ms() const;

  /// Distribution of the 2 s sliding-window std of the displayed ROI
  /// compression level (Fig. 12 CDFs).
  SampleSet roi_level_variation(SimDuration window = sec(2)) const;

  /// Distribution of firmware buffer levels in kB (Fig. 6 CDF).
  SampleSet buffer_levels_kb() const;

  /// Mean / std of per-second received throughput (Fig. 16a).
  double mean_throughput() const;
  double std_throughput() const;

  /// Mean / std of the video encoding rate across rate samples.
  double mean_video_rate() const;
  double std_video_rate() const;

  std::int64_t displayed_frames() const {
    return static_cast<std::int64_t>(frames_.size());
  }
  std::int64_t skipped_frames() const { return skipped_frames_; }

  DiagRobustness diag_robustness() const;
  TransportRobustness transport_robustness() const;
  /// Fraction of rate samples taken while FBCC was in degraded mode.
  double degraded_sample_fraction() const;

 private:
  std::vector<FrameRecord> frames_;
  std::vector<RateSample> rate_samples_;
  std::vector<double> throughput_bps_;
  std::int64_t skipped_frames_ = 0;
  obs::MetricsRegistry registry_;
  std::int64_t run_id_ = -1;
};

/// Merges the per-figure aggregates of several runs (the paper repeats each
/// experiment 10 times per user and reports pooled distributions).
///
/// Order-invariant: inputs are concatenated in ascending run_id() order
/// (stable for ties, so unassigned ids preserve input order) — a parallel
/// sweep's completion order can never change a pooled CDF.
SessionMetrics merge(std::span<const SessionMetrics* const> runs);
SessionMetrics merge(const std::vector<const SessionMetrics*>& runs);

}  // namespace poi360::metrics

#pragma once

#include <cstdint>

#include "poi360/common/fifo.h"
#include "poi360/common/stats.h"
#include "poi360/common/time.h"
#include "poi360/common/units.h"
#include "poi360/lte/diag.h"
#include "poi360/obs/trace.h"

namespace poi360::core {

/// Uplink congestion detector (paper Eq. 3).
///
/// J = 1 iff the firmware buffer level increased for K consecutive
/// diagnostic reports AND the current level exceeds Γ(t), the long-term
/// average buffer level (updated online as an EWMA).
class CongestionDetector {
 public:
  struct Config {
    int k = 10;                 // consecutive increases required
    double gamma_alpha = 0.02;  // EWMA weight for Γ(t)
    /// Eq. 3 asks for K strictly increasing reports; on real diag feeds the
    /// per-report TBS quantization makes occasional down-ticks inevitable
    /// even while the buffer is filling, so we tolerate a few, as long as
    /// the level grew over the whole K-report span.
    int allowed_decreases = 2;
  };

  CongestionDetector();
  /// Throws std::invalid_argument for a negative `k`.
  explicit CongestionDetector(Config config);

  /// Feeds one buffer-level report; returns the congestion indicator J.
  bool on_report(std::int64_t buffer_bytes);

  /// Forgets the consecutive-increase history (e.g. across a diag gap, so
  /// pre-gap levels cannot complete a K-streak against post-gap reality).
  /// The long-term average Γ(t) is kept: it is a property of the link, not
  /// of the report stream, and re-learning it from scratch would leave
  /// Eq. 3 threshold-less for seconds.
  void reset();

  double gamma() const { return gamma_.value(); }
  bool last_signal() const { return last_signal_; }

 private:
  Config config_;
  Fifo<std::int64_t> history_;  // the last k + 1 reports
  Ewma gamma_;
  bool last_signal_ = false;
};

/// Windowed uplink bandwidth estimator (paper Eq. 4/5).
///
/// R_phy = (sum of TBS over the trailing window) / window duration. When the
/// uplink is saturated (J = 1) this *is* the available bandwidth R_bw; when
/// not saturated it is only a lower bound — which is why FBCC uses it solely
/// on congestion.
class TbsWindowEstimator {
 public:
  struct Config {
    SimDuration window = msec(480);  // W = 480 subframes
  };

  TbsWindowEstimator();
  explicit TbsWindowEstimator(Config config);

  /// Feeds one report. Out-of-order and duplicate-timestamp reports are
  /// dropped: folding them in would double-count TBS bytes and corrupt the
  /// window sum (the diag feed may deliver late or repeated reports).
  void on_report(const lte::DiagReport& report);

  /// Forgets all windowed reports.
  void reset();

  /// Trailing-window PHY throughput; 0 until any report arrives.
  Bitrate rphy() const;

 private:
  Config config_;
  Fifo<lte::DiagReport> reports_;
};

/// Learns the "sweet spot" firmware buffer level B* (paper §4.3.2): high
/// enough that the proportional-fair scheduler grants the full bandwidth,
/// low enough to avoid queueing delay. The paper notes B* "can be learnt
/// from previous transmissions"; we estimate the grant-curve slope k from
/// unsaturated samples (R_phy ≈ k·B below the knee) and the saturation rate
/// from the largest sustained R_phy, giving B* = headroom · R_sat / k.
class SweetSpotEstimator {
 public:
  struct Config {
    std::int64_t prior_bytes = 9 * 1024;  // until enough samples are seen
    std::int64_t min_bytes = 2 * 1024;
    std::int64_t max_bytes = 30 * 1024;
    /// Target sits this factor above the estimated knee. Also the probe
    /// that lets the decaying-max saturation estimate ratchet up to the
    /// true capacity: pushing B slightly past the believed knee reveals
    /// whether R_phy keeps growing.
    double headroom = 1.15;
    double slope_alpha = 0.05;   // EWMA for the grant-curve slope
    double sat_decay = 0.9995;   // per-sample decay of the max-rate tracker
    int min_samples = 50;
  };

  SweetSpotEstimator();
  explicit SweetSpotEstimator(Config config);

  /// One observation of (buffer level, trailing PHY rate).
  void on_sample(std::int64_t buffer_bytes, Bitrate rphy);

  std::int64_t target_bytes() const;

 private:
  Config config_;
  Ewma slope_;          // bits/s per byte, from low-occupancy samples
  double sat_rate_ = 0.0;  // decaying max of observed R_phy
  int samples_ = 0;
};

/// Firmware-Buffer-aware Congestion Control (paper §4.3) — the sender-side
/// controller combining:
///  * video bitrate control (Eq. 6): on J = 1 clamp R_v to the windowed TBS
///    bandwidth for 2 RTTs, otherwise follow the legacy GCC rate;
///  * RTP rate control (Eq. 7): every diagnostic epoch D_p steer the pacer
///    rate so the firmware buffer converges to the sweet spot B*.
class FbccController {
 public:
  struct Config {
    CongestionDetector::Config detector{};
    TbsWindowEstimator::Config tbs{};
    SweetSpotEstimator::Config sweet_spot{};
    bool learn_sweet_spot = true;
    Bitrate min_rate = kbps(200);
    Bitrate max_rate = mbps(12);
    /// Anti-windup ceiling for Eq. 7: R_rtp <= this factor x R_v.
    double rtp_over_video_cap = 3.0;
    /// Fallback RTT before the first measurement.
    SimDuration initial_rtt = msec(120);

    // -- diag-path robustness (degraded mode) ------------------------------
    /// After this long without a credible report the controller stops
    /// trusting the sensor and falls back to pure R_gcc pacing.
    SimDuration diag_timeout = msec(250);
    /// Pacer headroom over R_gcc while degraded — the same role
    /// `SessionConfig::gcc_pacing_factor` plays for the pure-GCC transport.
    double fallback_pacing_factor = 1.15;
    /// Consecutive credible reports required before FBCC re-engages after
    /// a fallback episode (hysteresis against a flapping diag feed).
    int recovery_reports = 5;
    /// A report older than this against the local clock is not credible
    /// (late replays, timestamp counter resets after a modem crash).
    SimDuration max_report_age = msec(400);
    /// Plausibility ceilings; diag decoders emit wild values after resets.
    SimDuration max_report_interval = msec(1000);
    std::int64_t max_plausible_buffer_bytes = std::int64_t{64} << 20;
    std::int64_t max_plausible_tbs_bytes = std::int64_t{16} << 20;
  };

  explicit FbccController(Bitrate initial_rate);
  FbccController(Bitrate initial_rate, Config config);

  /// One diagnostic report from the modem (every D_p = 40 ms), received at
  /// local time `now`. Reports failing validation (negative or absurd
  /// fields, non-monotonic/stale timestamps, implausible intervals) are
  /// rejected before touching any estimator.
  void on_diag(const lte::DiagReport& report, SimTime now);
  /// Trusting shorthand: treats the report's own timestamp as the receipt
  /// time (unit tests; callers without a separate clock).
  void on_diag(const lte::DiagReport& report) { on_diag(report, report.time); }

  /// Staleness watchdog; call periodically (independently of the diag
  /// feed — a dead feed delivers no reports to piggyback on). After
  /// `diag_timeout` without a credible report, falls back to R_gcc pacing
  /// and resets the short-horizon estimators so pre-gap history cannot
  /// fire a bogus Eq. 3 signal once reports resume.
  void on_tick(SimTime now);

  /// Drops all short-horizon sensor state: congestion history, TBS window,
  /// any active Eq. 6 hold. Keeps what is long-term knowledge rather than
  /// report-stream state: the learnt sweet spot, Γ(t), R_gcc, the RTT.
  void reset();

  /// Latest R_gcc from the legacy end-to-end controller (Eq. 6 fallback).
  void on_gcc_rate(Bitrate rgcc);

  /// RTT estimate from the session's feedback loop (for the 2·RTT hold).
  void set_rtt(SimDuration rtt);

  /// R_v per Eq. 6.
  Bitrate video_rate() const { return video_rate_; }
  /// R_rtp per Eq. 7.
  Bitrate rtp_rate() const { return rtp_rate_; }
  /// Current congestion indicator J.
  bool congested() const { return congested_; }
  Bitrate rphy() const { return tbs_.rphy(); }
  std::int64_t sweet_spot_bytes() const;

  /// True while the controller is in sensor-fallback (pure GCC) mode.
  bool degraded() const { return degraded_; }
  /// Number of fallback episodes entered so far.
  std::int64_t fallback_episodes() const { return fallback_episodes_; }
  /// Reports rejected by validation so far.
  std::int64_t rejected_reports() const { return rejected_reports_; }
  /// Total time spent degraded, including the episode still open at `now`.
  SimDuration degraded_time(SimTime now) const;

  /// Control-decision tracing: J flips (with their Eq. 3/5 inputs) and
  /// degraded-mode transitions become instant events. nullptr = off.
  void set_trace(obs::TraceRecorder* trace) { trace_ = trace; }

 private:
  bool credible(const lte::DiagReport& report, SimTime now) const;
  void enter_degraded(SimTime now);
  void apply_fallback_rates();
  void refresh_video_rate(SimTime now);

  Config config_;
  CongestionDetector detector_;
  TbsWindowEstimator tbs_;
  SweetSpotEstimator sweet_spot_;

  Bitrate gcc_rate_;
  Bitrate video_rate_;
  Bitrate rtp_rate_;
  bool congested_ = false;

  SimDuration rtt_;
  SimTime hold_until_ = -1;
  Bitrate held_rate_ = 0.0;

  // Degraded-mode bookkeeping.
  SimTime last_report_time_ = -1;   // timestamp of last accepted report
  SimTime last_credible_at_ = -1;   // local receipt time of that report
  bool degraded_ = false;
  int healthy_streak_ = 0;
  SimTime degraded_since_ = 0;
  SimDuration degraded_total_ = 0;
  std::int64_t fallback_episodes_ = 0;
  std::int64_t rejected_reports_ = 0;

  obs::TraceRecorder* trace_ = nullptr;
};

}  // namespace poi360::core

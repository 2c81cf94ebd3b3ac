#include "poi360/core/fbcc.h"

#include <algorithm>
#include <stdexcept>

namespace poi360::core {

CongestionDetector::CongestionDetector(Config config)
    : config_(config), gamma_(config.gamma_alpha) {
  if (config.k < 0) {
    throw std::invalid_argument("CongestionDetector k must be >= 0");
  }
}

bool CongestionDetector::on_report(std::int64_t buffer_bytes) {
  const auto span = static_cast<std::size_t>(config_.k) + 1;
  if (history_.size() == span) history_.pop_front();
  history_.push_back(buffer_bytes);
  gamma_.add(static_cast<double>(buffer_bytes));

  last_signal_ = false;
  if (history_.size() == span) {
    int decreases = 0;
    for (std::size_t n = 1; n < history_.size(); ++n) {
      if (history_[n] <= history_[n - 1]) ++decreases;
    }
    const bool increasing = decreases <= config_.allowed_decreases &&
                            history_.back() > history_.front();
    last_signal_ = increasing &&
                   static_cast<double>(buffer_bytes) > gamma_.value();
  }
  return last_signal_;
}

void CongestionDetector::reset() {
  history_.clear();
  last_signal_ = false;
}

TbsWindowEstimator::TbsWindowEstimator(Config config) : config_(config) {}

void TbsWindowEstimator::on_report(const lte::DiagReport& report) {
  // A duplicate or out-of-order report would double-count its TBS bytes in
  // the window sum (and make eviction misbehave); the window only ever
  // ingests a strictly advancing timeline.
  if (!reports_.empty() && report.time <= reports_.back().time) return;
  reports_.push_back(report);
  while (!reports_.empty() &&
         reports_.front().time < report.time - config_.window) {
    reports_.pop_front();
  }
}

void TbsWindowEstimator::reset() { reports_.clear(); }

Bitrate TbsWindowEstimator::rphy() const {
  if (reports_.empty()) return 0.0;
  std::int64_t bytes = 0;
  SimDuration span = 0;
  for (const auto& r : reports_) {
    bytes += r.tbs_bytes;
    span += r.interval;
  }
  if (span <= 0) return 0.0;
  return rate_of(bytes, span);
}

SweetSpotEstimator::SweetSpotEstimator(Config config)
    : config_(config), slope_(config.slope_alpha) {}

void SweetSpotEstimator::on_sample(std::int64_t buffer_bytes, Bitrate rphy) {
  if (rphy <= 0.0) return;
  ++samples_;
  // Below the knee the grant curve is linear: rphy ≈ k·B; samples with
  // modest occupancy estimate k.
  if (buffer_bytes >= 512 && buffer_bytes <= 6 * 1024) {
    slope_.add(rphy / static_cast<double>(buffer_bytes));
  }
  // Decaying max of R_phy approximates the saturation rate: the headroom
  // probe regularly pushes the buffer past the believed knee, so whenever
  // capacity is higher than believed the tracker ratchets upward.
  sat_rate_ = std::max(rphy, sat_rate_ * config_.sat_decay);
}

std::int64_t SweetSpotEstimator::target_bytes() const {
  if (samples_ < config_.min_samples || !slope_.initialized() ||
      slope_.value() <= 0.0 || sat_rate_ <= 0.0) {
    return config_.prior_bytes;
  }
  const double knee = sat_rate_ / slope_.value();
  const auto target = static_cast<std::int64_t>(config_.headroom * knee);
  return std::clamp(target, config_.min_bytes, config_.max_bytes);
}

FbccController::FbccController(Bitrate initial_rate, Config config)
    : config_(config),
      detector_(config.detector),
      tbs_(config.tbs),
      sweet_spot_(config.sweet_spot),
      gcc_rate_(initial_rate),
      video_rate_(initial_rate),
      rtp_rate_(initial_rate),
      rtt_(config.initial_rtt) {}

bool FbccController::credible(const lte::DiagReport& report,
                              SimTime now) const {
  if (report.buffer_bytes < 0 || report.tbs_bytes < 0) return false;
  if (report.buffer_bytes > config_.max_plausible_buffer_bytes) return false;
  if (report.tbs_bytes > config_.max_plausible_tbs_bytes) return false;
  if (report.interval <= 0 ||
      report.interval > config_.max_report_interval) {
    return false;
  }
  if (report.time > now) return false;  // from the future
  if (now - report.time > config_.max_report_age) return false;  // stale
  if (report.time <= last_report_time_) return false;  // dup / reordered
  return true;
}

void FbccController::reset() {
  detector_.reset();
  tbs_.reset();
  hold_until_ = -1;
  held_rate_ = 0.0;
  congested_ = false;
}

void FbccController::enter_degraded(SimTime now) {
  degraded_ = true;
  ++fallback_episodes_;
  degraded_since_ = now;
  healthy_streak_ = 0;
  reset();
  apply_fallback_rates();
  if (trace_) {
    trace_->instant(now, "control", "fbcc.degraded",
                    {{"entered", 1.0},
                     {"episode", static_cast<double>(fallback_episodes_)}});
  }
}

void FbccController::apply_fallback_rates() {
  video_rate_ = gcc_rate_;
  rtp_rate_ = std::clamp(gcc_rate_ * config_.fallback_pacing_factor,
                         config_.min_rate, 2.0 * config_.max_rate);
}

void FbccController::on_tick(SimTime now) {
  if (last_credible_at_ < 0) {
    // No report ever seen: start the staleness clock at the first tick so
    // a feed that is dead from the outset still trips the watchdog.
    last_credible_at_ = now;
    return;
  }
  if (!degraded_ && now - last_credible_at_ > config_.diag_timeout) {
    enter_degraded(now);
  }
}

SimDuration FbccController::degraded_time(SimTime now) const {
  SimDuration total = degraded_total_;
  if (degraded_ && now > degraded_since_) total += now - degraded_since_;
  return total;
}

void FbccController::on_diag(const lte::DiagReport& report, SimTime now) {
  if (!credible(report, now)) {
    ++rejected_reports_;
    if (degraded_) healthy_streak_ = 0;
    return;
  }
  last_report_time_ = report.time;
  last_credible_at_ = now;

  tbs_.on_report(report);
  if (config_.learn_sweet_spot) {
    sweet_spot_.on_sample(report.buffer_bytes, tbs_.rphy());
  }

  const bool j = detector_.on_report(report.buffer_bytes);

  if (degraded_) {
    // Warm the (freshly reset) estimators back up, but keep pacing by
    // R_gcc until the feed has proven itself healthy for a full
    // hysteresis window — a flapping decoder must not whipsaw the rates.
    congested_ = false;
    if (++healthy_streak_ >= config_.recovery_reports) {
      degraded_ = false;
      degraded_total_ += now - degraded_since_;
      if (trace_) {
        trace_->instant(now, "control", "fbcc.degraded", {{"entered", 0.0}});
      }
    }
    apply_fallback_rates();
    return;
  }

  if (trace_ && j != congested_) {
    // The Eq. 3 decision with its inputs: the buffer level B that crossed
    // (or fell back under) the Γ(t) EWMA, and the windowed TBS bandwidth
    // R_phy the encoder will be clamped to while J holds.
    trace_->instant(now, "control", "fbcc.J",
                    {{"J", j ? 1.0 : 0.0},
                     {"B_bytes", static_cast<double>(report.buffer_bytes)},
                     {"gamma_bytes", detector_.gamma()},
                     {"rphy_bps", tbs_.rphy()}});
  }
  congested_ = j;
  if (j) {
    // Eq. 5/6: on a saturated uplink the windowed TBS rate *is* the
    // available bandwidth; clamp the encoder to it for 2 RTTs so the
    // slower GCC feedback cannot trigger a second cut for the same event.
    held_rate_ = std::clamp(tbs_.rphy(), config_.min_rate, config_.max_rate);
    hold_until_ = report.time + 2 * rtt_;
  }
  refresh_video_rate(report.time);

  // Eq. 7: steer the pacer so the buffer reaches B* by the next epoch.
  const SimDuration dp = report.interval > 0 ? report.interval : msec(40);
  const double target =
      static_cast<double>(sweet_spot_bytes());
  const double correction_bytes_per_s =
      (target - static_cast<double>(report.buffer_bytes)) / to_seconds(dp);
  rtp_rate_ = rtp_rate_ + correction_bytes_per_s * 8.0;
  // Eq. 7 presumes pending application-layer traffic; when the app buffer is
  // shallow the integrator would otherwise wind up without bound. Keep the
  // pacer within a pull-forward band around the encoder rate. The band's
  // floor is R_v itself: throttling the transport below the source rate
  // would merely move the queue into the application layer (§4.3.1) — and
  // would hide a genuine overload from the Eq. 3 detector by capping the
  // firmware buffer's inflow.
  const Bitrate ceiling =
      std::max(config_.rtp_over_video_cap * video_rate_, config_.min_rate);
  rtp_rate_ = std::clamp(rtp_rate_, std::max(config_.min_rate, video_rate_),
                         std::max(std::min(ceiling, 2.0 * config_.max_rate),
                                  video_rate_));
}

void FbccController::on_gcc_rate(Bitrate rgcc) {
  gcc_rate_ = std::clamp(rgcc, config_.min_rate, config_.max_rate);
  // While the sensor is untrusted the controller *is* GCC: rates must
  // track every feedback update, not wait for a diag report that may
  // never come.
  if (degraded_) apply_fallback_rates();
}

void FbccController::set_rtt(SimDuration rtt) {
  if (rtt > 0) rtt_ = rtt;
}

std::int64_t FbccController::sweet_spot_bytes() const {
  return config_.learn_sweet_spot ? sweet_spot_.target_bytes()
                                  : config_.sweet_spot.prior_bytes;
}

void FbccController::refresh_video_rate(SimTime now) {
  if (hold_until_ >= 0 && now <= hold_until_) {
    video_rate_ = held_rate_;
  } else {
    video_rate_ = gcc_rate_;
  }
}


CongestionDetector::CongestionDetector()
    : CongestionDetector(Config{}) {}

TbsWindowEstimator::TbsWindowEstimator()
    : TbsWindowEstimator(Config{}) {}

SweetSpotEstimator::SweetSpotEstimator()
    : SweetSpotEstimator(Config{}) {}

FbccController::FbccController(Bitrate initial_rate)
    : FbccController(initial_rate, Config{}) {}

}  // namespace poi360::core

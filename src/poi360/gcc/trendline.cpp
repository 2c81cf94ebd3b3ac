#include "poi360/gcc/trendline.h"

#include <algorithm>
#include <cmath>

namespace poi360::gcc {

TrendlineEstimator::TrendlineEstimator(Config config)
    : config_(config), threshold_ms_(config.threshold_init_ms) {}

BandwidthUsage TrendlineEstimator::update(SimTime group_send_time,
                                          SimTime group_arrival_time) {
  if (first_) {
    first_ = false;
    prev_send_ = group_send_time;
    prev_arrival_ = group_arrival_time;
    first_arrival_ = group_arrival_time;
    return state_;
  }

  // Inter-group delay variation: how much longer this group took to arrive
  // than to be sent, relative to the previous group.
  const double delta_ms = to_millis((group_arrival_time - prev_arrival_) -
                                    (group_send_time - prev_send_));
  prev_send_ = group_send_time;
  prev_arrival_ = group_arrival_time;

  accumulated_delay_ms_ += delta_ms;
  smoothed_delay_ms_ =
      config_.smoothing * smoothed_delay_ms_ +
      (1.0 - config_.smoothing) * accumulated_delay_ms_;

  samples_.push_back({to_millis(group_arrival_time - first_arrival_),
                     smoothed_delay_ms_});
  if (samples_.size() > static_cast<std::size_t>(config_.window_size)) {
    samples_.pop_front();
  }
  if (samples_.size() < static_cast<std::size_t>(config_.window_size)) {
    return state_;
  }

  // Least-squares slope of smoothed accumulated delay vs. arrival time.
  double mean_x = 0.0, mean_y = 0.0;
  for (const auto& [x, y] : samples_) {
    mean_x += x;
    mean_y += y;
  }
  mean_x /= static_cast<double>(samples_.size());
  mean_y /= static_cast<double>(samples_.size());
  double num = 0.0, den = 0.0;
  for (const auto& [x, y] : samples_) {
    num += (x - mean_x) * (y - mean_y);
    den += (x - mean_x) * (x - mean_x);
  }
  trend_ = den > 0.0 ? num / den : 0.0;

  // Scale the dimensionless slope into milliseconds the way WebRTC does:
  // by the trailing window duration and the detector gain.
  const double window_ms = samples_.back().first - samples_.front().first;
  const double modified_trend_ms =
      std::clamp(trend_, -1.0, 1.0) * window_ms /
          static_cast<double>(config_.window_size) * config_.gain *
          static_cast<double>(config_.window_size) / 4.0;
  detect(modified_trend_ms, group_arrival_time);
  return state_;
}

void TrendlineEstimator::detect(double modified_trend_ms, SimTime now) {
  const double abs_trend = std::fabs(modified_trend_ms);

  if (modified_trend_ms > threshold_ms_) {
    if (overuse_start_ < 0) overuse_start_ = now;
    const bool sustained = (now - overuse_start_) >= config_.overuse_time;
    const bool rising = modified_trend_ms >= prev_modified_trend_;
    if (sustained && rising) state_ = BandwidthUsage::kOveruse;
  } else if (modified_trend_ms < -threshold_ms_) {
    overuse_start_ = -1;
    state_ = BandwidthUsage::kUnderuse;
  } else {
    overuse_start_ = -1;
    state_ = BandwidthUsage::kNormal;
  }
  prev_modified_trend_ = modified_trend_ms;

  // Adaptive threshold (gamma) keeps the detector sensitive without being
  // starved by TCP-induced spikes; large outliers are ignored.
  if (abs_trend <= threshold_ms_ + 15.0) {
    const double k = abs_trend < threshold_ms_ ? config_.k_down : config_.k_up;
    threshold_ms_ += k * (abs_trend - threshold_ms_);
    threshold_ms_ = std::clamp(threshold_ms_, config_.threshold_min_ms,
                               config_.threshold_max_ms);
  }
}


TrendlineEstimator::TrendlineEstimator()
    : TrendlineEstimator(Config{}) {}

}  // namespace poi360::gcc

#include "poi360/roi/prediction.h"

#include <algorithm>
#include <cmath>

namespace poi360::roi {

RoiPredictor::RoiPredictor() : RoiPredictor(Config{}) {}

RoiPredictor::RoiPredictor(Config config) : config_(config) {}

void RoiPredictor::add_sample(SimTime t, Orientation orientation) {
  // Unwrap yaw into a continuous coordinate.
  if (samples_.empty()) {
    unwrapped_last_yaw_ = orientation.yaw_deg;
  } else {
    unwrapped_last_yaw_ +=
        yaw_diff(orientation.yaw_deg, samples_.back().second.yaw_deg);
  }
  Orientation unwrapped = orientation;
  unwrapped.yaw_deg = unwrapped_last_yaw_;
  samples_.push_back({t, unwrapped});

  while (!samples_.empty() &&
         samples_.front().first < t - config_.fit_window) {
    samples_.pop_front();
  }
  refit();
}

bool RoiPredictor::has_estimate() const {
  return static_cast<int>(samples_.size()) >= config_.min_samples;
}

void RoiPredictor::refit() {
  yaw_velocity_ = 0.0;
  pitch_velocity_ = 0.0;
  if (!has_estimate()) return;

  // Least-squares slope of (t, yaw) and (t, pitch) over the window.
  double mean_t = 0.0, mean_y = 0.0, mean_p = 0.0;
  for (const auto& [t, o] : samples_) {
    mean_t += to_seconds(t);
    mean_y += o.yaw_deg;
    mean_p += o.pitch_deg;
  }
  const double n = static_cast<double>(samples_.size());
  mean_t /= n;
  mean_y /= n;
  mean_p /= n;
  double num_y = 0.0, num_p = 0.0, den = 0.0;
  for (const auto& [t, o] : samples_) {
    const double dt = to_seconds(t) - mean_t;
    num_y += dt * (o.yaw_deg - mean_y);
    num_p += dt * (o.pitch_deg - mean_p);
    den += dt * dt;
  }
  if (den <= 0.0) return;
  yaw_velocity_ = std::clamp(num_y / den, -config_.max_speed_deg_s,
                             config_.max_speed_deg_s);
  pitch_velocity_ = std::clamp(num_p / den, -config_.max_speed_deg_s,
                               config_.max_speed_deg_s);
}

Orientation RoiPredictor::predict(SimTime at) const {
  if (samples_.empty()) return {};
  const auto& [t_last, last] = samples_.back();
  Orientation out;
  if (!has_estimate()) {
    out.yaw_deg = wrap_yaw(last.yaw_deg);
    out.pitch_deg = last.pitch_deg;
    return out;
  }
  const double dt = to_seconds(at - t_last);
  out.yaw_deg = wrap_yaw(last.yaw_deg + yaw_velocity_ * dt);
  out.pitch_deg =
      std::clamp(last.pitch_deg + pitch_velocity_ * dt, -90.0, 90.0);
  return out;
}

}  // namespace poi360::roi

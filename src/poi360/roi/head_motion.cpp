#include "poi360/roi/head_motion.h"

#include <algorithm>
#include <cmath>

namespace poi360::roi {

StochasticHeadMotion::StochasticHeadMotion(HeadMotionParams params,
                                           std::uint64_t seed)
    : params_(params), rng_(seed) {
  // Seed the trajectory with an initial fixation at a random orientation.
  Orientation start{rng_.uniform(-180.0, 180.0),
                    std::clamp(rng_.normal(0.0, params_.pitch_std_deg),
                               -params_.max_pitch_deg, params_.max_pitch_deg)};
  const double dwell = std::clamp(rng_.exponential(params_.mean_fixation_s),
                                  params_.min_fixation_s,
                                  params_.max_fixation_s);
  segments_.push_back(
      Segment{0, sec_f(dwell), start, start, SegmentKind::kFixation});
}

void StochasticHeadMotion::extend_until(SimTime t) {
  while (segments_.back().end < t) {
    const Segment& last = segments_.back();
    if (last.kind != SegmentKind::kFixation) {
      // Movement ended: fixate where it landed.
      const double dwell =
          std::clamp(rng_.exponential(params_.mean_fixation_s),
                     params_.min_fixation_s, params_.max_fixation_s);
      segments_.push_back(Segment{last.end, last.end + sec_f(dwell), last.to,
                                  last.to, SegmentKind::kFixation});
      continue;
    }

    // Fixation ended: either follow something (smooth pursuit) or jump to a
    // new target (gaze shift).
    if (rng_.bernoulli(params_.pursuit_prob)) {
      const double speed =
          std::max(4.0, rng_.normal(params_.pursuit_speed_mean_deg_s,
                                    params_.pursuit_speed_std_deg_s));
      const double duration_s = std::clamp(
          rng_.exponential(params_.pursuit_duration_mean_s), 0.4, 6.0);
      const double direction = rng_.bernoulli(0.5) ? 1.0 : -1.0;
      // Cap the sweep below a half-turn so interpolation along the shortest
      // yaw path matches the intended direction.
      const double sweep = std::min(speed * duration_s, 170.0);
      Orientation target;
      target.yaw_deg = wrap_yaw(last.to.yaw_deg + direction * sweep);
      target.pitch_deg = std::clamp(
          last.to.pitch_deg + rng_.normal(0.0, params_.pitch_std_deg / 3.0),
          -params_.max_pitch_deg, params_.max_pitch_deg);
      segments_.push_back(Segment{last.end, last.end + sec_f(duration_s),
                                  last.to, target, SegmentKind::kPursuit});
      continue;
    }

    double shift = rng_.normal(0.0, params_.yaw_shift_std_deg);
    if (rng_.bernoulli(params_.large_shift_prob)) {
      shift += (shift >= 0.0 ? 1.0 : -1.0) * params_.large_shift_deg;
    }
    Orientation target;
    target.yaw_deg = wrap_yaw(last.to.yaw_deg + shift);
    target.pitch_deg =
        std::clamp(rng_.normal(0.0, params_.pitch_std_deg),
                   -params_.max_pitch_deg, params_.max_pitch_deg);

    const double dist = angular_distance(last.to, target);
    // Trapezoidal velocity profile with peak v and acceleration a.
    const double v = params_.peak_velocity_deg_s;
    const double a = params_.accel_deg_s2;
    double duration_s;
    if (dist >= v * v / a) {
      duration_s = dist / v + v / a;  // reaches peak velocity
    } else {
      duration_s = 2.0 * std::sqrt(std::max(dist, 1e-9) / a);  // triangular
    }
    segments_.push_back(Segment{last.end, last.end + sec_f(duration_s),
                                last.to, target, SegmentKind::kShift});
  }
}

Orientation StochasticHeadMotion::interpolate(const Segment& s,
                                              SimTime t) const {
  if (t <= s.start) return s.from;
  if (t >= s.end) return s.to;
  const double total_s = to_seconds(s.end - s.start);
  const double elapsed_s = to_seconds(t - s.start);
  const double dist = angular_distance(s.from, s.to);
  if (dist <= 0.0 || total_s <= 0.0) return s.to;

  if (s.kind == SegmentKind::kPursuit) {
    // Smooth pursuit moves at constant velocity.
    const double f = elapsed_s / total_s;
    Orientation o;
    o.yaw_deg = wrap_yaw(s.from.yaw_deg +
                         f * yaw_diff(s.to.yaw_deg, s.from.yaw_deg));
    o.pitch_deg = s.from.pitch_deg + f * (s.to.pitch_deg - s.from.pitch_deg);
    return o;
  }

  // Position along a trapezoidal (or triangular) velocity profile.
  const double v = params_.peak_velocity_deg_s;
  const double a = params_.accel_deg_s2;
  double progress_deg;
  if (dist >= v * v / a) {
    const double t_ramp = v / a;
    const double t_cruise = total_s - 2.0 * t_ramp;
    if (elapsed_s < t_ramp) {
      progress_deg = 0.5 * a * elapsed_s * elapsed_s;
    } else if (elapsed_s < t_ramp + t_cruise) {
      progress_deg = 0.5 * a * t_ramp * t_ramp + v * (elapsed_s - t_ramp);
    } else {
      const double td = total_s - elapsed_s;
      progress_deg = dist - 0.5 * a * td * td;
    }
  } else {
    const double half = total_s / 2.0;
    if (elapsed_s < half) {
      progress_deg = 0.5 * a * elapsed_s * elapsed_s;
    } else {
      const double td = total_s - elapsed_s;
      progress_deg = dist - 0.5 * a * td * td;
    }
  }
  const double f = std::clamp(progress_deg / dist, 0.0, 1.0);

  Orientation o;
  o.yaw_deg = wrap_yaw(s.from.yaw_deg +
                       f * yaw_diff(s.to.yaw_deg, s.from.yaw_deg));
  o.pitch_deg = s.from.pitch_deg + f * (s.to.pitch_deg - s.from.pitch_deg);
  return o;
}

Orientation StochasticHeadMotion::orientation_at(SimTime t) {
  if (t < 0) t = 0;
  extend_until(t);
  // Binary search for the segment containing t.
  auto it = std::partition_point(
      segments_.begin(), segments_.end(),
      [t](const Segment& s) { return s.end < t; });
  if (it == segments_.end()) it = std::prev(segments_.end());
  return interpolate(*it, t);
}

}  // namespace poi360::roi

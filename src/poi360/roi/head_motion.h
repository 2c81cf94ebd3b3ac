#pragma once

#include <vector>

#include "poi360/common/rng.h"
#include "poi360/common/time.h"
#include "poi360/roi/orientation.h"

namespace poi360::roi {

/// Stochastic human head-motion model (fixation/shift mixture).
///
/// Parameters follow the statistics the paper cites from Oculus (§8):
/// average angular velocity ~60°/s during shifts, acceleration up to
/// ~500°/s². The process alternates exponentially distributed fixations with
/// trapezoidal-velocity gaze shifts toward a new target; per-user seeds give
/// the "different 360° video for each user" diversity of §6.
struct HeadMotionParams {
  double mean_fixation_s = 0.8;      // mean dwell between movements
  double min_fixation_s = 0.25;
  double max_fixation_s = 5.0;
  double peak_velocity_deg_s = 120.0;  // trapezoid peak (avg ≈ 60°/s)
  double accel_deg_s2 = 500.0;
  double yaw_shift_std_deg = 55.0;     // typical shift magnitude
  double large_shift_prob = 0.12;      // occasional look-behind
  double large_shift_deg = 150.0;
  double pitch_std_deg = 12.0;         // pitch wanders mildly around level
  double max_pitch_deg = 50.0;
  /// Viewers of live 360° content spend much of their time *following*
  /// moving objects (smooth pursuit) rather than jumping between fixations;
  /// after a fixation the model enters a pursuit drift with this
  /// probability.
  double pursuit_prob = 0.5;
  double pursuit_speed_mean_deg_s = 28.0;
  double pursuit_speed_std_deg_s = 10.0;
  double pursuit_duration_mean_s = 1.6;
};

class StochasticHeadMotion {
 public:
  StochasticHeadMotion(HeadMotionParams params, std::uint64_t seed);

  /// The viewer's orientation at `t`. Depends only on the parameters and
  /// the seed, never on query order: queries may also go back in time.
  Orientation orientation_at(SimTime t);

 private:
  // The trajectory is a sequence of segments, generated lazily and cached so
  // queries are deterministic regardless of order.
  enum class SegmentKind { kFixation, kShift, kPursuit };
  struct Segment {
    SimTime start;
    SimTime end;
    Orientation from;
    Orientation to;  // == from for fixations
    SegmentKind kind;
  };

  void extend_until(SimTime t);
  Orientation interpolate(const Segment& s, SimTime t) const;

  HeadMotionParams params_;
  Rng rng_;
  std::vector<Segment> segments_;
};

}  // namespace poi360::roi

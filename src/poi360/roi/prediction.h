#pragma once

#include <utility>

#include "poi360/common/fifo.h"
#include "poi360/common/time.h"
#include "poi360/roi/orientation.h"

namespace poi360::roi {

/// Motion-based ROI predictor (paper §8, citing Azuma '95 / LaValle '14).
///
/// Fits a constant-velocity model to the recent head-orientation feedback
/// and extrapolates it over a prediction horizon, letting the sender
/// compress for where the viewer *will* look rather than where they looked
/// one RTT ago. The paper's discussion — "the head position after 120 ms is
/// unpredictable, which is below the typical video latency over LTE" —
/// is reproduced by `bench_ablation_prediction`: small horizons help a
/// little, horizons at cellular-latency scale mispredict and hurt.
class RoiPredictor {
 public:
  struct Config {
    /// Time window of samples used for the velocity fit.
    SimDuration fit_window = msec(300);
    /// Sanity clamp on the fitted angular velocity.
    double max_speed_deg_s = 400.0;
    /// Minimum samples before predictions are issued.
    int min_samples = 3;
  };

  RoiPredictor();
  explicit RoiPredictor(Config config);

  /// Adds one orientation feedback sample (timestamps must be
  /// non-decreasing; yaw is unwrapped internally so fits cross ±180°).
  void add_sample(SimTime t, Orientation orientation);

  bool has_estimate() const;

  /// Extrapolates the head orientation to time `at`. Falls back to the
  /// latest sample when there is not enough history for a fit.
  Orientation predict(SimTime at) const;

  /// Fitted angular velocities (deg/s), for diagnostics and tests.
  double yaw_velocity() const { return yaw_velocity_; }

 private:
  void refit();

  Config config_;
  // Samples carry unwrapped (continuous) yaw so linear fits work across the
  // ±180° seam.
  Fifo<std::pair<SimTime, Orientation>> samples_;
  double unwrapped_last_yaw_ = 0.0;
  double yaw_velocity_ = 0.0;
  double pitch_velocity_ = 0.0;
};

}  // namespace poi360::roi

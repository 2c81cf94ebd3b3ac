#pragma once

#include <utility>

#include "poi360/common/fifo.h"
#include "poi360/common/time.h"

namespace poi360::gcc {

/// Network usage signal produced by the delay-gradient detector.
enum class BandwidthUsage { kNormal, kOveruse, kUnderuse };

/// Trendline delay-gradient estimator with adaptive-threshold overuse
/// detection — the receiver-side heart of Google Congestion Control
/// (draft-alvestrand-rmcat-congestion / the WebRTC implementation the paper
/// compares FBCC against).
///
/// Fed one sample per packet group (we group per video frame): the change in
/// one-way delay between consecutive groups. A least-squares slope over the
/// last `window` accumulated-delay samples, scaled by the inter-group time,
/// estimates the queuing-delay trend; sustained positive trend above the
/// adaptive threshold signals overuse. This is precisely the "end-to-end
/// delay metric" whose sluggishness over buffer-bloated cellular paths
/// motivates FBCC (§3.2, §4.3.1).
class TrendlineEstimator {
 public:
  struct Config {
    int window_size = 20;            // samples in the regression
    double smoothing = 0.9;          // EWMA on accumulated delay
    double gain = 4.0;               // trend -> modified-trend scaling
    double threshold_init_ms = 12.5; // gamma(0)
    double k_up = 0.0087;            // threshold adaptation (raise)
    double k_down = 0.039;           // threshold adaptation (lower)
    double threshold_min_ms = 6.0;
    double threshold_max_ms = 600.0;
    SimDuration overuse_time = msec(10);  // sustained time before Overuse
  };

  TrendlineEstimator();
  explicit TrendlineEstimator(Config config);

  /// One packet-group sample: group completion times at sender and receiver.
  /// Returns the updated usage signal.
  BandwidthUsage update(SimTime group_send_time, SimTime group_arrival_time);

  BandwidthUsage state() const { return state_; }
  double trend() const { return trend_; }
  double threshold_ms() const { return threshold_ms_; }

 private:
  void detect(double modified_trend_ms, SimTime now);

  Config config_;
  bool first_ = true;
  SimTime prev_send_ = 0;
  SimTime prev_arrival_ = 0;
  SimTime first_arrival_ = 0;

  double accumulated_delay_ms_ = 0.0;
  double smoothed_delay_ms_ = 0.0;
  Fifo<std::pair<double, double>> samples_;  // (arrival ms, smoothed)

  double trend_ = 0.0;
  double threshold_ms_;
  SimTime overuse_start_ = -1;
  double prev_modified_trend_ = 0.0;
  BandwidthUsage state_ = BandwidthUsage::kNormal;
};

}  // namespace poi360::gcc

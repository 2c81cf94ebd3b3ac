#pragma once

#include <cstdint>

#include <memory>
#include <optional>

#include "poi360/common/rng.h"
#include "poi360/common/time.h"
#include "poi360/common/units.h"
#include "poi360/lte/shared_cell.h"
#include "poi360/lte/trace.h"

namespace poi360::lte {

/// Configuration of the LTE uplink radio channel seen by one UE.
///
/// The knobs map one-to-one onto the field conditions of the paper's §6.2
/// system evaluation: received signal strength (parking garage -115 dBm /
/// shadowed lot -82 dBm / open lot -73 dBm / highway -60 dBm), cell
/// background load (early-morning idle vs. after-class busy), and mobility
/// (15/30/50 mph driving, which speeds up fading and adds handover outages).
struct ChannelConfig {
  double rss_dbm = -73.0;

  /// Mean fraction of uplink cell resources consumed by other users.
  /// (Used by the abstract OU load process; ignored when `explicit_users`
  /// enables the explicit background cell below.)
  double mean_cell_load = 0.15;
  /// Std of the load process (Ornstein-Uhlenbeck around the mean).
  double load_std = 0.08;
  /// Load process time constant.
  double load_tau_s = 4.0;

  /// Std of the multiplicative (log-domain) fast-fading process at rest.
  double fading_std = 0.32;
  /// Fading time constant at rest; shrinks with speed (Doppler).
  double fading_tau_s = 1.5;

  /// UE speed; drives fading rate and outage frequency.
  double speed_mph = 0.0;

  /// Handover / deep-fade outages per minute. Negative = derive from speed
  /// (even a static UE sees occasional deep fades / cell-breathing events;
  /// driving adds handovers on top).
  double outage_per_min = -1.0;
  /// Mean outage duration.
  SimDuration outage_mean_duration = msec(400);
  /// Capacity multiplier during an outage.
  double outage_depth = 0.05;

  /// When set, the channel replays this capacity trace verbatim (looping)
  /// instead of evolving its stochastic processes — identical conditions
  /// for every algorithm under comparison.
  std::shared_ptr<const CapacityTrace> capacity_trace;

  /// >= 0: replace the abstract load process with a private proportional-
  /// fair cell of this many on/off background UEs (a SharedCell with the
  /// default background process and no registered UE); -1 keeps the
  /// abstract Ornstein-Uhlenbeck load model.
  int explicit_users = -1;
};

/// Maps RSS to the uplink capacity available to a lone UE in an idle cell.
/// Piecewise-linear between anchors calibrated so the paper's operating
/// points are reproduced (-73 dBm saturates around 5.5 Mbps, Fig. 5).
Bitrate capacity_for_rss(double rss_dbm);

/// Uplink channel process, stepped at the uplink's grant cadence.
///
/// `advance(now)` must be called with nondecreasing times (the LTE uplink
/// calls it once per grant, every `grant_period` subframes); it steps the
/// load/fading/outage processes to `now` and returns the cell capacity (bits
/// per second) this UE could be granted at most at that instant.
///
/// Load and log-fading are Ornstein-Uhlenbeck processes stepped by their
/// exact transition over the elapsed Δt,
///   x ← μ + (x − μ)·e^{−Δt/τ} + σ·√(1 − e^{−2Δt/τ})·N(0, 1),
/// so their stationary mean μ and std σ are the configured ones whatever the
/// step size. The decay and noise scale are cached for the last Δt.
class UplinkChannel {
 public:
  UplinkChannel(ChannelConfig config, std::uint64_t seed);

  Bitrate advance(SimTime now);

  bool in_outage() const { return in_outage_; }
  double current_load() const { return load_; }
  double current_log_fading() const { return log_fading_; }
  /// Present only when `explicit_users >= 0`.
  const std::optional<SharedCell>& background_cell() const { return cell_; }

  const ChannelConfig& config() const { return config_; }

 private:
  /// One exact OU transition over a fixed Δt, for a zero-mean state.
  struct OuStep {
    double decay = 1.0;  // e^{-Δt/τ}
    double scale = 0.0;  // σ·√(1 − e^{−2Δt/τ})
    static OuStep over(double dt_s, double tau_s, double stddev);
    double apply(double x, Rng& rng) const {
      return x * decay + scale * rng.normal(0.0, 1.0);
    }
  };

  void schedule_next_outage(SimTime now);

  ChannelConfig config_;
  Rng rng_;
  Bitrate base_capacity_;
  std::optional<SharedCell> cell_;

  double load_;         // OU state
  double log_fading_ = 0.0;  // OU state in log domain
  double fading_tau_eff_s_;
  double step_dt_s_ = -1.0;  // Δt the cached OU steps were built for
  OuStep load_step_;
  OuStep fading_step_;

  bool in_outage_ = false;
  SimTime outage_until_ = 0;
  SimTime next_outage_at_ = 0;
  double outage_rate_per_min_;

  SimTime last_advance_ = -1;
};

}  // namespace poi360::lte

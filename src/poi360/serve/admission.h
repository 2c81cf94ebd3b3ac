#pragma once

#include <cstdint>

#include "poi360/common/time.h"
#include "poi360/common/units.h"
#include "poi360/lte/shared_cell.h"

namespace poi360::serve {

/// Gates session arrivals against estimated cell headroom.
///
/// Capacity accounting reuses the LTE layer's contention model: a private
/// `lte::SharedCell` with no registered UE tracks the on/off background
/// (non-POI360) uplink load, and the share it would give an arrival scales
/// the raw cell budget to what the POI360 sessions can actually claim right
/// now. Each admitted session
/// reserves its estimated demand (the configured initial rate); an arrival
/// whose demand does not fit the remaining headroom is handled by policy:
///
///  * kReject   — classic CAC: the arrival is refused and the admitted
///                sessions keep their quality.
///  * kDegrade  — graceful degradation (Pano's observation that degrading
///                admitted sessions beats dropping arrivals): the arrival is
///                admitted anyway and the serving layer nudges every active
///                POI360 session one compression mode conservative, shrinking
///                the per-session footprint instead of turning users away.
class AdmissionController {
 public:
  enum class Policy { kReject, kDegrade };
  enum class Decision { kAccept, kDegradeAccept, kReject };

  struct Config {
    Policy policy = Policy::kDegrade;
    /// Estimated uplink budget of one cell before background load (the
    /// PF scheduler's aggregate grant capacity available to media flows).
    Bitrate cell_capacity = mbps(24);
    /// Fraction of the share-scaled capacity admissions may reserve; the
    /// rest absorbs per-session burstiness above the reserved mean.
    double headroom_fraction = 0.9;
    /// Background-load accounting (same on/off UE model the LTE uplink
    /// uses); its prospective share scales `cell_capacity` over time.
    lte::SharedCell::Background cell{};
  };

  AdmissionController(Config config, std::uint64_t seed);

  /// Admission decision for an arrival reserving `demand` bits/s. Pure
  /// decision — the caller confirms with `on_admitted` once a session slot
  /// was actually acquired (a full pool can still refuse an accept).
  Decision decide(SimTime now, Bitrate demand);

  /// Reserve / release an admitted session's demand.
  void on_admitted(Bitrate demand) { admitted_demand_ += demand; }
  void on_released(Bitrate demand) {
    admitted_demand_ -= demand;
    if (admitted_demand_ < 0.0) admitted_demand_ = 0.0;
  }

  /// Capacity currently available to new admissions (can be negative under
  /// degrade-mode overload): `cell_capacity · prospective_share(now) ·
  /// headroom_fraction − admitted_demand`. Advances the background-load
  /// process; `now` must not decrease across calls.
  Bitrate headroom(SimTime now);

  Bitrate admitted_demand() const { return admitted_demand_; }
  const Config& config() const { return config_; }

 private:
  Config config_;
  lte::SharedCell cell_;
  Bitrate admitted_demand_ = 0.0;
};

const char* to_string(AdmissionController::Policy policy);

}  // namespace poi360::serve

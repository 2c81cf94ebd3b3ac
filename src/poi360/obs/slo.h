#pragma once

#include <cstdint>
#include <cstddef>

#include "poi360/common/fifo.h"
#include "poi360/common/time.h"
#include "poi360/obs/trace.h"

// Per-session SLO engine: freeze-ratio / ROI-mismatch / frame-delay
// objectives tracked as error budgets with fast+slow burn-rate windows (the
// multi-window alerting policy from the SRE workbook). A burn rate is the
// bad-event ratio over a window divided by the objective's budget; 1.0 means
// "spending the budget exactly as fast as allowed". An objective breaches
// when BOTH the fast window (catches sharp collapses quickly) and the slow
// window (filters one-off blips) exceed their thresholds, and recovers when
// both fall back below — giving hysteresis without extra state.
//
// The tracker is fed *cumulative* per-session counts on the driver's
// snapshot tick; it differences against retained checkpoints, so feeding is
// O(1) and allocation-free after construction. Everything is simulation-
// time driven and deterministic: no wall clock, no RNG.

namespace poi360::obs {

/// Objectives tracked per session, index-stable for counters and labels.
enum class SloObjective : int {
  kFreezeRatio = 0,   ///< frames frozen / skipped / abandoned
  kMismatchRatio = 1, ///< displayed frames with stale ROI content
  kOverDelay = 2,     ///< displayed frames over the delay target
};
inline constexpr int kSloObjectives = 3;
const char* slo_objective_name(SloObjective objective);

struct SloConfig {
  /// Fraction of frames allowed to be frozen (POI360's headline QoE metric).
  double freeze_budget = 0.05;
  /// Fraction of displayed frames allowed to show mismatched ROI tiles.
  double mismatch_budget = 0.20;
  /// Fraction of displayed frames allowed over `delay_target`.
  double over_delay_budget = 0.10;
  SimDuration delay_target = msec(400);

  SimDuration fast_window = sec(60);
  SimDuration slow_window = sec(300);
  /// Burn-rate thresholds: fast catches collapses, slow filters blips.
  double fast_burn_threshold = 6.0;
  double slow_burn_threshold = 1.0;
  /// Retained checkpoints; must cover slow_window / observation period.
  std::size_t checkpoint_capacity = 64;
};

/// Cumulative per-session event counts at one observation instant.
struct SloSample {
  std::int64_t total = 0;       ///< frames handled (displayed + lost)
  std::int64_t frozen = 0;      ///< frozen + skipped + abandoned
  std::int64_t mismatched = 0;  ///< displayed with ROI mismatch
  std::int64_t over_delay = 0;  ///< displayed over delay_target
};

struct SloStatus {
  bool breached[kSloObjectives] = {};
  double burn_fast[kSloObjectives] = {};
  double burn_slow[kSloObjectives] = {};
};

/// State transitions produced by one observation.
struct SloTransitions {
  int breaches = 0;
  int recoveries = 0;
  bool breached_now[kSloObjectives] = {};
  bool recovered_now[kSloObjectives] = {};
};

class SloTracker {
 public:
  explicit SloTracker(const SloConfig& config);
  SloTracker() : SloTracker(SloConfig{}) {}

  /// Feeds the session's cumulative counts at sim-time `now`, recomputes
  /// fast/slow burn rates, and returns the objectives that newly breached
  /// or recovered. When `trace` is non-null, emits `slo.breach` /
  /// `slo.recovered` instants (category "slo") with the burn rates as
  /// arguments, correlated by `id`.
  SloTransitions observe(SimTime now, const SloSample& cumulative,
                         TraceRecorder* trace = nullptr, std::int64_t id = -1);

  const SloStatus& status() const { return status_; }
  const SloConfig& config() const { return config_; }

  /// Forgets all history — slot pools reuse trackers across sessions.
  void reset();

 private:
  struct Checkpoint {
    SimTime at = 0;
    SloSample sample{};
  };

  double budget(int objective) const;
  static std::int64_t bad(int objective, const SloSample& s);
  /// Burn rate between `from` and `to` for one objective.
  double burn(int objective, const Checkpoint& from,
              const SloSample& to) const;
  /// Reference checkpoint for a lookback window ending at `now`.
  const Checkpoint& reference(SimTime now, SimDuration window) const;

  SloConfig config_;
  Fifo<Checkpoint> checkpoints_;  // at most max(1, checkpoint_capacity)
  SloStatus status_{};
};

}  // namespace poi360::obs

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "poi360/common/fifo.h"
#include "poi360/common/rng.h"
#include "poi360/common/time.h"
#include "poi360/core/config.h"
#include "poi360/obs/metrics_registry.h"
#include "poi360/obs/sampling.h"
#include "poi360/obs/slo.h"
#include "poi360/serve/admission.h"
#include "poi360/serve/managed_session.h"
#include "poi360/serve/telemetry.h"
#include "poi360/sim/simulator.h"

namespace poi360::serve {

/// One periodic Prometheus-style exposition snapshot. Snapshots live in a
/// rolling window of the last `SoakConfig::snapshot_window` (at least one;
/// a new snapshot drops the oldest) instead of accumulating one artifact per
/// run: a soak run produces hours of them.
struct Snapshot {
  SimTime at = 0;
  std::string text;
};

/// Configuration of a soak run: hours of simulated serving time with
/// Poisson session churn over a preallocated slot pool.
struct SoakConfig {
  SimDuration duration = sec(7200);  ///< simulated serving time
  std::uint64_t seed = 1;

  /// Poisson arrival process: exponential inter-arrival gaps.
  SimDuration mean_interarrival = sec(30);

  /// Geometric call durations: `min_call + G * call_tick` where G is
  /// geometric with mean `(mean_call - min_call) / call_tick` — the
  /// discrete heavy-ish tail of real call holding times.
  SimDuration min_call = sec(5);
  SimDuration call_tick = sec(5);
  SimDuration mean_call = sec(45);

  /// Preallocated session slots; the hard concurrency bound. Arrivals that
  /// find the pool exhausted are refused regardless of admission policy.
  int slots = 16;

  /// Master-timeline slice: every quantum, each live session's private
  /// timeline is advanced to the master clock.
  SimDuration advance_quantum = msec(250);

  SimDuration watchdog_period = sec(1);
  SimDuration watchdog_deadline = sec(8);

  SimDuration snapshot_period = sec(60);
  std::size_t snapshot_window = 32;  ///< rolling snapshots retained

  /// Steady-state marker: pool and registry high-water marks are sampled
  /// here and must not grow afterwards (the bounded-memory contract).
  SimDuration warmup = sec(900);

  AdmissionController::Config admission{};

  /// Per-session template; seed and duration are derived per arrival from
  /// the deterministic seed contract (runner::derive_seed over the arrival
  /// index).
  core::SessionConfig session{};

  /// Arrival indices whose media path is born dead (100% core-link loss):
  /// the injected stuck-session scenario the watchdog must catch.
  std::vector<std::int64_t> stuck_arrivals{};

  /// Live telemetry plane (labeled families, SLO engine, /metrics socket,
  /// sampled trace export). Everything defaults off; see TelemetryConfig.
  TelemetryConfig telemetry{};
};

/// Deterministic end-of-run report: same (config, seed) => byte-identical
/// text and JSON. Wall-clock never appears here.
struct SoakSummary {
  std::uint64_t seed = 0;
  SimDuration duration = 0;
  const char* policy = "";

  std::int64_t arrivals = 0;
  std::int64_t accepted = 0;
  std::int64_t degrade_admissions = 0;
  std::int64_t rejected_admission = 0;
  std::int64_t rejected_pool_full = 0;
  std::int64_t degrade_nudges = 0;

  std::int64_t completed = 0;         ///< clean departures + shutdown drains
  std::int64_t shutdown_drained = 0;  ///< subset of completed
  std::int64_t force_drained = 0;     ///< watchdog kills
  std::int64_t failed = 0;
  std::int64_t live_at_end = 0;

  int slots = 0;
  int peak_concurrent = 0;
  int pool_high_water_warmup = 0;
  int pool_high_water_end = 0;
  std::size_t registry_entries_warmup = 0;
  std::size_t registry_entries_end = 0;

  std::int64_t frames_displayed = 0;
  std::int64_t frames_skipped = 0;
  std::int64_t frames_abandoned = 0;  ///< receiver deadline + cap evictions
  std::int64_t frames_frozen = 0;
  double freeze_ratio = 0.0;
  double mean_frame_delay_ms = 0.0;

  std::uint64_t snapshots_taken = 0;
  std::size_t snapshots_retained = 0;
};

std::string to_text(const SoakSummary& summary);
std::string to_json(const SoakSummary& summary);

/// Soak-mode serving harness: many overlapping ManagedSessions on one
/// master event timeline, churned by Poisson arrivals and geometric call
/// durations, gated by the AdmissionController, watched by the per-session
/// no-progress watchdog, and observed through periodic Prometheus-style
/// registry snapshots in a rolling window.
///
/// Steady-state bookkeeping is allocation-free: the slot pool, its free
/// list, and every serve.* registry entry are preallocated in the
/// constructor; per-arrival cost is the inner core::Session construction
/// only, and closed sessions release everything they own.
class SoakDriver {
 public:
  explicit SoakDriver(SoakConfig config);

  /// Runs the whole soak; call exactly once.
  SoakSummary run();

  const obs::MetricsRegistry& registry() const { return registry_; }
  const Fifo<Snapshot>& snapshots() const { return snapshots_; }

  /// Present only when the telemetry plane is on (config.telemetry).
  const TelemetryPlane* telemetry_plane() const { return plane_.get(); }
  /// Actual /metrics port, or -1 when no server is running.
  int metrics_port() const { return plane_ ? plane_->metrics_port() : -1; }
  const obs::TraceSampler& trace_sampler() const { return sampler_; }

  int live_sessions() const { return live_; }
  int peak_concurrent() const { return peak_concurrent_; }
  SimTime now() const { return sim_.now(); }

 private:
  struct Slot {
    ManagedSession ms;
    std::uint64_t generation = 0;  ///< guards stale departure events
    /// Telemetry-plane state: SLO counts are folded only when
    /// config.telemetry is on; a traced session is exported at close.
    SessionSlo slo;
  };
  enum class CloseKind { kDeparture, kWatchdog, kShutdown, kFailed };

  void schedule_next_arrival();
  void on_arrival();
  void on_departure(std::size_t slot_index, std::uint64_t generation);
  void on_advance_tick();
  void on_watchdog_tick();
  void on_snapshot_tick();
  void mark_warmup();
  SimDuration draw_call_duration();
  void close_slot(std::size_t slot_index, CloseKind kind);
  void harvest(const ManagedSession& ms);
  void update_gauges();
  SoakSummary summarize() const;

  // Telemetry plane (no-ops when config.telemetry is off).
  void register_telemetry();
  /// Evaluates every active session's SLO trackers (snapshot tick).
  void observe_slo();
  void close_slot_telemetry(Slot& slot, CloseKind kind);

  SoakConfig config_;
  sim::Simulator sim_;
  Rng arrivals_rng_;
  Rng durations_rng_;
  AdmissionController admission_;
  obs::MetricsRegistry registry_;
  Fifo<Snapshot> snapshots_;

  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  int live_ = 0;
  int peak_concurrent_ = 0;
  std::int64_t next_arrival_id_ = 0;

  int pool_high_water_warmup_ = 0;
  std::size_t registry_entries_warmup_ = 0;
  std::uint64_t snapshots_taken_ = 0;
  bool ran_ = false;

  // Telemetry plane. Cached stable series references (the labeled-family
  // hot-path contract): never re-looked-up after construction.
  std::unique_ptr<TelemetryPlane> plane_;
  obs::TraceSampler sampler_;
  obs::Counter* slo_breach_[obs::kSloObjectives] = {};
  obs::Counter* slo_recovered_[obs::kSloObjectives] = {};
  obs::Gauge* slo_breached_sessions_[obs::kSloObjectives] = {};
  obs::Counter* slo_evaluations_ = nullptr;
  obs::Counter* closed_by_kind_[4] = {};  ///< indexed by CloseKind
  obs::BucketHistogram* delay_hist_ = nullptr;
  obs::BucketHistogram* freeze_hist_ = nullptr;
  obs::Counter* trace_kept_ = nullptr;
  obs::Counter* trace_sampled_out_ = nullptr;
  obs::Counter* trace_budget_rejected_ = nullptr;
};

}  // namespace poi360::serve

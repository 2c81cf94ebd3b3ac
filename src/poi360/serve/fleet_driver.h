#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "poi360/common/rng.h"
#include "poi360/common/time.h"
#include "poi360/core/config.h"
#include "poi360/core/session.h"
#include "poi360/lte/shared_cell.h"
#include "poi360/obs/metrics_registry.h"
#include "poi360/obs/sampling.h"
#include "poi360/obs/slo.h"
#include "poi360/serve/managed_session.h"
#include "poi360/serve/telemetry.h"

// Cell-scale fleet simulation: N first-class POI360 sessions per cell, every
// one a full sender/receiver stack registered as a demand source on one
// shared proportional-fair cell (lte::SharedCell), interleaved on a master
// timeline; cells shard across BatchRunner workers. This is the experiment
// the paper could not run with two phones: how FBCC behaves when *everyone*
// in the cell runs it, and how fairly it splits capacity against GCC and the
// baseline compression schemes.

namespace poi360::serve {

/// One rung of the fleet's controller ladder; sessions are assigned rungs
/// cyclically (session i runs ladder[i % ladder.size()]).
struct FleetRung {
  core::RateControl rate_control = core::RateControl::kFbcc;
  core::CompressionScheme compression = core::CompressionScheme::kPoi360;
};

/// "FBCC/POI360", "GCC/Conduit", ... — the fleet report's population key.
std::string to_string(const FleetRung& rung);

/// Lightweight heterogeneous cross-traffic: an on/off process that toggles
/// a registered UE's demand without a full sender/receiver stack. CBR voice
/// (short talk spurts, small PF weight) and FTP bulk (long transfers, full
/// weight) are the two stock profiles.
struct CrossTrafficSpec {
  int count = 0;
  double weight = 1.0;
  SimDuration mean_on = sec(8);
  SimDuration mean_off = sec(12);
};

struct FleetConfig {
  int cells = 2;
  int sessions_per_cell = 16;
  SimDuration duration = sec(30);
  std::uint64_t seed = 1;
  /// Master-timeline slice: sessions advance in lockstep per quantum and
  /// the shared cell's demand snapshot is committed at each boundary.
  SimDuration advance_quantum = msec(100);
  /// Cell-shard workers; 0 = auto (POI360_JOBS, hardware_concurrency).
  /// Results are identical for every value — cells are self-contained.
  int jobs = 0;

  /// Template for every session; per-session seed / rate control /
  /// compression / duration and the cell handle are derived per slot. The
  /// driver forces the cellular path and disables the private competition
  /// models (OU load, explicit_users) — the shared cell is the only
  /// contention source.
  core::SessionConfig session{};
  std::vector<FleetRung> ladder{
      FleetRung{core::RateControl::kFbcc, core::CompressionScheme::kPoi360},
      FleetRung{core::RateControl::kGcc, core::CompressionScheme::kPoi360}};

  /// Residual unregistered background load of each cell.
  lte::SharedCell::Config cell{};
  CrossTrafficSpec voice{2, 0.25, msec(1200), msec(1800)};
  CrossTrafficSpec ftp{1, 1.0, sec(6), sec(10)};

  /// Live telemetry plane (per-(cell,rung) labeled families, SLO burn
  /// rates, /metrics socket, sampled trace export). Defaults off; when off
  /// the fleet summary is byte-identical to the pre-telemetry driver.
  TelemetryConfig telemetry{};
};

/// Per-session outcome row of the fleet report.
struct FleetSessionResult {
  int cell = 0;
  int index = 0;  // slot within the cell
  std::uint64_t seed = 0;
  std::string rung;
  bool ok = false;
  std::string error;  // when !ok
  std::int64_t displayed_frames = 0;
  double mean_throughput_mbps = 0.0;
  double freeze_ratio = 0.0;
  double mismatch_ratio = 0.0;  // displayed frames not at the best ROI level
  double mean_delay_ms = 0.0;
  double p95_delay_ms = 0.0;
  double mean_roi_psnr_db = 0.0;
};

/// p10/p50/p90/p99 of one QoE metric across the fleet's sessions.
struct FleetPercentiles {
  double p10 = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
};

/// Deterministic function of (FleetConfig, seed): same text/JSON for every
/// --jobs value.
struct FleetSummary {
  std::uint64_t seed = 0;
  int cells = 0;
  int sessions_per_cell = 0;
  SimDuration duration = 0;
  std::vector<FleetSessionResult> sessions;  // cell-major, slot order
  std::int64_t failed_sessions = 0;

  FleetPercentiles freeze{};
  FleetPercentiles mismatch{};
  FleetPercentiles delay_ms{};
  double mean_throughput_mbps = 0.0;

  /// Jain fairness index J = (Σx)² / (n·Σx²) over per-session mean
  /// throughput: across the whole cellload (jain_all) and within each rung
  /// population — FBCC-vs-FBCC contention vs FBCC-vs-GCC contention.
  double jain_all = 0.0;
  std::vector<std::pair<std::string, double>> jain_by_rung;
};

std::string to_text(const FleetSummary& summary);
std::string to_json(const FleetSummary& summary);

/// Jain fairness index of `xs` in (0, 1]; 1.0 = perfectly equal. Returns
/// 0.0 for an empty set.
double jain_index(const std::vector<double>& xs);

/// One cell of the fleet: a SharedCell, its N full sessions and its
/// cross-traffic sources, advanced in lockstep on the master timeline.
/// Each session is a ManagedSession, so an exception from one session marks
/// it failed (error kept for the report) without stopping the cell.
/// Public (rather than a FleetDriver internal) so the perf gate can price
/// the steady-state per-session step cost directly.
class FleetCell {
 public:
  /// `plane`, when non-null, turns the cell's telemetry on: per-(cell,rung)
  /// labeled families and SLO trackers published to the plane every
  /// `telemetry.publish_period` of master time, plus deterministic trace
  /// sampling when a trace_dir is set.
  FleetCell(const FleetConfig& config, int cell_index,
            TelemetryPlane* plane = nullptr);
  ~FleetCell();

  FleetCell(const FleetCell&) = delete;
  FleetCell& operator=(const FleetCell&) = delete;

  /// Constructs and starts every session at master time 0.
  void start();
  /// Advances every session to master time `t` (one quantum slice): steps
  /// the cross-traffic processes, commits the demand snapshot, trims the
  /// background timeline, then advances sessions in slot order.
  void advance_to(SimTime t);
  void finish();

  std::vector<FleetSessionResult> results() const;
  lte::SharedCell& shared_cell() { return cell_; }
  int sessions() const { return static_cast<int>(slots_.size()); }
  const obs::TraceSampler& trace_sampler() const { return sampler_; }

 private:
  struct CrossSource {
    int ue = 0;
    bool active = false;
    SimTime toggle_at = 0;
    SimDuration mean_on = 0;
    SimDuration mean_off = 0;
  };

  /// Per-rung cached telemetry series (stable registry references).
  struct RungSeries {
    obs::Gauge* sessions = nullptr;
    obs::Gauge* freeze_ratio = nullptr;
    obs::Gauge* mismatch_ratio = nullptr;
    obs::Gauge* mean_delay_ms = nullptr;
    obs::Gauge* displayed = nullptr;
    obs::Counter* slo_breach[obs::kSloObjectives] = {};
    obs::Counter* slo_recovered[obs::kSloObjectives] = {};
    obs::BucketHistogram* delay_hist = nullptr;
  };

  /// One session of the cell; the ManagedSession's id is the slot index.
  struct Slot {
    ManagedSession ms;
    SessionSlo slo;
    std::string rung;
    int series = 0;  ///< rung series index (telemetry on)
  };

  void add_cross_traffic(const CrossTrafficSpec& spec);
  void step_cross_traffic(SimTime t);
  void register_telemetry();
  /// SLO pass + rung aggregates + publish to the plane.
  void publish_telemetry(SimTime t);

  FleetConfig config_;
  int cell_index_ = 0;
  lte::SharedCell cell_;
  Rng cross_rng_;
  std::vector<Slot> slots_;
  std::vector<CrossSource> cross_;
  SimTime now_ = 0;

  // Telemetry plane (all empty/idle when plane_ is null).
  TelemetryPlane* plane_ = nullptr;
  obs::MetricsRegistry telemetry_;
  obs::TraceSampler sampler_;
  std::vector<RungSeries> rung_series_;  ///< one per distinct rung label
  SimTime next_publish_ = 0;
};

/// Runs the whole fleet: `cells` independent FleetCells sharded across
/// BatchRunner workers (each cell and its sessions confined to one worker),
/// results assembled in cell order — deterministic for any worker count.
class FleetDriver {
 public:
  explicit FleetDriver(FleetConfig config);

  /// Call exactly once.
  FleetSummary run();

  const FleetConfig& config() const { return config_; }

  /// Present only when config.telemetry turns the plane on. The plane (and
  /// its /metrics socket) lives until the driver is destroyed, so scrapes
  /// after run() still see the final published state.
  const TelemetryPlane* telemetry_plane() const { return plane_.get(); }
  int metrics_port() const { return plane_ ? plane_->metrics_port() : -1; }

 private:
  FleetConfig config_;
  std::unique_ptr<TelemetryPlane> plane_;
  bool ran_ = false;
};

}  // namespace poi360::serve

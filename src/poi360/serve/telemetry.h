#pragma once

#include <memory>
#include <mutex>
#include <string>

#include "poi360/common/time.h"
#include "poi360/core/session.h"
#include "poi360/obs/metrics_http.h"
#include "poi360/obs/metrics_registry.h"
#include "poi360/obs/sampling.h"
#include "poi360/obs/slo.h"
#include "poi360/runner/experiment_spec.h"

// The serving layer's live telemetry plane. Everything here is opt-in: with
// `enabled` false and no metrics port, the drivers register no extra
// metrics, draw no extra RNG, and produce byte-identical summaries — the
// determinism contract the bench CI diffs. With it on, the drivers expose
// labeled families, SLO burn-rate counters and bucket histograms, and
// (optionally) a real scrape socket + sampled per-session trace export.

namespace poi360::serve {

struct TelemetryConfig {
  /// Master switch for the labeled families / SLO engine / bucket
  /// histograms. Off by default: the soak/fleet summaries print registry
  /// entry counts, so any extra registration would change stdout.
  bool enabled = false;

  /// TCP port for the /metrics endpoint; -1 = no server, 0 = ephemeral
  /// (the driver reports the kernel's pick). Setting a port implies
  /// `enabled`.
  int metrics_port = -1;

  obs::SloConfig slo{};

  /// When non-empty, sampled sessions run with tracing on and export one
  /// trace file each under this directory (must exist).
  std::string trace_dir;
  obs::TraceSampleConfig trace_sampling{};

  /// Fleet only: how often each cell publishes its registry to the plane.
  SimDuration publish_period = sec(5);

  bool telemetry_on() const { return enabled || metrics_port >= 0; }
  bool tracing_on() const { return !trace_dir.empty(); }
};

/// Shared scrape endpoint: a master registry plus a pre-rendered snapshot
/// behind a real socket. Publishers hand over whole registries, which are
/// overwritten into the master under a mutex: the soak driver publishes its
/// one registry, and fleet cells (one per worker thread) own disjoint label
/// sets, so publishes are idempotent per cell and the final master is
/// identical for every --jobs value.
class TelemetryPlane {
 public:
  explicit TelemetryPlane(const TelemetryConfig& config);
  ~TelemetryPlane();

  const TelemetryConfig& config() const { return config_; }
  /// Actual bound port, or -1 when no server is running.
  int metrics_port() const { return server_ ? server_->port() : -1; }
  std::int64_t scrapes_served() const {
    return server_ ? server_->requests_served() : 0;
  }

  /// Merges `src` into the master registry (overwrite semantics) and
  /// re-renders the scrape snapshot. Safe from any worker thread.
  void publish(const obs::MetricsRegistry& src);

  /// The merged master registry. Read only when publishers are quiescent
  /// (after run()).
  const obs::MetricsRegistry& registry() const { return master_; }

 private:
  TelemetryConfig config_;
  std::mutex mu_;
  obs::MetricsRegistry master_;
  std::unique_ptr<obs::MetricsHttpServer> server_;
};

/// One served session's SLO bookkeeping, shared by the soak and fleet
/// drivers: the burn-rate tracker, cumulative frame counts folded
/// incrementally from the session's frame records (a cursor marks what is
/// already counted), and whether the session was sampled for trace export.
class SessionSlo {
 public:
  SessionSlo() = default;
  explicit SessionSlo(const obs::SloConfig& config, bool traced = false)
      : tracker_(config), traced_(traced) {}

  /// Forgets every count and the tracker history for a new session (slot
  /// reuse).
  void reset(bool traced);

  /// Folds the frames displayed since the last fold into the counts and
  /// observes each one's delay (ms) into `delay_hist` and `delay_sum_ms`.
  void fold(const core::Session& session, obs::BucketHistogram& delay_hist);

  /// Folds, then feeds the tracker the cumulative sample at `now`; lost
  /// frames (`core::Session::lost_frames`) count as handled and frozen.
  /// Breach/recovery instants land in the session's own trace when it was
  /// sampled, correlated by `id`.
  obs::SloTransitions observe(SimTime now, core::Session& session,
                              std::int64_t id,
                              obs::BucketHistogram& delay_hist);

  std::int64_t displayed() const { return displayed_; }
  /// Displayed frames over the session's freeze threshold.
  std::int64_t frozen() const { return frozen_; }
  std::int64_t mismatched() const { return mismatched_; }
  /// Sum of the displayed frames' delays in ms, added in display order.
  double delay_sum_ms() const { return delay_sum_ms_; }
  /// Lost frames as of the last `observe`.
  std::int64_t lost() const { return lost_; }
  const obs::SloTracker& tracker() const { return tracker_; }
  bool traced() const { return traced_; }

 private:
  obs::SloTracker tracker_{};
  std::size_t cursor_ = 0;  ///< frames already folded
  std::int64_t displayed_ = 0;
  std::int64_t frozen_ = 0;
  std::int64_t mismatched_ = 0;
  std::int64_t over_delay_ = 0;
  std::int64_t lost_ = 0;
  double delay_sum_ms_ = 0.0;
  bool traced_ = false;
};

/// Writes a sampled session's trace to `dir`/`runner::trace_file_name(spec)`
/// under the process name `label`; a session without a recorder writes
/// nothing.
void write_session_trace(const std::string& dir, const runner::RunSpec& spec,
                         const core::Session& session,
                         const std::string& label);

}  // namespace poi360::serve

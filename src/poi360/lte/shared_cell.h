#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "poi360/common/fifo.h"
#include "poi360/common/rng.h"
#include "poi360/common/time.h"

namespace poi360::lte {

/// A proportional-fair cell whose capacity is a shared, injectable resource.
///
/// N first-class UEs register as demand sources (each one a full POI360
/// session, a CBR voice flow, an FTP bulk transfer, ...) and each asks for
/// *its* share. The residual non-registered load is an on/off background
/// process: each background UE alternates exponential active bursts and idle
/// gaps, and the PF scheduler splits resources among everyone backlogged.
/// A UE's share therefore surges toward 1.0 when everyone else goes quiet
/// and collapses when competitors burst — the surge/famine phenomenology of
/// §3.3, emerging from first principles. This is the repo's one contention
/// class: the fleet shares one cell among its sessions, while a private
/// channel (`ChannelConfig::explicit_users`) and the admission controller
/// each own a cell with no registered UE and read `prospective_share`.
///
/// Time discipline: the fleet driver advances its sessions one master
/// quantum at a time, so session B asks for shares at times session A has
/// already passed. The background process therefore cannot be advanced
/// destructively per query; instead its active-user count is recorded as a
/// piecewise-constant timeline. Queries at or behind the frontier are pure
/// lookups (order-independent across UEs); a query past the frontier extends
/// the timeline, drawing each background UE's toggles in index order.
///
/// Demand discipline: UEs report their live uplink backlog every grant,
/// but shares are computed against the snapshot frozen by the latest
/// `commit_demand()` (the fleet driver commits at quantum boundaries, when
/// every session sits at the same master time). Within a quantum each UE's
/// share is thus a deterministic function of the boundary state, independent
/// of the order sessions are stepped in.
///
/// Not thread-safe: one SharedCell and all its sessions belong to a single
/// worker (the fleet driver shards whole cells across workers).
class SharedCell {
 public:
  /// The residual non-registered on/off load.
  struct Background {
    int background_users = 6;
    /// Mean duration of a user's active (uploading) burst.
    SimDuration mean_on = msec(1500);
    /// Mean idle gap between a user's bursts.
    SimDuration mean_off = sec(6);
    /// PF weight of a background user relative to a heavily backlogged
    /// video UE; < 1 models their smaller buffers/QoS class.
    double background_weight = 1.0;
  };

  struct Config {
    Background background{};
  };

  SharedCell(Config config, std::uint64_t seed);

  /// Registers a first-class demand source with the given PF weight
  /// (1.0 = a default heavily-backlogged video UE) and returns its UE id.
  /// Register everything before the first `share()` call.
  int register_ue(double weight = 1.0);

  int registered_ues() const { return static_cast<int>(ues_.size()); }

  /// Updates `ue`'s live backlog (bytes; > 0 means backlogged). Cheap —
  /// called once per grant by attached uplinks. Takes effect at the next
  /// `commit_demand()`.
  void report_demand(int ue, std::int64_t backlog_bytes);

  /// Freezes the live demand table into the snapshot `share()` reads.
  void commit_demand();

  /// Proportional-fair capacity share of `ue` at `now` in (0, 1]: its
  /// weight over the committed backlogged weight plus the background load.
  /// The asking UE always counts itself backlogged — a momentarily empty
  /// buffer still costs it its grant slot. `now` may be behind the frontier
  /// (see class comment).
  double share(int ue, SimTime now);

  /// Share a newly registered, backlogged unit-weight UE would receive at
  /// `now` — what the admission controller prices an arrival at. With no
  /// registered UE this is `1 / (1 + active background weight)`, the share
  /// of a lone foreground UE on a private channel.
  double prospective_share(SimTime now);

  /// Background users active at the frontier.
  int active_background() const;

  /// Drops background-timeline segments strictly before `t` (the segment
  /// covering `t` survives). Call at quantum boundaries to bound memory.
  void trim(SimTime t);

  const Config& config() const { return config_; }

 private:
  struct Ue {
    double weight = 1.0;
    std::int64_t live_demand = 0;
    bool backlogged = false;  // committed snapshot
  };
  struct BgUser {
    bool active = false;
    SimTime toggle_at = 0;
  };
  struct Segment {
    SimTime start = 0;
    int active = 0;
  };

  void extend(SimTime now);
  double background_weight_at(SimTime now);

  Config config_;
  Rng rng_;
  std::vector<Ue> ues_;
  std::vector<BgUser> background_;
  /// Piecewise-constant active-background count; segments_[i] holds from
  /// its start until the next segment's start. Never empty.
  Fifo<Segment> segments_;
  std::vector<std::pair<SimTime, int>> pending_;  // extend() scratch
  SimTime frontier_ = 0;
  double sched_weight_ = 0.0;
};

/// Non-owning (cell, ue) pair threaded through `SessionConfig` into the LTE
/// uplink — the seam that lets a Session draw capacity from a cell it does
/// not own. Default-constructed handles are inert: the uplink keeps its
/// private channel model and consumes the RNG identically, so single-session
/// runs are unaffected. The pointed-to SharedCell must outlive the session.
class CellHandle {
 public:
  CellHandle() = default;
  CellHandle(SharedCell* cell, int ue) : cell_(cell), ue_(ue) {}

  bool attached() const { return cell_ != nullptr; }

  /// Forwards the uplink's firmware-buffer level as this UE's demand.
  void report_backlog(std::int64_t bytes) const {
    if (cell_) cell_->report_demand(ue_, bytes);
  }

  /// This UE's PF share at `now`; 1.0 when unattached.
  double share(SimTime now) const {
    return cell_ ? cell_->share(ue_, now) : 1.0;
  }

  SharedCell* cell() const { return cell_; }
  int ue() const { return ue_; }

 private:
  SharedCell* cell_ = nullptr;
  int ue_ = 0;
};

}  // namespace poi360::lte

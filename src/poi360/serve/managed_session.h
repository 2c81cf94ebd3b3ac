#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "poi360/core/session.h"

namespace poi360::serve {

/// Lifecycle of one served session slot.
///
///   kIdle -> kAdmitted -> kActive -> kClosed
///                                 \-> kFailed
///
/// kClosed / kFailed return to kIdle via `release()` when the slot is
/// recycled into the pool.
enum class SessionState {
  kIdle,      ///< slot unoccupied
  kAdmitted,  ///< admission granted, core session not yet constructed
  kActive,    ///< core session running on the master timeline
  kClosed,    ///< finished cleanly, metrics final
  kFailed,    ///< inner session threw; error retained
};

/// A `core::Session` promoted to a first-class serving object: explicit
/// lifecycle states, incremental advancement on a master timeline, and a
/// no-progress watchdog that detects stuck sessions so the soak driver can
/// force-drain them instead of wedging the run.
///
/// Progress is read from the session's frame-lifecycle signals: a session
/// counts as alive while frames keep displaying at the viewer or being lost
/// (`core::Session::lost_frames`: skipped at the sender under backpressure,
/// abandoned or evicted by the receiver's loss recovery). A session whose
/// frame counters do not move for `watchdog_deadline` is wedged — nothing in
/// the pipeline is cycling — and gets force-drained.
///
/// Designed for slot pooling: default-constructible, reusable via
/// `admit()` after `release()`, and all bookkeeping is inline (the only
/// allocation is the inner core::Session itself, paid once per admission).
/// The fleet driver holds one per session for the same exception
/// containment without the churn.
class ManagedSession {
 public:
  struct Config {
    std::int64_t id = -1;              ///< arrival index (stable identity)
    core::SessionConfig session{};     ///< fully derived per-session config
    SimDuration planned_duration = 0;  ///< call length after activation
    SimDuration watchdog_deadline = sec(8);
  };

  ManagedSession() = default;

  /// Binds an admission to this slot. Valid only from kIdle.
  void admit(Config config, SimTime now);

  /// Constructs and starts the inner session. Valid only from kAdmitted;
  /// an exception from construction or start() lands in kFailed.
  void activate(SimTime now);

  /// Advances the inner timeline to `t`. An exception from the inner
  /// session transitions to kFailed (error retained) instead of unwinding
  /// the whole run.
  void advance_until(SimTime t);

  /// Graceful close: finish() the inner metrics, kActive -> kClosed.
  void drain();

  /// Watchdog close of a stuck session; `force_drained()` reports it.
  void force_drain();

  /// Destroys the inner session and returns the slot to kIdle.
  void release();

  /// Monotone frame-lifecycle progress marker (see class comment).
  std::int64_t progress_marker() const;

  /// Watchdog scan: samples the progress marker and reports whether the
  /// session has been stuck for longer than its deadline.
  bool observe_stuck(SimTime now);

  SessionState state() const { return state_; }
  bool live() const {
    return state_ == SessionState::kAdmitted ||
           state_ == SessionState::kActive;
  }

  std::int64_t id() const { return config_.id; }
  const Config& config() const { return config_; }
  bool force_drained() const { return force_drained_; }
  const std::string& error() const { return error_; }

  core::Session* session() { return session_.get(); }
  const core::Session* session() const { return session_.get(); }

 private:
  void close(bool forced);

  SessionState state_ = SessionState::kIdle;
  Config config_{};
  std::unique_ptr<core::Session> session_;
  SimTime activated_at_ = 0;
  std::int64_t last_marker_ = 0;
  SimTime last_progress_at_ = 0;
  bool force_drained_ = false;
  std::string error_;
};

}  // namespace poi360::serve

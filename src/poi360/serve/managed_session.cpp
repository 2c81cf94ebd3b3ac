#include "poi360/serve/managed_session.h"

#include <stdexcept>

namespace poi360::serve {

void ManagedSession::admit(Config config, SimTime now) {
  if (state_ != SessionState::kIdle) {
    throw std::logic_error("ManagedSession::admit on occupied slot");
  }
  config_ = std::move(config);
  activated_at_ = 0;
  last_marker_ = 0;
  last_progress_at_ = now;
  force_drained_ = false;
  error_.clear();
  state_ = SessionState::kAdmitted;
}

void ManagedSession::activate(SimTime now) {
  if (state_ != SessionState::kAdmitted) {
    throw std::logic_error("ManagedSession::activate requires kAdmitted");
  }
  try {
    session_ = std::make_unique<core::Session>(config_.session);
    session_->start();
    activated_at_ = now;
    last_progress_at_ = now;
    state_ = SessionState::kActive;
  } catch (const std::exception& e) {
    error_ = e.what();
    state_ = SessionState::kFailed;
  }
}

void ManagedSession::advance_until(SimTime t) {
  if (state_ != SessionState::kActive) return;
  try {
    // The inner session runs on its own private timeline; advancing it to
    // the master clock in slices is what interleaves many sessions on one
    // logical timeline without sharing any mutable state between them.
    session_->advance_until(t - activated_at_);
  } catch (const std::exception& e) {
    error_ = e.what();
    state_ = SessionState::kFailed;
  }
}

void ManagedSession::drain() { close(/*forced=*/false); }

void ManagedSession::force_drain() { close(/*forced=*/true); }

void ManagedSession::close(bool forced) {
  if (!live()) return;
  force_drained_ = forced;
  if (session_) {
    try {
      session_->finish();
    } catch (const std::exception& e) {
      error_ = e.what();
      state_ = SessionState::kFailed;
      return;
    }
  }
  state_ = SessionState::kClosed;
}

void ManagedSession::release() {
  session_.reset();
  state_ = SessionState::kIdle;
}

std::int64_t ManagedSession::progress_marker() const {
  if (!session_) return 0;
  return session_->metrics().displayed_frames() + session_->lost_frames();
}

bool ManagedSession::observe_stuck(SimTime now) {
  if (state_ != SessionState::kActive) return false;
  const std::int64_t marker = progress_marker();
  if (marker != last_marker_) {
    last_marker_ = marker;
    last_progress_at_ = now;
    return false;
  }
  return now - last_progress_at_ > config_.watchdog_deadline;
}

}  // namespace poi360::serve

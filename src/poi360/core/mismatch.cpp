#include "poi360/core/mismatch.h"

#include <algorithm>

namespace poi360::core {

MismatchTracker::MismatchTracker(Config config) : config_(config) {}

SimDuration MismatchTracker::on_frame(SimTime display_time,
                                      SimDuration frame_delay,
                                      double roi_level, double min_level,
                                      video::TileIndex actual_roi) {
  const bool roi_changed = last_roi_.has_value() && !(*last_roi_ == actual_roi);
  last_roi_ = actual_roi;

  const bool converged = roi_level <= min_level * config_.level_tolerance;

  SimDuration m;
  if (!converged) {
    // Start (or continue) counting from the moment the mismatch appeared.
    // Consecutive ROI changes keep the same t0: the sender's knowledge has
    // been stale the whole time, which is exactly what M should reflect.
    converged_since_.reset();
    if (!mismatch_since_) mismatch_since_ = display_time;
    m = std::max(display_time - *mismatch_since_, frame_delay);
  } else {
    // Only forget t0 once the ROI has been converged for a sustained spell;
    // a momentary touch of the high-quality region mid-pursuit is not
    // convergence.
    if (!converged_since_) converged_since_ = display_time;
    if (display_time - *converged_since_ >= config_.convergence_hold) {
      mismatch_since_.reset();
    }
    m = frame_delay;
  }
  (void)roi_changed;  // the level test subsumes explicit change detection

  samples_.push_back({display_time, m});
  sum_ += m;
  while (!samples_.empty() &&
         samples_.front().first < display_time - config_.window) {
    sum_ -= samples_.front().second;
    samples_.pop_front();
  }
  return m;
}

SimDuration MismatchTracker::average() const {
  if (samples_.empty()) return 0;
  return static_cast<SimDuration>(static_cast<double>(sum_) /
                                  static_cast<double>(samples_.size()));
}


MismatchTracker::MismatchTracker()
    : MismatchTracker(Config{}) {}

}  // namespace poi360::core

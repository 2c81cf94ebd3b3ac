#include "poi360/obs/slo.h"

#include <algorithm>

namespace poi360::obs {

const char* slo_objective_name(SloObjective objective) {
  switch (objective) {
    case SloObjective::kFreezeRatio: return "freeze_ratio";
    case SloObjective::kMismatchRatio: return "mismatch_ratio";
    case SloObjective::kOverDelay: return "over_delay";
  }
  return "unknown";
}

SloTracker::SloTracker(const SloConfig& config) : config_(config) {}

double SloTracker::budget(int objective) const {
  switch (static_cast<SloObjective>(objective)) {
    case SloObjective::kFreezeRatio: return config_.freeze_budget;
    case SloObjective::kMismatchRatio: return config_.mismatch_budget;
    case SloObjective::kOverDelay: return config_.over_delay_budget;
  }
  return 1.0;
}

std::int64_t SloTracker::bad(int objective, const SloSample& s) {
  switch (static_cast<SloObjective>(objective)) {
    case SloObjective::kFreezeRatio: return s.frozen;
    case SloObjective::kMismatchRatio: return s.mismatched;
    case SloObjective::kOverDelay: return s.over_delay;
  }
  return 0;
}

double SloTracker::burn(int objective, const Checkpoint& from,
                        const SloSample& to) const {
  const std::int64_t total = to.total - from.sample.total;
  if (total <= 0) return 0.0;
  const std::int64_t bad_delta = bad(objective, to) - bad(objective, from.sample);
  const double ratio =
      static_cast<double>(bad_delta < 0 ? 0 : bad_delta) /
      static_cast<double>(total);
  const double b = budget(objective);
  return b > 0.0 ? ratio / b : (ratio > 0.0 ? 1e9 : 0.0);
}

const SloTracker::Checkpoint& SloTracker::reference(
    SimTime now, SimDuration window) const {
  // Latest checkpoint at or before the window start; the oldest retained
  // one when history is still shorter than the window.
  const SimTime start = now - window;
  std::size_t best = 0;
  for (std::size_t i = 0; i < checkpoints_.size(); ++i) {
    if (checkpoints_[i].at <= start) best = i;
  }
  return checkpoints_[best];
}

void SloTracker::reset() {
  checkpoints_.clear();
  status_ = SloStatus{};
}

SloTransitions SloTracker::observe(SimTime now, const SloSample& cumulative,
                                   TraceRecorder* trace, std::int64_t id) {
  SloTransitions out;
  if (checkpoints_.empty()) {
    // First observation anchors the budget windows; no rates yet.
    checkpoints_.push_back({now, cumulative});
    return out;
  }

  for (int o = 0; o < kSloObjectives; ++o) {
    status_.burn_fast[o] =
        burn(o, reference(now, config_.fast_window), cumulative);
    status_.burn_slow[o] =
        burn(o, reference(now, config_.slow_window), cumulative);
    const bool over = status_.burn_fast[o] >= config_.fast_burn_threshold &&
                      status_.burn_slow[o] >= config_.slow_burn_threshold;
    const bool under = status_.burn_fast[o] < config_.fast_burn_threshold &&
                       status_.burn_slow[o] < config_.slow_burn_threshold;
    if (!status_.breached[o] && over) {
      status_.breached[o] = true;
      out.breached_now[o] = true;
      ++out.breaches;
      if (trace) {
        trace->instant(now, "slo", "slo.breach",
                       {{"objective", static_cast<double>(o)},
                        {"burn_fast", status_.burn_fast[o]},
                        {"burn_slow", status_.burn_slow[o]}},
                       id);
      }
    } else if (status_.breached[o] && under) {
      status_.breached[o] = false;
      out.recovered_now[o] = true;
      ++out.recoveries;
      if (trace) {
        trace->instant(now, "slo", "slo.recovered",
                       {{"objective", static_cast<double>(o)},
                        {"burn_fast", status_.burn_fast[o]},
                        {"burn_slow", status_.burn_slow[o]}},
                       id);
      }
    }
  }

  // Prune checkpoints the slow window can no longer reach: the oldest is
  // redundant once the second-oldest still covers the window start.
  while (checkpoints_.size() >= 2 &&
         checkpoints_[1].at <= now - config_.slow_window) {
    checkpoints_.pop_front();
  }
  if (checkpoints_.size() ==
      std::max<std::size_t>(1, config_.checkpoint_capacity)) {
    checkpoints_.pop_front();
  }
  checkpoints_.push_back({now, cumulative});
  return out;
}

}  // namespace poi360::obs

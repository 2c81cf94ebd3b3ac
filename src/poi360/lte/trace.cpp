#include "poi360/lte/trace.h"

#include <algorithm>
#include <stdexcept>

namespace poi360::lte {

void CapacityTrace::add(SimTime t, Bitrate capacity_bps) {
  if (!times_.empty() && t <= times_.back()) {
    throw std::invalid_argument("trace times must be strictly increasing");
  }
  if (times_.empty() && t != 0) {
    throw std::invalid_argument("trace must start at t = 0");
  }
  if (capacity_bps < 0.0) {
    throw std::invalid_argument("negative capacity");
  }
  times_.push_back(t);
  capacities_.push_back(capacity_bps);
}

SimDuration CapacityTrace::duration() const {
  if (times_.empty()) return 0;
  if (times_.size() == 1) return msec(1);
  // Assume the final sample lasts as long as the median step (== the
  // uniform step for recorded traces).
  const SimDuration step = times_[1] - times_[0];
  return times_.back() + step;
}

Bitrate CapacityTrace::at(SimTime t) const {
  if (times_.empty()) throw std::logic_error("empty trace");
  const SimDuration period = duration();
  SimTime wrapped = t % period;
  if (wrapped < 0) wrapped += period;
  // Last sample with time <= wrapped.
  const auto it =
      std::upper_bound(times_.begin(), times_.end(), wrapped);
  const auto idx = static_cast<std::size_t>(
      std::max<std::ptrdiff_t>(0, it - times_.begin() - 1));
  return capacities_[idx];
}

}  // namespace poi360::lte

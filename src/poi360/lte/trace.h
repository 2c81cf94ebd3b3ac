#pragma once

#include <vector>

#include "poi360/common/time.h"
#include "poi360/common/units.h"

namespace poi360::lte {

/// Recorded per-subframe uplink capacity trace.
///
/// Lets experiments replay a fixed channel realization — a capacity series
/// recorded from the stochastic channel model or a hand-crafted scenario
/// (step drops, ramps) — so that every algorithm under comparison faces
/// *exactly* the same network. Replay loops when the trace is shorter
/// than the session.
class CapacityTrace {
 public:
  /// Appends a sample; times must be strictly increasing from 0.
  void add(SimTime t, Bitrate capacity_bps);

  /// Step-interpolated capacity at `t`; replay wraps around the trace
  /// duration. Throws if the trace is empty.
  Bitrate at(SimTime t) const;

  bool empty() const { return times_.empty(); }
  std::size_t size() const { return times_.size(); }
  /// Wrap-around period: the last sample time plus one nominal step.
  SimDuration duration() const;

 private:
  std::vector<SimTime> times_;
  std::vector<Bitrate> capacities_;
};

}  // namespace poi360::lte

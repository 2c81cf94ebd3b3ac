#pragma once

#include <memory>
#include <string>
#include <vector>

#include "poi360/common/time.h"
#include "poi360/common/units.h"

namespace poi360::lte {

/// Recorded per-subframe uplink capacity trace.
///
/// Lets experiments replay a fixed channel realization — a capacity series
/// recorded from the stochastic channel model, a hand-crafted scenario
/// (step drops, ramps), or an imported field measurement — so that every
/// algorithm under comparison faces *exactly* the same network. Replay
/// loops when the trace is shorter than the session.
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

  /// Parses "time_us,capacity_bps" rows (an optional header row, blank
  /// lines and CRLF endings are accepted); throws std::invalid_argument
  /// naming the offending row.
  static CapacityTrace from_csv(const std::string& csv);

 private:
  std::vector<SimTime> times_;
  std::vector<Bitrate> capacities_;
};

}  // namespace poi360::lte

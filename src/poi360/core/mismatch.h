#pragma once

#include <cstdint>
#include <optional>
#include <utility>

#include "poi360/common/fifo.h"
#include "poi360/common/time.h"
#include "poi360/video/tile_grid.h"

namespace poi360::core {

/// Client-side ROI mismatch-time tracker (paper §4.2, Eq. 2).
///
/// M captures, in one number, everything that makes stale ROI feedback hurt:
/// the feedback delay d_f, the one-way video delay d_v, and how restless the
/// viewer is. Per displayed frame:
///
///   M = max(t - t0, d_v)  while the viewed tile's compression level is not
///                         the frame's minimum (t0 = when the mismatch began)
///   M = d_v               otherwise (the lag of any future update is at
///                         least the current frame delay)
///
/// A sliding time window averages the per-frame samples; the average is fed
/// back to the sender every frame interval.
class MismatchTracker {
 public:
  struct Config {
    SimDuration window = msec(500);
    /// Levels within this factor of the minimum count as "converged"
    /// (encoder noise never reproduces l_min bit-exactly in a real system).
    double level_tolerance = 1.05;
    /// The mismatch clock t0 only resets after the ROI has stayed converged
    /// this long: "when the user switches the ROI consecutively,
    /// inconsistency becomes more severe, again leading to higher M" (§4.2)
    /// — a viewer in continuous pursuit never really converges.
    SimDuration convergence_hold = msec(400);
  };

  MismatchTracker();
  explicit MismatchTracker(Config config);

  /// Records one displayed frame and returns this frame's M sample.
  /// `display_time` is the client clock when the frame is shown,
  /// `frame_delay` its end-to-end delay d_v, `roi_level` the compression
  /// level of the tile the viewer actually looks at, `min_level` the
  /// frame's best level, and `actual_roi` the viewer's current ROI tile.
  SimDuration on_frame(SimTime display_time, SimDuration frame_delay,
                       double roi_level, double min_level,
                       video::TileIndex actual_roi);

  /// Windowed average of M, the value fed back to the sender.
  SimDuration average() const;

  bool mismatch_active() const { return mismatch_since_.has_value(); }

 private:
  Config config_;
  Fifo<std::pair<SimTime, SimDuration>> samples_;
  // Sum of the windowed samples. Integer µs sums stay far below 2^53, so
  // converting the sum once gives the same double as summing in doubles.
  std::int64_t sum_ = 0;
  std::optional<SimTime> mismatch_since_;
  std::optional<SimTime> converged_since_;
  std::optional<video::TileIndex> last_roi_;
};

}  // namespace poi360::core

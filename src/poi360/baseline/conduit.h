#pragma once

#include "poi360/video/compression.h"

namespace poi360::baseline {

/// Conduit (Patel & Rose, 2015) benchmark: crop-and-stream.
///
/// The ROI field of view is delivered uncompressed; everything else is sent
/// at "the lowest possible quality" so the viewer never sees a blank frame
/// (§6.1.1). In compression-matrix terms this is a two-level mode: l = 1
/// inside the FOV window, l = l_max outside. The two-level structure is what
/// makes Conduit's ROI quality oscillate violently when the viewer moves
/// (Fig. 12b): the newly entered region is either perfect or terrible.
class ConduitMode : public video::CompressionMode {
 public:
  /// `fov_radius_tiles`: Chebyshev radius of the full-quality window
  /// (1 -> a 3x3-tile window, ~90° x 67° on the 12x8 grid).
  explicit ConduitMode(int fov_radius_tiles = 1, double non_roi_level = 256.0);

  /// Pure in (dx, dy): evaluated once per distinct distance when the
  /// process's ModeTables build this mode's level LUT (keyed by kModeId and
  /// params()); per-frame paths never call it.
  double level(int dx, int dy) const override;
  std::string name() const override { return "conduit"; }
  video::ModeParams params() const override {
    return {video::ModeFamily::kConduit, static_cast<double>(fov_radius_),
            non_roi_level_};
  }

  /// Scheme id embedded in frame headers.
  static constexpr int kModeId = 101;

 private:
  int fov_radius_;
  double non_roi_level_;
};

}  // namespace poi360::baseline

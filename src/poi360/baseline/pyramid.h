#pragma once

#include "poi360/video/compression.h"

namespace poi360::baseline {

/// Pyramid encoding (Facebook, 2016) benchmark.
///
/// The frame is re-centered at the ROI and quality decays smoothly toward
/// the corners with distance from the center — a fixed, conservative spatial
/// compression mode (§6.1.1). We model the decay as geometric in the
/// *euclidean* tile distance (the pyramid's faces shrink radially), with a
/// moderate base so the falloff stays smoother than POI360's aggressive
/// modes but steeper than its most conservative one.
class PyramidMode : public video::CompressionMode {
 public:
  explicit PyramidMode(double c = 1.3, double max_level = 64.0);

  /// Pure in (dx, dy): evaluated once per distinct distance when the
  /// process's ModeTables build this mode's level LUT (keyed by kModeId and
  /// params()); per-frame paths never call it.
  double level(int dx, int dy) const override;
  std::string name() const override { return "pyramid"; }
  video::ModeParams params() const override {
    return {video::ModeFamily::kPyramid, c_, max_level_};
  }

  static constexpr int kModeId = 102;

 private:
  double c_;
  double max_level_;
};

}  // namespace poi360::baseline

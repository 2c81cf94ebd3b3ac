#include "poi360/video/encoder.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <stdexcept>

#include "poi360/video/kernels.h"

namespace poi360::video {

PanoramicEncoder::PanoramicEncoder(TileGrid grid, EncoderConfig config)
    : grid_(grid), config_(config),
      tile_pixels_(static_cast<double>(grid.tile_pixels())) {
  if (config.fps <= 0 || config.saturation_bpp <= 0.0) {
    throw std::invalid_argument("bad EncoderConfig");
  }
}

EncodedFrame PanoramicEncoder::encode(SimTime capture_time,
                                      TileIndex sender_roi, int mode_id,
                                      const CompressionMatrixView& levels,
                                      Bitrate rv) {
  if (levels.cols() != grid_.cols() || levels.rows() != grid_.rows()) {
    throw std::invalid_argument("compression matrix does not match grid");
  }
  const double effective_pixels = levels.effective_tiles() * tile_pixels_;

  const double target_bits =
      std::max(0.0, config_.utilization * rv / config_.fps);
  const double max_bits = config_.saturation_bpp * effective_pixels;
  const double min_bits = config_.floor_bpp * effective_pixels;
  const double bits = std::clamp(target_bits, min_bits, max_bits);
  const double bpp = effective_pixels > 0.0 ? bits / effective_pixels : 0.0;

  // Intra refresh: pixels whose resolution improved since the previous
  // frame lack a temporal reference and cost extra bits at this frame's
  // quality level. Consecutive frames under an unchanged (mode, ROI) share
  // the same cached matrix object, so identical pointers mean zero refresh
  // without scanning.
  double refresh_bits = 0.0;
  if (prev_levels_ && prev_levels_.get() != levels.get() &&
      prev_levels_.cols() == levels.cols() &&
      prev_levels_.rows() == levels.rows()) {
    // Frozen inverse levels make the scan two contiguous loads and a
    // compare per tile.
    const double upgraded = kernels::upgrade_gain_sum(
        levels->inv_levels_data(), prev_levels_->inv_levels_data(),
        static_cast<std::size_t>(levels->tile_count()));
    refresh_bits =
        config_.refresh_intra_factor * bpp * upgraded * tile_pixels_;
  }
  // View assignment to the same box is a pointer compare, nothing more —
  // the steady-state (unchanged matrix) frame touches no refcount.
  prev_levels_ = levels;

  // * 0.125 is exactly / 8.0 (power of two), minus the fdiv.
  const std::int64_t bytes =
      static_cast<std::int64_t>((bits + refresh_bits) * 0.125) +
      config_.overhead_bytes;

  EncodedFrame frame{
      .id = next_id_++,
      .capture_time = capture_time,
      .sender_roi = sender_roi,
      .mode_id = mode_id,
      .levels = levels,
      .bytes = bytes,
      .bpp = bpp,
  };
  return frame;
}

}  // namespace poi360::video

#include "poi360/video/encoder.h"

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <utility>

namespace poi360::video {

PanoramicEncoder::PanoramicEncoder(TileGrid grid, EncoderConfig config)
    : grid_(grid), config_(config),
      tile_pixels_(static_cast<double>(grid.tile_pixels())) {
  if (config.fps <= 0 || config.saturation_bpp <= 0.0) {
    throw std::invalid_argument("bad EncoderConfig");
  }
}

EncodedFrame PanoramicEncoder::encode(
    SimTime capture_time, TileIndex sender_roi, int mode_id,
    std::shared_ptr<const CompressionMatrix> levels, Bitrate rv) {
  if (!levels || levels->cols() != grid_.cols() ||
      levels->rows() != grid_.rows()) {
    throw std::invalid_argument("compression matrix does not match grid");
  }
  const double effective_pixels = levels->effective_tiles() * tile_pixels_;

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
  // without scanning (and no refcount traffic for prev_levels_).
  double refresh_bits = 0.0;
  if (prev_levels_ != levels) {
    if (prev_levels_) {
      // Upgrade mass sum_k max(0, 1/l_cur - 1/l_prev) in units of tiles,
      // accumulated left to right over the row-major inverse levels.
      const double* inv_cur = levels->inv_levels_data();
      const double* inv_prev = prev_levels_->inv_levels_data();
      const int n = levels->tile_count();
      double upgraded = 0.0;
      for (int k = 0; k < n; ++k) {
        const double gain = inv_cur[k] - inv_prev[k];
        if (gain > 0.0) upgraded += gain;
      }
      refresh_bits =
          config_.refresh_intra_factor * bpp * upgraded * tile_pixels_;
    }
    prev_levels_ = levels;
  }

  // * 0.125 is exactly / 8.0 (power of two), minus the fdiv.
  const std::int64_t bytes =
      static_cast<std::int64_t>((bits + refresh_bits) * 0.125) +
      config_.overhead_bytes;

  EncodedFrame frame{
      .id = next_id_++,
      .capture_time = capture_time,
      .sender_roi = sender_roi,
      .mode_id = mode_id,
      .levels = std::move(levels),
      .bytes = bytes,
      .bpp = bpp,
  };
  return frame;
}

}  // namespace poi360::video

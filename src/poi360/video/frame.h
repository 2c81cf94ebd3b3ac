#pragma once

#include <cstdint>
#include <memory>

#include "poi360/common/time.h"
#include "poi360/video/compression.h"
#include "poi360/video/tile_grid.h"

namespace poi360::video {

/// One spatially compressed + encoded 360° frame, as it leaves the sender.
///
/// We carry metadata rather than pixels: the per-tile compression matrix and
/// the encoder's bits-per-effective-pixel are sufficient to reconstruct the
/// displayed quality of any tile at the client (see QualityModel). The real
/// system embeds the compression mode and the sender's ROI knowledge inside
/// the frame canvas (§5); here they are explicit fields.
struct EncodedFrame {
  std::int64_t id = 0;
  SimTime capture_time = 0;

  /// The ROI the *sender* believed the viewer had when compressing.
  TileIndex sender_roi;

  /// Identifier of the compression mode used (1..K for POI360's table,
  /// or a scheme-specific constant for the baselines).
  int mode_id = 0;

  /// Per-tile compression levels actually applied. Frames share the
  /// session's cached (mode, ROI) matrix instead of carrying a private
  /// copy, so capturing/relaying a frame never copies the matrix.
  std::shared_ptr<const CompressionMatrix> levels;

  /// Encoded size on the wire.
  std::int64_t bytes = 0;

  /// Encoder bits per effective (surviving) pixel; drives tile PSNR.
  double bpp = 0.0;
};

}  // namespace poi360::video

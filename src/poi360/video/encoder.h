#pragma once

#include <cstdint>
#include <memory>

#include "poi360/common/units.h"
#include "poi360/video/frame.h"
#include "poi360/video/quality.h"
#include "poi360/video/tile_grid.h"

namespace poi360::video {

/// Rate-controlled panoramic encoder model.
///
/// Mirrors the paper's pipeline: the spatial compressor shrinks each tile by
/// its level l_ij (so only `effective_tiles` worth of pixels remain), then a
/// WebRTC-style encoder (VP8 in the prototype) encodes the stitched canvas at
/// the target bitrate R_v. Two behaviours matter for the evaluation and are
/// modeled explicitly:
///
///  * the encoder cannot usefully spend more than `saturation_bpp` bits per
///    pixel — an aggressively compressed canvas therefore *undershoots* R_v,
///    which is why aggressive modes also reduce frame delay (Fig. 13);
///  * quality per tile follows QualityModel from the achieved bpp.
struct EncoderConfig {
  int fps = 36;                    // paper quotes a 36 FPS stream (§6.1.1)
  double saturation_bpp = 0.14;    // max useful bits per effective pixel
  /// Quality floor (the encoder's maximum quantizer): a frame costs at
  /// least this many bits per surviving pixel no matter the target rate.
  /// This is why conservative spatial modes overshoot R_v and queue up —
  /// Pyramid's higher delay in Fig. 13. (At max quantizer the raw 4K
  /// panorama still costs ~4.8 Mbps; the paper's 12.65 Mbps "raw bitrate"
  /// corresponds to a camera stream at a comfortable quantizer, ~0.047 bpp.)
  double floor_bpp = 0.018;
  std::int64_t overhead_bytes = 400;  // container + embedded ROI/mode header
  /// Rate controllers undershoot the target so the average output stays
  /// below R_v (VP8's behaviour); without this margin the application-layer
  /// queue is critically loaded and backlog random-walks upward.
  double utilization = 0.93;

  /// When a tile's compression level improves between consecutive frames,
  /// its new pixels have no temporal reference and must be intra-coded at
  /// roughly this multiple of the frame's inter bit cost. Schemes that
  /// relocate large full-quality regions on every ROI update (Conduit's
  /// window) pay this repeatedly; smooth-falloff modes pay little.
  double refresh_intra_factor = 1.2;
};

class PanoramicEncoder {
 public:
  PanoramicEncoder(TileGrid grid, EncoderConfig config);

  /// Encodes one frame under compression matrix `levels` at target bitrate
  /// `rv`. `sender_roi` and `mode_id` are embedded as metadata. Hot paths
  /// pass ModeMatrixCache's shared matrix, which the frame then references.
  EncodedFrame encode(SimTime capture_time, TileIndex sender_roi, int mode_id,
                      std::shared_ptr<const CompressionMatrix> levels,
                      Bitrate rv);

  const TileGrid& grid() const { return grid_; }
  const EncoderConfig& config() const { return config_; }

  SimDuration frame_interval() const {
    return static_cast<SimDuration>(kSecond / config_.fps);
  }

 private:
  TileGrid grid_;
  EncoderConfig config_;
  // grid_.tile_pixels() as a double: the per-frame path multiplies by it
  // twice, and the int64 divide inside tile_pixels() was a measurable slice
  // of the steady-state encode cost. Exact: tile pixel counts fit a double.
  double tile_pixels_ = 0.0;
  std::int64_t next_id_ = 0;
  // Empty until the first frame.
  std::shared_ptr<const CompressionMatrix> prev_levels_;
};

}  // namespace poi360::video

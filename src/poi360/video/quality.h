#pragma once

#include <algorithm>
#include <string>

namespace poi360::video {

/// Mean Opinion Score buckets (paper Table 1).
enum class Mos { kBad = 0, kPoor = 1, kFair = 2, kGood = 3, kExcellent = 4 };

/// Maps PSNR (dB) to an MOS bucket per Table 1:
///   > 37 Excellent | 31..37 Good | 25..31 Fair | 20..25 Poor | < 20 Bad.
Mos mos_from_psnr(double psnr_db);

std::string to_string(Mos mos);

/// Analytic video quality model.
///
/// We do not encode pixels; instead PSNR is modeled as a deterministic
/// function of (a) the encoder's bit budget per *effective* pixel (pixels
/// surviving spatial compression) and (b) the spatial compression level of
/// the displayed tile:
///
///   psnr(bpp, l) = clamp(enc_ref_psnr + enc_slope * log2(bpp/enc_ref_bpp),
///                        floor, ceiling)  -  downsample_db_per_octave * log2(l)
///
/// The log-linear rate-distortion curve is the standard high-rate
/// approximation; the downsampling penalty reflects the resolution loss when
/// a tile encoded at area ratio 1/l is upscaled back for display (the paper's
/// "unfold" step). Constants are calibrated so that an uncompressed 4K
/// panorama at generous bitrate sits at the ceiling (~42 dB, "Excellent") and
/// POI360's measured operating points land in the PSNR ranges the paper
/// reports (see EXPERIMENTS.md).
struct QualityModel {
  double ceiling_db = 42.0;
  double floor_db = 10.0;
  double enc_ref_psnr_db = 35.5;
  double enc_ref_bpp = 0.055;
  double enc_slope_db_per_octave = 5.5;
  double downsample_db_per_octave = 3.0;

  /// PSNR contributed by the encoder alone (no spatial compression).
  double encode_psnr(double bpp) const;

  /// PSNR of a displayed tile whose compression level is `level` (>= 1)
  /// inside a frame encoded at `bpp` bits per effective pixel.
  double tile_psnr(double bpp, double level) const;

  /// Hot-path variant of `tile_psnr` with the encoder term precomputed by
  /// the caller (it depends only on bpp, not the tile) and log2(level)
  /// memoized (CompressionMatrix freezes it when built). Same arithmetic as
  /// `tile_psnr`, bit for bit.
  double tile_psnr_from(double encode_psnr_db, double log2_level) const {
    const double penalty = downsample_db_per_octave * log2_level;
    return std::max(floor_db, encode_psnr_db - penalty);
  }
};

class CompressionMatrix;  // compression.h
class TileGrid;           // tile_grid.h
struct TileIndex;

/// PSNR of the viewer's ROI *region* (§5: the measurement crops the ROI from
/// the frame, i.e. the HMD field of view, not a single tile).
///
/// The FOV spans roughly a 5x3-tile neighborhood on the 12x8 grid; foveation
/// weights emphasize the center. Per-tile PSNRs are combined through MSE
/// (PSNR is log-domain; averaging must happen in the error domain), so one
/// badly compressed tile inside the FOV drags the region down — which is
/// exactly what a viewer at the edge of Conduit's cropped window perceives.
double roi_region_psnr(const QualityModel& model, const TileGrid& grid,
                       const CompressionMatrix& levels, TileIndex center,
                       double bpp);

}  // namespace poi360::video

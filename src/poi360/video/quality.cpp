#include "poi360/video/quality.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "poi360/video/compression.h"
#include "poi360/video/tile_grid.h"

namespace poi360::video {

Mos mos_from_psnr(double psnr_db) {
  if (psnr_db > 37.0) return Mos::kExcellent;
  if (psnr_db > 31.0) return Mos::kGood;
  if (psnr_db > 25.0) return Mos::kFair;
  if (psnr_db > 20.0) return Mos::kPoor;
  return Mos::kBad;
}

std::string to_string(Mos mos) {
  switch (mos) {
    case Mos::kBad: return "Bad";
    case Mos::kPoor: return "Poor";
    case Mos::kFair: return "Fair";
    case Mos::kGood: return "Good";
    case Mos::kExcellent: return "Excellent";
  }
  return "?";
}

double QualityModel::encode_psnr(double bpp) const {
  if (bpp <= 0.0) return floor_db;
  const double psnr =
      enc_ref_psnr_db + enc_slope_db_per_octave * std::log2(bpp / enc_ref_bpp);
  return std::clamp(psnr, floor_db, ceiling_db);
}

double QualityModel::tile_psnr(double bpp, double level) const {
  if (level < 1.0) throw std::invalid_argument("compression level < 1");
  return tile_psnr_from(encode_psnr(bpp), std::log2(level));
}

double roi_region_psnr(const QualityModel& model, const TileGrid& grid,
                       const CompressionMatrix& levels, TileIndex center,
                       double bpp) {
  // Foveation weights by Chebyshev ring: the fovea dominates, the visual
  // periphery contributes but cannot rescue a degraded center (and vice
  // versa a degraded periphery is still clearly visible).
  constexpr double kRingWeight[] = {0.55, 0.37, 0.08};
  static_assert(sizeof(kRingWeight) / sizeof(kRingWeight[0]) ==
                TileGridTables::kRings);
  // The encoder term depends only on bpp, never on the tile — hoisted out
  // of the ring scan as a single linear-MSE factor. The per-tile MSE
  //   10^(-max(floor, enc - db·log2 l)/10)
  // factors as min(floor_mse, enc_mse · factor_t), because x ↦ 10^(-x/10)
  // is monotone decreasing; factor_t and the centre's per-ring partial
  // sums are frozen on the matrix, so a warm call is O(rings) with zero
  // transcendentals until the final log10.
  const double enc_psnr = model.encode_psnr(bpp);
  const double enc_mse = std::pow(10.0, -enc_psnr / 10.0);
  const int c = grid.flat(center);
  const CompressionMatrix::PsnrRings& pr = levels.psnr_rings(grid, model, c);
  const CompressionMatrix::RingStats& stats = pr.at(c);
  double weighted_mse = 0.0;
  double total_weight = 0.0;
  for (int ring = 0; ring < TileGridTables::kRings; ++ring) {
    // Ring membership (with yaw wrap and pitch clipping) is memoized per
    // (grid, center); clipped rings keep their reduced count so the
    // per-ring mean — and thus the weight renormalization at grid edges —
    // is unchanged.
    const int ring_count = pr.tables->ring_count(c, ring);
    if (ring_count == 0) continue;
    double ring_mse;
    if (enc_mse * stats.max[ring] <= pr.floor_mse) {
      // No tile in the ring hits the PSNR floor: the clamp is inert and the
      // whole gather collapses into one multiply by the frozen partial sum.
      ring_mse = enc_mse * stats.sum[ring];
    } else {
      // Some tile clamps: gather the ring and apply the floor tile by tile,
      // accumulating left to right in the ring walk's order.
      const std::int32_t* idx = pr.tables->ring_tiles(c, ring);
      ring_mse = 0.0;
      for (int k = 0; k < ring_count; ++k) {
        ring_mse += std::min(pr.floor_mse, enc_mse * pr.mse_factors[idx[k]]);
      }
    }
    weighted_mse += kRingWeight[ring] * ring_mse / ring_count;
    total_weight += kRingWeight[ring];
  }
  const double mse = weighted_mse / total_weight;
  return -10.0 * std::log10(mse);
}

}  // namespace poi360::video

#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>

namespace poi360::video::kernels {

/// Contiguous structure-of-arrays kernels for the encoder-path hot loops:
/// the intra-refresh upgrade scan, the foveated ring-MSE accumulation, and
/// the level-LUT gather that materializes a compression matrix.
///
/// The kernels accumulate strictly left-to-right over the input, i.e. the
/// exact order of the per-tile loops they replaced, so their sums are
/// bit-identical to the pre-kernel code (the differential tests pin them to
/// verbatim copies of those loops).

// ------------------------------------------------------------- refresh --

/// Intra-refresh upgrade mass between two frozen inverse-level arrays:
///   sum_k max(0, inv_cur[k] - inv_prev[k])
/// in units of tiles. This is the per-tile scan PanoramicEncoder::encode
/// used to run over the 12x8 matrix — two divides per tile — now two
/// contiguous loads and a compare per tile.
inline double upgrade_gain_sum(const double* inv_cur, const double* inv_prev,
                               std::size_t n) {
  double sum = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    const double gain = inv_cur[k] - inv_prev[k];
    if (gain > 0.0) sum += gain;
  }
  return sum;
}

/// Clamped ring-MSE accumulation over gathered per-tile linear-MSE factors:
///   sum_k min(floor_mse, enc_mse * factors[idx[k]])
/// `factors[t] = 10^(downsample_db_per_octave * log2(l_t) / 10)` is frozen
/// on the matrix, `enc_mse = 10^(-enc_psnr/10)` is per-call, and the min
/// applies the QualityModel's PSNR floor tile by tile — `10^(-max(a,b)/10)
/// = min(10^(-a/10), 10^(-b/10))` because the map is monotone decreasing.
inline double ring_mse_sum(const double* factors, const std::int32_t* idx,
                           int n, double enc_mse, double floor_mse) {
  double sum = 0.0;
  for (int k = 0; k < n; ++k) {
    sum += std::min(floor_mse, enc_mse * factors[idx[k]]);
  }
  return sum;
}

/// Pure index gather: out[k] = src[idx[k]]. Materializes a per-ROI array
/// (levels, log2 levels, inverse levels, MSE factors) out of a per-mode
/// distance LUT using TileGridTables' per-center index map. A gather of
/// identical values is bit-identical however it is vectorized.
inline void gather(const double* src, const std::int32_t* idx, std::size_t n,
                   double* out) {
  for (std::size_t k = 0; k < n; ++k) out[k] = src[idx[k]];
}

}  // namespace poi360::video::kernels

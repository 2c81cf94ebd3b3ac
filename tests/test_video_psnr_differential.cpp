#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>

#include "poi360/video/compression.h"
#include "poi360/video/quality.h"
#include "poi360/video/tile_grid.h"

namespace poi360::video {
namespace {

/// roi_region_psnr as it was before the MSE factorization: a pow() per FOV
/// tile inside the ring scan, kept verbatim so the frozen ring sidecar stays
/// pinned to the original math.
double reference_roi_region_psnr(const QualityModel& model,
                                 const TileGrid& grid,
                                 const CompressionMatrix& levels,
                                 TileIndex center, double bpp) {
  constexpr double kRingWeight[] = {0.55, 0.37, 0.08};
  const double enc_psnr = model.encode_psnr(bpp);
  double weighted_mse = 0.0;
  double total_weight = 0.0;
  for (int ring = 0; ring <= 2; ++ring) {
    double ring_mse = 0.0;
    int ring_count = 0;
    for (int dj = -ring; dj <= ring; ++dj) {
      const int j = center.j + dj;
      if (j < 0 || j >= grid.rows()) continue;
      for (int di = -ring; di <= ring; ++di) {
        if (std::max(std::abs(di), std::abs(dj)) != ring) continue;
        int i = (center.i + di) % grid.cols();
        if (i < 0) i += grid.cols();
        const double psnr =
            model.tile_psnr_from(enc_psnr, std::log2(levels.at({i, j})));
        ring_mse += std::pow(10.0, -psnr / 10.0);
        ++ring_count;
      }
    }
    if (ring_count == 0) continue;
    weighted_mse += kRingWeight[ring] * ring_mse / ring_count;
    total_weight += kRingWeight[ring];
  }
  return -10.0 * std::log10(weighted_mse / total_weight);
}

// Bound for comparisons against references that recompute the same math
// along a different path (pow per tile vs frozen factors), which may
// differ in the last ulps. In dB it is still ~1000x tighter than any
// assertion elsewhere in the suite.
constexpr double kUlpSlack = 1e-10;

// ------------------------------------------- roi_region_psnr differential --

/// All 8 ModeTable modes x every matrix center x every evaluation center on
/// the paper grid, in the clamp-free regime (bpp 0.06), a mixed regime
/// (bpp 0.01: far tiles of a ring hit the PSNR floor, near ones do not) and
/// the floor-clamped regime (bpp 0.002, where enc_psnr sits at the floor).
/// The sweep counts which ring branch roi_region_psnr takes and requires
/// both: the frozen partial sum (no tile clamps) and the per-tile min()
/// gather, including rings where the min() mixes clamped and free tiles.
TEST(RoiPsnrDifferential, AllModesAllCentersMatchReference) {
  const QualityModel q;
  const TileGrid grid = TileGrid::paper_default();
  const ModeTable table(8, 1.8, 1.1);
  ModeMatrixCache cache(grid);
  for (int m = 1; m <= table.size(); ++m) cache.add_mode(m, table.mode(m));

  int unclamped_rings = 0;
  int clamped_rings = 0;
  int mixed_rings = 0;
  for (int m = 1; m <= table.size(); ++m) {
    for (int rj = 0; rj < grid.rows(); ++rj) {
      for (int ri = 0; ri < grid.cols(); ++ri) {
        const auto cached = cache.matrix(m, {ri, rj});
        for (double bpp : {0.06, 0.01, 0.002}) {
          // Evaluate at the matrix's own center, at an offset interior
          // center, and at a pole corner — matched vs mismatched ROI and
          // clipped vs full rings, for every matrix.
          for (TileIndex eval :
               {TileIndex{ri, rj}, TileIndex{(ri + 3) % grid.cols(), 4},
                TileIndex{0, 0}}) {
            const double ref =
                reference_roi_region_psnr(q, grid, *cached, eval, bpp);
            const double got = roi_region_psnr(q, grid, *cached, eval, bpp);
            ASSERT_NEAR(got, ref, kUlpSlack)
                << "mode " << m << " matrix (" << ri << "," << rj
                << ") eval (" << eval.i << "," << eval.j << ") bpp " << bpp;

            // The branch predicate of roi_region_psnr, ring by ring.
            const auto& pr = cached->psnr_rings(grid, q);
            const double enc_mse = std::pow(10.0, -q.encode_psnr(bpp) / 10.0);
            const int c = grid.flat(eval);
            for (int ring = 0; ring < TileGridTables::kRings; ++ring) {
              const int n = pr.tables->ring_count(c, ring);
              if (n == 0) continue;
              const std::size_t slot =
                  static_cast<std::size_t>(c) * TileGridTables::kRings + ring;
              if (enc_mse * pr.ring_max[slot] <= pr.floor_mse) {
                ++unclamped_rings;
                continue;
              }
              ++clamped_rings;
              const std::int32_t* idx = pr.tables->ring_tiles(c, ring);
              for (int k = 0; k < n; ++k) {
                if (enc_mse * pr.mse_factors[idx[k]] < pr.floor_mse) {
                  ++mixed_rings;
                  break;
                }
              }
            }
          }
        }
      }
    }
  }
  EXPECT_GT(unclamped_rings, 0);
  EXPECT_GT(clamped_rings, 0);
  EXPECT_GT(mixed_rings, 0);
}

/// Narrow grid: ring 2 wraps in yaw far enough to revisit columns. The
/// original scan counted revisited tiles twice; the memoized ring walk must
/// preserve that verbatim.
TEST(RoiPsnrDifferential, NarrowGridYawWrapMatchesReference) {
  const QualityModel q;
  const TileGrid grid(3, 8, 960, 1920);
  const GeometricMode mode(1.4);
  for (int rj = 0; rj < grid.rows(); ++rj) {
    for (int ri = 0; ri < grid.cols(); ++ri) {
      const CompressionMatrix m = mode.matrix_for(grid, {ri, rj});
      for (double bpp : {0.06, 0.002}) {
        const double ref = reference_roi_region_psnr(q, grid, m, {ri, rj}, bpp);
        const double got = roi_region_psnr(q, grid, m, {ri, rj}, bpp);
        ASSERT_NEAR(got, ref, kUlpSlack)
            << "(" << ri << "," << rj << ") bpp " << bpp;
      }
    }
  }
}

/// A non-default QualityModel must rebuild the frozen ring sidecar rather
/// than serve factors for stale (db_per_octave, floor_db) parameters.
TEST(RoiPsnrDifferential, SidecarRebuildsOnModelChange) {
  QualityModel q;
  const TileGrid grid = TileGrid::paper_default();
  const GeometricMode mode(1.5);
  const CompressionMatrix m = mode.matrix_for(grid, {6, 4});
  const double before = roi_region_psnr(q, grid, m, {6, 4}, 0.06);
  EXPECT_NEAR(before, reference_roi_region_psnr(q, grid, m, {6, 4}, 0.06),
              kUlpSlack);
  q.downsample_db_per_octave = 5.0;
  q.floor_db = 14.0;
  const double after = roi_region_psnr(q, grid, m, {6, 4}, 0.06);
  EXPECT_NEAR(after, reference_roi_region_psnr(q, grid, m, {6, 4}, 0.06),
              kUlpSlack);
  EXPECT_NE(before, after);
}

/// Golden spot checks: values captured from the pre-change implementation
/// at HEAD, so the suite also guards against a future edit that changes the
/// reference and the production path in lockstep.
TEST(RoiPsnrDifferential, GoldenSpotChecks) {
  const QualityModel q;
  const TileGrid grid = TileGrid::paper_default();
  const ModeTable table(8, 1.8, 1.1);
  struct Golden {
    int mode;
    TileIndex matrix_center;
    TileIndex eval_center;
    double bpp;
    double psnr;
  };
  const Golden golden[] = {
      {1, {6, 4}, {6, 4}, 0.06, 33.214978545369036},
      {3, {6, 4}, {8, 4}, 0.06, 30.824291763229699},
      {8, {0, 0}, {11, 7}, 0.03, 27.491325742666774},
      {5, {3, 2}, {3, 0}, 0.002, 10.0},  // fully floor-clamped region
      {2, {10, 7}, {0, 7}, 0.12, 35.711349693882035},
  };
  for (const Golden& g : golden) {
    const CompressionMatrix m =
        table.mode(g.mode).matrix_for(grid, g.matrix_center);
    EXPECT_NEAR(roi_region_psnr(q, grid, m, g.eval_center, g.bpp), g.psnr,
                1e-9)
        << "mode " << g.mode;
  }
}

// --------------------------------------------------------- ring geometry --

TEST(RingGeometry, InteriorAndPoleRingCounts) {
  const TileGrid grid = TileGrid::paper_default();
  const auto tables = TileGridTables::shared_for(grid);
  const int interior = grid.flat({6, 4});
  EXPECT_EQ(tables->ring_count(interior, 0), 1);
  EXPECT_EQ(tables->ring_count(interior, 1), 8);
  EXPECT_EQ(tables->ring_count(interior, 2), 16);
  // Top-row center: dj < 0 rows are clipped away, shrinking rings 1 and 2.
  const int pole = grid.flat({6, 0});
  EXPECT_EQ(tables->ring_count(pole, 0), 1);
  EXPECT_EQ(tables->ring_count(pole, 1), 5);
  EXPECT_EQ(tables->ring_count(pole, 2), 9);
}

TEST(RingGeometry, SharedForMemoizesPerShape) {
  const TileGrid a = TileGrid::paper_default();
  const TileGrid b(12, 8, 1920, 960);  // same shape, different pixels
  const TileGrid c(6, 4, 3840, 1920);
  EXPECT_EQ(TileGridTables::shared_for(a).get(),
            TileGridTables::shared_for(b).get());
  EXPECT_NE(TileGridTables::shared_for(a).get(),
            TileGridTables::shared_for(c).get());
}

/// Weight renormalization at grid edges: on a uniform matrix every tile has
/// the same PSNR, so the region PSNR must equal the tile PSNR no matter how
/// many ring tiles the pitch poles clip away — the ring weights cancel only
/// if each surviving ring is still divided by its *clipped* count.
TEST(RingGeometry, EdgeRenormalizationKeepsUniformFrameExact) {
  const QualityModel q;
  const TileGrid grid = TileGrid::paper_default();
  const CompressionMatrix uniform(grid.cols(), grid.rows(), 1.0);
  const double tile = q.tile_psnr(0.06, 1.0);
  for (TileIndex center :
       {TileIndex{0, 0}, TileIndex{6, 0}, TileIndex{11, 7}, TileIndex{0, 4},
        TileIndex{6, 7}}) {
    EXPECT_NEAR(roi_region_psnr(q, grid, uniform, center, 0.06), tile, 1e-9)
        << "(" << center.i << "," << center.j << ")";
  }
}

}  // namespace
}  // namespace poi360::video

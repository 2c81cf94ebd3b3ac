#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "poi360/baseline/conduit.h"
#include "poi360/baseline/pyramid.h"
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
            const int c = grid.flat(eval);
            const auto& pr = cached->psnr_rings(grid, q, c);
            const double enc_mse = std::pow(10.0, -q.encode_psnr(bpp) / 10.0);
            for (int ring = 0; ring < TileGridTables::kRings; ++ring) {
              const int n = pr.tables->ring_count(c, ring);
              if (n == 0) continue;
              if (enc_mse * pr.at(c).max[ring] <= pr.floor_mse) {
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

// ------------------------------------------------- shared mode tables --

/// The modes a session registers: the adaptive table's K plus both
/// baselines, under their session mode ids.
struct SessionModes {
  ModeTable table{8, 1.8, 1.1};
  baseline::ConduitMode conduit{1, 256.0};
  baseline::PyramidMode pyramid{1.3, 64.0};

  std::vector<ModeTables::ModeSpec> specs() const {
    std::vector<ModeTables::ModeSpec> modes;
    for (int m = 1; m <= table.size(); ++m) modes.push_back({m, &table.mode(m)});
    modes.push_back({baseline::ConduitMode::kModeId, &conduit});
    modes.push_back({baseline::PyramidMode::kModeId, &pyramid});
    return modes;
  }
};

constexpr ModeTables::FloorInputs kFloor{0.018, 36};

/// Ring sums and maxima of the per-tile factors of `m` around `centre`,
/// straight from the levels: a pow per tile, in the ring walk's order.
CompressionMatrix::RingStats direct_ring_stats(const QualityModel& q,
                                               const TileGrid& grid,
                                               const CompressionMatrix& m,
                                               int centre) {
  const auto tables = TileGridTables::shared_for(grid);
  CompressionMatrix::RingStats stats{};
  for (int ring = 0; ring < TileGridTables::kRings; ++ring) {
    const std::int32_t* idx = tables->ring_tiles(centre, ring);
    double sum = 0.0;
    double mx = 0.0;
    for (int k = 0; k < tables->ring_count(centre, ring); ++k) {
      const TileIndex t{idx[k] % grid.cols(), idx[k] / grid.cols()};
      const double f =
          std::pow(10.0, q.downsample_db_per_octave * std::log2(m.at(t)) / 10.0);
      sum += f;
      mx = std::max(mx, f);
    }
    stats.sum[ring] = sum;
    stats.max[ring] = mx;
  }
  return stats;
}

/// Every registered mode × every ROI × every display centre, on the paper
/// grid and on an odd-width grid, in the clamp-free, mixed and
/// floor-clamped regimes: a matrix materialized over shared ModeTables
/// (levels, min_level, effective_tiles, the gathered PSNR factors, the
/// centre's ring stats and roi_region_psnr) equals the uncached reference
/// — CompressionMode::matrix_for evaluated by roi_region_psnr, whose
/// sidecar takes a pow per tile — bit for bit. Both ring branches are
/// required to occur.
TEST(SharedModeTables, EveryModeRoiAndCentreMatchesUncachedBitwise) {
  const QualityModel q;
  const SessionModes session;
  for (const TileGrid& grid :
       {TileGrid::paper_default(), TileGrid(7, 5, 1400, 1000)}) {
    const auto tables = std::make_shared<const ModeTables>(grid, q, kFloor,
                                                           session.specs());
    const ModeMatrixCache cache(tables);
    int unclamped_rings = 0;
    int clamped_rings = 0;
    for (const ModeTables::ModeSpec& spec : session.specs()) {
      for (int r = 0; r < grid.tile_count(); ++r) {
        const TileIndex roi{r % grid.cols(), r / grid.cols()};
        const auto shared = cache.matrix(spec.id, roi);
        const CompressionMatrix direct = spec.mode->matrix_for(grid, roi);
        ASSERT_EQ(shared->min_level(), direct.min_level());
        ASSERT_EQ(shared->effective_tiles(), direct.effective_tiles());
        for (int t = 0; t < grid.tile_count(); ++t) {
          const TileIndex tile{t % grid.cols(), t / grid.cols()};
          ASSERT_EQ(shared->at(tile), direct.at(tile));
        }
        for (int c = 0; c < grid.tile_count(); ++c) {
          const TileIndex centre{c % grid.cols(), c / grid.cols()};
          for (double bpp : {0.06, 0.01, 0.002}) {
            ASSERT_EQ(roi_region_psnr(q, grid, *shared, centre, bpp),
                      roi_region_psnr(q, grid, direct, centre, bpp))
                << "mode " << spec.id << " roi " << r << " centre " << c
                << " bpp " << bpp;
            const double enc_mse =
                std::pow(10.0, -q.encode_psnr(bpp) / 10.0);
            const auto& pr = shared->psnr_rings(grid, q, c);
            for (int ring = 0; ring < TileGridTables::kRings; ++ring) {
              if (pr.tables->ring_count(c, ring) == 0) continue;
              if (enc_mse * pr.at(c).max[ring] <= pr.floor_mse) {
                ++unclamped_rings;
              } else {
                ++clamped_rings;
              }
            }
          }
          const auto& got = shared->psnr_rings(grid, q, c);
          const auto& ref = direct.psnr_rings(grid, q, c);
          const CompressionMatrix::RingStats want =
              direct_ring_stats(q, grid, direct, c);
          for (int ring = 0; ring < TileGridTables::kRings; ++ring) {
            ASSERT_EQ(got.at(c).sum[ring], want.sum[ring]);
            ASSERT_EQ(got.at(c).max[ring], want.max[ring]);
            ASSERT_EQ(ref.at(c).sum[ring], want.sum[ring]);
            ASSERT_EQ(ref.at(c).max[ring], want.max[ring]);
          }
        }
        const auto& got = shared->psnr_rings(grid, q, 0);
        const auto& ref = direct.psnr_rings(grid, q, 0);
        ASSERT_EQ(got.floor_mse, ref.floor_mse);
        ASSERT_EQ(got.mse_factors, ref.mse_factors);
      }
    }
    EXPECT_GT(unclamped_rings, 0) << grid.cols() << "x" << grid.rows();
    EXPECT_GT(clamped_rings, 0) << grid.cols() << "x" << grid.rows();
  }
}

/// The shared floor rates are what the session used to compute from the
/// centre matrix: floor_bpp × effective_tiles × tile pixels × fps.
TEST(SharedModeTables, FloorRatesMatchTheCentreMatrix) {
  const QualityModel q;
  const SessionModes session;
  for (const TileGrid& grid :
       {TileGrid::paper_default(), TileGrid(7, 5, 1400, 1000)}) {
    const ModeTables tables(grid, q, kFloor, session.specs());
    const TileIndex centre{grid.cols() / 2, grid.rows() / 2};
    for (const ModeTables::ModeSpec& spec : session.specs()) {
      const CompressionMatrix m = spec.mode->matrix_for(grid, centre);
      EXPECT_EQ(tables.floor_rate(spec.id),
                kFloor.floor_bpp * m.effective_tiles() *
                    static_cast<double>(grid.tile_pixels()) * kFloor.fps)
          << "mode " << spec.id;
    }
    EXPECT_THROW(tables.floor_rate(9), std::out_of_range);
  }
}

/// The registry shares tables only between exactly equal configurations:
/// a change to any mode parameter, the quality-model fields or the floor
/// inputs gets its own tables, whose LUTs reflect the change. Names play
/// no part: Conduit's and Pyramid's carry no parameters.
TEST(SharedModeTables, RegistryKeysOnEveryParameter) {
  const TileGrid grid = TileGrid::paper_default();
  const QualityModel q;
  const SessionModes session;
  const auto base = ModeTables::shared_for(grid, q, kFloor, session.specs());
  EXPECT_EQ(base, ModeTables::shared_for(grid, q, kFloor, session.specs()));

  SessionModes wide = session;
  wide.conduit = baseline::ConduitMode(2, 256.0);
  const auto conduit2 = ModeTables::shared_for(grid, q, kFloor, wide.specs());
  EXPECT_NE(base, conduit2);
  EXPECT_NE(base->floor_rate(baseline::ConduitMode::kModeId),
            conduit2->floor_rate(baseline::ConduitMode::kModeId));

  SessionModes steep = session;
  steep.pyramid = baseline::PyramidMode(1.4, 64.0);
  const auto pyramid14 = ModeTables::shared_for(grid, q, kFloor, steep.specs());
  EXPECT_NE(base, pyramid14);
  EXPECT_NE(base->modes().back().level, pyramid14->modes().back().level);

  QualityModel floor14 = q;
  floor14.floor_db = 14.0;
  const auto f14 = ModeTables::shared_for(grid, floor14, kFloor,
                                          session.specs());
  EXPECT_NE(base, f14);
  EXPECT_NE(base->floor_mse(), f14->floor_mse());

  QualityModel db5 = q;
  db5.downsample_db_per_octave = 5.0;
  EXPECT_NE(base, ModeTables::shared_for(grid, db5, kFloor, session.specs()));
  EXPECT_NE(base, ModeTables::shared_for(grid, q, {0.02, 36}, session.specs()));
  EXPECT_NE(base, ModeTables::shared_for(grid, q, {0.018, 30}, session.specs()));
  EXPECT_NE(base, ModeTables::shared_for(TileGrid(12, 8, 1920, 960), q, kFloor,
                                         session.specs()));

  // The same modes under other ids, or fewer of them, are another set.
  std::vector<ModeTables::ModeSpec> renumbered = session.specs();
  renumbered.front().id = 42;
  EXPECT_NE(base, ModeTables::shared_for(grid, q, kFloor, renumbered));
  std::vector<ModeTables::ModeSpec> fewer = session.specs();
  fewer.pop_back();
  EXPECT_NE(base, ModeTables::shared_for(grid, q, kFloor, fewer));

  // Equal parameters from distinct objects share.
  const SessionModes again;
  EXPECT_EQ(base, ModeTables::shared_for(grid, q, kFloor, again.specs()));
}

/// A shared-table matrix evaluated under another QualityModel rebuilds its
/// sidecar instead of serving the tables' factors.
TEST(SharedModeTables, OtherModelRebuildsTheSidecar) {
  const TileGrid grid = TileGrid::paper_default();
  const QualityModel q;
  const SessionModes session;
  const ModeMatrixCache cache(
      ModeTables::shared_for(grid, q, kFloor, session.specs()));
  QualityModel other = q;
  other.downsample_db_per_octave = 5.0;
  other.floor_db = 14.0;
  const auto shared = cache.matrix(3, {6, 4});
  const CompressionMatrix direct = session.table.mode(3).matrix_for(grid, {6, 4});
  for (const QualityModel& model : {q, other, q}) {
    EXPECT_EQ(roi_region_psnr(model, grid, *shared, {7, 4}, 0.03),
              roi_region_psnr(model, grid, direct, {7, 4}, 0.03));
  }
}

}  // namespace
}  // namespace poi360::video

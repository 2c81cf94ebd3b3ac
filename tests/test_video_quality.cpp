#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "poi360/video/compression.h"
#include "poi360/video/quality.h"
#include "poi360/video/tile_grid.h"

namespace poi360::video {
namespace {

TEST(Mos, Table1Boundaries) {
  EXPECT_EQ(mos_from_psnr(37.01), Mos::kExcellent);
  EXPECT_EQ(mos_from_psnr(37.0), Mos::kGood);
  EXPECT_EQ(mos_from_psnr(31.01), Mos::kGood);
  EXPECT_EQ(mos_from_psnr(31.0), Mos::kFair);
  EXPECT_EQ(mos_from_psnr(25.01), Mos::kFair);
  EXPECT_EQ(mos_from_psnr(25.0), Mos::kPoor);
  EXPECT_EQ(mos_from_psnr(20.01), Mos::kPoor);
  EXPECT_EQ(mos_from_psnr(20.0), Mos::kBad);
  EXPECT_EQ(mos_from_psnr(0.0), Mos::kBad);
}

TEST(Mos, ToString) {
  EXPECT_EQ(to_string(Mos::kBad), "Bad");
  EXPECT_EQ(to_string(Mos::kPoor), "Poor");
  EXPECT_EQ(to_string(Mos::kFair), "Fair");
  EXPECT_EQ(to_string(Mos::kGood), "Good");
  EXPECT_EQ(to_string(Mos::kExcellent), "Excellent");
}

TEST(QualityModel, EncodePsnrLogLinear) {
  const QualityModel q;
  const double at_ref = q.encode_psnr(q.enc_ref_bpp);
  EXPECT_DOUBLE_EQ(at_ref, q.enc_ref_psnr_db);
  // One octave more bits buys `enc_slope_db_per_octave` dB.
  EXPECT_NEAR(q.encode_psnr(2.0 * q.enc_ref_bpp),
              q.enc_ref_psnr_db + q.enc_slope_db_per_octave, 1e-9);
  EXPECT_NEAR(q.encode_psnr(0.5 * q.enc_ref_bpp),
              q.enc_ref_psnr_db - q.enc_slope_db_per_octave, 1e-9);
}

TEST(QualityModel, EncodePsnrClampsToCeilingAndFloor) {
  const QualityModel q;
  EXPECT_DOUBLE_EQ(q.encode_psnr(100.0), q.ceiling_db);
  EXPECT_DOUBLE_EQ(q.encode_psnr(1e-9), q.floor_db);
  EXPECT_DOUBLE_EQ(q.encode_psnr(0.0), q.floor_db);
  EXPECT_DOUBLE_EQ(q.encode_psnr(-1.0), q.floor_db);
}

TEST(QualityModel, TilePsnrPenalizesDownsampling) {
  const QualityModel q;
  const double base = q.tile_psnr(q.enc_ref_bpp, 1.0);
  EXPECT_DOUBLE_EQ(base, q.enc_ref_psnr_db);
  // Each doubling of the compression level costs the configured penalty.
  EXPECT_NEAR(q.tile_psnr(q.enc_ref_bpp, 2.0),
              base - q.downsample_db_per_octave, 1e-9);
  EXPECT_NEAR(q.tile_psnr(q.enc_ref_bpp, 4.0),
              base - 2.0 * q.downsample_db_per_octave, 1e-9);
}

TEST(QualityModel, TilePsnrNeverBelowFloor) {
  const QualityModel q;
  EXPECT_DOUBLE_EQ(q.tile_psnr(0.001, 256.0), q.floor_db);
}

TEST(QualityModel, TilePsnrRejectsInvalidLevel) {
  const QualityModel q;
  EXPECT_THROW(q.tile_psnr(0.05, 0.9), std::invalid_argument);
}

TEST(RoiRegionPsnr, UniformFrameMatchesTilePsnr) {
  const QualityModel q;
  const TileGrid grid = TileGrid::paper_default();
  const CompressionMatrix uniform(grid.cols(), grid.rows(), 1.0);
  const double region = roi_region_psnr(q, grid, uniform, {6, 4}, 0.06);
  EXPECT_NEAR(region, q.tile_psnr(0.06, 1.0), 1e-9);
}

TEST(RoiRegionPsnr, BadPeripheryDragsRegionDown) {
  const QualityModel q;
  const TileGrid grid = TileGrid::paper_default();
  // Degrade everything outside the immediate 3x3 window (Conduit-like).
  std::vector<double> levels;
  for (int j = 0; j < grid.rows(); ++j) {
    for (int i = 0; i < grid.cols(); ++i) {
      const bool far = grid.dx(i, 6) > 1 || grid.dy(j, 4) > 1;
      levels.push_back(far ? 256.0 : 1.0);
    }
  }
  const CompressionMatrix m(grid.cols(), grid.rows(), std::move(levels));
  const double crisp = q.tile_psnr(0.06, 1.0);
  const double region = roi_region_psnr(q, grid, m, {6, 4}, 0.06);
  EXPECT_LT(region, crisp);          // ring 2 is visible
  EXPECT_GT(region, crisp - 16.0);   // but the fovea dominates
}

TEST(RoiRegionPsnr, CenteredBeatsOffCenter) {
  const QualityModel q;
  const TileGrid grid = TileGrid::paper_default();
  const GeometricMode mode(1.5);
  const auto m = mode.matrix_for(grid, {6, 4});
  const double centered = roi_region_psnr(q, grid, m, {6, 4}, 0.06);
  const double off1 = roi_region_psnr(q, grid, m, {8, 4}, 0.06);
  const double off2 = roi_region_psnr(q, grid, m, {10, 4}, 0.06);
  EXPECT_GT(centered, off1);
  EXPECT_GT(off1, off2);
}

TEST(RoiRegionPsnr, HandlesPoleRows) {
  const QualityModel q;
  const TileGrid grid = TileGrid::paper_default();
  const GeometricMode mode(1.5);
  const auto m = mode.matrix_for(grid, {6, 0});
  // Center on the top row: rings are clipped but the result stays finite
  // and sane.
  const double region = roi_region_psnr(q, grid, m, {6, 0}, 0.06);
  EXPECT_GT(region, q.floor_db);
  EXPECT_LE(region, q.ceiling_db);
}

// Property: region PSNR is monotone in bpp for a fixed matrix and ROI.
class RegionPsnrBpp : public ::testing::TestWithParam<double> {};

TEST_P(RegionPsnrBpp, MonotoneInBpp) {
  const QualityModel q;
  const TileGrid grid = TileGrid::paper_default();
  const GeometricMode mode(1.4);
  const auto m = mode.matrix_for(grid, {3, 3});
  const double bpp = GetParam();
  const double lo = roi_region_psnr(q, grid, m, {3, 3}, bpp);
  const double hi = roi_region_psnr(q, grid, m, {3, 3}, bpp * 1.5);
  EXPECT_LE(lo, hi + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(BppSweep, RegionPsnrBpp,
                         ::testing::Values(0.005, 0.01, 0.02, 0.04, 0.08,
                                           0.16));

}  // namespace
}  // namespace poi360::video

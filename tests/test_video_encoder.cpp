#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>

#include "poi360/video/encoder.h"

namespace poi360::video {
namespace {

EncoderConfig no_refresh_config() {
  EncoderConfig c;
  c.refresh_intra_factor = 0.0;  // isolate the rate-control behaviour
  return c;
}

std::shared_ptr<const CompressionMatrix> shared_matrix(
    const CompressionMode& mode, const TileGrid& grid, TileIndex roi) {
  return std::make_shared<const CompressionMatrix>(
      mode.matrix_for(grid, roi));
}

TEST(Encoder, FrameIntervalFromFps) {
  PanoramicEncoder enc(TileGrid::paper_default(), {});
  EXPECT_EQ(enc.frame_interval(), kSecond / 36);
}

TEST(Encoder, InvalidConfigThrows) {
  EncoderConfig bad;
  bad.fps = 0;
  EXPECT_THROW(PanoramicEncoder(TileGrid::paper_default(), bad),
               std::invalid_argument);
  bad = EncoderConfig{};
  bad.saturation_bpp = 0.0;
  EXPECT_THROW(PanoramicEncoder(TileGrid::paper_default(), bad),
               std::invalid_argument);
}

TEST(Encoder, MismatchedMatrixThrows) {
  PanoramicEncoder enc(TileGrid::paper_default(), no_refresh_config());
  const auto wrong = std::make_shared<const CompressionMatrix>(4, 4);
  EXPECT_THROW(enc.encode(0, {0, 0}, 1, wrong, mbps(3)),
               std::invalid_argument);
  EXPECT_THROW(enc.encode(0, {0, 0}, 1, nullptr, mbps(3)),
               std::invalid_argument);
}

TEST(Encoder, TargetRateSplitsAcrossFrames) {
  const TileGrid grid = TileGrid::paper_default();
  auto config = no_refresh_config();
  PanoramicEncoder enc(grid, config);
  const GeometricMode mode(1.5);
  const auto m = shared_matrix(mode, grid, {6, 4});
  const Bitrate rv = mbps(3);
  const auto frame = enc.encode(0, {6, 4}, 1, m, rv);
  const double expected_bits = config.utilization * rv / config.fps;
  EXPECT_NEAR(static_cast<double>(frame.bytes - config.overhead_bytes) * 8.0,
              expected_bits, expected_bits * 0.01);
  EXPECT_GT(frame.bpp, 0.0);
}

TEST(Encoder, SaturationCapsAggressiveCanvases) {
  const TileGrid grid = TileGrid::paper_default();
  auto config = no_refresh_config();
  PanoramicEncoder enc(grid, config);
  const GeometricMode mode(1.8);  // few effective pixels
  const auto m = shared_matrix(mode, grid, {6, 4});
  const auto frame = enc.encode(0, {6, 4}, 1, m, mbps(50));
  const double max_bits =
      config.saturation_bpp * m->effective_tiles() * grid.tile_pixels();
  EXPECT_NEAR(static_cast<double>(frame.bytes - config.overhead_bytes) * 8.0,
              max_bits, max_bits * 0.01);
  EXPECT_NEAR(frame.bpp, config.saturation_bpp, 1e-9);
}

TEST(Encoder, QualityFloorForcesMinimumBits) {
  const TileGrid grid = TileGrid::paper_default();
  auto config = no_refresh_config();
  PanoramicEncoder enc(grid, config);
  const GeometricMode mode(1.1);  // many effective pixels
  const auto m = shared_matrix(mode, grid, {6, 4});
  const auto frame = enc.encode(0, {6, 4}, 8, m, kbps(100));
  const double min_bits =
      config.floor_bpp * m->effective_tiles() * grid.tile_pixels();
  EXPECT_NEAR(static_cast<double>(frame.bytes - config.overhead_bytes) * 8.0,
              min_bits, min_bits * 0.01);
}

TEST(Encoder, FrameIdsIncrement) {
  const TileGrid grid = TileGrid::paper_default();
  PanoramicEncoder enc(grid, no_refresh_config());
  const GeometricMode mode(1.5);
  const auto m = shared_matrix(mode, grid, {6, 4});
  const auto a = enc.encode(0, {6, 4}, 1, m, mbps(3));
  const auto b = enc.encode(msec(28), {6, 4}, 1, m, mbps(3));
  EXPECT_EQ(a.id + 1, b.id);
  EXPECT_EQ(b.capture_time, msec(28));
}

TEST(Encoder, MetadataCarried) {
  const TileGrid grid = TileGrid::paper_default();
  PanoramicEncoder enc(grid, no_refresh_config());
  const GeometricMode mode(1.5);
  const auto m = shared_matrix(mode, grid, {2, 5});
  const auto frame = enc.encode(sec(1), {2, 5}, 7, m, mbps(2));
  EXPECT_EQ(frame.sender_roi, (TileIndex{2, 5}));
  EXPECT_EQ(frame.mode_id, 7);
  EXPECT_DOUBLE_EQ(frame.levels->at({2, 5}), 1.0);
}

TEST(Encoder, RefreshCostOnRoiMove) {
  const TileGrid grid = TileGrid::paper_default();
  EncoderConfig config;  // default refresh factor
  PanoramicEncoder enc(grid, config);
  const GeometricMode mode(1.5);
  const auto m1 = shared_matrix(mode, grid, {6, 4});
  const auto m2 = shared_matrix(mode, grid, {7, 4});

  (void)enc.encode(0, {6, 4}, 1, m1, mbps(3));
  const auto steady = enc.encode(msec(28), {6, 4}, 1, m1, mbps(3));
  const auto moved = enc.encode(msec(56), {7, 4}, 1, m2, mbps(3));
  // A steady matrix pays no refresh; a moved ROI pays for the tiles whose
  // resolution improved.
  EXPECT_GT(moved.bytes, steady.bytes);
}

TEST(Encoder, RefreshCostZeroWhenDisabled) {
  const TileGrid grid = TileGrid::paper_default();
  PanoramicEncoder enc(grid, no_refresh_config());
  const GeometricMode mode(1.5);
  const auto m1 = shared_matrix(mode, grid, {6, 4});
  const auto m2 = shared_matrix(mode, grid, {7, 4});
  (void)enc.encode(0, {6, 4}, 1, m1, mbps(3));
  const auto a = enc.encode(msec(28), {6, 4}, 1, m1, mbps(3));
  const auto b = enc.encode(msec(56), {7, 4}, 1, m2, mbps(3));
  EXPECT_EQ(a.bytes, b.bytes);
}

/// The frame size as the encoder computed it before frozen inverse levels:
/// the intra-refresh scan divides both levels of every tile, row-major.
std::int64_t reference_frame_bytes(const EncoderConfig& config,
                                   const TileGrid& grid,
                                   const CompressionMatrix& cur,
                                   const CompressionMatrix& prev, Bitrate rv) {
  const double tile_pixels = static_cast<double>(grid.tile_pixels());
  const double effective_pixels = cur.effective_tiles() * tile_pixels;
  const double target_bits =
      std::max(0.0, config.utilization * rv / config.fps);
  const double bits =
      std::clamp(target_bits, config.floor_bpp * effective_pixels,
                 config.saturation_bpp * effective_pixels);
  const double bpp = effective_pixels > 0.0 ? bits / effective_pixels : 0.0;
  double upgraded_tiles = 0.0;
  for (int j = 0; j < cur.rows(); ++j) {
    for (int i = 0; i < cur.cols(); ++i) {
      const double gain = 1.0 / cur.at({i, j}) - 1.0 / prev.at({i, j});
      if (gain > 0.0) upgraded_tiles += gain;
    }
  }
  const double refresh_bits =
      config.refresh_intra_factor * bpp * upgraded_tiles * tile_pixels;
  return static_cast<std::int64_t>((bits + refresh_bits) / 8.0) +
         config.overhead_bytes;
}

/// Every ordered pair of cached matrices across the 8 modes whose ROIs are
/// equal or neighbours (Chebyshev distance 1, yaw wrapping): the frame
/// encoded after the first must cost exactly the reference bytes. The
/// equal pairs also pin the pointer-equality skip to a zero-gain scan.
TEST(Encoder, RefreshBytesMatchTwoDivideReferenceBitwise) {
  const TileGrid grid = TileGrid::paper_default();
  const ModeTable table(8, 1.8, 1.1);
  ModeMatrixCache cache(grid);
  for (int m = 1; m <= table.size(); ++m) cache.add_mode(m, table.mode(m));
  const EncoderConfig config;
  PanoramicEncoder enc(grid, config);
  const Bitrate rv = mbps(3);
  int pairs = 0;
  for (int rj = 0; rj < grid.rows(); ++rj) {
    for (int ri = 0; ri < grid.cols(); ++ri) {
      for (int dj = -1; dj <= 1; ++dj) {
        const int nj = rj + dj;
        if (nj < 0 || nj >= grid.rows()) continue;
        for (int di = -1; di <= 1; ++di) {
          const int ni = (ri + di + grid.cols()) % grid.cols();
          for (int ma = 1; ma <= table.size(); ++ma) {
            const auto prev = cache.matrix(ma, {ri, rj});
            for (int mb = 1; mb <= table.size(); ++mb) {
              const auto cur = cache.matrix(mb, {ni, nj});
              (void)enc.encode(0, {ri, rj}, ma, prev, rv);
              const EncodedFrame f = enc.encode(0, {ni, nj}, mb, cur, rv);
              ASSERT_EQ(f.bytes,
                        reference_frame_bytes(config, grid, *cur, *prev, rv))
                  << "mode " << ma << " (" << ri << "," << rj << ") -> mode "
                  << mb << " (" << ni << "," << nj << ")";
              ++pairs;
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(pairs, 64 * (12 * 8 * 9 - 12 * 2 * 3));
}

// Property: bytes are monotone (non-decreasing) in the target rate.
class EncoderRateSweep : public ::testing::TestWithParam<double> {};

TEST_P(EncoderRateSweep, BytesMonotoneInRate) {
  const TileGrid grid = TileGrid::paper_default();
  PanoramicEncoder enc(grid, no_refresh_config());
  const GeometricMode mode(1.4);
  const auto m = shared_matrix(mode, grid, {6, 4});
  const double r = GetParam();
  const auto lo = enc.encode(0, {6, 4}, 1, m, mbps(r));
  const auto hi = enc.encode(1, {6, 4}, 1, m, mbps(r * 1.3));
  EXPECT_LE(lo.bytes, hi.bytes);
  EXPECT_LE(lo.bpp, hi.bpp + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Rates, EncoderRateSweep,
                         ::testing::Values(0.3, 0.8, 1.5, 2.5, 4.0, 8.0,
                                           20.0));

}  // namespace
}  // namespace poi360::video

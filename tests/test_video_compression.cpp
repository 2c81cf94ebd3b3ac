#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "poi360/baseline/conduit.h"
#include "poi360/baseline/pyramid.h"
#include "poi360/video/compression.h"

namespace poi360::video {
namespace {

// A matrix is built whole and never mutated: shared matrices are immutable
// by type, not by a runtime check.
template <typename M>
concept MutableLevels = requires(M& m) { m.set(TileIndex{}, 1.0); };
static_assert(!MutableLevels<CompressionMatrix>);
static_assert(
    std::is_same_v<decltype(std::declval<const ModeMatrixCache&>().matrix(
                       0, TileIndex{})),
                   std::shared_ptr<const CompressionMatrix>>);

TEST(CompressionMatrix, InitializesUniform) {
  CompressionMatrix m(12, 8, 2.0);
  EXPECT_EQ(m.cols(), 12);
  EXPECT_EQ(m.rows(), 8);
  EXPECT_DOUBLE_EQ(m.at({0, 0}), 2.0);
  EXPECT_DOUBLE_EQ(m.at({11, 7}), 2.0);
  EXPECT_DOUBLE_EQ(m.min_level(), 2.0);
  EXPECT_NEAR(m.effective_tiles(), 96 / 2.0, 1e-9);
}

TEST(CompressionMatrix, SetAndGet) {
  std::vector<double> levels(16, 1.0);
  levels[3 * 4 + 2] = 8.0;  // tile (2, 3), row-major
  const CompressionMatrix m(4, 4, std::move(levels));
  EXPECT_DOUBLE_EQ(m.at({2, 3}), 8.0);
  EXPECT_DOUBLE_EQ(m.at({3, 2}), 1.0);
  EXPECT_DOUBLE_EQ(m.min_level(), 1.0);
  EXPECT_DOUBLE_EQ(m.effective_tiles(), 15.125);
}

TEST(CompressionMatrix, OutOfRangeThrows) {
  CompressionMatrix m(4, 4);
  EXPECT_THROW(m.at({4, 0}), std::out_of_range);
  EXPECT_THROW(m.at({0, -1}), std::out_of_range);
  EXPECT_THROW(m.at({0, 4}), std::out_of_range);
}

TEST(CompressionMatrix, BadConstructionThrows) {
  EXPECT_THROW(CompressionMatrix(0, 4), std::invalid_argument);
  EXPECT_THROW(CompressionMatrix(4, 4, 0.5), std::invalid_argument);
  EXPECT_THROW(CompressionMatrix(-1, 4), std::invalid_argument);
}

TEST(GeometricMode, FollowsEquationOne) {
  const GeometricMode mode(1.5, 1e9);
  EXPECT_DOUBLE_EQ(mode.level(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(mode.level(1, 0), 1.5);
  EXPECT_DOUBLE_EQ(mode.level(0, 1), 1.5);
  EXPECT_DOUBLE_EQ(mode.level(2, 1), std::pow(1.5, 3));
  EXPECT_DOUBLE_EQ(mode.level(3, 4), std::pow(1.5, 7));
}

TEST(GeometricMode, ClampsAtMaxLevel) {
  const GeometricMode mode(1.8, 10.0);
  EXPECT_DOUBLE_EQ(mode.level(6, 4), 10.0);
  EXPECT_LT(mode.level(1, 0), 10.0);
}

TEST(GeometricMode, NegativeDistanceThrows) {
  const GeometricMode mode(1.5);
  EXPECT_THROW(mode.level(-1, 0), std::invalid_argument);
  EXPECT_THROW(mode.level(0, -2), std::invalid_argument);
}

TEST(GeometricMode, InvalidParamsThrow) {
  EXPECT_THROW(GeometricMode(0.9), std::invalid_argument);
  EXPECT_THROW(GeometricMode(1.5, 0.5), std::invalid_argument);
}

TEST(GeometricMode, MatrixCenteredAtRoi) {
  const TileGrid grid = TileGrid::paper_default();
  const GeometricMode mode(1.4);
  const TileIndex roi{3, 2};
  const CompressionMatrix m = mode.matrix_for(grid, roi);
  EXPECT_DOUBLE_EQ(m.at(roi), 1.0);
  EXPECT_DOUBLE_EQ(m.min_level(), 1.0);
  // Neighbors one step away in either axis share the same level.
  EXPECT_DOUBLE_EQ(m.at({4, 2}), 1.4);
  EXPECT_DOUBLE_EQ(m.at({2, 2}), 1.4);
  EXPECT_DOUBLE_EQ(m.at({3, 3}), 1.4);
  // Wrapping: column 3 - 11 has cyclic distance 4.
  EXPECT_DOUBLE_EQ(m.at({11, 2}), std::pow(1.4, 4));
}

TEST(GeometricMode, RoiShiftIsCyclicShiftInX) {
  // Shifting the ROI by one column shifts the matrix columns cyclically —
  // the paper's "cyclic shift based on the shift of ROI center".
  const TileGrid grid = TileGrid::paper_default();
  const GeometricMode mode(1.3);
  const CompressionMatrix a = mode.matrix_for(grid, {5, 4});
  const CompressionMatrix b = mode.matrix_for(grid, {6, 4});
  for (int j = 0; j < grid.rows(); ++j) {
    for (int i = 0; i < grid.cols(); ++i) {
      const int shifted = (i + 1) % grid.cols();
      EXPECT_DOUBLE_EQ(a.at({i, j}), b.at({shifted, j}));
    }
  }
}

TEST(ModeTable, OrderedAggressiveToConservative) {
  const ModeTable table(8, 1.8, 1.1);
  EXPECT_EQ(table.size(), 8);
  EXPECT_DOUBLE_EQ(table.mode(1).c(), 1.8);
  EXPECT_DOUBLE_EQ(table.mode(8).c(), 1.1);
  for (int m = 1; m < 8; ++m) {
    EXPECT_GT(table.mode(m).c(), table.mode(m + 1).c());
  }
}

TEST(ModeTable, PaperCValues) {
  // §4.2: "the constant C ... is selected from [1.1, 1.2, ..., 1.8]".
  const ModeTable table(8, 1.8, 1.1);
  for (int m = 1; m <= 8; ++m) {
    EXPECT_NEAR(table.mode(m).c(), 1.8 - 0.1 * (m - 1), 1e-12);
  }
}

TEST(ModeTable, IndexOutOfRangeThrows) {
  const ModeTable table(8, 1.8, 1.1);
  EXPECT_THROW(table.mode(0), std::out_of_range);
  EXPECT_THROW(table.mode(9), std::out_of_range);
}

TEST(ModeTable, BadConfigThrows) {
  EXPECT_THROW(ModeTable(0, 1.8, 1.1), std::invalid_argument);
  EXPECT_THROW(ModeTable(8, 1.1, 1.8), std::invalid_argument);  // reversed
  EXPECT_THROW(ModeTable(8, 1.8, 0.9), std::invalid_argument);
}

TEST(ModeTable, SingleModeTable) {
  const ModeTable table(1, 1.5, 1.5);
  EXPECT_DOUBLE_EQ(table.mode(1).c(), 1.5);
}

// Property sweep: for every mode and every ROI position, the matrix keeps
// the core invariants of Eq. 1.
struct MatrixCase {
  int mode_index;
  int roi_i;
  int roi_j;
};

class MatrixInvariants : public ::testing::TestWithParam<MatrixCase> {};

TEST_P(MatrixInvariants, MinAtRoiAndMonotoneFalloff) {
  const auto [mi, ri, rj] = GetParam();
  const TileGrid grid = TileGrid::paper_default();
  const ModeTable table(8, 1.8, 1.1);
  const auto& mode = table.mode(mi);
  const CompressionMatrix m = mode.matrix_for(grid, {ri, rj});

  EXPECT_DOUBLE_EQ(m.at({ri, rj}), 1.0);
  double eff = 0.0;
  for (int j = 0; j < grid.rows(); ++j) {
    for (int i = 0; i < grid.cols(); ++i) {
      const double l = m.at({i, j});
      EXPECT_GE(l, 1.0);
      eff += 1.0 / l;
      // Level depends only on the tile distance pair.
      EXPECT_DOUBLE_EQ(l, mode.level(grid.dx(i, ri), grid.dy(j, rj)));
    }
  }
  EXPECT_NEAR(eff, m.effective_tiles(), 1e-9);
  EXPECT_GT(eff, 1.0);
  EXPECT_LE(eff, grid.tile_count());
}

INSTANTIATE_TEST_SUITE_P(
    AllModesVariousRois, MatrixInvariants,
    ::testing::Values(MatrixCase{1, 0, 0}, MatrixCase{1, 6, 4},
                      MatrixCase{2, 11, 7}, MatrixCase{3, 5, 0},
                      MatrixCase{4, 0, 7}, MatrixCase{5, 6, 4},
                      MatrixCase{6, 2, 2}, MatrixCase{7, 9, 6},
                      MatrixCase{8, 6, 4}, MatrixCase{8, 11, 0}));

// The frozen log2 levels feed the PSNR sidecar's per-tile MSE factors; a
// factor built from them must equal one built from std::log2, bit for bit.
TEST(CompressionMatrix, Log2CacheMatchesStdLog2) {
  std::vector<double> levels(16, 1.0);
  levels[1 * 4 + 2] = 5.0;
  levels[3 * 4 + 0] = 64.0;
  const CompressionMatrix m(4, 4, std::move(levels));
  const QualityModel q;
  const TileGrid grid(4, 4, 1920, 960);
  const CompressionMatrix::PsnrRings& pr = m.psnr_rings(grid, q, 0);
  for (int j = 0; j < 4; ++j) {
    for (int i = 0; i < 4; ++i) {
      EXPECT_EQ(pr.mse_factors[static_cast<std::size_t>(j) * 4 + i],
                std::pow(10.0, q.downsample_db_per_octave *
                                   std::log2(m.at({i, j})) / 10.0));
    }
  }
}

TEST(CompressionMatrix, VectorConstructorValidates) {
  EXPECT_NO_THROW(CompressionMatrix(2, 2, std::vector<double>{1, 2, 3, 4}));
  EXPECT_THROW(CompressionMatrix(2, 2, std::vector<double>{1, 2, 3}),
               std::invalid_argument);
  EXPECT_THROW(CompressionMatrix(2, 2, std::vector<double>{1, 2, 3, 0.5}),
               std::invalid_argument);
}

// Golden equivalence: for every mode in the adaptive table and every ROI
// tile on the grid, the cached matrix is bitwise identical to a direct
// (uncached) build — values, min_level, and effective_tiles. EXPECT_EQ on
// doubles is exact comparison, which is the point: the cache must not
// change a single bit.
TEST(ModeMatrixCache, CachedMatchesUncachedBitwiseAllModesAllRois) {
  const TileGrid grid = TileGrid::paper_default();
  const ModeTable table(8, 1.8, 1.1);
  ModeMatrixCache cache(grid);
  for (int m = 1; m <= table.size(); ++m) cache.add_mode(m, table.mode(m));

  for (int m = 1; m <= table.size(); ++m) {
    for (int rj = 0; rj < grid.rows(); ++rj) {
      for (int ri = 0; ri < grid.cols(); ++ri) {
        const CompressionMatrix direct =
            table.mode(m).matrix_for(grid, {ri, rj});
        const auto cached = cache.matrix(m, {ri, rj});
        ASSERT_EQ(cached->min_level(), direct.min_level());
        ASSERT_EQ(cached->effective_tiles(), direct.effective_tiles());
        for (int j = 0; j < grid.rows(); ++j) {
          for (int i = 0; i < grid.cols(); ++i) {
            ASSERT_EQ(cached->at({i, j}), direct.at({i, j}))
                << "mode " << m << " roi (" << ri << "," << rj << ") tile ("
                << i << "," << j << ")";
          }
        }
      }
    }
  }
}

TEST(ModeMatrixCache, CachedMatchesUncachedForBaselines) {
  const TileGrid grid = TileGrid::paper_default();
  const baseline::ConduitMode conduit(1, 256.0);
  const baseline::PyramidMode pyramid(1.3, 64.0);
  ModeMatrixCache cache(grid);
  cache.add_mode(baseline::ConduitMode::kModeId, conduit);
  cache.add_mode(baseline::PyramidMode::kModeId, pyramid);

  for (int rj = 0; rj < grid.rows(); ++rj) {
    for (int ri = 0; ri < grid.cols(); ++ri) {
      const auto c_direct = conduit.matrix_for(grid, {ri, rj});
      const auto p_direct = pyramid.matrix_for(grid, {ri, rj});
      const auto c_cached =
          cache.matrix(baseline::ConduitMode::kModeId, {ri, rj});
      const auto p_cached =
          cache.matrix(baseline::PyramidMode::kModeId, {ri, rj});
      for (int j = 0; j < grid.rows(); ++j) {
        for (int i = 0; i < grid.cols(); ++i) {
          ASSERT_EQ(c_cached->at({i, j}), c_direct.at({i, j}));
          ASSERT_EQ(p_cached->at({i, j}), p_direct.at({i, j}));
        }
      }
    }
  }
}

TEST(ModeMatrixCache, RepeatedLookupsShareOneMatrix) {
  const TileGrid grid = TileGrid::paper_default();
  ModeMatrixCache cache(grid);
  cache.add_mode(1, GeometricMode(1.4));
  const auto a = cache.matrix(1, {6, 4});
  const auto b = cache.matrix(1, {6, 4});
  EXPECT_EQ(a.get(), b.get());  // same immutable object, not a rebuild
  EXPECT_NE(a.get(), cache.matrix(1, {7, 4}).get());
}

TEST(ModeMatrixCache, ModuleEdgeValidation) {
  const TileGrid grid = TileGrid::paper_default();
  ModeMatrixCache cache(grid);
  cache.add_mode(1, GeometricMode(1.4));
  EXPECT_TRUE(cache.has_mode(1));
  EXPECT_FALSE(cache.has_mode(2));
  EXPECT_THROW(cache.matrix(2, {0, 0}), std::out_of_range);
  EXPECT_THROW(cache.matrix(1, {grid.cols(), 0}), std::out_of_range);
  EXPECT_THROW(cache.matrix(1, {0, -1}), std::out_of_range);
}

TEST(CompressionMode, LevelLutCoversDistinctDistances) {
  const TileGrid grid = TileGrid::paper_default();
  const GeometricMode mode(1.5, 1e9);
  const auto lut = mode.level_lut(grid);
  ASSERT_EQ(lut.size(),
            static_cast<std::size_t>(grid.cols() / 2 + 1) * grid.rows());
  for (int dx = 0; dx <= grid.cols() / 2; ++dx) {
    for (int dy = 0; dy < grid.rows(); ++dy) {
      EXPECT_EQ(lut[static_cast<std::size_t>(dx) * grid.rows() + dy],
                mode.level(dx, dy));
    }
  }
}

// Property: more aggressive modes keep fewer effective pixels.
TEST(ModeTable, EffectiveTilesMonotoneInConservativeness) {
  const TileGrid grid = TileGrid::paper_default();
  const ModeTable table(8, 1.8, 1.1);
  double prev = 0.0;
  for (int m = 1; m <= 8; ++m) {
    const double eff =
        table.mode(m).matrix_for(grid, {6, 4}).effective_tiles();
    EXPECT_GT(eff, prev) << "mode " << m;
    prev = eff;
  }
}

}  // namespace
}  // namespace poi360::video

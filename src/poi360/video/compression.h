#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "poi360/video/quality.h"
#include "poi360/video/tile_grid.h"

namespace poi360::video {

/// Per-tile compression levels for one frame: an immutable value.
///
/// The level l_ij is the paper's "ratio of tile size before and after
/// compression" — i.e. the area reduction factor; l = 1 means uncompressed.
/// Every constructor builds the matrix whole and freezes its derived
/// structure-of-arrays data: `log2_levels_` (the quality model's
/// downsampling penalty), `inv_levels_` (1/l, the intra-refresh scan's
/// operand) and the scalar aggregates `min_level()` / `effective_tiles()`.
/// A matrix a session uses is a pure function of (mode, ROI), so it is
/// shared as `std::shared_ptr<const CompressionMatrix>`; the `const` is the
/// whole sharing rule.
///
/// The one lazy piece is the `psnr_rings` sidecar, which depends on the
/// QualityModel as well as the levels (see below).
class CompressionMatrix {
 public:
  /// Uniform matrix: every tile at `initial`.
  CompressionMatrix(int cols, int rows, double initial = 1.0);

  /// Builds from a row-major level vector.
  CompressionMatrix(int cols, int rows, std::vector<double> levels);

  double at(TileIndex t) const { return levels_[index(t)]; }

  int cols() const { return cols_; }
  int rows() const { return rows_; }
  int tile_count() const { return cols_ * rows_; }

  /// Minimum level across all tiles (the ROI center's level by design).
  double min_level() const { return min_level_; }

  /// Sum over tiles of 1/l_ij: the fraction of original pixels that survive
  /// compression, in units of tiles. Drives the encoder's pixel budget.
  double effective_tiles() const { return effective_tiles_; }

  /// Contiguous 1/l_ij, row-major — the encoder's intra-refresh operand.
  const double* inv_levels_data() const { return inv_levels_.data(); }

  /// Per-center ring data for `roi_region_psnr` (quality.cpp): the
  /// per-tile linear-MSE factors `10^(downsample_db_per_octave * log2(l) /
  /// 10)`, and per (center, ring) the factor partial sum and max, making
  /// the steady-state foveated PSNR O(rings) with zero transcendentals.
  /// Built on first use for the (grid, model) pair and memoized; the first
  /// touch must not race (ModeMatrixCache matrices are per-session, as is
  /// everything else that calls this).
  struct PsnrRings {
    bool built = false;
    double db_per_octave = 0.0;
    double floor_db = 0.0;
    double floor_mse = 0.0;  // 10^(-floor_db/10), the per-tile MSE cap
    std::shared_ptr<const TileGridTables> tables;
    std::vector<double> mse_factors;  // per tile, row-major
    std::vector<double> ring_sum;     // [center * 3 + ring]
    std::vector<double> ring_max;     // [center * 3 + ring]
  };
  const PsnrRings& psnr_rings(const TileGrid& grid,
                              const QualityModel& model) const;

 private:
  friend class ModeMatrixCache;

  /// Cache path: adopt pre-gathered derived arrays without rescanning.
  /// The caller guarantees they are exactly what the level-vector
  /// constructor would compute (gathers of per-mode LUTs of the same math).
  CompressionMatrix(int cols, int rows, std::vector<double> levels,
                    std::vector<double> log2_levels,
                    std::vector<double> inv_levels);

  std::size_t index(TileIndex t) const;
  void freeze_scalars();

  int cols_;
  int rows_;
  std::vector<double> levels_;
  std::vector<double> log2_levels_;
  std::vector<double> inv_levels_;
  double min_level_ = 1.0;
  double effective_tiles_ = 0.0;
  mutable PsnrRings psnr_;
};

/// A compression mode F: maps the (cyclic) tile distance from the ROI center
/// to a compression level, l_ij = F(i - i*, j - j*)  (paper Eq. 1).
class CompressionMode {
 public:
  virtual ~CompressionMode() = default;

  /// Level for a tile at column distance dx >= 0 and row distance dy >= 0
  /// from the ROI center. Must return >= 1, and exactly l_min at (0, 0).
  virtual double level(int dx, int dy) const = 0;

  virtual std::string name() const = 0;

  /// Levels for every distinct tile distance on `grid`, laid out as
  /// `lut[dx * rows + dy]` with dx in [0, cols/2] (cyclic column distance)
  /// and dy in [0, rows-1]. One virtual call — and one argument validation,
  /// e.g. GeometricMode's negative-distance throw — per distinct distance,
  /// instead of per tile per frame.
  std::vector<double> level_lut(const TileGrid& grid) const;

  /// Builds the full per-tile matrix for an ROI centered at `roi`.
  /// Goes through the level LUT, so building is a gather.
  CompressionMatrix matrix_for(const TileGrid& grid, TileIndex roi) const;
};

/// Memoized per-(mode, ROI-tile) compression matrices.
///
/// Levels depend only on (mode, dx, dy), so a grid admits exactly
/// `num_modes × cols × rows` distinct matrices per session — yet the hot
/// loop used to rebuild one (96 `std::pow` calls and a heap allocation) for
/// every captured frame. The cache stores each mode's level LUT — and its
/// derived log2/inverse LUTs, so materialization is three contiguous
/// gathers with zero transcendentals — and materializes the (mode, ROI)
/// matrix on first use, shared immutably ever after.
///
/// Not thread-safe: intended as per-session state (BatchRunner sessions
/// each own one), like every other Session member.
class ModeMatrixCache {
 public:
  explicit ModeMatrixCache(const TileGrid& grid);

  /// Registers `mode` under `mode_id`, precomputing its level LUT.
  /// Re-registering an id replaces the entry (and its cached matrices).
  void add_mode(int mode_id, const CompressionMode& mode);

  bool has_mode(int mode_id) const { return modes_.count(mode_id) != 0; }

  /// Shared immutable matrix for (mode, roi). Throws on an unregistered
  /// mode or an out-of-grid roi (module edge; the per-frame path hits the
  /// memoized slot).
  std::shared_ptr<const CompressionMatrix> matrix(int mode_id,
                                                 TileIndex roi) const;

 private:
  struct ModeEntry {
    std::vector<double> lut;       // [dx * rows + dy]
    std::vector<double> log2_lut;  // log2 of each lut entry
    std::vector<double> inv_lut;   // 1 / each lut entry
    // One slot per ROI tile, materialized on first use.
    mutable std::vector<std::shared_ptr<const CompressionMatrix>> matrices;
  };

  TileGrid grid_;
  std::shared_ptr<const TileGridTables> tables_;
  std::unordered_map<int, ModeEntry> modes_;
};

/// The paper's geometric mode family: l_ij = C^(dx + dy)  (Eq. 1), clamped
/// at `max_level` so far-away tiles never degrade below a displayable floor.
class GeometricMode : public CompressionMode {
 public:
  explicit GeometricMode(double c, double max_level = 64.0);

  double level(int dx, int dy) const override;
  std::string name() const override;

  double c() const { return c_; }

 private:
  double c_;
  double max_level_;
};

/// POI360's table of K = 8 geometric modes (§4.2).
///
/// Mode 1 is the most aggressive (sharpest falloff, C = 1.8); mode 8 the most
/// conservative (smoothest falloff, C = 1.1). The paper lists the modes "in
/// the order of decreasing compression aggressiveness" and selects mode
/// ceil(M / 200 ms) capped at 8, so higher ROI-mismatch time M maps to a
/// smoother (more conservative) quality falloff.
class ModeTable {
 public:
  /// K equally spaced C values between c_aggressive and c_conservative.
  ModeTable(int k = 8, double c_aggressive = 1.8, double c_conservative = 1.1,
            double max_level = 64.0);

  int size() const { return static_cast<int>(modes_.size()); }

  /// 1-based mode lookup, matching the paper's F_1..F_K notation.
  const GeometricMode& mode(int index_1based) const;

 private:
  std::vector<GeometricMode> modes_;
};

}  // namespace poi360::video

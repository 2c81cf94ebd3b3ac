#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "poi360/common/units.h"
#include "poi360/video/quality.h"
#include "poi360/video/tile_grid.h"

namespace poi360::video {

/// Per-tile compression levels for one frame: an immutable value.
///
/// The level l_ij is the paper's "ratio of tile size before and after
/// compression" — i.e. the area reduction factor; l = 1 means uncompressed.
/// Every constructor builds the matrix whole and freezes its derived
/// structure-of-arrays data: `inv_levels_` (1/l, the intra-refresh scan's
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

  /// Ring sums and maxima of the per-tile linear-MSE factors around one
  /// display centre, per Chebyshev ring.
  struct RingStats {
    double sum[TileGridTables::kRings];
    double max[TileGridTables::kRings];
  };

  /// The sidecar `roi_region_psnr` (quality.cpp) reads: the per-tile
  /// linear-MSE factors `10^(downsample_db_per_octave * log2(l) / 10)`,
  /// and per display centre the factors' ring sums and maxima, making the
  /// steady-state foveated PSNR O(rings) with zero transcendentals. The
  /// factors are built once per QualityModel (a gather from the mode's
  /// factor LUT when ModeMatrixCache materialized the matrix under shared
  /// ModeTables, a `pow` per tile otherwise); a centre's ring stats are
  /// summed on its first query. The first touch must not race
  /// (ModeMatrixCache matrices are per-session, as is everything else
  /// that calls this).
  struct PsnrRings {
    bool built = false;  // mse_factors hold this model's factors
    double db_per_octave = 0.0;
    double floor_db = 0.0;
    double floor_mse = 0.0;  // 10^(-floor_db/10), the per-tile MSE cap
    std::shared_ptr<const TileGridTables> tables;
    std::vector<double> mse_factors;  // per tile, row-major
    std::vector<std::int32_t> stats_slot;  // per centre: into stats, or -1
    std::vector<RingStats> stats;          // queried centres only

    const RingStats& at(int centre) const {
      return stats[static_cast<std::size_t>(stats_slot[centre])];
    }
  };

  /// The sidecar for (grid, model) with centre `centre`'s (flat index) ring
  /// stats summed; `at(centre)` is valid until the next call with another
  /// model.
  const PsnrRings& psnr_rings(const TileGrid& grid, const QualityModel& model,
                              int centre) const;

 private:
  friend class ModeMatrixCache;

  /// Cache path: adopt pre-gathered derived arrays without rescanning.
  /// The caller guarantees they are exactly what the level-vector
  /// constructor (and, when `sidecar.built`, `psnr_rings`) would compute:
  /// gathers of per-mode LUTs of the same math.
  CompressionMatrix(int cols, int rows, std::vector<double> levels,
                    std::vector<double> inv_levels, PsnrRings sidecar);

  std::size_t index(TileIndex t) const;
  void freeze_scalars();

  int cols_;
  int rows_;
  std::vector<double> levels_;
  std::vector<double> inv_levels_;
  double min_level_ = 1.0;
  double effective_tiles_ = 0.0;
  mutable PsnrRings psnr_;
};

/// The level function a CompressionMode computes. With the parameters in
/// `ModeParams` it is the exact identity of a mode for sharing its tables.
enum class ModeFamily : std::uint8_t { kGeometric, kConduit, kPyramid };

/// The numbers that define a mode's level function. Two modes with equal
/// params (same family, doubles equal bit for bit) return equal levels at
/// every distance.
struct ModeParams {
  ModeFamily family = ModeFamily::kGeometric;
  double p0 = 0.0;
  double p1 = 0.0;
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

  /// The mode's defining parameters, the registry key of its shared tables.
  virtual ModeParams params() const = 0;

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

/// One mode's per-distance tables on one grid, in `level_lut`'s
/// [dx * rows + dy] layout: the level, its inverse, and under a
/// QualityModel the linear-MSE factor 10^(db_per_octave * log2(l) / 10)
/// that the PSNR sidecar gathers. Gathering identical values is bitwise
/// identical to recomputing them per tile.
struct ModeLuts {
  int mode_id = 0;
  std::vector<double> level;
  std::vector<double> inv_level;
  std::vector<double> mse_factor;  // empty when built without a model

  ModeLuts(int mode_id, const CompressionMode& mode, const TileGrid& grid,
           const QualityModel* model);
};

/// The immutable per-mode tables of one exact configuration, built once per
/// process and shared by every session that uses that configuration: each
/// mode's `ModeLuts` plus its quality-floor bitrate.
///
/// `shared_for` keys a mutex-guarded registry (the `TileGridTables`
/// pattern) on everything the tables are a function of: the grid's shape
/// and frame size, each mode's id and `ModeParams`, the QualityModel's
/// `downsample_db_per_octave` and `floor_db`, and the encoder's floor
/// inputs; doubles compare bit for bit. Entries live for the process.
class ModeTables {
 public:
  struct ModeSpec {
    int id;
    const CompressionMode* mode;
  };
  /// The encoder inputs of a mode's quality-floor bitrate.
  struct FloorInputs {
    double floor_bpp;
    int fps;
  };

  static std::shared_ptr<const ModeTables> shared_for(
      const TileGrid& grid, const QualityModel& model, FloorInputs floor,
      const std::vector<ModeSpec>& modes);

  ModeTables(const TileGrid& grid, const QualityModel& model,
             FloorInputs floor, const std::vector<ModeSpec>& modes);

  const TileGrid& grid() const { return grid_; }
  const std::shared_ptr<const TileGridTables>& geometry() const {
    return geometry_;
  }
  double db_per_octave() const { return db_per_octave_; }
  double floor_db() const { return floor_db_; }
  double floor_mse() const { return floor_mse_; }
  const std::vector<ModeLuts>& modes() const { return modes_; }

  /// The least bits per second mode `mode_id`'s surviving pixels cost at
  /// the encoder's maximum quantizer: floor_bpp × effective tiles × tile
  /// pixels × fps, the effective tiles those of the mode's matrix with the
  /// ROI at (cols/2, rows/2) (the row position only changes the clamped
  /// pitch distances marginally). Throws on an unknown id.
  Bitrate floor_rate(int mode_id) const;

 private:
  TileGrid grid_;
  std::shared_ptr<const TileGridTables> geometry_;
  double db_per_octave_;
  double floor_db_;
  double floor_mse_;
  std::vector<ModeLuts> modes_;
  std::vector<Bitrate> floor_rates_;  // parallel to modes_
};

/// Per-session memoized (mode, ROI-tile) compression matrices.
///
/// Levels depend only on (mode, dx, dy), so a grid admits exactly
/// `num_modes × cols × rows` distinct matrices per session — yet the hot
/// loop used to rebuild one (96 `std::pow` calls and a heap allocation) for
/// every captured frame. The cache reads each mode's `ModeLuts`, so
/// materialization is a few contiguous gathers with zero transcendentals,
/// and materializes the (mode, ROI) matrix on first use, shared immutably
/// ever after. Built over shared `ModeTables`, a matrix is also born with
/// its PSNR factors gathered for the tables' QualityModel.
///
/// Not thread-safe: intended as per-session state (BatchRunner sessions
/// each own one), like every other Session member. Only the `ModeTables`
/// it reads are shared; the matrix slots are the cache's own.
class ModeMatrixCache {
 public:
  /// An empty cache; `add_mode` registers modes with unshared LUTs.
  explicit ModeMatrixCache(const TileGrid& grid);

  /// Every mode of `tables`, keyed by its id.
  explicit ModeMatrixCache(std::shared_ptr<const ModeTables> tables);

  /// Registers `mode` under `mode_id`, precomputing its LUTs (no PSNR
  /// factors: its matrices build their sidecar on first use).
  /// Re-registering an id replaces the entry (and its cached matrices).
  void add_mode(int mode_id, const CompressionMode& mode);

  bool has_mode(int mode_id) const { return find(mode_id) != nullptr; }

  /// The shared tables this cache was built over, or nullptr.
  const ModeTables* tables() const { return tables_.get(); }

  /// Shared immutable matrix for (mode, roi). Throws on an unregistered
  /// mode or an out-of-grid roi (module edge; the per-frame path hits the
  /// memoized slot).
  std::shared_ptr<const CompressionMatrix> matrix(int mode_id,
                                                 TileIndex roi) const;

 private:
  struct Entry {
    std::shared_ptr<const ModeLuts> luts;
    // One slot per ROI tile, sized on the mode's first lookup.
    mutable std::vector<std::shared_ptr<const CompressionMatrix>> matrices;
  };

  const Entry* find(int mode_id) const;

  TileGrid grid_;
  std::shared_ptr<const TileGridTables> geometry_;
  std::shared_ptr<const ModeTables> tables_;
  std::vector<Entry> modes_;
};

/// The paper's geometric mode family: l_ij = C^(dx + dy)  (Eq. 1), clamped
/// at `max_level` so far-away tiles never degrade below a displayable floor.
class GeometricMode : public CompressionMode {
 public:
  explicit GeometricMode(double c, double max_level = 64.0);

  double level(int dx, int dy) const override;
  std::string name() const override;
  ModeParams params() const override {
    return {ModeFamily::kGeometric, c_, max_level_};
  }

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

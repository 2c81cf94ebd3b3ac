#include "poi360/video/compression.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <map>
#include <mutex>
#include <stdexcept>
#include <utility>

namespace poi360::video {

namespace {

std::vector<double> uniform_levels(int cols, int rows, double initial) {
  // A bad shape leaves the vector empty for the level-vector constructor
  // to reject.
  const bool ok = cols > 0 && rows > 0;
  return std::vector<double>(ok ? static_cast<std::size_t>(cols) * rows : 0,
                             initial);
}

}  // namespace

CompressionMatrix::CompressionMatrix(int cols, int rows, double initial)
    : CompressionMatrix(cols, rows, uniform_levels(cols, rows, initial)) {}

CompressionMatrix::CompressionMatrix(int cols, int rows,
                                     std::vector<double> levels)
    : cols_(cols), rows_(rows), levels_(std::move(levels)) {
  if (cols <= 0 || rows <= 0 ||
      levels_.size() != static_cast<std::size_t>(cols) * rows) {
    throw std::invalid_argument("bad CompressionMatrix");
  }
  inv_levels_.reserve(levels_.size());
  for (double l : levels_) {
    if (l < 1.0) throw std::invalid_argument("compression level < 1");
    inv_levels_.push_back(1.0 / l);
  }
  freeze_scalars();
}

CompressionMatrix::CompressionMatrix(int cols, int rows,
                                     std::vector<double> levels,
                                     std::vector<double> inv_levels,
                                     PsnrRings sidecar)
    : cols_(cols),
      rows_(rows),
      levels_(std::move(levels)),
      inv_levels_(std::move(inv_levels)),
      psnr_(std::move(sidecar)) {
  freeze_scalars();
}

void CompressionMatrix::freeze_scalars() {
  // Row-major scans over bitwise-identical values on both construction
  // paths, so a cached matrix's aggregates match a from-scratch build.
  min_level_ = *std::min_element(levels_.begin(), levels_.end());
  double sum = 0.0;
  for (double inv : inv_levels_) sum += inv;
  effective_tiles_ = sum;
}

std::size_t CompressionMatrix::index(TileIndex t) const {
  if (t.i < 0 || t.i >= cols_ || t.j < 0 || t.j >= rows_) {
    throw std::out_of_range("tile outside CompressionMatrix");
  }
  return static_cast<std::size_t>(t.j) * cols_ + t.i;
}

const CompressionMatrix::PsnrRings& CompressionMatrix::psnr_rings(
    const TileGrid& grid, const QualityModel& model, int centre) const {
  PsnrRings& r = psnr_;
  if (!r.built || r.db_per_octave != model.downsample_db_per_octave ||
      r.floor_db != model.floor_db) {
    if (grid.cols() != cols_ || grid.rows() != rows_) {
      throw std::invalid_argument(
          "grid shape does not match CompressionMatrix");
    }
    r.db_per_octave = model.downsample_db_per_octave;
    r.floor_db = model.floor_db;
    r.floor_mse = std::pow(10.0, -model.floor_db / 10.0);
    if (!r.tables) r.tables = TileGridTables::shared_for(grid);

    // Linear-MSE downsampling factor per tile. With the encoder term
    // enc_mse = 10^(-enc_psnr/10) hoisted per call, the unclamped tile MSE
    // is enc_mse * factor and the QualityModel floor clamps it at
    // floor_mse.
    const int tiles = tile_count();
    r.mse_factors.resize(static_cast<std::size_t>(tiles));
    for (int t = 0; t < tiles; ++t) {
      r.mse_factors[t] =
          std::pow(10.0, r.db_per_octave * std::log2(levels_[t]) / 10.0);
    }
    r.stats_slot.clear();
    r.stats.clear();
    r.built = true;
  }

  // The centre's per-ring partial sums and maxima of the factors, in the
  // ring walk's scan order. When enc_mse * max <= floor_mse no tile in the
  // ring clamps, so ring_mse = enc_mse * sum with no gather at all.
  if (r.stats_slot.empty()) {
    r.stats_slot.assign(static_cast<std::size_t>(tile_count()), -1);
  }
  std::int32_t& slot = r.stats_slot[static_cast<std::size_t>(centre)];
  if (slot < 0) {
    RingStats stats{};
    for (int ring = 0; ring < TileGridTables::kRings; ++ring) {
      const std::int32_t* idx = r.tables->ring_tiles(centre, ring);
      const int n = r.tables->ring_count(centre, ring);
      double sum = 0.0;
      double mx = 0.0;
      for (int k = 0; k < n; ++k) {
        const double f = r.mse_factors[idx[k]];
        sum += f;
        mx = std::max(mx, f);
      }
      stats.sum[ring] = sum;
      stats.max[ring] = mx;
    }
    slot = static_cast<std::int32_t>(r.stats.size());
    r.stats.push_back(stats);
  }
  return r;
}

std::vector<double> CompressionMode::level_lut(const TileGrid& grid) const {
  const int max_dx = grid.cols() / 2;
  const int rows = grid.rows();
  std::vector<double> lut(static_cast<std::size_t>(max_dx + 1) * rows);
  for (int dx = 0; dx <= max_dx; ++dx) {
    for (int dy = 0; dy < rows; ++dy) {
      lut[static_cast<std::size_t>(dx) * rows + dy] = level(dx, dy);
    }
  }
  return lut;
}

namespace {

/// Gathers the per-tile matrix for `roi` out of a mode's level LUT, in
/// row-major tile order.
CompressionMatrix gather_from_lut(const std::vector<double>& lut,
                                  const TileGrid& grid, TileIndex roi) {
  const int rows = grid.rows();
  std::vector<double> levels(static_cast<std::size_t>(grid.cols()) * rows);
  for (int j = 0; j < rows; ++j) {
    const int dy = grid.dy(j, roi.j);
    for (int i = 0; i < grid.cols(); ++i) {
      const int dx = grid.dx(i, roi.i);
      levels[static_cast<std::size_t>(j) * grid.cols() + i] =
          lut[static_cast<std::size_t>(dx) * rows + dy];
    }
  }
  return CompressionMatrix(grid.cols(), rows, std::move(levels));
}

}  // namespace

CompressionMatrix CompressionMode::matrix_for(const TileGrid& grid,
                                              TileIndex roi) const {
  return gather_from_lut(level_lut(grid), grid, roi);
}

ModeLuts::ModeLuts(int id, const CompressionMode& mode, const TileGrid& grid,
                   const QualityModel* model)
    : mode_id(id), level(mode.level_lut(grid)) {
  // Derived LUTs: materializing a matrix becomes contiguous gathers with
  // zero transcendentals. The factor is the sidecar's per-tile expression
  // (CompressionMatrix::psnr_rings) applied to the same level.
  inv_level.resize(level.size());
  for (std::size_t e = 0; e < level.size(); ++e) inv_level[e] = 1.0 / level[e];
  if (model != nullptr) {
    mse_factor.resize(level.size());
    for (std::size_t e = 0; e < level.size(); ++e) {
      mse_factor[e] = std::pow(
          10.0, model->downsample_db_per_octave * std::log2(level[e]) / 10.0);
    }
  }
}

ModeTables::ModeTables(const TileGrid& grid, const QualityModel& model,
                       FloorInputs floor, const std::vector<ModeSpec>& modes)
    : grid_(grid),
      geometry_(TileGridTables::shared_for(grid)),
      db_per_octave_(model.downsample_db_per_octave),
      floor_db_(model.floor_db),
      floor_mse_(std::pow(10.0, -model.floor_db / 10.0)) {
  modes_.reserve(modes.size());
  floor_rates_.reserve(modes.size());
  const int tiles = grid_.tile_count();
  const std::int32_t* idx =
      geometry_->lut_index(grid_.flat({grid_.cols() / 2, grid_.rows() / 2}));
  for (const ModeSpec& spec : modes) {
    const ModeLuts& luts = modes_.emplace_back(spec.id, *spec.mode, grid_,
                                               &model);
    // The centre matrix's effective_tiles(): its row-major 1/l sum.
    double effective_tiles = 0.0;
    for (int t = 0; t < tiles; ++t) effective_tiles += luts.inv_level[idx[t]];
    floor_rates_.push_back(floor.floor_bpp * effective_tiles *
                           static_cast<double>(grid_.tile_pixels()) *
                           floor.fps);
  }
}

namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Everything a ModeTables is a function of, doubles by bit pattern.
struct ModeTablesKey {
  struct Mode {
    int id;
    ModeFamily family;
    std::uint64_t p0;
    std::uint64_t p1;
    auto operator<=>(const Mode&) const = default;
  };
  int cols;
  int rows;
  int frame_width_px;
  int frame_height_px;
  std::uint64_t db_per_octave;
  std::uint64_t floor_db;
  std::uint64_t floor_bpp;
  int fps;
  std::vector<Mode> modes;
  auto operator<=>(const ModeTablesKey&) const = default;
};

}  // namespace

std::shared_ptr<const ModeTables> ModeTables::shared_for(
    const TileGrid& grid, const QualityModel& model, FloorInputs floor,
    const std::vector<ModeSpec>& modes) {
  ModeTablesKey key{grid.cols(),
                    grid.rows(),
                    grid.frame_width_px(),
                    grid.frame_height_px(),
                    bits(model.downsample_db_per_octave),
                    bits(model.floor_db),
                    bits(floor.floor_bpp),
                    floor.fps,
                    {}};
  key.modes.reserve(modes.size());
  for (const ModeSpec& spec : modes) {
    const ModeParams p = spec.mode->params();
    key.modes.push_back({spec.id, p.family, bits(p.p0), bits(p.p1)});
  }

  static std::mutex mu;
  static std::map<ModeTablesKey, std::shared_ptr<const ModeTables>> registry;
  const std::lock_guard<std::mutex> lock(mu);
  auto& slot = registry[std::move(key)];
  if (!slot) slot = std::make_shared<const ModeTables>(grid, model, floor, modes);
  return slot;
}

Bitrate ModeTables::floor_rate(int mode_id) const {
  for (std::size_t k = 0; k < modes_.size(); ++k) {
    if (modes_[k].mode_id == mode_id) return floor_rates_[k];
  }
  throw std::out_of_range("mode not in ModeTables");
}

ModeMatrixCache::ModeMatrixCache(const TileGrid& grid)
    : grid_(grid), geometry_(TileGridTables::shared_for(grid)) {}

ModeMatrixCache::ModeMatrixCache(std::shared_ptr<const ModeTables> tables)
    : grid_(tables->grid()),
      geometry_(tables->geometry()),
      tables_(std::move(tables)) {
  modes_.reserve(tables_->modes().size());
  for (const ModeLuts& luts : tables_->modes()) {
    // Aliasing pointer: the entry keeps the whole shared set alive.
    modes_.push_back({std::shared_ptr<const ModeLuts>(tables_, &luts), {}});
  }
}

void ModeMatrixCache::add_mode(int mode_id, const CompressionMode& mode) {
  Entry entry{std::make_shared<const ModeLuts>(mode_id, mode, grid_, nullptr),
              {}};
  for (Entry& e : modes_) {
    if (e.luts->mode_id == mode_id) {
      e = std::move(entry);
      return;
    }
  }
  modes_.push_back(std::move(entry));
}

const ModeMatrixCache::Entry* ModeMatrixCache::find(int mode_id) const {
  for (const Entry& e : modes_) {
    if (e.luts->mode_id == mode_id) return &e;
  }
  return nullptr;
}

std::shared_ptr<const CompressionMatrix> ModeMatrixCache::matrix(
    int mode_id, TileIndex roi) const {
  const Entry* entry = find(mode_id);
  if (entry == nullptr) {
    throw std::out_of_range("mode not registered in ModeMatrixCache");
  }
  if (!grid_.contains(roi)) {
    throw std::out_of_range("roi outside grid");
  }
  const std::size_t n = static_cast<std::size_t>(grid_.tile_count());
  if (entry->matrices.empty()) entry->matrices.resize(n);
  auto& slot = entry->matrices[static_cast<std::size_t>(grid_.flat(roi))];
  if (!slot) {
    const ModeLuts& luts = *entry->luts;
    const std::int32_t* idx = geometry_->lut_index(grid_.flat(roi));
    std::vector<double> levels(n), inv_levels(n);
    for (std::size_t k = 0; k < n; ++k) {
      levels[k] = luts.level[idx[k]];
      inv_levels[k] = luts.inv_level[idx[k]];
    }
    CompressionMatrix::PsnrRings sidecar;
    sidecar.tables = geometry_;
    if (!luts.mse_factor.empty()) {
      // Only the shared tables carry factors, for their QualityModel.
      sidecar.built = true;
      sidecar.db_per_octave = tables_->db_per_octave();
      sidecar.floor_db = tables_->floor_db();
      sidecar.floor_mse = tables_->floor_mse();
      sidecar.mse_factors.resize(n);
      for (std::size_t k = 0; k < n; ++k) {
        sidecar.mse_factors[k] = luts.mse_factor[idx[k]];
      }
    }
    // make_shared cannot reach the private adopting constructor.
    slot = std::shared_ptr<const CompressionMatrix>(new CompressionMatrix(
        grid_.cols(), grid_.rows(), std::move(levels), std::move(inv_levels),
        std::move(sidecar)));
  }
  return slot;
}

GeometricMode::GeometricMode(double c, double max_level)
    : c_(c), max_level_(max_level) {
  if (c < 1.0 || max_level < 1.0) {
    throw std::invalid_argument("GeometricMode requires c >= 1, max >= 1");
  }
}

double GeometricMode::level(int dx, int dy) const {
  if (dx < 0 || dy < 0) throw std::invalid_argument("negative tile distance");
  return std::min(max_level_, std::pow(c_, dx + dy));
}

std::string GeometricMode::name() const {
  return "geometric(C=" + std::to_string(c_) + ")";
}

ModeTable::ModeTable(int k, double c_aggressive, double c_conservative,
                     double max_level) {
  if (k < 1 || c_aggressive < c_conservative || c_conservative < 1.0) {
    throw std::invalid_argument("bad ModeTable");
  }
  modes_.reserve(static_cast<std::size_t>(k));
  for (int m = 0; m < k; ++m) {
    const double t = (k == 1) ? 0.0
                              : static_cast<double>(m) / (k - 1);
    modes_.emplace_back(c_aggressive + t * (c_conservative - c_aggressive),
                        max_level);
  }
}

const GeometricMode& ModeTable::mode(int index_1based) const {
  if (index_1based < 1 || index_1based > size()) {
    throw std::out_of_range("mode index");
  }
  return modes_[static_cast<std::size_t>(index_1based - 1)];
}

}  // namespace poi360::video

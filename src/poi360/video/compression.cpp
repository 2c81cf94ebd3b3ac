#include "poi360/video/compression.h"

#include <algorithm>
#include <cmath>
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
  log2_levels_.reserve(levels_.size());
  for (double l : levels_) {
    if (l < 1.0) throw std::invalid_argument("compression level < 1");
    inv_levels_.push_back(1.0 / l);
    log2_levels_.push_back(std::log2(l));
  }
  freeze_scalars();
}

CompressionMatrix::CompressionMatrix(int cols, int rows,
                                     std::vector<double> levels,
                                     std::vector<double> log2_levels,
                                     std::vector<double> inv_levels)
    : cols_(cols),
      rows_(rows),
      levels_(std::move(levels)),
      log2_levels_(std::move(log2_levels)),
      inv_levels_(std::move(inv_levels)) {
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
    const TileGrid& grid, const QualityModel& model) const {
  if (psnr_.built && psnr_.db_per_octave == model.downsample_db_per_octave &&
      psnr_.floor_db == model.floor_db) {
    return psnr_;
  }
  if (grid.cols() != cols_ || grid.rows() != rows_) {
    throw std::invalid_argument("grid shape does not match CompressionMatrix");
  }

  PsnrRings& r = psnr_;
  r.db_per_octave = model.downsample_db_per_octave;
  r.floor_db = model.floor_db;
  r.floor_mse = std::pow(10.0, -model.floor_db / 10.0);
  r.tables = TileGridTables::shared_for(grid);

  // Linear-MSE downsampling factor per tile. With the encoder term
  // enc_mse = 10^(-enc_psnr/10) hoisted per call, the unclamped tile MSE is
  // enc_mse * factor and the QualityModel floor clamps it at floor_mse.
  const int tiles = tile_count();
  r.mse_factors.resize(static_cast<std::size_t>(tiles));
  for (int t = 0; t < tiles; ++t) {
    r.mse_factors[t] =
        std::pow(10.0, r.db_per_octave * log2_levels_[t] / 10.0);
  }

  // Per-(center, ring) partial sums and maxima of the factors, in the ring
  // walk's scan order. When enc_mse * ring_max <= floor_mse no tile in the
  // ring clamps, so ring_mse = enc_mse * ring_sum with no gather at all.
  const int n_rings = TileGridTables::kRings;
  r.ring_sum.assign(static_cast<std::size_t>(tiles) * n_rings, 0.0);
  r.ring_max.assign(static_cast<std::size_t>(tiles) * n_rings, 0.0);
  for (int center = 0; center < tiles; ++center) {
    for (int ring = 0; ring < n_rings; ++ring) {
      const std::int32_t* idx = r.tables->ring_tiles(center, ring);
      const int n = r.tables->ring_count(center, ring);
      double sum = 0.0;
      double mx = 0.0;
      for (int k = 0; k < n; ++k) {
        const double f = r.mse_factors[idx[k]];
        sum += f;
        mx = std::max(mx, f);
      }
      r.ring_sum[static_cast<std::size_t>(center) * n_rings + ring] = sum;
      r.ring_max[static_cast<std::size_t>(center) * n_rings + ring] = mx;
    }
  }
  r.built = true;
  return psnr_;
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

ModeMatrixCache::ModeMatrixCache(const TileGrid& grid)
    : grid_(grid), tables_(TileGridTables::shared_for(grid)) {}

void ModeMatrixCache::add_mode(int mode_id, const CompressionMode& mode) {
  ModeEntry entry;
  entry.lut = mode.level_lut(grid_);
  // Derived LUTs: materializing a matrix becomes three contiguous gathers
  // with zero transcendentals. A gather of identical values is bitwise
  // identical to recomputing per tile, so cached matrices still match the
  // uncached matrix_for() path exactly.
  entry.log2_lut.resize(entry.lut.size());
  entry.inv_lut.resize(entry.lut.size());
  for (std::size_t e = 0; e < entry.lut.size(); ++e) {
    entry.log2_lut[e] = std::log2(entry.lut[e]);
    entry.inv_lut[e] = 1.0 / entry.lut[e];
  }
  entry.matrices.assign(static_cast<std::size_t>(grid_.tile_count()),
                        nullptr);
  modes_[mode_id] = std::move(entry);
}

std::shared_ptr<const CompressionMatrix> ModeMatrixCache::matrix(
    int mode_id, TileIndex roi) const {
  const auto it = modes_.find(mode_id);
  if (it == modes_.end()) {
    throw std::out_of_range("mode not registered in ModeMatrixCache");
  }
  if (!grid_.contains(roi)) {
    throw std::out_of_range("roi outside grid");
  }
  auto& slot = it->second.matrices[static_cast<std::size_t>(grid_.flat(roi))];
  if (!slot) {
    const ModeEntry& entry = it->second;
    const std::size_t n = static_cast<std::size_t>(grid_.tile_count());
    const std::int32_t* idx = tables_->lut_index(grid_.flat(roi));
    std::vector<double> levels(n), log2_levels(n), inv_levels(n);
    for (std::size_t k = 0; k < n; ++k) {
      levels[k] = entry.lut[idx[k]];
      log2_levels[k] = entry.log2_lut[idx[k]];
      inv_levels[k] = entry.inv_lut[idx[k]];
    }
    // make_shared cannot reach the private adopting constructor.
    slot = std::shared_ptr<const CompressionMatrix>(
        new CompressionMatrix(grid_.cols(), grid_.rows(), std::move(levels),
                              std::move(log2_levels), std::move(inv_levels)));
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

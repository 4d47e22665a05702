#include "kde/estimator.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>
#include <vector>

#include "kde/convolve.hpp"
#include "util/check.hpp"

namespace eyeball::kde {
namespace {

/// Normalized, truncated 1-D Gaussian taps for a given sigma (in cells).
std::vector<double> make_kernel(double sigma_cells, double truncate_sigmas) {
  EYEBALL_DCHECK(sigma_cells > 0.0, "kernel sigma must be positive (NaN taps otherwise)");
  const auto radius = static_cast<std::size_t>(std::ceil(sigma_cells * truncate_sigmas));
  std::vector<double> taps(2 * radius + 1);
  double sum = 0.0;
  for (std::size_t i = 0; i < taps.size(); ++i) {
    const double x = (static_cast<double>(i) - static_cast<double>(radius)) / sigma_cells;
    taps[i] = std::exp(-0.5 * x * x);
    sum += taps[i];
  }
  for (auto& t : taps) t /= sum;
  return taps;
}

/// Dense per-row kernel table: every distinct quantized kernel's taps live
/// back-to-back in one arena and `row_kernels` maps a grid row to its
/// (offset, tap-count) slice — no node-per-kernel allocations and no tree
/// walk per row: the horizontal pass reads one flat const structure.
struct KernelArena {
  struct Slice {
    std::size_t offset = 0;
    std::size_t taps = 0;
  };
  std::vector<double> arena;
  std::vector<Slice> row_kernels;  // indexed by grid row

  [[nodiscard]] const double* taps_of(std::size_t row) const noexcept {
    return arena.data() + row_kernels[row].offset;
  }
  [[nodiscard]] std::size_t tap_count(std::size_t row) const noexcept {
    return row_kernels[row].taps;
  }
};

/// Builds the quantized per-row kernel set (sigma quantized to 1/64 cell,
/// clamped to >= 1 step: a coarse grid can push sigma below half a step, and
/// a key of 0 would ask for a sigma-0 kernel whose taps are NaN).  Each
/// distinct key's taps are computed once into the arena.
KernelArena build_row_kernels(const DensityGrid& grid, double bandwidth_km,
                              double truncate_sigmas) {
  const std::size_t rows = grid.rows();
  std::vector<long> keys(rows);
  std::vector<long> unique;
  for (std::size_t r = 0; r < rows; ++r) {
    const double sigma_cells = bandwidth_km / std::max(1e-6, grid.cell_width_km(r));
    keys[r] = std::max(1L, std::lround(sigma_cells * 64.0));
    EYEBALL_DCHECK(keys[r] >= 1, "quantized kernel cache key must stay >= 1");
    unique.push_back(keys[r]);
  }
  std::sort(unique.begin(), unique.end());
  unique.erase(std::unique(unique.begin(), unique.end()), unique.end());

  KernelArena out;
  std::vector<KernelArena::Slice> slices(unique.size());
  for (std::size_t k = 0; k < unique.size(); ++k) {
    const auto taps =
        make_kernel(static_cast<double>(unique[k]) / 64.0, truncate_sigmas);
    slices[k] = {out.arena.size(), taps.size()};
    out.arena.insert(out.arena.end(), taps.begin(), taps.end());
  }
  out.row_kernels.resize(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    const auto it = std::lower_bound(unique.begin(), unique.end(), keys[r]);
    out.row_kernels[r] =
        slices[static_cast<std::size_t>(std::distance(unique.begin(), it))];
  }
  return out;
}

}  // namespace

namespace detail {

/// Contiguous (stride-1) 1-D convolution with the edge-clipped prologue and
/// epilogue peeled off: the interior runs a branchless dot product the
/// compiler can unroll and vectorize.  Taps that fall outside the range are
/// dropped (edge mass is clipped; the caller pads the domain so real mass
/// never sits near the edge).  For every output cell the taps accumulate in
/// ascending index order — exactly the order of the pre-SoA scalar loop —
/// so results are bit-identical to the reference convolution
/// (tests/kde_simd_test.cpp pins this differentially).
void convolve_row(const double* src, double* dst, std::size_t n, const double* taps,
                  std::size_t tap_count) {
  const std::size_t radius = tap_count / 2;
  const auto sn = static_cast<std::ptrdiff_t>(n);
  const auto sradius = static_cast<std::ptrdiff_t>(radius);

  // The row is processed in blocks of kRowTile outputs sharing one tap loop
  // with independent accumulators: a single output's tap sum is a serial
  // dependence chain (one add per cycle at best, and un-vectorizable
  // without reassociation), while kRowTile interleaved chains pipeline and
  // vectorize as unit-stride loads.  Each accumulator still sums its taps
  // in ascending index order, so every variant below is bit-identical to
  // the one-output-at-a-time reference loop.
  constexpr std::size_t kRowTile = kConvolveTile;

  // Full tile of outputs [i0, i0+kRowTile) with edge clipping: each tap's
  // valid output sub-range is contiguous, so clipping clamps the inner
  // loop's bounds instead of branching per cell, and the body stays the
  // same vectorizable unit-stride accumulate as the interior tile.
  auto clipped_tile = [&](std::size_t i0) {
    double acc[kRowTile] = {};
    for (std::size_t k = 0; k < tap_count; ++k) {
      const auto shift =
          static_cast<std::ptrdiff_t>(i0 + k) - sradius;  // src index of j=0
      if (shift >= sn) break;  // later taps shift further right; none valid
      const std::size_t j_lo =
          shift < 0 ? static_cast<std::size_t>(-shift) : 0;
      const std::size_t j_hi =
          std::min(kRowTile, static_cast<std::size_t>(sn - shift));
      const double t = taps[k];
      const double* s = src + shift;
      for (std::size_t j = j_lo; j < j_hi; ++j) acc[j] += s[j] * t;
    }
    double* d = dst + i0;
    for (std::size_t j = 0; j < kRowTile; ++j) d[j] = acc[j];
  };

  // Scalar fallback for the final partial tile (and degenerate rows).
  auto clipped = [&](std::ptrdiff_t i) {
    double acc = 0.0;
    const std::ptrdiff_t lo = std::max<std::ptrdiff_t>(0, i - sradius);
    const std::ptrdiff_t hi = std::min<std::ptrdiff_t>(sn - 1, i + sradius);
    for (std::ptrdiff_t j = lo; j <= hi; ++j) {
      acc += src[j] * taps[j - i + sradius];
    }
    dst[i] = acc;
  };

  const std::size_t interior_lo = std::min(radius, n);
  const std::size_t interior_hi = n > radius ? n - radius : interior_lo;
  std::size_t i = 0;
  // Leading clipped region, in full tiles (a tile may spill into the
  // interior; the clamped bounds make that exact, not just safe).
  for (; i + kRowTile <= n && i < interior_lo; i += kRowTile) clipped_tile(i);
  if (i >= interior_lo && i + kRowTile <= interior_hi) {
    // Interior: full support, no bounds checks in the inner loop.
    for (; i + kRowTile <= interior_hi; i += kRowTile) {
      double acc[kRowTile] = {};
      const double* s = src + (i - radius);
      for (std::size_t k = 0; k < tap_count; ++k) {
        const double t = taps[k];
        for (std::size_t j = 0; j < kRowTile; ++j) acc[j] += s[k + j] * t;
      }
      double* d = dst + i;
      for (std::size_t j = 0; j < kRowTile; ++j) d[j] = acc[j];
    }
  }
  // Trailing clipped region, in full tiles while they fit.
  for (; i + kRowTile <= n; i += kRowTile) clipped_tile(i);
  for (auto si = static_cast<std::ptrdiff_t>(i); si < sn; ++si) clipped(si);
}

/// Vertical (cross-row) convolution over a tile of `width <= kConvolveTile`
/// adjacent columns starting at `col`.  Instead of striding down one column
/// at a time (a cache-hostile `cols`-stride walk repeated per column), the
/// tap loop is outermost and each step reads `width` contiguous values from
/// one source row — unit-stride loads the compiler turns into SIMD —
/// accumulating all `width` columns at once.  Per output cell the taps
/// still accumulate in ascending row order, i.e. the exact summation order
/// of the reference column walk, so the pass stays bit-identical.
/// `Width` is a compile-time constant (kConvolveTile for full tiles, or the
/// runtime remainder funneled through the scalar-width overload below):
/// constant trip counts are what let the compiler fully unroll the
/// accumulator loops and keep `acc` in vector registers — a runtime bound
/// here costs ~2x (measured; the vectorizer falls back to a peeled loop
/// with in-memory accumulators).
template <std::size_t Width>
void convolve_columns_fixed(const double* src, double* dst, std::size_t rows,
                            std::size_t cols, std::size_t col, const double* taps,
                            std::size_t tap_count) {
  const std::size_t radius = tap_count / 2;
  const auto srows = static_cast<std::ptrdiff_t>(rows);
  const auto sradius = static_cast<std::ptrdiff_t>(radius);

  auto clipped_row = [&](std::ptrdiff_t i) {
    const std::ptrdiff_t lo = std::max<std::ptrdiff_t>(0, i - sradius);
    const std::ptrdiff_t hi = std::min<std::ptrdiff_t>(srows - 1, i + sradius);
    double acc[Width] = {};
    for (std::ptrdiff_t j = lo; j <= hi; ++j) {
      const double t = taps[j - i + sradius];
      const double* s = src + static_cast<std::size_t>(j) * cols + col;
      for (std::size_t c = 0; c < Width; ++c) acc[c] += s[c] * t;
    }
    double* d = dst + static_cast<std::size_t>(i) * cols + col;
    for (std::size_t c = 0; c < Width; ++c) d[c] = acc[c];
  };

  if (rows <= 2 * radius) {
    for (std::ptrdiff_t i = 0; i < srows; ++i) clipped_row(i);
    return;
  }
  for (std::ptrdiff_t i = 0; i < sradius; ++i) clipped_row(i);
  for (std::size_t i = radius; i < rows - radius; ++i) {
    const double* s = src + (i - radius) * cols + col;
    double acc[Width] = {};
    for (std::size_t k = 0; k < tap_count; ++k) {
      const double t = taps[k];
      for (std::size_t c = 0; c < Width; ++c) acc[c] += s[c] * t;
      s += cols;
    }
    double* d = dst + i * cols + col;
    for (std::size_t c = 0; c < Width; ++c) d[c] = acc[c];
  }
  for (std::ptrdiff_t i = srows - sradius; i < srows; ++i) clipped_row(i);
}

void convolve_columns_tile(const double* src, double* dst, std::size_t rows,
                           std::size_t cols, std::size_t col, std::size_t width,
                           const double* taps, std::size_t tap_count) {
  if (width == kConvolveTile) {
    convolve_columns_fixed<kConvolveTile>(src, dst, rows, cols, col, taps, tap_count);
    return;
  }
  // Remainder tile (grid edge): one column at a time.  Cache-hostile but
  // bounded by one tile's worth of columns per grid.
  for (std::size_t c = col; c < col + width; ++c) {
    convolve_columns_fixed<1>(src, dst, rows, cols, c, taps, tap_count);
  }
}

}  // namespace detail

KernelDensityEstimator::KernelDensityEstimator(KdeConfig config) : config_(config) {
  if (!(config_.bandwidth_km > 0.0)) {
    throw std::invalid_argument{"KernelDensityEstimator: bandwidth must be > 0"};
  }
  if (!(config_.cell_km > 0.0)) {
    throw std::invalid_argument{"KernelDensityEstimator: cell size must be > 0"};
  }
  if (config_.cell_km > config_.bandwidth_km / 2.0) {
    // Keep at least two cells per sigma so peaks are resolved.
    config_.cell_km = config_.bandwidth_km / 2.0;
  }
  if (!(config_.truncate_sigmas >= 1.0)) {
    throw std::invalid_argument{"KernelDensityEstimator: truncate_sigmas must be >= 1"};
  }
}

geo::BoundingBox KernelDensityEstimator::padded_box(std::span<const geo::GeoPoint> points,
                                                    double extra_margin_km) const {
  const auto raw = geo::BoundingBox::around(points);
  return raw.expanded_km(config_.bandwidth_km * config_.truncate_sigmas + extra_margin_km);
}

DensityGrid KernelDensityEstimator::estimate(std::span<const geo::GeoPoint> points,
                                             const geo::BoundingBox& box) const {
  if (points.empty()) {
    throw std::invalid_argument{"KernelDensityEstimator::estimate: no points"};
  }
  DensityGrid grid{box, config_.cell_km, config_.max_cells};

  // Bin.
  std::size_t used = 0;
  for (const auto& p : points) {
    if (const auto cell = grid.cell_of(p)) {
      grid.at(cell->first, cell->second) += 1.0;
      ++used;
    }
  }
  if (used == 0) {
    throw std::invalid_argument{"KernelDensityEstimator::estimate: no points inside box"};
  }

  const std::size_t rows = grid.rows();
  const std::size_t cols = grid.cols();
  // Intermediate buffer between the two passes, reused across calls (the
  // horizontal pass writes every cell before the vertical pass reads any,
  // so stale contents are unobservable).  thread_local rather than a member
  // keeps estimate() const and concurrent-caller-safe.
  thread_local std::vector<double> scratch;
  if (scratch.size() < grid.values().size()) scratch.resize(grid.values().size());

  // Horizontal pass: per-row kernel width (cells shrink toward the poles).
  // The whole quantized kernel set is built up front into one flat arena.
  const KernelArena kernels =
      build_row_kernels(grid, config_.bandwidth_km, config_.truncate_sigmas);
  for (std::size_t r = 0; r < rows; ++r) {
    detail::convolve_row(grid.values().data() + r * cols, scratch.data() + r * cols,
                         cols, kernels.taps_of(r), kernels.tap_count(r));
  }

  // Vertical pass: constant kernel width, tiled over column groups so every
  // load is unit-stride (see convolve_columns_tile).
  const auto vertical = make_kernel(
      config_.bandwidth_km / grid.cell_height_km(), config_.truncate_sigmas);
  for (std::size_t col = 0; col < cols; col += detail::kConvolveTile) {
    detail::convolve_columns_tile(scratch.data(), grid.values().data(), rows, cols, col,
                                  std::min(detail::kConvolveTile, cols - col),
                                  vertical.data(), vertical.size());
  }

  // Normalize: expected count per cell -> probability density per km^2.
  for (std::size_t r = 0; r < rows; ++r) {
    const double scale = 1.0 / (static_cast<double>(used) * grid.cell_area_km2(r));
    double* row = grid.values().data() + r * cols;
    for (std::size_t c = 0; c < cols; ++c) row[c] *= scale;
  }
  return grid;
}

DensityGrid KernelDensityEstimator::estimate_exact(std::span<const geo::GeoPoint> points,
                                                   const geo::BoundingBox& box) const {
  if (points.empty()) {
    throw std::invalid_argument{"KernelDensityEstimator::estimate_exact: no points"};
  }
  DensityGrid grid{box, config_.cell_km, config_.max_cells};
  const double sigma = config_.bandwidth_km;
  const double support = sigma * config_.truncate_sigmas;
  const double norm = 1.0 / (2.0 * std::numbers::pi * sigma * sigma *
                             static_cast<double>(points.size()));
  for (std::size_t r = 0; r < grid.rows(); ++r) {
    for (std::size_t c = 0; c < grid.cols(); ++c) {
      const geo::GeoPoint center = grid.center_of(r, c);
      double acc = 0.0;
      for (const auto& p : points) {
        const double d = geo::approx_distance_km(center, p);
        if (d <= support) acc += std::exp(-0.5 * (d / sigma) * (d / sigma));
      }
      grid.at(r, c) = acc * norm;
    }
  }
  return grid;
}

}  // namespace eyeball::kde

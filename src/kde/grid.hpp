// Equirectangular density grid.
//
// Rows run south -> north, columns west -> east.  Cell height is uniform in
// latitude; cell width is uniform in *degrees* of longitude, so its physical
// width shrinks toward the poles — the KDE convolution compensates with a
// per-row kernel width, and per-row cell areas are exposed for integration.
#pragma once

#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

#include "geo/point.hpp"
#include "util/check.hpp"

namespace eyeball::kde {

class DensityGrid {
 public:
  /// Grid covering `box` with cells of roughly `cell_km` at the box's
  /// central latitude.  Throws if the box degenerates or the grid would
  /// exceed `max_cells`.
  DensityGrid(const geo::BoundingBox& box, double cell_km, std::size_t max_cells = 8000000);

  /// One evaluation of the grid-shape formula: the cell size in degrees
  /// and the row/column counts a grid over `box` gets with cells of exactly
  /// `cell_km`.  The constructor calls it once per coarsening step; the
  /// artifact validator calls it to re-derive a stored grid's shape.  Counts
  /// stay doubles so a caller can compare them against a budget or cap
  /// before casting — a tiny cell can ask for more cells than size_t holds.
  struct Shape {
    double dlat_deg;
    double dlon_deg;
    double rows;
    double cols;
  };
  [[nodiscard]] static Shape shape(const geo::BoundingBox& box, double cell_km) noexcept;

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] std::size_t cell_count() const noexcept { return values_.size(); }
  [[nodiscard]] const geo::BoundingBox& box() const noexcept { return box_; }
  [[nodiscard]] double cell_km() const noexcept { return cell_km_; }

  [[nodiscard]] double value(std::size_t row, std::size_t col) const {
    EYEBALL_DCHECK(row < rows_ && col < cols_, "grid read out of bounds");
    return values_[row * cols_ + col];
  }
  [[nodiscard]] double& at(std::size_t row, std::size_t col) {
    EYEBALL_DCHECK(row < rows_ && col < cols_, "grid write out of bounds");
    return values_[row * cols_ + col];
  }
  [[nodiscard]] const std::vector<double>& values() const noexcept { return values_; }
  [[nodiscard]] std::vector<double>& values() noexcept { return values_; }

  /// Geographic center of a cell.
  [[nodiscard]] geo::GeoPoint center_of(std::size_t row, std::size_t col) const noexcept;
  /// Cell containing `p`, or nullopt when outside the box.
  [[nodiscard]] std::optional<std::pair<std::size_t, std::size_t>> cell_of(
      const geo::GeoPoint& p) const noexcept;

  /// Latitude of a row's center.
  [[nodiscard]] double row_lat(std::size_t row) const noexcept;
  /// Physical cell width at a row (km); height is constant.
  [[nodiscard]] double cell_width_km(std::size_t row) const noexcept;
  [[nodiscard]] double cell_height_km() const noexcept;
  [[nodiscard]] double cell_area_km2(std::size_t row) const noexcept;

  /// Maximum stored value and its cell, or nullopt for an all-zero grid.
  struct MaxCell {
    std::size_t row;
    std::size_t col;
    double value;
  };
  [[nodiscard]] std::optional<MaxCell> max_cell() const noexcept;

  /// Sum of value x cell area over the grid (integral of the density).
  [[nodiscard]] double integral() const noexcept;

 private:
  geo::BoundingBox box_;
  double cell_km_;
  double dlat_deg_;
  double dlon_deg_;
  std::size_t rows_;
  std::size_t cols_;
  std::vector<double> values_;
};

}  // namespace eyeball::kde

#include "kde/grid.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace eyeball::kde {

DensityGrid::Shape DensityGrid::shape(const geo::BoundingBox& box, double cell_km) noexcept {
  const double mid_lat = (box.min_lat() + box.max_lat()) / 2.0;
  const double lon_scale = std::max(1.0, geo::km_per_degree_lon(mid_lat));
  Shape out{};
  out.dlat_deg = cell_km / geo::kKmPerDegreeLat;
  out.dlon_deg = cell_km / lon_scale;
  out.rows = std::max(1.0, std::ceil((box.max_lat() - box.min_lat()) / out.dlat_deg));
  out.cols = std::max(1.0, std::ceil((box.max_lon() - box.min_lon()) / out.dlon_deg));
  return out;
}

DensityGrid::DensityGrid(const geo::BoundingBox& box, double cell_km,
                         std::size_t max_cells)
    : box_(box), cell_km_(cell_km) {
  if (!(cell_km > 0.0)) throw std::invalid_argument{"DensityGrid: cell_km must be > 0"};

  // Grow the cell size if the requested resolution would blow the budget.
  // The budget comparison happens in double, before any float->int cast: a
  // tiny cell_km can make rows*cols exceed SIZE_MAX, and casting such a
  // value to size_t is undefined behaviour.
  for (;;) {
    const Shape want = shape(box, cell_km_);
    if (want.rows * want.cols <= static_cast<double>(max_cells)) {
      dlat_deg_ = want.dlat_deg;
      dlon_deg_ = want.dlon_deg;
      rows_ = static_cast<std::size_t>(want.rows);
      cols_ = static_cast<std::size_t>(want.cols);
      break;
    }
    cell_km_ *= 1.5;
  }
  EYEBALL_DCHECK(rows_ * cols_ <= max_cells, "cell budget violated after coarsening");
  values_.assign(rows_ * cols_, 0.0);
}

geo::GeoPoint DensityGrid::center_of(std::size_t row, std::size_t col) const noexcept {
  EYEBALL_DCHECK(row < rows_ && col < cols_, "cell center queried out of bounds");
  return {box_.min_lat() + (static_cast<double>(row) + 0.5) * dlat_deg_,
          box_.min_lon() + (static_cast<double>(col) + 0.5) * dlon_deg_};
}

std::optional<std::pair<std::size_t, std::size_t>> DensityGrid::cell_of(
    const geo::GeoPoint& p) const noexcept {
  if (!box_.contains(p)) return std::nullopt;
  auto row = static_cast<std::size_t>((p.lat_deg - box_.min_lat()) / dlat_deg_);
  auto col = static_cast<std::size_t>((p.lon_deg - box_.min_lon()) / dlon_deg_);
  row = std::min(row, rows_ - 1);
  col = std::min(col, cols_ - 1);
  return std::make_pair(row, col);
}

double DensityGrid::row_lat(std::size_t row) const noexcept {
  EYEBALL_DCHECK(row < rows_, "row latitude queried out of bounds");
  return box_.min_lat() + (static_cast<double>(row) + 0.5) * dlat_deg_;
}

double DensityGrid::cell_width_km(std::size_t row) const noexcept {
  return dlon_deg_ * geo::km_per_degree_lon(row_lat(row));
}

double DensityGrid::cell_height_km() const noexcept {
  return dlat_deg_ * geo::kKmPerDegreeLat;
}

double DensityGrid::cell_area_km2(std::size_t row) const noexcept {
  return cell_width_km(row) * cell_height_km();
}

std::optional<DensityGrid::MaxCell> DensityGrid::max_cell() const noexcept {
  const auto it = std::max_element(values_.begin(), values_.end());
  if (it == values_.end() || *it <= 0.0) return std::nullopt;
  const auto index = static_cast<std::size_t>(it - values_.begin());
  return MaxCell{index / cols_, index % cols_, *it};
}

double DensityGrid::integral() const noexcept {
  double total = 0.0;
  for (std::size_t r = 0; r < rows_; ++r) {
    const double area = cell_area_km2(r);
    double row_sum = 0.0;
    for (std::size_t c = 0; c < cols_; ++c) row_sum += value(r, c);
    total += row_sum * area;
  }
  return total;
}

}  // namespace eyeball::kde

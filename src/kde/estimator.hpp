// Bivariate Gaussian kernel density estimation (the paper's §3 method).
//
// A Gaussian kernel of bandwidth sigma (km) is placed at every user
// location; the aggregated surface is the AS's user density.  The fast
// path bins points into a DensityGrid and exploits the kernel's
// separability: one horizontal pass with a per-row kernel width (cells
// shrink physically toward the poles) followed by one vertical pass.
// Kernels are truncated at `truncate_sigmas`.  An exact O(N x cells)
// evaluator backs the property tests.
//
// Units: the returned density integrates to ~1 over the grid (probability
// per km^2), so peak heights are comparable across ASes regardless of
// sample count — exactly what the paper's PoP density scores need.
#pragma once

#include <cstdint>
#include <span>

#include "geo/point.hpp"
#include "kde/grid.hpp"

namespace eyeball::kde {

struct KdeConfig {
  /// Kernel bandwidth (standard deviation of the Gaussian) in km.  The
  /// paper uses 40 km for city-level resolution and sweeps 10-80 km.
  double bandwidth_km = 40.0;
  /// Grid resolution; must resolve the kernel (cell <= bandwidth / 2).
  double cell_km = 5.0;
  /// Kernel support radius in standard deviations.
  double truncate_sigmas = 4.0;
  /// Upper bound on grid cells; the grid coarsens itself beyond this.
  std::size_t max_cells = 8000000;
};

class KernelDensityEstimator {
 public:
  explicit KernelDensityEstimator(KdeConfig config);

  [[nodiscard]] const KdeConfig& config() const noexcept { return config_; }

  /// Fast binned+separable estimate over `box`.  Throws on empty input.
  [[nodiscard]] DensityGrid estimate(std::span<const geo::GeoPoint> points,
                                     const geo::BoundingBox& box) const;

  /// Bounding box around the points padded by the kernel support plus
  /// `extra_margin_km` — pass this to estimate() so no mass is clipped.
  [[nodiscard]] geo::BoundingBox padded_box(std::span<const geo::GeoPoint> points,
                                            double extra_margin_km = 20.0) const;

  /// Exact per-cell sum of Gaussians (no binning).  O(N x cells); reference
  /// implementation for correctness tests and the accuracy ablation bench.
  [[nodiscard]] DensityGrid estimate_exact(std::span<const geo::GeoPoint> points,
                                           const geo::BoundingBox& box) const;

 private:
  KdeConfig config_;
};

}  // namespace eyeball::kde

// Differential tests for the register-tiled separable-KDE convolutions
// (src/kde/convolve.hpp; DESIGN.md "Data layout & vectorization").
//
// The tiled kernels promise EXACT equality with the obvious scalar loop:
// tiling widens across independent output cells and each cell still sums
// its taps in ascending index order, so no floating-point operation is
// reassociated — including in the clipped edge tiles and under the hot-TU
// -O3/-mavx2 build this binary links against.  Every comparison here is
// therefore `==` on doubles, never a tolerance.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <vector>

#include "geo/point.hpp"
#include "kde/convolve.hpp"
#include "kde/estimator.hpp"
#include "util/rng.hpp"

namespace eyeball::kde {
namespace {

constexpr std::size_t kTile = detail::kConvolveTile;

/// The one-output-at-a-time reference: for output i, taps accumulate in
/// ascending tap order, out-of-range taps dropped (edge clipping).
std::vector<double> reference_convolve(const std::vector<double>& src,
                                       const std::vector<double>& taps) {
  const auto n = static_cast<std::ptrdiff_t>(src.size());
  const auto radius = static_cast<std::ptrdiff_t>(taps.size() / 2);
  std::vector<double> dst(src.size());
  for (std::ptrdiff_t i = 0; i < n; ++i) {
    double acc = 0.0;
    for (std::ptrdiff_t k = 0; k < static_cast<std::ptrdiff_t>(taps.size()); ++k) {
      const std::ptrdiff_t j = i + k - radius;
      if (j < 0 || j >= n) continue;
      acc += src[static_cast<std::size_t>(j)] * taps[static_cast<std::size_t>(k)];
    }
    dst[static_cast<std::size_t>(i)] = acc;
  }
  return dst;
}

std::vector<double> random_values(util::Rng& rng, std::size_t n) {
  std::vector<double> out(n);
  // Mixed-sign values so a dropped or duplicated tap cannot cancel out.
  for (auto& v : out) v = rng.uniform(-2.0, 2.0);
  return out;
}

std::vector<double> random_taps(util::Rng& rng, std::size_t radius) {
  std::vector<double> taps(2 * radius + 1);
  for (auto& t : taps) t = rng.uniform(0.0, 1.0);
  return taps;
}

void expect_row_matches_reference(const std::vector<double>& src,
                                  const std::vector<double>& taps) {
  const auto want = reference_convolve(src, taps);
  std::vector<double> got(src.size(), -1.0);
  detail::convolve_row(src.data(), got.data(), src.size(), taps.data(), taps.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got[i], want[i]) << "n=" << src.size() << " taps=" << taps.size()
                               << " cell " << i;
  }
}

TEST(ConvolveRow, MatchesScalarReferenceOnRandomizedInputs) {
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    util::Rng rng{seed};
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 300));
    const auto radius = static_cast<std::size_t>(rng.uniform_int(0, 80));
    expect_row_matches_reference(random_values(rng, n), random_taps(rng, radius));
  }
}

TEST(ConvolveRow, EdgeClippingExactAtTileBoundaries) {
  util::Rng rng{42};
  // Sizes straddling every peel boundary: partial-tile tails, rows fully
  // inside the clipped region, tiles spilling from the clipped prologue
  // into the interior, and kernels wider than the whole row.
  const std::size_t sizes[] = {1,         2,         kTile - 1, kTile,
                               kTile + 1, 2 * kTile, 3 * kTile + 7};
  const std::size_t radii[] = {0, 1, 5, kTile - 1, kTile, 2 * kTile, 100};
  for (const std::size_t n : sizes) {
    for (const std::size_t radius : radii) {
      expect_row_matches_reference(random_values(rng, n), random_taps(rng, radius));
    }
  }
}

/// Reference vertical pass: column-by-column scalar walk in ascending row
/// (= tap) order over the row-major rows x cols image.
std::vector<double> reference_convolve_columns(const std::vector<double>& src,
                                               std::size_t rows, std::size_t cols,
                                               const std::vector<double>& taps) {
  const auto srows = static_cast<std::ptrdiff_t>(rows);
  const auto radius = static_cast<std::ptrdiff_t>(taps.size() / 2);
  std::vector<double> dst(src.size());
  for (std::size_t c = 0; c < cols; ++c) {
    for (std::ptrdiff_t i = 0; i < srows; ++i) {
      double acc = 0.0;
      for (std::ptrdiff_t k = 0; k < static_cast<std::ptrdiff_t>(taps.size()); ++k) {
        const std::ptrdiff_t j = i + k - radius;
        if (j < 0 || j >= srows) continue;
        acc += src[static_cast<std::size_t>(j) * cols + c] *
               taps[static_cast<std::size_t>(k)];
      }
      dst[static_cast<std::size_t>(i) * cols + c] = acc;
    }
  }
  return dst;
}

void expect_columns_match_reference(std::size_t rows, std::size_t cols,
                                    std::size_t radius, std::uint64_t seed) {
  util::Rng rng{seed};
  const auto src = random_values(rng, rows * cols);
  const auto taps = random_taps(rng, radius);
  const auto want = reference_convolve_columns(src, rows, cols, taps);
  std::vector<double> got(src.size(), -1.0);
  // Tile the columns exactly the way estimate() does, remainder tile last.
  for (std::size_t col = 0; col < cols; col += kTile) {
    detail::convolve_columns_tile(src.data(), got.data(), rows, cols, col,
                                  std::min(kTile, cols - col), taps.data(),
                                  taps.size());
  }
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got[i], want[i]) << rows << "x" << cols << " taps=" << taps.size()
                               << " cell " << i;
  }
}

TEST(ConvolveColumns, MatchesScalarReferenceOnRandomizedImages) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    util::Rng rng{seed * 977};
    const auto rows = static_cast<std::size_t>(rng.uniform_int(1, 90));
    const auto cols = static_cast<std::size_t>(rng.uniform_int(1, 90));
    const auto radius = static_cast<std::size_t>(rng.uniform_int(0, 40));
    expect_columns_match_reference(rows, cols, radius, seed);
  }
}

TEST(ConvolveColumns, RemainderTilesAndShortImagesExact) {
  std::uint64_t seed = 7;
  // cols exercising the full-tile path, the <kTile remainder path, and
  // both; rows at and below 2*radius force the all-clipped degenerate walk.
  const std::size_t col_counts[] = {1, 5, kTile - 1, kTile, kTile + 3, 2 * kTile + 1};
  for (const std::size_t cols : col_counts) {
    for (const std::size_t rows : {1u, 3u, 9u, 40u}) {
      for (const std::size_t radius : {1u, 4u, 20u}) {
        expect_columns_match_reference(rows, cols, radius, ++seed);
      }
    }
  }
}

/// Seeded point cloud around Rome, with a share of the points pushed onto
/// the bounding box's rim so the clipped edge tiles carry real mass.
std::vector<geo::GeoPoint> random_cloud(std::uint64_t seed, std::size_t count) {
  util::Rng rng{seed};
  const geo::GeoPoint rome{41.9028, 12.4964};
  std::vector<geo::GeoPoint> points;
  points.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const double bearing = rng.uniform(0.0, 360.0);
    const double km = i % 8 == 0 ? rng.uniform(140.0, 150.0)  // rim cluster
                                 : rng.uniform(0.0, 150.0);
    points.push_back(geo::destination(rome, bearing, km));
  }
  return points;
}

TEST(KdeSimd, EstimateIsDeterministicAcrossRepeatedCalls) {
  const auto points = random_cloud(99, 400);
  KdeConfig config;
  config.bandwidth_km = 30.0;
  config.cell_km = 6.0;
  const KernelDensityEstimator estimator{config};
  const auto box = estimator.padded_box(points);
  const auto first = estimator.estimate(points, box);
  // The thread_local scratch buffer is reused on the second call; stale
  // contents must be unobservable.
  const auto second = estimator.estimate(points, box);
  EXPECT_TRUE(first.values() == second.values());
}

}  // namespace
}  // namespace eyeball::kde

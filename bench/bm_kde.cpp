// Microbenchmarks for the KDE engine: binned separable estimation vs the
// exact evaluator, across sample counts and kernel bandwidths, plus peak
// finding and contour extraction.
#include <benchmark/benchmark.h>

#include "common.hpp"

#include "geo/point.hpp"
#include "kde/contour.hpp"
#include "kde/estimator.hpp"
#include "kde/peaks.hpp"
#include "util/rng.hpp"

namespace {

using namespace eyeball;

std::vector<geo::GeoPoint> make_points(std::size_t count, std::uint64_t seed) {
  util::Rng rng{seed};
  const geo::GeoPoint rome{41.9028, 12.4964};
  std::vector<geo::GeoPoint> points;
  points.reserve(count);
  // Three clusters plus a diffuse background, country-scale spread.
  const geo::GeoPoint centers[] = {rome, geo::destination(rome, 0.0, 450.0),
                                   geo::destination(rome, 120.0, 300.0)};
  for (std::size_t i = 0; i < count; ++i) {
    if (rng.bernoulli(0.8)) {
      const auto& center = centers[rng.uniform_index(3)];
      points.push_back(geo::destination(center, rng.uniform(0.0, 360.0),
                                        rng.exponential(1.0 / 15.0)));
    } else {
      points.push_back(geo::destination(rome, rng.uniform(0.0, 360.0),
                                        rng.uniform(0.0, 500.0)));
    }
  }
  return points;
}

void BM_KdeBinned(benchmark::State& state) {
  const auto points = make_points(static_cast<std::size_t>(state.range(0)), 1);
  kde::KdeConfig config;
  config.bandwidth_km = 40.0;
  config.cell_km = 5.0;
  const kde::KernelDensityEstimator estimator{config};
  const auto box = estimator.padded_box(points);
  for (auto _ : state) {
    benchmark::DoNotOptimize(estimator.estimate(points, box));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_KdeBinned)->Arg(1000)->Arg(10000)->Arg(100000)->Arg(1000000)
    ->Unit(benchmark::kMillisecond);

void BM_KdeExact(benchmark::State& state) {
  const auto points = make_points(static_cast<std::size_t>(state.range(0)), 1);
  kde::KdeConfig config;
  config.bandwidth_km = 40.0;
  config.cell_km = 10.0;
  const kde::KernelDensityEstimator estimator{config};
  const auto box = estimator.padded_box(points);
  for (auto _ : state) {
    benchmark::DoNotOptimize(estimator.estimate_exact(points, box));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_KdeExact)->Arg(1000)->Arg(4000)->Unit(benchmark::kMillisecond);

void BM_KdeBandwidthSweep(benchmark::State& state) {
  const auto points = make_points(50000, 1);
  kde::KdeConfig config;
  config.bandwidth_km = static_cast<double>(state.range(0));
  config.cell_km = 5.0;
  const kde::KernelDensityEstimator estimator{config};
  const auto box = estimator.padded_box(points);
  for (auto _ : state) {
    benchmark::DoNotOptimize(estimator.estimate(points, box));
  }
}
BENCHMARK(BM_KdeBandwidthSweep)->Arg(10)->Arg(20)->Arg(40)->Arg(80)
    ->Unit(benchmark::kMillisecond);

void BM_PeakFinding(benchmark::State& state) {
  const auto points = make_points(100000, 1);
  kde::KdeConfig config;
  config.bandwidth_km = 40.0;
  const kde::KernelDensityEstimator estimator{config};
  const auto grid = estimator.estimate(points, estimator.padded_box(points));
  for (auto _ : state) {
    benchmark::DoNotOptimize(kde::find_peaks(grid, {0.01, 40.0, true}));
  }
}
BENCHMARK(BM_PeakFinding)->Unit(benchmark::kMillisecond);

void BM_ContourExtraction(benchmark::State& state) {
  const auto points = make_points(100000, 1);
  kde::KdeConfig config;
  config.bandwidth_km = 40.0;
  const kde::KernelDensityEstimator estimator{config};
  const auto grid = estimator.estimate(points, estimator.padded_box(points));
  for (auto _ : state) {
    benchmark::DoNotOptimize(kde::extract_footprint_relative(grid, 0.01));
  }
}
BENCHMARK(BM_ContourExtraction)->Unit(benchmark::kMillisecond);

}  // namespace

EYEBALL_BENCHMARK_MAIN()

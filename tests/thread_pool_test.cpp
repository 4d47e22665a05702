// util::ThreadPool unit tests plus the determinism contract of the parallel
// execution engine: the sharded dataset build and the pipeline's per-AS
// fan-out must produce bit-identical results at any thread count.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "pipeline_fixture.hpp"
#include "util/thread_pool.hpp"

namespace eyeball {
namespace {

TEST(ThreadPool, SubmitReturnsResult) {
  util::ThreadPool pool{2};
  auto future = pool.submit([] { return 6 * 7; });
  EXPECT_EQ(future.get(), 42);
}

TEST(ThreadPool, SubmitRunsOnWorkerThread) {
  util::ThreadPool pool{2};
  EXPECT_FALSE(util::ThreadPool::on_worker_thread());
  auto future = pool.submit([] { return util::ThreadPool::on_worker_thread(); });
  EXPECT_TRUE(future.get());
}

TEST(ThreadPool, ExceptionPropagatesFromWorker) {
  util::ThreadPool pool{2};
  auto future = pool.submit(
      []() -> int { throw std::runtime_error{"boom"}; });
  EXPECT_THROW(future.get(), std::runtime_error);
  // The pool survives a throwing task.
  EXPECT_EQ(pool.submit([] { return 1; }).get(), 1);
}

TEST(ThreadPool, ParallelForPropagatesFirstException) {
  util::ThreadPool pool{4};
  EXPECT_THROW(
      pool.parallel_for(0, 100,
                        [](std::size_t lo, std::size_t) {
                          if (lo == 0) throw std::invalid_argument{"chunk 0"};
                        }),
      std::invalid_argument);
}

TEST(ThreadPool, ParallelForEmptyRange) {
  util::ThreadPool pool{2};
  std::atomic<int> calls{0};
  pool.parallel_for(5, 5, [&](std::size_t, std::size_t) { ++calls; });
  pool.parallel_for(7, 3, [&](std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPool, ParallelForRangeSmallerThanWorkers) {
  util::ThreadPool pool{8};
  std::vector<std::atomic<int>> hits(3);
  pool.parallel_for(0, 3, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) ++hits[i];
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  util::ThreadPool pool{4};
  constexpr std::size_t kCount = 1000;
  std::vector<std::atomic<int>> hits(kCount);
  pool.parallel_for(10, 10 + kCount, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) ++hits[i - 10];
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForRespectsMaxConcurrency) {
  util::ThreadPool pool{8};
  std::atomic<int> chunks{0};
  pool.parallel_for(
      0, 1000, [&](std::size_t, std::size_t) { ++chunks; }, 3);
  EXPECT_LE(chunks.load(), 3);
}

TEST(ThreadPool, ChunkCountIndependentOfPoolSize) {
  // Chunk boundaries must depend only on the range and the requested
  // concurrency, never on how many workers happen to exist — a 1-worker
  // pool asked for 4 chunks still produces 4 (queued) chunks, so the
  // sharded merge order is identical on any machine.
  util::ThreadPool pool{1};
  std::atomic<int> chunks{0};
  pool.parallel_for(
      0, 1000, [&](std::size_t, std::size_t) { ++chunks; }, 4);
  EXPECT_EQ(chunks.load(), 4);

  std::vector<std::pair<std::size_t, std::size_t>> seen;
  pool.parallel_map_reduce(
      0, 1000,
      [](std::size_t, std::size_t lo, std::size_t hi) { return std::make_pair(lo, hi); },
      [&](std::pair<std::size_t, std::size_t> bounds) { seen.push_back(bounds); },
      4);
  ASSERT_EQ(seen.size(), 4u);
  EXPECT_EQ(seen.front().first, 0u);
  EXPECT_EQ(seen.back().second, 1000u);
  for (std::size_t i = 1; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i].first, seen[i - 1].second);
  }
}

TEST(ThreadPool, NestedParallelForRunsInlineOnWorker) {
  util::ThreadPool pool{2};
  std::atomic<int> inner_chunks{0};
  pool.parallel_for(0, 4, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      // A nested parallel_for from a worker must not re-enter the queue —
      // it runs the whole inner range as one inline chunk.
      util::ThreadPool::shared().parallel_for(
          0, 100, [&](std::size_t b, std::size_t e) {
            EXPECT_EQ(b, 0u);
            EXPECT_EQ(e, 100u);
            ++inner_chunks;
          });
    }
  });
  EXPECT_EQ(inner_chunks.load(), 4);
}

TEST(ThreadPool, MapReduceSumMatchesSerial) {
  util::ThreadPool pool{4};
  constexpr std::size_t kCount = 10000;
  long long total = 0;
  pool.parallel_map_reduce(
      0, kCount,
      [](std::size_t, std::size_t lo, std::size_t hi) {
        long long sum = 0;
        for (std::size_t i = lo; i < hi; ++i) sum += static_cast<long long>(i);
        return sum;
      },
      [&](long long chunk_sum) { total += chunk_sum; });
  EXPECT_EQ(total, static_cast<long long>(kCount) * (kCount - 1) / 2);
}

TEST(ThreadPool, MapReduceReducesInChunkOrder) {
  util::ThreadPool pool{4};
  // Each chunk returns its own bounds; the ordered reduction must see them
  // left-to-right and covering the range exactly once, however the chunks
  // were scheduled.
  std::vector<std::pair<std::size_t, std::size_t>> seen;
  pool.parallel_map_reduce(
      5, 505,
      [](std::size_t, std::size_t lo, std::size_t hi) { return std::make_pair(lo, hi); },
      [&](std::pair<std::size_t, std::size_t> bounds) { seen.push_back(bounds); });
  ASSERT_FALSE(seen.empty());
  EXPECT_EQ(seen.front().first, 5u);
  EXPECT_EQ(seen.back().second, 505u);
  for (std::size_t i = 1; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i].first, seen[i - 1].second);
  }
}

TEST(ThreadPool, MapReduceEmptyRangeAndConcurrencyOne) {
  util::ThreadPool pool{4};
  int reduces = 0;
  pool.parallel_map_reduce(
      3, 3, [](std::size_t, std::size_t, std::size_t) { return 0; },
      [&](int) { ++reduces; });
  EXPECT_EQ(reduces, 0);
  // max_concurrency 1 runs inline as a single chunk.
  pool.parallel_map_reduce(
      0, 100, [](std::size_t, std::size_t lo, std::size_t hi) { return hi - lo; },
      [&](std::size_t n) {
        EXPECT_EQ(n, 100u);
        ++reduces;
      },
      1);
  EXPECT_EQ(reduces, 1);
}

TEST(ThreadPool, MapReceivesItsChunkIndex) {
  util::ThreadPool pool{2};
  // Per-chunk state (the streaming builder's memo slots) is addressed by
  // this index: chunks count left to right, one per chunk_count().
  for (const std::size_t ways : {std::size_t{1}, std::size_t{3}, std::size_t{4}}) {
    std::vector<std::size_t> chunks;
    pool.parallel_map_reduce(
        0, 9, [](std::size_t chunk, std::size_t, std::size_t) { return chunk; },
        [&](std::size_t chunk) { chunks.push_back(chunk); }, ways);
    ASSERT_EQ(chunks.size(), pool.chunk_count(9, ways)) << "ways " << ways;
    for (std::size_t i = 0; i < chunks.size(); ++i) EXPECT_EQ(chunks[i], i);
  }
  EXPECT_EQ(pool.chunk_count(9, 4), 3u);  // chunks of 3: the fourth is empty
  EXPECT_EQ(pool.chunk_count(2, 8), 2u);
  EXPECT_EQ(pool.chunk_count(0, 4), 0u);
  EXPECT_EQ(pool.chunk_count(100, 0), 2u);  // 0 = one chunk per worker
  // On a worker every fan-out is one inline chunk.
  EXPECT_EQ(pool.submit([&pool] { return pool.chunk_count(100, 4); }).get(), 1u);
}

TEST(ThreadPool, MapReducePropagatesMapException) {
  util::ThreadPool pool{4};
  EXPECT_THROW(
      pool.parallel_map_reduce(
          0, 100,
          [](std::size_t, std::size_t lo, std::size_t) -> int {
            if (lo == 0) throw std::invalid_argument{"chunk 0"};
            return 0;
          },
          [](int) {}),
      std::invalid_argument);
}

bool same_analysis(const core::AsAnalysis& a, const core::AsAnalysis& b) {
  if (a.asn != b.asn) return false;
  if (a.classification.level != b.classification.level ||
      a.classification.dominant_region != b.classification.dominant_region ||
      a.classification.dominant_share != b.classification.dominant_share) {
    return false;
  }
  if (a.footprint.grid.values() != b.footprint.grid.values()) return false;
  if (a.footprint.peaks.size() != b.footprint.peaks.size()) return false;
  for (std::size_t i = 0; i < a.footprint.peaks.size(); ++i) {
    const auto& pa = a.footprint.peaks[i];
    const auto& pb = b.footprint.peaks[i];
    if (pa.location != pb.location || pa.density != pb.density ||
        pa.score != pb.score || pa.row != pb.row || pa.col != pb.col) {
      return false;
    }
  }
  if (a.pops.unmapped_peaks != b.pops.unmapped_peaks) return false;
  if (a.pops.pops.size() != b.pops.pops.size()) return false;
  for (std::size_t i = 0; i < a.pops.pops.size(); ++i) {
    const auto& pa = a.pops.pops[i];
    const auto& pb = b.pops.pops[i];
    if (pa.city != pb.city || pa.score != pb.score ||
        pa.peak_density != pb.peak_density || pa.peak_location != pb.peak_location) {
      return false;
    }
  }
  return true;
}

TEST(ParallelPipeline, AnalyzeAllMatchesSerialOnSyntheticTopology) {
  const auto& fixture = testing::shared_fixture();
  const auto ases = fixture.dataset.ases();
  ASSERT_FALSE(ases.empty());

  const auto serial = fixture.pipeline.analyze_all(ases, 1);
  ASSERT_EQ(serial.size(), ases.size());
  // Serial fan-out equals the plain per-AS loop.
  for (std::size_t i = 0; i < ases.size(); ++i) {
    EXPECT_TRUE(same_analysis(serial[i], fixture.pipeline.analyze(ases[i]))) << i;
  }

  for (const std::size_t threads : {2u, 4u, 0u}) {
    const auto parallel = fixture.pipeline.analyze_all(ases, threads);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_TRUE(same_analysis(serial[i], parallel[i]))
          << "threads=" << threads << " as index " << i;
    }
  }
}

void expect_same_dataset(const core::TargetDataset& reference,
                         const core::TargetDataset& candidate, std::size_t threads) {
  EXPECT_EQ(reference.stats(), candidate.stats())
      << "threads=" << threads << " diverged: "
      << core::diff_stats(reference.stats(), candidate.stats());
  ASSERT_EQ(reference.ases().size(), candidate.ases().size()) << "threads=" << threads;
  for (std::size_t a = 0; a < reference.ases().size(); ++a) {
    const auto& ra = reference.ases()[a];
    const auto& ca = candidate.ases()[a];
    EXPECT_EQ(ra.asn, ca.asn) << "threads=" << threads << " as index " << a;
    ASSERT_EQ(ra.peers.size(), ca.peers.size())
        << "threads=" << threads << " as index " << a;
    for (std::size_t p = 0; p < ra.peers.size(); ++p) {
      const auto& rp = ra.peers[p];
      const auto& cp = ca.peers[p];
      const bool same = rp.ip == cp.ip && rp.app == cp.app &&
                        rp.location == cp.location &&
                        rp.geo_error_km == cp.geo_error_km &&
                        rp.reported_city == cp.reported_city;
      EXPECT_TRUE(same) << "threads=" << threads << " as index " << a << " peer " << p;
      if (!same) return;
    }
  }
}

TEST(ParallelDataset, ShardedBuildByteIdenticalAcrossThreadCounts) {
  const auto& fixture = testing::shared_fixture();
  const auto samples = std::span<const p2p::PeerSample>{fixture.crawl.samples};

  const auto reference = fixture.pipeline.build_dataset(samples, 1);
  // The serial shard path is the fixture dataset's own build.
  expect_same_dataset(fixture.dataset, reference, 1);

  for (const std::size_t threads : {2u, 3u, 4u, 0u}) {
    expect_same_dataset(reference, fixture.pipeline.build_dataset(samples, threads),
                        threads);
  }
}

TEST(ParallelDataset, LookupMemoInvisibleToResults) {
  const auto& fixture = testing::shared_fixture();
  core::DatasetConfig no_memo = fixture.pipeline.config().dataset;
  no_memo.lookup_memo_slots = 0;
  const core::DatasetBuilder builder{fixture.primary, fixture.secondary,
                                     fixture.mapper, no_memo};
  expect_same_dataset(fixture.dataset, builder.build(fixture.crawl.samples, 4), 4);
}

}  // namespace
}  // namespace eyeball

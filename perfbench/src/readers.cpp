#include "readers.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <numeric>
#include <thread>

#include "util/rng.hpp"

namespace perfbench {
namespace {

using namespace eyeball;
using serve::ServingSnapshot;

constexpr std::size_t kKeys = 1U << 16;  // power of two: the streams cycle by mask
constexpr std::uint64_t kBatchEvery = 16;
/// Point queries per block; block wall times give the per-reader rate.
constexpr std::uint64_t kBlock = 1U << 16;
constexpr std::size_t kMisses = 64;
/// Share of point queries for ASNs no epoch serves.  An assumption, not a
/// traffic measurement: nothing in the crawl says how often clients ask
/// about ASes the service does not hold.
constexpr double kMissShare = 0.1;
/// Every kTimeEvery-th point query is timed (two clock reads would
/// otherwise rival a lookup); every batch is timed.
constexpr std::uint64_t kTimeEvery = 16;
constexpr std::uint64_t kSpanEvery = 64;
constexpr std::size_t kMaxLatencySamples = 1U << 22;
constexpr std::size_t kMaxErrors = 4;
/// Top bit set: reader span ids never meet the tracer's counter.
constexpr std::uint64_t kReaderSpanIds = std::uint64_t{1} << 63;

std::uint32_t clamp_ns(Clock::duration d) {
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(d).count();
  return static_cast<std::uint32_t>(std::clamp<std::int64_t>(ns, 0, 0xFFFFFFFF));
}

void fail(ReaderStats& stats, const char* why) {
  ++stats.failed;
  if (stats.errors.size() < kMaxErrors) stats.errors.emplace_back(why);
}

/// The closed loop shared by every reader flavour.  `point(asn, i)` and
/// `batch(asns, i)` answer the i-th query; `ready()` is true once an epoch
/// is published.
template <class Ready, class Point, class Batch>
ReaderStats reader_loop(const ReaderSetup& setup, Ready ready, Point point, Batch batch) {
  const ProbeSet& probe = *setup.probe;
  const KeyStream& keys = *setup.keys;
  ReaderStats stats;
  stats.answers.assign(kMaxEpochs * probe.asns.size(), {0, 0});
  while (!ready() && !setup.stop->load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(std::chrono::microseconds{200});
  }

  std::uint64_t last_epoch = 0;
  const auto record = [&](const ServingSnapshot* snapshot,
                          const core::AsAnalysis* analysis, std::uint32_t key) {
    if (snapshot == nullptr) return fail(stats, "answer without a published epoch");
    const std::uint64_t epoch = snapshot->epoch();
    if (epoch < last_epoch) fail(stats, "a reader's epoch went backwards");
    last_epoch = std::max(last_epoch, epoch);
    if (epoch >= kMaxEpochs) return fail(stats, "epoch beyond the oracle's range");
    if (analysis != nullptr) {
      if (analysis->asn != probe.asns[key]) fail(stats, "answer for another ASN");
      if (!snapshot->artifact_backed()) {
        const auto in_epoch = snapshot->analyses();
        if (analysis < in_epoch.data() || analysis >= in_epoch.data() + in_epoch.size()) {
          fail(stats, "answer from outside its pinned epoch");
        }
      }
    }
    ++stats.answers[epoch * probe.asns.size() + key][analysis == nullptr ? 1 : 0];
  };

  std::array<net::Asn, kBatchSize> batch_asns{};
  std::array<std::uint32_t, kBatchSize> batch_keys{};
  const auto start = Clock::now();
  auto block_start = start;
  for (std::uint64_t i = 0; !setup.stop->load(std::memory_order_relaxed); ++i) {
    const std::uint32_t key = keys.point[i & (kKeys - 1)];
    const bool timed = i % kTimeEvery == 0;
    const auto t0 = timed ? Clock::now() : Clock::time_point{};
    const serve::AnalysisRef ref = point(probe.asns[key], i);
    if (timed) {
      if (stats.point_ns.size() < kMaxLatencySamples) {
        stats.point_ns.push_back(clamp_ns(Clock::now() - t0));
      }
      if (setup.published != nullptr && ref.snapshot != nullptr) {
        const std::uint64_t newest = setup.published->load(std::memory_order_acquire);
        if (newest > ref.epoch()) {
          stats.max_lag = std::max(stats.max_lag, newest - ref.epoch());
        }
      }
    }
    ++stats.points;
    if (ref.analysis != nullptr) ++stats.point_hits;
    record(ref.snapshot.get(), ref.analysis, key);

    if (i % kBatchEvery == 0) {
      const std::size_t base = (i / kBatchEvery * kBatchSize) & (kKeys - 1);
      for (std::size_t j = 0; j < kBatchSize; ++j) {
        batch_keys[j] = keys.batch[base + j];
        batch_asns[j] = probe.asns[batch_keys[j]];
      }
      const auto b0 = Clock::now();
      const serve::BatchResult result = batch(std::span<const net::Asn>{batch_asns}, i);
      const auto b1 = Clock::now();
      if (stats.batch_ns.size() < kMaxLatencySamples) {
        stats.batch_ns.push_back(clamp_ns(b1 - b0));
      }
      ++stats.batches;
      if (result.analyses.size() != kBatchSize) {
        fail(stats, "batch answered the wrong number of ASNs");
      } else {
        for (std::size_t j = 0; j < kBatchSize; ++j) {
          record(result.snapshot.get(), result.analyses[j], batch_keys[j]);
        }
      }
    }
    if ((i + 1) % kBlock == 0) {
      const auto now = Clock::now();
      stats.block_s.push_back(seconds_between(block_start, now));
      block_start = now;
    }
  }
  stats.seconds = seconds_between(start, Clock::now());
  return stats;
}

/// Traced flavour: pin + find, with a "query"/"batch" span and its "pin"
/// and "lookup" children on every kSpanEvery-th query.
template <class Pin>
ReaderStats traced_loop(const ReaderSetup& setup, Pin pin) {
  Tracer& tracer = *setup.tracer;
  std::vector<SpanRecord> spans;
  const auto sampled = [&](const char* root_name, std::uint64_t i, auto&& lookup) {
    const std::uint64_t request = setup.request_base + i;
    const std::int64_t t0 = tracer.now_ns();
    auto snapshot = pin();
    const std::int64_t t1 = tracer.now_ns();
    auto answer = lookup(std::move(snapshot));
    const std::int64_t t2 = tracer.now_ns();
    // Reader span ids derive from the (unique) request id rather than the
    // tracer's shared counter, which readers would contend on.
    const std::uint64_t root = kReaderSpanIds | request << 2;
    spans.push_back({root_name, root, 0, request, t0, t2});
    spans.push_back({"pin", root + 1, root, request, t0, t1});
    spans.push_back({"lookup", root + 2, root, request, t1, t2});
    return answer;
  };
  ReaderStats stats = reader_loop(
      setup, [&] { return pin() != nullptr; },
      [&](net::Asn asn, std::uint64_t i) {
        const auto lookup = [asn](std::shared_ptr<const ServingSnapshot> snapshot) {
          const core::AsAnalysis* analysis =
              snapshot == nullptr ? nullptr : snapshot->find(asn);
          return serve::AnalysisRef{std::move(snapshot), analysis};
        };
        if (i % kSpanEvery == 0) return sampled("query", i, lookup);
        return lookup(pin());
      },
      [&](std::span<const net::Asn> asns, std::uint64_t i) {
        const auto lookup = [asns](std::shared_ptr<const ServingSnapshot> snapshot) {
          serve::BatchResult result{std::move(snapshot),
                                    std::vector<const core::AsAnalysis*>(asns.size())};
          if (result.snapshot != nullptr) {
            for (std::size_t j = 0; j < asns.size(); ++j) {
              result.analyses[j] = result.snapshot->find(asns[j]);
            }
          }
          return result;
        };
        if (i % kSpanEvery == 0) return sampled("batch", i, lookup);
        return lookup(pin());
      });
  stats.spans = std::move(spans);
  return stats;
}

}  // namespace

ProbeSet make_probe_set(const core::TargetDataset& dataset) {
  const auto ases = dataset.ases();
  std::vector<std::size_t> order(ases.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return ases[a].peers.size() > ases[b].peers.size();
  });
  ProbeSet probe;
  for (const std::size_t i : order) probe.asns.push_back(ases[i].asn);
  probe.served = probe.asns.size();
  if (probe.served > 1) {
    double sx = 0.0;
    double sy = 0.0;
    double sxx = 0.0;
    double sxy = 0.0;
    for (std::size_t k = 0; k < probe.served; ++k) {
      const double x = std::log(static_cast<double>(k + 1));
      const double y = std::log(static_cast<double>(std::max<std::size_t>(
          ases[order[k]].peers.size(), 1)));
      sx += x;
      sy += y;
      sxx += x * x;
      sxy += x * y;
    }
    const auto n = static_cast<double>(probe.served);
    probe.zipf_exponent = std::max(0.0, -(n * sxy - sx * sy) / (n * sxx - sx * sx));
  }
  // Private-use 32-bit ASNs: no ecosystem allocates them.
  for (std::uint32_t v = 4'200'000'000U; probe.asns.size() < probe.served + kMisses; ++v) {
    if (dataset.find(net::Asn{v}) == nullptr) probe.asns.push_back(net::Asn{v});
  }
  return probe;
}

KeyStream make_keys(const ProbeSet& probe, std::uint64_t seed, std::uint64_t stream) {
  util::Rng rng{seed * 0x9E3779B97F4A7C15ULL + stream};
  const util::ZipfSampler zipf{probe.served, probe.zipf_exponent};
  const std::size_t misses = probe.asns.size() - probe.served;
  const auto draw = [&] {
    return static_cast<std::uint32_t>(
        rng.bernoulli(kMissShare) ? probe.served + rng.uniform_index(misses)
                                  : zipf.sample(rng));
  };
  KeyStream keys;
  keys.point.resize(kKeys);
  keys.batch.resize(kKeys);
  for (auto& key : keys.point) key = draw();
  for (auto& key : keys.batch) key = draw();
  return keys;
}

ReaderStats run_reader(const serve::EyeballService& service, const ReaderSetup& setup) {
  return reader_loop(
      setup, [&] { return service.epoch() != 0; },
      [&](net::Asn asn, std::uint64_t) { return service.query(asn); },
      [&](std::span<const net::Asn> asns, std::uint64_t) {
        return service.query_batch(asns);
      });
}

ReaderStats run_traced_reader(const serve::EyeballService& service,
                              const ReaderSetup& setup) {
  return traced_loop(setup, [&] { return service.snapshot(); });
}

ReaderStats run_traced_reader(const serve::detail::SnapshotCell& cell,
                              const ReaderSetup& setup) {
  return traced_loop(setup, [&] { return cell.load(); });
}

void check_answers(const ReaderStats& stats, const ProbeSet& probe,
                   const std::vector<std::vector<net::Asn>>& served, Ledger& ledger) {
  const std::size_t keys = probe.asns.size();
  std::uint64_t checked = 0;
  std::uint64_t wrong = 0;
  for (std::uint64_t epoch = 0; epoch < kMaxEpochs; ++epoch) {
    for (std::size_t key = 0; key < keys; ++key) {
      const auto [hits, misses] = stats.answers[epoch * keys + key];
      if (hits + misses == 0) continue;
      checked += hits + misses;
      if (epoch == 0 || epoch >= served.size()) {
        wrong += hits + misses;
        ledger.note_failure("answers from epoch " + std::to_string(epoch) +
                            ", which the run never published");
        continue;
      }
      const bool expected = std::binary_search(served[epoch].begin(), served[epoch].end(),
                                               probe.asns[key]);
      const std::uint64_t bad = expected ? misses : hits;
      if (bad != 0) {
        wrong += bad;
        ledger.note_failure("epoch " + std::to_string(epoch) + " answered ASN " +
                            std::to_string(net::value_of(probe.asns[key])) +
                            (expected ? " as a miss" : " as a hit"));
      }
    }
  }
  ledger.add("answer.probe_set", checked, wrong);
}

}  // namespace perfbench

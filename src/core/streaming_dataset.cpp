#include "core/streaming_dataset.hpp"

#include <algorithm>
#include <utility>

#include "util/check.hpp"
#include "util/mutex.hpp"
#include "util/thread_pool.hpp"

namespace eyeball::core {

namespace {

/// Collision-free dedup key: the app tag in the high bits, the IP below.
[[nodiscard]] constexpr std::uint64_t sample_key(const p2p::PeerSample& sample) noexcept {
  return (static_cast<std::uint64_t>(sample.app) << 32) | sample.ip.value();
}

/// The admission door for hostile windows: a sample is admitted only if its
/// IP is plausibly an eyeball address and its app tag is one of the crawled
/// applications.  Special-use address space can never geolocate to an
/// eyeball ("Lost in the Prefix"'s failure mode), so the door rejects every
/// non-routable range, not just the octet-aligned ones: 0/8, 10/8, 127/8,
/// multicast/reserved (224.0.0.0+), 100.64/10 (CGNAT), 172.16/12 and
/// 192.168/16 (RFC 1918), and 169.254/16 (link-local).  Checked BEFORE the
/// dedup set, so a rejected sample leaves no trace — a later valid
/// observation of the same (app, ip) is still a first observation.  Shared
/// by ingest() and dedup_first_observation() (same TU), which keeps the
/// streaming and one-shot doors in lockstep by construction.
[[nodiscard]] constexpr bool is_admissible_sample(const p2p::PeerSample& sample) noexcept {
  const std::uint32_t ip = sample.ip.value();
  const std::uint32_t top = ip >> 24;
  if (top == 0 || top == 10 || top == 127 || top >= 224) return false;
  if ((ip >> 22) == 0x191u) return false;   // 100.64.0.0/10 (CGNAT)
  if ((ip >> 20) == 0xac1u) return false;   // 172.16.0.0/12 (RFC 1918)
  if ((ip >> 16) == 0xa9feu) return false;  // 169.254.0.0/16 (link-local)
  if ((ip >> 16) == 0xc0a8u) return false;  // 192.168.0.0/16 (RFC 1918)
  return static_cast<std::uint8_t>(sample.app) < p2p::kAllApps.size();
}

}  // namespace

std::vector<p2p::PeerSample> dedup_first_observation(
    std::span<const p2p::PeerSample> samples) {
  std::vector<p2p::PeerSample> out;
  out.reserve(samples.size());
  std::unordered_set<std::uint64_t> seen;
  seen.reserve(samples.size());
  for (const auto& sample : samples) {
    // Same admission door as ingest(): the result must be exactly the
    // stream a StreamingDatasetBuilder admits, or the streaming-vs-one-shot
    // equivalence contract would break on hostile input.
    if (!is_admissible_sample(sample)) continue;
    if (seen.insert(sample_key(sample)).second) out.push_back(sample);
  }
  return out;
}

StreamingDatasetBuilder::StreamingDatasetBuilder(const geodb::GeoDatabase& primary,
                                                 const geodb::GeoDatabase& secondary,
                                                 const bgp::IpToAsMapper& mapper,
                                                 DatasetConfig config)
    : primary_(primary), secondary_(secondary), mapper_(mapper), config_(config) {}

void StreamingDatasetBuilder::ensure_memo_slots(std::size_t shards) {
  memos_.reserve(shards);
  while (memos_.size() < shards) {
    memos_.push_back(ShardMemos{
        geodb::LookupMemo{primary_, config_.lookup_memo_slots},
        geodb::LookupMemo{secondary_, config_.lookup_memo_slots}});
  }
}

void StreamingDatasetBuilder::ingest(std::span<const p2p::PeerSample> window) {
  const util::SerialSection owner{serial_};
  ingest_locked(window, config_.threads);
}

void StreamingDatasetBuilder::ingest(std::span<const p2p::PeerSample> window,
                                     std::size_t threads) {
  const util::SerialSection owner{serial_};
  ingest_locked(window, threads);
}

void StreamingDatasetBuilder::ingest_locked(std::span<const p2p::PeerSample> window,
                                            std::size_t threads) {
  // Cross-window first-observation dedup (longitudinal_crawl's union
  // semantics).  Serial and order-preserving: the admitted stream must be
  // independent of the shard count below.
  WindowStats window_stats;
  window_stats.offered = window.size();
  pending_.clear();
  pending_.reserve(window.size());
  for (const auto& sample : window) {
    if (!is_admissible_sample(sample)) {
      ++window_stats.rejected;
    } else if (seen_.insert(sample_key(sample)).second) {
      pending_.push_back(sample);
    } else {
      ++window_stats.duplicates;
    }
  }
  window_stats.admitted = pending_.size();
  window_stats.cumulative_unique = seen_.size();
  stats_.raw_samples += window_stats.admitted;
  stats_.rejected_samples += window_stats.rejected;

  // Stage 1 over the admitted window only, sharded exactly like the
  // one-shot build.  Shard slices are contiguous and folded in shard
  // order, so each AS's bucket extends in stream order — the ordered-merge
  // invariant, applied window by window.  The pool's chunk index addresses
  // the shard's persistent memo slot, so each concurrent shard owns one
  // slot and the hot loop stays lock-free.
  auto& pool = util::ThreadPool::shared();
  const std::size_t count = pending_.size();
  ensure_memo_slots(pool.chunk_count(count, threads));
  detail::ConditionCounters dropped;
  const std::span<const p2p::PeerSample> admitted{pending_};
  // Local references for the lambdas below: the thread-safety analysis
  // checks a lambda body as its own function, so guarded members reached
  // through the captured `this` would need the role re-claimed per shard.
  // Binding them here keeps the guarded accesses inside this (role-holding)
  // function; the lambdas see plain locals.  Safety is by disjointness, as
  // before: each shard lambda touches only its own memo slot, and the
  // reduce lambda runs on this thread only, in shard order.
  auto& shard_memos = memos_;
  const bgp::IpToAsMapper& mapper = mapper_;
  const DatasetConfig& config = config_;
  auto& by_as = by_as_;
  auto& touched = touched_;
  pool.parallel_map_reduce(
      0, count,
      [&](std::size_t shard, std::size_t lo, std::size_t hi) {
        EYEBALL_DCHECK(shard < shard_memos.size(),
                       "shard index must address a persistent memo slot");
        auto& memos = shard_memos[shard];
        return detail::condition_chunk(admitted, lo, hi, memos.primary,
                                       memos.secondary, mapper, config);
      },
      [&](detail::ConditionShard shard) {
        for (const auto& set : shard.by_as) touched.insert(net::value_of(set.asn));
        detail::merge_shard_ordered(std::move(shard), by_as, dropped);
      },
      threads);
  dropped.add_to(stats_);
  stats_.windows.push_back(window_stats);
}

TargetDataset StreamingDatasetBuilder::finalize() {
  const util::SerialSection owner{serial_};
  return finalize_locked(config_.threads);
}

TargetDataset StreamingDatasetBuilder::finalize(std::size_t threads) {
  const util::SerialSection owner{serial_};
  return finalize_locked(threads);
}

TargetDataset StreamingDatasetBuilder::finalize_locked(std::size_t threads) {
  DatasetStats stats = stats_;  // stage-1 counters + window snapshots
  std::vector<AsPeerSet*> buckets;
  buckets.reserve(by_as_.size());
  for (auto& [asn_value, set] : by_as_) buckets.push_back(&set);
  // Copies kept sets out; the live buckets stay intact for further ingests.
  auto kept = detail::filter_ases(buckets, config_, threads, stats,
                                  /*take_ownership=*/false);
  touched_.clear();
  return TargetDataset{std::move(kept), std::move(stats)};
}

std::vector<net::Asn> StreamingDatasetBuilder::touched_asns() const {
  const util::SerialSection owner{serial_};
  std::vector<std::uint32_t> values(touched_.begin(), touched_.end());
  std::sort(values.begin(), values.end());
  std::vector<net::Asn> out;
  out.reserve(values.size());
  for (const auto value : values) out.push_back(net::Asn{value});
  return out;
}

std::size_t StreamingDatasetBuilder::memo_hits() const noexcept {
  const util::SerialSection owner{serial_};
  std::size_t total = 0;
  for (const auto& memos : memos_) total += memos.primary.hits() + memos.secondary.hits();
  return total;
}

std::size_t StreamingDatasetBuilder::memo_misses() const noexcept {
  const util::SerialSection owner{serial_};
  std::size_t total = 0;
  for (const auto& memos : memos_) {
    total += memos.primary.misses() + memos.secondary.misses();
  }
  return total;
}

void StreamingDatasetBuilder::reset() {
  const util::SerialSection owner{serial_};
  by_as_.clear();
  seen_.clear();
  stats_ = DatasetStats{};
  touched_.clear();
  pending_.clear();
  pending_.shrink_to_fit();
  last_generation_ = 0;
  for (auto& memos : memos_) {
    memos.primary.reset();
    memos.secondary.reset();
  }
}

}  // namespace eyeball::core

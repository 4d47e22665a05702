// Closed-loop reader threads: each caller waits for its answer before it
// sends the next query.  Point queries draw from a seeded Zipf sampler over
// the served ASNs ranked by peer count, its exponent fitted to those peer
// counts, plus a fixed share of ASNs that are never served; every 16th point
// query also sends one 16-ASN batch.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/dataset.hpp"
#include "report.hpp"
#include "serve/service.hpp"
#include "trace.hpp"
#include "writer.hpp"

namespace perfbench {

inline constexpr std::size_t kBatchSize = 16;
/// Epoch numbers a run may publish (the oracle tallies answers per epoch).
inline constexpr std::uint64_t kMaxEpochs = 16;

/// The query key space: served ASNs ranked by peer count (most first), then
/// ASNs that no epoch serves.
struct ProbeSet {
  std::vector<eyeball::net::Asn> asns;
  std::size_t served = 0;
  /// Rank-size exponent of the served ASes' peer counts (least squares of
  /// log peers on log rank): Zipf draws at this exponent give each AS a
  /// query share that tracks its share of the crawl's peers.
  double zipf_exponent = 0.0;
};
[[nodiscard]] ProbeSet make_probe_set(const eyeball::core::TargetDataset& dataset);

/// One reader's pre-drawn key indices (cycled), so drawing costs nothing in
/// the timed loop.
struct KeyStream {
  std::vector<std::uint32_t> point;
  std::vector<std::uint32_t> batch;
};
[[nodiscard]] KeyStream make_keys(const ProbeSet& probe, std::uint64_t seed,
                                  std::uint64_t stream);

struct ReaderStats {
  std::uint64_t points = 0;
  std::uint64_t point_hits = 0;
  std::uint64_t batches = 0;
  /// Answers that broke the oracle at once: no epoch, an epoch older than
  /// one this reader already saw, or an analysis of another ASN or epoch.
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  /// Sampled point latencies and every batch latency.
  std::vector<std::uint32_t> point_ns;
  std::vector<std::uint32_t> batch_ns;
  /// Wall time of each block of 65536 point queries (batches included).
  std::vector<double> block_s;
  /// answers[epoch * keys + key] = {hits, misses}, for the probe-set check.
  std::vector<std::array<std::uint64_t, 2>> answers;
  /// Largest gap between the newest published epoch and an answered one.
  std::uint64_t max_lag = 0;
  /// Time from the reader's first query to its stop.
  double seconds = 0.0;
  /// Sampled query spans (traced readers only).
  std::vector<SpanRecord> spans;
};

/// What a reader thread needs; all pointers outlive the reader.
struct ReaderSetup {
  const ProbeSet* probe = nullptr;
  const KeyStream* keys = nullptr;
  const std::atomic<bool>* stop = nullptr;
  /// Newest epoch the writer has finished publishing (0: writer idle).
  const std::atomic<std::uint64_t>* published = nullptr;
  /// Traced readers sample every kSpanEvery-th query into spans.
  Tracer* tracer = nullptr;
  std::uint64_t request_base = 0;
};

/// Untraced: EyeballService::query / query_batch.
[[nodiscard]] ReaderStats run_reader(const eyeball::serve::EyeballService& service,
                                     const ReaderSetup& setup);

/// Traced: pins with EyeballService::snapshot (or, for epochs the traced
/// writer builds, its cell) and looks up with ServingSnapshot::find.
[[nodiscard]] ReaderStats run_traced_reader(const eyeball::serve::EyeballService& service,
                                            const ReaderSetup& setup);
[[nodiscard]] ReaderStats run_traced_reader(
    const eyeball::serve::detail::SnapshotCell& cell, const ReaderSetup& setup);

/// The probe-set check, after the readers joined: every hit must be an ASN
/// the answering epoch serves, every miss one it does not.  `served[e]` is
/// the sorted ASN list epoch e serves.  Records class "answer.probe_set".
void check_answers(
    const ReaderStats& stats, const ProbeSet& probe,
    const std::vector<std::vector<eyeball::net::Asn>>& served, Ledger& ledger);

}  // namespace perfbench

#include "workloads.hpp"

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <exception>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <thread>

#include "readers.hpp"
#include "serve/service.hpp"
#include "trace.hpp"
#include "util/thread_pool.hpp"
#include "world.hpp"
#include "writer.hpp"

namespace perfbench {
namespace {

using namespace eyeball;
using serve::EyeballService;
using serve::ServingSnapshot;
using EpochPtr = std::shared_ptr<const ServingSnapshot>;

/// Set-ups per run; setup_s is their median.
constexpr std::size_t kSetups = 3;
/// Times the single query_storm reader visits every CPU.
constexpr std::size_t kPinRounds = 2;
/// Writer-layer spans must cover this share of every traced window span.
/// The span's body is nothing but those layer calls, so this checks the
/// trace's structure; trace.service_coverage_min and trace.overhead_share
/// compare the traced layers with the untraced service.
constexpr double kCoverageFloor = 0.95;

struct LayerSpec {
  const char* name;
  const char* unit;
};

/// Every per-layer figure a traced run prints.  A layer a workload does not
/// exercise reads 0 (no spans, no counts).
constexpr LayerSpec kLayers[] = {
    {"ingest.s", "s"},
    {"ingest.last_s", "s"},
    {"ingest.admitted_ratio", "ratio"},
    {"ingest.memo_hit_rate", "ratio"},
    {"finalize.s", "s"},
    {"finalize.last_s", "s"},
    {"finalize.kept_ases", "count"},
    {"finalize.touched_ases", "count"},
    {"analyze.s", "s"},
    {"analyze.reuse_ratio", "ratio"},
    {"analyze.as_ms.p50", "ms"},
    {"analyze.as_ms.max", "ms"},
    {"analyze.parallel_efficiency", "ratio"},
    {"kde.s", "s"},
    {"peaks.s", "s"},
    {"contour.s", "s"},
    {"popmap.s", "s"},
    {"classify.s", "s"},
    {"kde.grid_cells", "count"},
    {"kde.nonzero_share", "ratio"},
    {"swap.s", "s"},
    {"snapshot.encode_s", "s"},
    {"snapshot.save_s", "s"},
    {"snapshot.bytes", "bytes"},
    {"snapshot.restore_s", "s"},
    {"artifact.encode_s", "s"},
    {"artifact.write_s", "s"},
    {"artifact.bytes", "bytes"},
    {"artifact.open_s", "s"},
    {"reader.pin_ns.p50", "ns"},
    {"reader.lookup_ns.p50", "ns"},
    {"reader.hit_ratio", "ratio"},
    {"reader.epochs_seen", "count"},
    {"reader.epoch_lag", "count"},
};

using Sheet = std::map<std::string, double>;

// ---- Run context ------------------------------------------------------

/// The CPUs this process may run on.
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> out;
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) out.push_back(cpu);
    }
  }
  return out;
}

/// Pins the calling thread to one CPU.
void pin_to(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  pthread_setaffinity_np(pthread_self(), sizeof set, &set);
}

std::size_t nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return static_cast<std::size_t>(CPU_COUNT(&set));
  }
  return std::max(1U, std::thread::hardware_concurrency());
}

/// What one run shares: its options and report, the host's CPU count, and
/// the spans of every traced unit (written out at the end).
struct Run {
  const Options& options;
  Report& report;
  std::size_t nproc = 0;
  std::vector<SpanRecord> spans;
  /// Peak RSS per measured stretch (see report_peak); whether the kernel let
  /// each stretch reset the peak.
  std::vector<double> peaks;
  bool peak_reset = true;

  [[nodiscard]] Ledger& ledger() { return report.ledger(); }
};

/// Stamps the thread budget and refuses one the host cannot run without
/// oversubscription: writer ways running beside `readers` reader threads.
void budget(Run& run, std::size_t ways, std::size_t readers) {
  if (ways + readers > run.nproc) {
    throw Refusal("writer ways (" + std::to_string(ways) + ") plus readers (" +
                  std::to_string(readers) + ") exceed nproc (" +
                  std::to_string(run.nproc) + ")");
  }
  const std::size_t pool = util::ThreadPool::shared().worker_count();
  run.report.context("nproc", run.nproc);
  run.report.context("pool_workers", pool);
  run.report.context("writer_ways", std::min(ways, pool));
  run.report.context("readers", readers);
}

serve::ServiceConfig service_config(std::size_t ways) {
  serve::ServiceConfig config;
  config.threads = ways;
  return config;
}

/// Builds the world and runs `warm_up` on it kSetups times, keeping the
/// last; setup_s is the median.  `state` holds what the warm-up leaves
/// behind and is dropped before the world it refers to.
template <class State, class WarmUp>
std::unique_ptr<World> set_up(Run& run, std::size_t ways, State& state, WarmUp warm_up) {
  std::unique_ptr<World> world;
  std::vector<double> times;
  for (std::size_t k = 0; k < kSetups; ++k) {
    state = State{};
    world.reset();
    const auto start = Clock::now();
    world = std::make_unique<World>(run.options.seed, ways);
    state = warm_up(*world);
    times.push_back(seconds_between(start, Clock::now()));
  }
  run.report.metric("setup_s", median_or_zero(times), "s", times.size());
  run.report.context("crawl_samples", world->samples.size());
  return world;
}

/// Calls unit(traced) until the run's seconds have passed: untraced units
/// only, or in a traced run untraced and traced units in turn, at least
/// untraced-traced-untraced.  The first unit after set-up runs on a heap
/// the warm-up has only partly grown, so the tracing overhead is taken
/// against the untraced units after it (see warm_median).
template <class Unit>
void measure(const Run& run, Unit unit) {
  const auto start = Clock::now();
  for (std::size_t i = 0;; ++i) {
    const bool traced = run.options.trace && i % 2 == 1;
    const auto unit_start = Clock::now();
    unit(traced);
    std::cerr << "perfbench: " << run.options.workload << " unit " << i
              << (traced ? " (traced)" : "") << ": "
              << seconds_between(unit_start, Clock::now()) << " s\n";
    const bool elapsed = seconds_between(start, Clock::now()) >= run.options.seconds;
    if (elapsed && (!run.options.trace || i >= 2)) break;
  }
}

/// The untraced units after the first (see measure), or the only one.
template <class T>
std::span<const T> warm(const std::vector<T>& units) {
  return units.size() > 1 ? std::span{units}.subspan(1) : std::span{units};
}

double warm_median(const std::vector<double>& totals) {
  return median_or_zero(warm(totals));
}

/// Peak RSS is taken per measured stretch: reset when the program's work
/// starts, read when it ends, before any oracle work.
void start_peak(Run& run) { run.peak_reset = reset_peak_rss() && run.peak_reset; }
void end_peak(Run& run) { run.peaks.push_back(peak_rss_mb()); }

/// peak_rss_mb is the smallest stretch peak.  Where the kernel refuses the
/// reset the peak counts from process start, and the first stretch, which
/// no oracle work precedes, is the smallest.
void report_peak(Run& run) {
  run.report.context("peak_rss_scope", run.peak_reset ? "stretch" : "process");
  const auto lowest = std::min_element(run.peaks.begin(), run.peaks.end());
  run.report.metric("peak_rss_mb", lowest == run.peaks.end() ? 0.0 : *lowest, "MB",
                    run.peaks.size());
}

void check_health(const EyeballService& service, Ledger& ledger) {
  const serve::HealthReport health = service.health();
  ledger.record("health", health.state == serve::ServiceHealth::kHealthy,
                std::string{serve::to_string(health.state)} + ": " +
                    health.last_error.to_string());
}

/// Warm-up for the writer workloads: the first window published through a
/// throwaway service (spins up the pool, faults in the code and the heap).
std::unique_ptr<EyeballService> warm_publish(const World& world, std::size_t ways,
                                             Ledger& ledger) {
  auto service = std::make_unique<EyeballService>(world.pipeline, service_config(ways));
  service->ingest(world.windows.front());
  ledger.record("publish", service->publish() != nullptr,
                service->last_publish_status().to_string());
  check_health(*service, ledger);
  return service;
}

struct Longitudinal {
  /// Ingest through publish return, per window.
  std::vector<double> window_s;
  double total_s = 0.0;
};

/// The six windows through `service`, each timed from ingest to publish
/// return.  The caller keeps no epoch across publishes, so retiring the
/// previous epoch stays inside publish() as it would for any caller.
Longitudinal publish_windows(EyeballService& service, const World& world, Ledger& ledger,
                             std::atomic<std::uint64_t>* published) {
  Longitudinal out;
  for (const auto& window : world.windows) {
    const auto start = Clock::now();
    service.ingest(window);
    const EpochPtr epoch = service.publish();
    const double seconds = seconds_between(start, Clock::now());
    ledger.record("publish", epoch != nullptr, service.last_publish_status().to_string());
    check_health(service, ledger);
    if (epoch != nullptr && published != nullptr) {
      published->store(epoch->epoch(), std::memory_order_release);
    }
    out.window_s.push_back(seconds);
    out.total_s += seconds;
  }
  return out;
}

// ---- Oracle -----------------------------------------------------------

/// A unit's final epoch: its encoding's CRC and its window trail.
struct FinalEpoch {
  std::uint32_t crc = 0;
  std::vector<core::WindowStats> trail;
};

FinalEpoch final_epoch(const ServingSnapshot& epoch, const World& world, Ledger& ledger) {
  const Encoded encoded =
      encode_epoch(epoch.dataset(), epoch.analyses(), epoch.epoch(), world.fingerprint);
  ledger.record("encode", encoded.status.ok(), encoded.status.to_string());
  return FinalEpoch{encoded.crc, epoch.stats().windows};
}

/// Every final epoch must encode exactly as build_dataset over the whole
/// crawl plus analyze_all, at the same epoch number.  The encoding keeps
/// DatasetStats::windows, the stream's batching history, which a one-shot
/// build cannot have; so the reference takes the unit's window trail (after
/// checking it accounts for every sample) and everything else from the
/// one-shot build.
void check_final_epochs(const World& world, const std::vector<FinalEpoch>& finals,
                        Ledger& ledger) {
  const core::TargetDataset one_shot = world.pipeline.build_dataset(world.samples);
  const std::vector<core::AsAnalysis> analyses =
      world.pipeline.analyze_all(one_shot.ases());
  std::vector<FinalEpoch> references;
  for (const FinalEpoch& final : finals) {
    std::size_t offered = 0;
    for (const core::WindowStats& window : final.trail) offered += window.offered;
    ledger.record("oracle.window_trail",
                  final.trail.size() == world.windows.size() &&
                      offered == world.samples.size(),
                  "a final epoch's window trail does not account for the crawl");
    auto reference =
        std::find_if(references.begin(), references.end(),
                     [&](const FinalEpoch& r) { return r.trail == final.trail; });
    if (reference == references.end()) {
      core::DatasetStats stats = one_shot.stats();
      stats.windows = final.trail;
      const core::TargetDataset dataset{
          std::vector<core::AsPeerSet>(one_shot.ases().begin(), one_shot.ases().end()),
          stats};
      const Encoded encoded =
          encode_epoch(dataset, analyses, world.windows.size(), world.fingerprint);
      ledger.record("encode", encoded.status.ok(), encoded.status.to_string());
      reference = references.insert(references.end(), FinalEpoch{encoded.crc, final.trail});
    }
    ledger.record("oracle.final_epoch", final.crc == reference->crc,
                  "a final epoch encodes differently from build_dataset + analyze_all");
  }
}

/// The six windows through the traced writer (the last one probed with the
/// encoders); returns the final epoch.
FinalEpoch publish_traced(TracedWriter& writer, const World& world, Ledger& ledger,
                          std::atomic<std::uint64_t>* published) {
  for (std::size_t k = 0; k < world.windows.size(); ++k) {
    const EpochPtr epoch =
        writer.publish_window(world.windows[k], k, k + 1 == world.windows.size(), ledger);
    if (published != nullptr) published->store(epoch->epoch(), std::memory_order_release);
  }
  return FinalEpoch{writer.counts().final_crc, writer.cell().load()->stats().windows};
}

std::vector<net::Asn> served_asns(const core::TargetDataset& dataset) {
  std::vector<net::Asn> out;
  for (const core::AsPeerSet& as : dataset.ases()) out.push_back(as.asn);
  std::sort(out.begin(), out.end());
  return out;
}

/// served[e]: the ASNs epoch e serves when the first `prefixes[e - 1]`
/// samples have been published, from one-shot builds (served[0] is empty).
std::vector<std::vector<net::Asn>> served_by_epoch(
    const World& world, const std::vector<std::size_t>& prefixes) {
  std::vector<std::vector<net::Asn>> out(1);
  for (const std::size_t prefix : prefixes) {
    out.push_back(served_asns(world.pipeline.build_dataset(
        std::span<const p2p::PeerSample>{world.samples}.first(prefix))));
  }
  return out;
}

/// Every ASN an epoch serves, with the digest of its answer.  The oracle
/// keeps these instead of the epoch, so a restart does not run beside it.
using Answers = std::vector<std::pair<net::Asn, std::uint32_t>>;

Answers answers_of(const ServingSnapshot& epoch) {
  Answers out;
  for (std::size_t i = 0; i < epoch.as_count(); ++i) {
    out.emplace_back(epoch.asn_at(i), digest(*epoch.analysis_at(i)));
  }
  return out;
}

/// Restored epochs must answer every ASN the original served, identically.
template <class Answer>
void compare_restored(const Answers& original, std::size_t restored_count, Answer answer,
                      Ledger& ledger, const std::string& cls) {
  ledger.record(cls, restored_count == original.size(),
                "restored epoch serves a different number of ASes");
  for (const auto& [asn, expected] : original) {
    const core::AsAnalysis* restored = answer(asn);
    ledger.record(cls, restored != nullptr && digest(*restored) == expected,
                  "ASN " + std::to_string(net::value_of(asn)) + " answers differently");
  }
}

// ---- Readers ----------------------------------------------------------

std::vector<KeyStream> key_streams(const ProbeSet& probe, std::uint64_t seed,
                                   std::size_t readers, std::uint64_t phase) {
  std::vector<KeyStream> out;
  for (std::size_t r = 0; r < readers; ++r) {
    out.push_back(make_keys(probe, seed, phase * 64 + r));
  }
  return out;
}

/// Stops and joins the reader threads on every path out of with_readers.
struct ReaderThreads {
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;

  ReaderThreads() = default;
  ReaderThreads(const ReaderThreads&) = delete;
  ReaderThreads& operator=(const ReaderThreads&) = delete;
  ~ReaderThreads() { join(); }
  void join() {
    stop.store(true, std::memory_order_relaxed);
    for (std::thread& thread : threads) {
      if (thread.joinable()) thread.join();
    }
  }
};

/// Runs one reader thread per key stream, `reader(setup)` each, while
/// `body` runs on this thread; then stops and joins them.
template <class Reader, class Body>
std::vector<ReaderStats> with_readers(const ProbeSet& probe,
                                      const std::vector<KeyStream>& keys,
                                      const std::atomic<std::uint64_t>* published,
                                      Tracer* tracer, Reader reader, Body body) {
  std::vector<ReaderStats> stats(keys.size());
  std::vector<std::exception_ptr> errors(keys.size());
  std::vector<ReaderSetup> setups(keys.size());
  ReaderThreads threads;
  for (std::size_t r = 0; r < keys.size(); ++r) {
    setups[r] = ReaderSetup{&probe, &keys[r], &threads.stop, published, tracer,
                            static_cast<std::uint64_t>(r + 1) << 40};
    threads.threads.emplace_back([&, r] {
      try {
        stats[r] = reader(setups[r]);
      } catch (...) {
        errors[r] = std::current_exception();
      }
    });
  }
  body();
  threads.join();
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
  return stats;
}

void sleep_seconds(double seconds) {
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
}

/// Ledger entries for a set of readers: every answer, its immediate
/// checks, and the probe-set check against `served`.
void tally_readers(const std::vector<ReaderStats>& readers, const ProbeSet& probe,
                   const std::vector<std::vector<net::Asn>>& served, Ledger& ledger) {
  for (const ReaderStats& r : readers) {
    ledger.add("answer", r.points + r.batches * kBatchSize, r.failed);
    for (const std::string& error : r.errors) ledger.note_failure("answer: " + error);
    check_answers(r, probe, served, ledger);
  }
}

struct ReaderFigures {
  std::vector<double> point_ns;
  std::vector<double> batch_ns;
  std::vector<double> block_s;
  /// Aggregate point queries per second (sum of the per-reader rates).
  double qps = 0.0;
};

void add_figures(ReaderFigures& figures, const std::vector<ReaderStats>& readers) {
  for (const ReaderStats& r : readers) {
    figures.point_ns.insert(figures.point_ns.end(), r.point_ns.begin(), r.point_ns.end());
    figures.batch_ns.insert(figures.batch_ns.end(), r.batch_ns.begin(), r.batch_ns.end());
    figures.block_s.insert(figures.block_s.end(), r.block_s.begin(), r.block_s.end());
    if (r.seconds > 0.0) figures.qps += static_cast<double>(r.points) / r.seconds;
  }
}

void report_latencies(Report& report, const ReaderFigures& figures) {
  const std::size_t points = figures.point_ns.size();
  const std::size_t batches = figures.batch_ns.size();
  report.metric("query_p50_ns", percentile_or_zero(figures.point_ns, 50.0), "ns", points);
  report.metric("query_p99_ns", percentile_or_zero(figures.point_ns, 99.0), "ns", points);
  report.metric("batch_p50_ns", percentile_or_zero(figures.batch_ns, 50.0), "ns", batches);
  report.metric("batch_p99_ns", percentile_or_zero(figures.batch_ns, 99.0), "ns", batches);
}

// ---- Per-layer sheets ---------------------------------------------------

double total(const std::map<std::string, LayerTime>& layers, const char* name) {
  const auto it = layers.find(name);
  return it == layers.end() ? 0.0 : it->second.total_s;
}

/// Duration of the latest-starting span called `name`, in seconds.
double last_duration(const std::vector<SpanRecord>& spans, std::string_view name) {
  const SpanRecord* last = nullptr;
  for (const SpanRecord& span : spans) {
    if (span.name == name && (last == nullptr || span.start_ns > last->start_ns)) {
      last = &span;
    }
  }
  return last == nullptr ? 0.0 : static_cast<double>(last->end_ns - last->start_ns) * 1e-9;
}

double ratio(double part, double whole) { return whole > 0.0 ? part / whole : 0.0; }

/// The writer layers of one traced unit.
Sheet writer_sheet(const std::vector<SpanRecord>& spans, const WriterCounts& counts,
                   std::size_t ways) {
  const std::vector<SpanRecord> windows = under_root(spans, "window");
  const auto in_windows = layer_times(windows);
  const auto in_probes = layer_times(under_root(spans, "probe"));
  const auto everywhere = layer_times(spans);
  std::vector<double> as_ms;
  for (const SpanRecord& span : windows) {
    if (std::string_view{span.name} == "analyze.as") {
      as_ms.push_back(static_cast<double>(span.end_ns - span.start_ns) * 1e-6);
    }
  }
  double as_busy_s = 0.0;
  for (const double ms : as_ms) as_busy_s += ms * 1e-3;

  Sheet s;
  s["ingest.s"] = total(in_windows, "ingest");
  s["ingest.last_s"] = last_duration(windows, "ingest");
  s["ingest.admitted_ratio"] =
      ratio(static_cast<double>(counts.admitted), static_cast<double>(counts.offered));
  s["ingest.memo_hit_rate"] = counts.memo_hit_rate;
  s["finalize.s"] = total(in_windows, "finalize");
  s["finalize.last_s"] = last_duration(windows, "finalize");
  s["finalize.kept_ases"] = static_cast<double>(counts.kept_last);
  s["finalize.touched_ases"] = static_cast<double>(counts.touched_last);
  s["analyze.s"] = total(in_windows, "analyze");
  s["analyze.reuse_ratio"] =
      ratio(static_cast<double>(counts.reused), static_cast<double>(counts.kept));
  s["analyze.as_ms.p50"] = median_or_zero(as_ms);
  s["analyze.as_ms.max"] =
      as_ms.empty() ? 0.0 : *std::max_element(as_ms.begin(), as_ms.end());
  s["analyze.parallel_efficiency"] =
      ratio(as_busy_s, total(in_windows, "analyze.fanout") * static_cast<double>(ways));
  s["peaks.s"] = total(in_probes, "peaks");
  s["contour.s"] = total(in_probes, "contour");
  s["kde.s"] = total(in_windows, "footprint") - s["peaks.s"] - s["contour.s"];
  s["popmap.s"] = total(in_windows, "popmap");
  s["classify.s"] = total(in_windows, "classify");
  s["kde.grid_cells"] = static_cast<double>(counts.grid_cells);
  s["kde.nonzero_share"] = ratio(static_cast<double>(counts.grid_nonzero),
                                 static_cast<double>(counts.grid_cells));
  s["swap.s"] = total(in_windows, "swap") + total(in_windows, "release");
  s["snapshot.encode_s"] = total(in_probes, "snapshot.encode");
  s["snapshot.save_s"] = total(in_windows, "snapshot.save");
  s["snapshot.bytes"] = static_cast<double>(counts.snapshot_bytes);
  s["snapshot.restore_s"] = total(everywhere, "snapshot.restore");
  s["artifact.encode_s"] = total(in_probes, "artifact.encode");
  s["artifact.write_s"] = total(in_windows, "artifact.write");
  s["artifact.bytes"] = static_cast<double>(counts.artifact_bytes);
  s["artifact.open_s"] = total(everywhere, "artifact.open");
  return s;
}

/// The reader layers of one traced reader phase.
void add_reader_sheet(Sheet& s, const std::vector<ReaderStats>& readers) {
  std::vector<double> pin_ns;
  std::vector<double> lookup_ns;
  std::uint64_t points = 0;
  std::uint64_t hits = 0;
  std::uint64_t lag = 0;
  std::set<std::size_t> epochs;
  for (const ReaderStats& r : readers) {
    // Spans come in (root, pin, lookup) triples; point queries only, so a
    // 16-ASN batch lookup does not skew the lookup median.
    for (std::size_t i = 0; i + 2 < r.spans.size(); i += 3) {
      if (std::string_view{r.spans[i].name} != "query") continue;
      const SpanRecord& pin = r.spans[i + 1];
      const SpanRecord& lookup = r.spans[i + 2];
      pin_ns.push_back(static_cast<double>(pin.end_ns - pin.start_ns));
      lookup_ns.push_back(static_cast<double>(lookup.end_ns - lookup.start_ns));
    }
    points += r.points;
    hits += r.point_hits;
    lag = std::max(lag, r.max_lag);
    const std::size_t keys = r.answers.size() / kMaxEpochs;
    for (std::size_t i = 0; i < r.answers.size(); ++i) {
      if (r.answers[i][0] + r.answers[i][1] != 0) epochs.insert(i / keys);
    }
  }
  s["reader.pin_ns.p50"] = median_or_zero(pin_ns);
  s["reader.lookup_ns.p50"] = median_or_zero(lookup_ns);
  s["reader.hit_ratio"] = ratio(static_cast<double>(hits), static_cast<double>(points));
  s["reader.epochs_seen"] = static_cast<double>(epochs.size());
  s["reader.epoch_lag"] = static_cast<double>(lag);
}

/// Books a finished traced unit: window coverage check, its spans, and the
/// summed duration of its `roots` (the traced counterpart of the untraced
/// unit's total).
double finish_traced(Run& run, const std::vector<SpanRecord>& spans,
                     std::initializer_list<const char*> roots) {
  double traced_total = 0.0;
  for (const SpanRecord& span : spans) {
    for (const char* root : roots) {
      if (span.parent == 0 && std::string_view{span.name} == root) {
        traced_total += static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
      }
    }
  }
  for (const Coverage& window : child_coverage(spans, "window")) {
    run.ledger().record("trace.coverage", window.share() >= kCoverageFloor,
                        "writer-layer spans cover " + std::to_string(window.share()) +
                            " of a traced window");
  }
  run.spans.insert(run.spans.end(), spans.begin(), spans.end());
  return traced_total;
}

/// `service_windows[u][k]`: untraced unit u's window k, ingest through
/// publish return (empty for a workload without windows).
void report_layers(Run& run, const std::vector<Sheet>& sheets, double overhead_share,
                   const std::vector<std::vector<double>>& service_windows = {}) {
  for (const LayerSpec& layer : kLayers) {
    std::vector<double> values;
    for (const Sheet& sheet : sheets) {
      const auto it = sheet.find(layer.name);
      values.push_back(it == sheet.end() ? 0.0 : it->second);
    }
    run.report.metric(layer.name, median_or_zero(values), layer.unit, sheets.size());
  }
  run.report.metric("trace.overhead_share", overhead_share, "ratio", sheets.size());
  const std::vector<Coverage> coverage = child_coverage(run.spans, "window");
  if (coverage.empty()) return;
  double structural = 1.0;
  std::vector<double> service;
  for (const Coverage& window : coverage) {
    structural = std::min(structural, window.share());
    // The traced layers against the untraced service's same window.
    std::vector<double> same;
    for (const std::vector<double>& unit : warm(service_windows)) {
      if (window.request < unit.size()) same.push_back(unit[window.request]);
    }
    if (!same.empty()) service.push_back(window.covered_s / median_or_zero(same));
  }
  run.report.metric("trace.window_coverage_min", structural, "ratio", coverage.size());
  if (!service.empty()) {
    run.report.metric("trace.service_coverage_min",
                      *std::min_element(service.begin(), service.end()), "ratio",
                      service.size());
  }
}

// ---- Workloads ----------------------------------------------------------

/// The writer alone ingests and publishes the six windows, durability off.
void stream_publish(Run& run) {
  const std::size_t ways = run.nproc;
  budget(run, ways, 0);
  Ledger& ledger = run.ledger();
  std::unique_ptr<EyeballService> warm;
  const auto world = set_up(run, ways, warm, [&](const World& w) {
    return warm_publish(w, ways, ledger);
  });
  warm.reset();

  std::vector<double> longitudinal;
  std::vector<double> last_window;
  std::vector<std::vector<double>> windows;
  std::vector<double> traced_totals;
  std::vector<FinalEpoch> finals;
  std::vector<Sheet> sheets;
  measure(run, [&](bool traced) {
    if (!traced) {
      start_peak(run);
      auto service =
          std::make_unique<EyeballService>(world->pipeline, service_config(ways));
      const Longitudinal run_times = publish_windows(*service, *world, ledger, nullptr);
      end_peak(run);
      longitudinal.push_back(run_times.total_s);
      last_window.push_back(run_times.window_s.back());
      windows.push_back(run_times.window_s);
      finals.push_back(final_epoch(*service->snapshot(), *world, ledger));
      return;  // the service's teardown stays outside every timed region
    }
    Tracer tracer;
    {
      TracedWriter writer{*world, ways, tracer};
      finals.push_back(publish_traced(writer, *world, ledger, nullptr));
      sheets.push_back(writer_sheet(tracer.spans(), writer.counts(), ways));
    }
    traced_totals.push_back(finish_traced(run, tracer.spans(), {"window"}));
  });
  report_peak(run);
  check_final_epochs(*world, finals, ledger);

  run.report.metric("work_s", median_or_zero(longitudinal), "s", longitudinal.size());
  run.report.metric("longitudinal_s", median_or_zero(longitudinal), "s",
                    longitudinal.size());
  run.report.metric("last_window_to_epoch_s", median_or_zero(last_window), "s",
                    last_window.size());
  if (run.options.trace) {
    report_layers(run, sheets,
                  median_or_zero(traced_totals) / warm_median(longitudinal) - 1.0, windows);
  }
}

/// One durable publish of the whole crawl, then two cold restarts.
void durable_restart(Run& run) {
  const std::size_t ways = run.nproc;
  budget(run, ways, 0);
  Ledger& ledger = run.ledger();
  std::unique_ptr<EyeballService> warm;
  const auto world = set_up(run, ways, warm, [&](const World& w) {
    return warm_publish(w, ways, ledger);
  });
  warm.reset();

  const std::filesystem::path dir = std::filesystem::path{run.options.out_dir} / "durable";
  const Durability files{(dir / "snapshots").string(), (dir / "epoch.eybart").string()};
  const std::span<const p2p::PeerSample> crawl{world->samples};
  std::vector<double> publish_s;
  std::vector<double> snapshot_s;
  std::vector<double> artifact_s;
  std::vector<double> work;
  std::vector<double> traced_totals;
  std::vector<Sheet> sheets;
  const auto restored_count = [](const EyeballService& s) {
    return s.snapshot() == nullptr ? std::size_t{0} : s.snapshot()->as_count();
  };
  measure(run, [&](bool traced) {
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(files.snapshot_dir);
    // Each restart runs as a restarted process would: the writer and its
    // epoch are gone, and so is the other restart.  Teardown stays outside
    // every timed region.
    Answers published;
    if (!traced) {
      start_peak(run);
      serve::ServiceConfig config = service_config(ways);
      config.snapshot_dir = files.snapshot_dir;
      config.artifact_path = files.artifact_path;
      auto start = Clock::now();
      {
        EyeballService writer{world->pipeline, config};
        writer.ingest(crawl);
        const EpochPtr epoch = writer.publish();
        publish_s.push_back(seconds_between(start, Clock::now()));
        ledger.record("publish", epoch != nullptr,
                      writer.last_publish_status().to_string());
        ledger.record("save", writer.last_save_status().ok(),
                      writer.last_save_status().to_string());
        ledger.record("artifact", writer.last_artifact_status().ok(),
                      writer.last_artifact_status().to_string());
        check_health(writer, ledger);
        if (epoch == nullptr) return;
        published = answers_of(*epoch);
      }
      {
        EyeballService from_snapshot{world->pipeline, service_config(ways)};
        start = Clock::now();
        const util::Status restored = from_snapshot.restore(files.snapshot_dir);
        snapshot_s.push_back(seconds_between(start, Clock::now()));
        ledger.record("restore", restored.ok(), restored.to_string());
        check_health(from_snapshot, ledger);
        // In-memory answers: the comparison allocates nothing.
        compare_restored(
            published, restored_count(from_snapshot),
            [&](net::Asn asn) { return from_snapshot.query(asn).analysis; }, ledger,
            "oracle.restore_snapshot");
      }
      EyeballService from_artifact{world->pipeline, service_config(ways)};
      start = Clock::now();
      const util::Status opened = from_artifact.restore_from_artifact(files.artifact_path);
      artifact_s.push_back(seconds_between(start, Clock::now()));
      end_peak(run);  // the comparison below thaws every AS the artifact holds
      ledger.record("restore", opened.ok(), opened.to_string());
      check_health(from_artifact, ledger);
      work.push_back(publish_s.back() + snapshot_s.back() + artifact_s.back());
      compare_restored(
          published, restored_count(from_artifact),
          [&](net::Asn asn) { return from_artifact.query(asn).analysis; }, ledger,
          "oracle.restore_artifact");
      return;
    }
    Tracer tracer;
    WriterCounts counts;
    {
      TracedWriter writer{*world, ways, tracer, files};
      published = answers_of(*writer.publish_window(crawl, 0, true, ledger));
      counts = writer.counts();
    }
    for (const auto restart : {1, 2}) {
      TracedWriter restarted{*world, ways, tracer};
      const EpochPtr epoch =
          restart == 1 ? restarted.restore_snapshot(files.snapshot_dir, 1, ledger)
                       : restarted.restore_artifact(files.artifact_path, 2, ledger);
      if (epoch == nullptr) continue;
      compare_restored(
          published, epoch->as_count(), [&](net::Asn asn) { return epoch->find(asn); },
          ledger, restart == 1 ? "oracle.restore_snapshot" : "oracle.restore_artifact");
    }
    sheets.push_back(writer_sheet(tracer.spans(), counts, ways));
    traced_totals.push_back(finish_traced(
        run, tracer.spans(), {"window", "restore.snapshot", "restore.artifact"}));
  });
  report_peak(run);
  std::filesystem::remove_all(dir);

  run.report.metric("work_s", median_or_zero(work), "s", work.size());
  run.report.metric("durable_publish_s", median_or_zero(publish_s), "s", publish_s.size());
  run.report.metric("restore_snapshot_s", median_or_zero(snapshot_s), "s",
                    snapshot_s.size());
  run.report.metric("restore_artifact_s", median_or_zero(artifact_s), "s",
                    artifact_s.size());
  if (run.options.trace) {
    std::vector<std::vector<double>> windows;
    for (const double seconds : publish_s) windows.push_back({seconds});
    report_layers(run, sheets, median_or_zero(traced_totals) / warm_median(work) - 1.0,
                  windows);
  }
}

/// Closed-loop readers against the published full crawl, writer idle:
/// first one reader, then min(4, nproc).
void query_storm(Run& run) {
  const std::size_t top = std::min<std::size_t>(4, run.nproc);
  const std::size_t ways = run.nproc;  // the set-up publish runs before any reader
  budget(run, 0, top);
  run.report.context("setup_writer_ways", ways);
  Ledger& ledger = run.ledger();
  std::unique_ptr<EyeballService> service;
  const auto world = set_up(run, ways, service, [&](const World& w) {
    auto s = std::make_unique<EyeballService>(w.pipeline, service_config(ways));
    s->ingest(w.samples);
    ledger.record("publish", s->publish() != nullptr, s->last_publish_status().to_string());
    check_health(*s, ledger);
    return s;
  });
  const ProbeSet probe = make_probe_set(service->snapshot()->dataset());
  const auto one_keys = key_streams(probe, run.options.seed, 1, 0);
  const auto top_keys = key_streams(probe, run.options.seed, top, 1);
  run.report.context("zipf_exponent", std::to_string(probe.zipf_exponent));

  // The gated single-reader phase takes three quarters of the untraced time;
  // a traced run gives its second half to the traced readers.
  const double untraced_s = run.options.seconds / (run.options.trace ? 2.0 : 1.0);
  start_peak(run);
  // The single reader runs on every CPU in turn, kPinRounds times round, and
  // its block times are pooled.  On a shared host one CPU can run a third
  // slower than another for seconds at a time; a reader left where the
  // scheduler put it made runs fall into two regimes.
  std::vector<ReaderStats> one;
  const std::vector<int> cpus = allowed_cpus();
  const double slice_s =
      untraced_s * 0.75 / static_cast<double>(kPinRounds * cpus.size());
  for (std::size_t round = 0; round < kPinRounds; ++round) {
    for (const int cpu : cpus) {
      auto pinned = with_readers(
          probe, one_keys, nullptr, nullptr,
          [&](const ReaderSetup& setup) {
            pin_to(cpu);
            return run_reader(*service, setup);
          },
          [&] { sleep_seconds(slice_s); });
      one.push_back(std::move(pinned.front()));
    }
  }
  const auto many = with_readers(
      probe, top_keys, nullptr, nullptr,
      [&](const ReaderSetup& setup) { return run_reader(*service, setup); },
      [&] { sleep_seconds(untraced_s / 4.0); });
  std::vector<ReaderStats> traced;
  Tracer tracer;
  if (run.options.trace) {
    traced = with_readers(
        probe, top_keys, nullptr, &tracer,
        [&](const ReaderSetup& setup) { return run_traced_reader(*service, setup); },
        [&] { sleep_seconds(run.options.seconds / 2.0); });
  }
  end_peak(run);
  report_peak(run);

  const auto served = served_by_epoch(*world, {world->samples.size()});
  for (const std::vector<ReaderStats>* phase :
       std::initializer_list<const std::vector<ReaderStats>*>{&one, &many, &traced}) {
    tally_readers(*phase, probe, served, ledger);
  }

  ReaderFigures one_figures;
  ReaderFigures many_figures;
  add_figures(one_figures, one);
  add_figures(many_figures, many);
  // The gate takes the single-reader phase: at the top reader count every
  // query contends on the epoch cell's mutex, and runs fall into two
  // throughput regimes (about 2.3 and 3.1 M queries/s on a 4-CPU host), too
  // unsteady to gate.  The top-count figures are reported below.
  run.report.metric("work_s", median_or_zero(one_figures.block_s), "s",
                    one_figures.block_s.size());
  report_latencies(run.report, many_figures);
  run.report.metric("query_qps", many_figures.qps, "1/s", many.size());
  // The single reader's slices ran one after another: points over seconds.
  double one_points = 0.0;
  double one_seconds = 0.0;
  for (const ReaderStats& r : one) {
    one_points += static_cast<double>(r.points);
    one_seconds += r.seconds;
  }
  run.report.metric("query_qps_1r", ratio(one_points, one_seconds), "1/s", one.size());
  if (run.options.trace) {
    ReaderFigures traced_figures;
    add_figures(traced_figures, traced);
    for (const ReaderStats& r : traced) {
      run.spans.insert(run.spans.end(), r.spans.begin(), r.spans.end());
    }
    Sheet sheet;
    add_reader_sheet(sheet, traced);
    report_layers(run, {sheet},
                  median_or_zero(traced_figures.block_s) /
                          median_or_zero(many_figures.block_s) -
                      1.0);
  }
}

/// Two readers run the query mix while the writer publishes the six
/// windows at two ways, durability off.
void query_under_publish(Run& run) {
  constexpr std::size_t kWays = 2;
  constexpr std::size_t kReaders = 2;
  budget(run, kWays, kReaders);
  Ledger& ledger = run.ledger();
  ProbeSet probe;
  const auto world = set_up(run, kWays, probe, [](const World& w) {
    return make_probe_set(w.pipeline.build_dataset(w.samples));
  });
  const auto keys = key_streams(probe, run.options.seed, kReaders, 0);
  run.report.context("zipf_exponent", std::to_string(probe.zipf_exponent));

  std::vector<double> longitudinal;
  std::vector<double> last_window;
  std::vector<std::vector<double>> windows;
  std::vector<double> traced_totals;
  std::vector<FinalEpoch> finals;
  std::vector<Sheet> sheets;
  std::vector<std::vector<ReaderStats>> phases;
  ReaderFigures figures;
  std::vector<double> qps;
  measure(run, [&](bool traced) {
    std::atomic<std::uint64_t> published{0};
    if (!traced) {
      start_peak(run);
      EyeballService service{world->pipeline, service_config(kWays)};
      Longitudinal run_times;
      phases.push_back(with_readers(
          probe, keys, &published, nullptr,
          [&](const ReaderSetup& setup) { return run_reader(service, setup); },
          [&] { run_times = publish_windows(service, *world, ledger, &published); }));
      end_peak(run);
      longitudinal.push_back(run_times.total_s);
      last_window.push_back(run_times.window_s.back());
      windows.push_back(run_times.window_s);
      finals.push_back(final_epoch(*service.snapshot(), *world, ledger));
      ReaderFigures unit;
      add_figures(unit, phases.back());
      qps.push_back(unit.qps);
      add_figures(figures, phases.back());
      return;
    }
    Tracer tracer;
    TracedWriter writer{*world, kWays, tracer};
    FinalEpoch final;
    phases.push_back(with_readers(
        probe, keys, &published, &tracer,
        [&](const ReaderSetup& setup) { return run_traced_reader(writer.cell(), setup); },
        [&] { final = publish_traced(writer, *world, ledger, &published); }));
    finals.push_back(std::move(final));
    Sheet sheet = writer_sheet(tracer.spans(), writer.counts(), kWays);
    add_reader_sheet(sheet, phases.back());
    sheets.push_back(std::move(sheet));
    for (const ReaderStats& r : phases.back()) {
      run.spans.insert(run.spans.end(), r.spans.begin(), r.spans.end());
    }
    traced_totals.push_back(finish_traced(run, tracer.spans(), {"window"}));
  });
  report_peak(run);

  check_final_epochs(*world, finals, ledger);
  std::vector<std::size_t> prefixes;
  for (const auto& window : world->windows) {
    prefixes.push_back(static_cast<std::size_t>(window.data() + window.size() -
                                                world->samples.data()));
  }
  const auto served = served_by_epoch(*world, prefixes);
  for (const auto& phase : phases) tally_readers(phase, probe, served, ledger);

  run.report.metric("work_s", median_or_zero(longitudinal), "s", longitudinal.size());
  run.report.metric("longitudinal_s", median_or_zero(longitudinal), "s",
                    longitudinal.size());
  run.report.metric("last_window_to_epoch_s", median_or_zero(last_window), "s",
                    last_window.size());
  report_latencies(run.report, figures);
  run.report.metric("query_qps", median_or_zero(qps), "1/s", qps.size());
  if (run.options.trace) {
    report_layers(run, sheets,
                  median_or_zero(traced_totals) / warm_median(longitudinal) - 1.0, windows);
  }
}

}  // namespace

void run_workload(const Options& options, Report& report) {
  Run run{options, report, nproc(), {}, {}, true};
  if (options.workload == "stream_publish") {
    stream_publish(run);
  } else if (options.workload == "durable_restart") {
    durable_restart(run);
  } else if (options.workload == "query_storm") {
    query_storm(run);
  } else if (options.workload == "query_under_publish") {
    query_under_publish(run);
  } else {
    throw Refusal("unknown workload '" + options.workload + "'");
  }
  const Ledger& ledger = report.ledger();
  report.metric("failed_share",
                ratio(static_cast<double>(ledger.failed()),
                      static_cast<double>(ledger.attempted())),
                "ratio", ledger.attempted());
  if (options.trace) {
    // Self time per layer over every traced unit of the run: span duration
    // minus the part its children cover.
    for (const auto& [name, layer] : layer_times(run.spans)) {
      report.metric("self_s." + name, layer.self_s, "s", layer.count);
    }
    write_spans((std::filesystem::path{options.out_dir} / "spans.csv").string(), run.spans);
  }
}

}  // namespace perfbench

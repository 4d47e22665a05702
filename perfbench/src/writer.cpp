#include "writer.hpp"

#include <algorithm>
#include <optional>
#include <type_traits>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "core/artifact.hpp"
#include "core/snapshot.hpp"
#include "kde/contour.hpp"
#include "kde/peaks.hpp"
#include "util/crc32c.hpp"
#include "util/file.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {
namespace {

using namespace eyeball;
using serve::ServingSnapshot;

/// Chained CRC32C over field values (never over whole structs, so padding
/// bytes cannot leak in).
class Crc {
 public:
  template <class T>
  void value(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    crc_ = util::crc32c_fast(std::as_bytes(std::span<const T, 1>{&v, 1}), crc_);
  }
  template <class T>
  void values(std::span<const T> v) {
    value(v.size());
    crc_ = util::crc32c_fast(std::as_bytes(v), crc_);
  }
  void text(std::string_view s) { values(std::span<const char>{s.data(), s.size()}); }
  void point(const geo::GeoPoint& p) {
    value(p.lat_deg);
    value(p.lon_deg);
  }
  [[nodiscard]] std::uint32_t crc() const noexcept { return crc_; }

 private:
  std::uint32_t crc_ = 0;
};

}  // namespace

Encoded encode_epoch(const core::TargetDataset& dataset,
                     std::span<const core::AsAnalysis> analyses, std::uint64_t epoch,
                     std::uint64_t fingerprint) {
  Encoded out;
  std::vector<std::byte> bytes;
  out.status = core::ArtifactCodec::encode(dataset, analyses, epoch, fingerprint, bytes);
  out.crc = util::crc32c_fast(bytes);
  out.bytes = bytes.size();
  return out;
}

std::uint32_t digest(const core::AsAnalysis& a) {
  Crc crc;
  crc.value(net::value_of(a.asn));
  crc.value(a.classification.level);
  crc.text(a.classification.dominant_region);
  crc.value(a.classification.dominant_share);
  crc.value(a.classification.continent);

  const kde::DensityGrid& grid = a.footprint.grid;
  crc.value(grid.rows());
  crc.value(grid.cols());
  crc.value(grid.box().min_lat());
  crc.value(grid.box().max_lat());
  crc.value(grid.box().min_lon());
  crc.value(grid.box().max_lon());
  crc.value(grid.cell_km());
  crc.values(std::span<const double>{grid.values()});

  const kde::Footprint& contour = a.footprint.contour;
  crc.value(contour.level);
  crc.value(contour.partitions.size());
  for (const kde::FootprintPartition& p : contour.partitions) {
    crc.value(p.cell_count);
    crc.value(p.area_km2);
    crc.value(p.mass);
    crc.value(p.peak_density);
    crc.point(p.peak_location);
    crc.value(p.min_lat);
    crc.value(p.max_lat);
    crc.value(p.min_lon);
    crc.value(p.max_lon);
  }
  crc.value(contour.boundary.size());
  for (const kde::BoundarySegment& s : contour.boundary) {
    crc.point(s.a);
    crc.point(s.b);
  }
  crc.value(a.footprint.peaks.size());
  for (const kde::Peak& p : a.footprint.peaks) {
    crc.point(p.location);
    crc.value(p.density);
    crc.value(p.score);
    crc.value(p.row);
    crc.value(p.col);
  }
  crc.value(a.footprint.sample_count);
  crc.value(a.footprint.bandwidth_km);

  crc.value(a.pops.pops.size());
  for (const core::PopEntry& pop : a.pops.pops) {
    crc.value(pop.city);
    crc.value(pop.score);
    crc.value(pop.peak_density);
    crc.point(pop.peak_location);
  }
  crc.value(a.pops.unmapped_peaks);
  return crc.crc();
}

TracedWriter::TracedWriter(const World& world, std::size_t ways, Tracer& tracer,
                           Durability durability)
    : world_(world),
      ways_(ways),
      tracer_(tracer),
      durability_(std::move(durability)),
      builder_(world.pipeline.streaming_builder()),
      classifier_(world.gaz, world.pipeline.config().classify_threshold),
      estimator_(world.pipeline.config().footprint),
      mapper_(world.gaz) {}

std::shared_ptr<const ServingSnapshot> TracedWriter::publish_window(
    std::span<const p2p::PeerSample> window, std::uint64_t request, bool encode,
    Ledger& ledger) {
  std::vector<std::size_t> fresh;
  std::shared_ptr<const ServingSnapshot> next;
  {
    const Span root{tracer_, "window", request};
    std::shared_ptr<const ServingSnapshot> previous = cell_.load();
    {
      const Span span{tracer_, "ingest", request, root.id()};
      const std::size_t before = builder_.unique_samples();
      builder_.ingest(window, ways_);
      counts_.offered += window.size();
      counts_.admitted += builder_.unique_samples() - before;
    }
    std::vector<net::Asn> changed;
    {
      const Span span{tracer_, "touched", request, root.id()};
      changed = builder_.touched_asns();
    }
    std::optional<core::TargetDataset> dataset;
    {
      const Span span{tracer_, "finalize", request, root.id()};
      dataset.emplace(builder_.finalize(ways_));
    }
    counts_.touched_last = changed.size();
    counts_.kept_last = dataset->ases().size();
    std::vector<core::AsAnalysis> analyses =
        analyze(*dataset, previous == nullptr ? std::span<const core::AsAnalysis>{}
                                              : previous->analyses(),
                changed, root.id(), request, fresh);
    next = swap(std::make_shared<const ServingSnapshot>(epoch_ + 1, std::move(*dataset),
                                                        std::move(analyses)),
                root.id(), request);
    ledger.record("publish", next != nullptr);
    util::FileSystem& fs = util::local_filesystem();
    if (!durability_.snapshot_dir.empty()) {
      const Span span{tracer_, "snapshot.save", request, root.id()};
      const util::Status status = builder_.save_snapshot(durability_.snapshot_dir, fs);
      ledger.record("save", status.ok(), status.to_string());
    }
    if (!durability_.artifact_path.empty()) {
      const Span span{tracer_, "artifact.write", request, root.id()};
      const util::Status status = core::ArtifactCodec::write(
          fs, durability_.artifact_path, next->dataset(), next->analyses(), next->epoch(),
          world_.fingerprint);
      ledger.record("artifact", status.ok(), status.to_string());
    }
    // The service drops its reference to the previous epoch when publish()
    // returns, which frees it unless a reader still pins it.
    const Span span{tracer_, "release", request, root.id()};
    previous.reset();
  }
  probe(*next, fresh, request, encode);
  counts_.memo_hit_rate = builder_.memo_hit_rate();
  return next;
}

std::shared_ptr<const ServingSnapshot> TracedWriter::restore_snapshot(
    const std::string& dir, std::uint64_t request, Ledger& ledger) {
  std::vector<std::size_t> fresh;
  const Span root{tracer_, "restore.snapshot", request};
  util::Status status;
  {
    const Span span{tracer_, "snapshot.restore", request, root.id()};
    status = builder_.restore_snapshot(dir, util::local_filesystem());
  }
  ledger.record("restore", status.ok(), status.to_string());
  if (!status.ok()) return nullptr;
  std::optional<core::TargetDataset> dataset;
  {
    const Span span{tracer_, "finalize", request, root.id()};
    dataset.emplace(builder_.finalize(ways_));
  }
  std::vector<core::AsAnalysis> analyses =
      analyze(*dataset, {}, {}, root.id(), request, fresh);
  return swap(std::make_shared<const ServingSnapshot>(epoch_ + 1, std::move(*dataset),
                                                      std::move(analyses)),
              root.id(), request);
}

std::shared_ptr<const ServingSnapshot> TracedWriter::restore_artifact(
    const std::string& path, std::uint64_t request, Ledger& ledger) {
  const Span root{tracer_, "restore.artifact", request};
  core::ArtifactView view;
  util::Status status;
  {
    const Span span{tracer_, "artifact.open", request, root.id()};
    status = core::ArtifactView::open(path, util::local_filesystem(), view);
  }
  if (status.ok() && view.config_fingerprint() != world_.fingerprint) {
    status =
        util::Status::config_mismatch("artifact fingerprint differs from the pipeline's");
  }
  ledger.record("restore", status.ok(), status.to_string());
  if (!status.ok()) return nullptr;
  const Span span{tracer_, "swap", request, root.id()};
  auto artifact = std::make_shared<const core::ArtifactView>(std::move(view));
  auto next = std::make_shared<const ServingSnapshot>(epoch_ + 1, std::move(artifact));
  ++epoch_;
  cell_.store(next);
  return next;
}

std::shared_ptr<const ServingSnapshot> TracedWriter::swap(
    std::shared_ptr<const ServingSnapshot> next, std::uint64_t parent,
    std::uint64_t request) {
  const Span span{tracer_, "swap", request, parent};
  ++epoch_;
  cell_.store(next);
  return next;
}

std::vector<core::AsAnalysis> TracedWriter::analyze(
    const core::TargetDataset& dataset, std::span<const core::AsAnalysis> previous,
    std::span<const net::Asn> changed, std::uint64_t parent, std::uint64_t request,
    std::vector<std::size_t>& fresh) {
  const Span root{tracer_, "analyze", request, parent};
  const auto ases = dataset.ases();
  std::vector<std::optional<core::AsAnalysis>> slots(ases.size());
  fresh.clear();
  {
    const Span span{tracer_, "analyze.reuse", request, root.id()};
    std::unordered_set<std::uint32_t> dirty;
    for (const net::Asn asn : changed) dirty.insert(net::value_of(asn));
    std::unordered_map<std::uint32_t, const core::AsAnalysis*> reusable;
    for (const core::AsAnalysis& analysis : previous) {
      reusable.emplace(net::value_of(analysis.asn), &analysis);
    }
    for (std::size_t i = 0; i < ases.size(); ++i) {
      const std::uint32_t asn = net::value_of(ases[i].asn);
      const auto hit = reusable.find(asn);
      if (hit != reusable.end() && !dirty.contains(asn)) {
        slots[i] = *hit->second;
      } else {
        fresh.push_back(i);
      }
    }
  }
  counts_.kept += ases.size();
  counts_.reused += ases.size() - fresh.size();
  {
    const Span span{tracer_, "analyze.fanout", request, root.id()};
    const std::uint64_t fanout = span.id();
    util::ThreadPool::shared().parallel_for(
        0, fresh.size(),
        [&](std::size_t lo, std::size_t hi) {
          for (std::size_t i = lo; i < hi; ++i) {
            slots[fresh[i]] = analyze_one(ases[fresh[i]], fanout, request);
          }
        },
        ways_);
  }
  std::vector<core::AsAnalysis> out;
  out.reserve(slots.size());
  for (auto& slot : slots) out.push_back(std::move(*slot));
  return out;
}

core::AsAnalysis TracedWriter::analyze_one(const core::AsPeerSet& peers,
                                           std::uint64_t parent, std::uint64_t request) {
  const Span root{tracer_, "analyze.as", request, parent};
  core::Classification classification;
  {
    const Span span{tracer_, "classify", request, root.id()};
    classification = classifier_.classify(peers);
  }
  std::optional<core::AsFootprint> footprint;
  {
    const Span span{tracer_, "footprint", request, root.id()};
    footprint.emplace(
        estimator_.estimate(peers, world_.pipeline.config().footprint.kde.bandwidth_km));
  }
  core::PopFootprint pops;
  {
    const Span span{tracer_, "popmap", request, root.id()};
    pops = mapper_.map(*footprint);
  }
  return core::AsAnalysis{peers.asn, std::move(classification), std::move(*footprint),
                          std::move(pops)};
}

void TracedWriter::probe(const ServingSnapshot& epoch,
                         const std::vector<std::size_t>& fresh,
                         std::uint64_t request, bool encode) {
  const Span root{tracer_, "probe", request};
  const auto analyses = epoch.analyses();
  const core::FootprintConfig& config = world_.pipeline.config().footprint;
  std::mutex mutex;
  util::ThreadPool::shared().parallel_for(
      0, fresh.size(),
      [&](std::size_t lo, std::size_t hi) {
        std::uint64_t cells = 0;
        std::uint64_t nonzero = 0;
        for (std::size_t i = lo; i < hi; ++i) {
          const core::AsFootprint& footprint = analyses[fresh[i]].footprint;
          kde::PeakConfig peaks;
          peaks.alpha = config.alpha;
          peaks.bandwidth_km = footprint.bandwidth_km;
          {
            const Span span{tracer_, "peaks", request, root.id()};
            static_cast<void>(kde::find_peaks(footprint.grid, peaks));
          }
          {
            const Span span{tracer_, "contour", request, root.id()};
            static_cast<void>(
                kde::extract_footprint_relative(footprint.grid, config.contour_fraction));
          }
          const auto& values = footprint.grid.values();
          cells += values.size();
          nonzero += static_cast<std::uint64_t>(
              std::count_if(values.begin(), values.end(),
                            [](double v) { return v != 0.0; }));
        }
        const std::lock_guard<std::mutex> lock{mutex};
        counts_.grid_cells += cells;
        counts_.grid_nonzero += nonzero;
      },
      ways_);
  if (!encode) return;
  {
    const Span span{tracer_, "artifact.encode", request, root.id()};
    const Encoded encoded =
        encode_epoch(epoch.dataset(), analyses, epoch.epoch(), world_.fingerprint);
    counts_.artifact_bytes = encoded.bytes;
    counts_.final_crc = encoded.crc;
  }
  if (!durability_.snapshot_dir.empty()) {
    const Span span{tracer_, "snapshot.encode", request, root.id()};
    counts_.snapshot_bytes =
        core::SnapshotCodec::encode(builder_, builder_.last_generation()).size();
  }
}

}  // namespace perfbench

// The writer side of the traced run, plus the encode/digest helpers the
// output oracle uses.
//
// TracedWriter drives, as direct calls, the steps EyeballService::publish
// takes (ingest, touched_asns, finalize, the refresh_analyses fan-out over
// classify / footprint / PoP map, the epoch swap, snapshot save and
// artifact write), and the steps of restore() and restore_from_artifact(),
// with a span around each call.  The untraced run goes through
// EyeballService itself; the output oracle pins both to the same bytes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/classifier.hpp"
#include "core/footprint.hpp"
#include "core/pop_mapper.hpp"
#include "report.hpp"
#include "serve/service.hpp"
#include "trace.hpp"
#include "world.hpp"

namespace perfbench {

/// CRC32C of an epoch's canonical EYBART1 encoding.
struct Encoded {
  eyeball::util::Status status;
  std::uint32_t crc = 0;
  std::size_t bytes = 0;
};
[[nodiscard]] Encoded encode_epoch(const eyeball::core::TargetDataset& dataset,
                                   std::span<const eyeball::core::AsAnalysis> analyses,
                                   std::uint64_t epoch, std::uint64_t fingerprint);

/// CRC32C over every field of one analysis: equal digests mean the same
/// answer, bit for bit.
[[nodiscard]] std::uint32_t digest(const eyeball::core::AsAnalysis& analysis);

struct Durability {
  std::string snapshot_dir;
  std::string artifact_path;
};

/// Counts the traced writer takes at layer boundaries.
struct WriterCounts {
  std::uint64_t offered = 0;   // samples handed to ingest
  std::uint64_t admitted = 0;  // unique samples those ingests added
  double memo_hit_rate = 0.0;
  std::size_t kept_last = 0;     // kept ASes after the last finalize
  std::size_t touched_last = 0;  // touched ASes at the last publish
  std::uint64_t kept = 0;        // summed over publishes
  std::uint64_t reused = 0;      // analyses reused instead of recomputed
  std::uint64_t grid_cells = 0;  // KDE cells of the recomputed analyses
  std::uint64_t grid_nonzero = 0;
  std::uint64_t snapshot_bytes = 0;
  std::uint64_t artifact_bytes = 0;
  /// Encoding of the last epoch probed with `encode` set.
  std::uint32_t final_crc = 0;
};

class TracedWriter {
 public:
  TracedWriter(const World& world, std::size_t ways, Tracer& tracer,
               Durability durability = {});
  TracedWriter(const TracedWriter&) = delete;
  TracedWriter& operator=(const TracedWriter&) = delete;

  /// One window-to-epoch, root span "window" (request = `request`).  Then,
  /// outside that span, re-times peaks and contour on the new grids and,
  /// with `encode`, times the snapshot and artifact encoders.
  std::shared_ptr<const eyeball::serve::ServingSnapshot> publish_window(
      std::span<const eyeball::p2p::PeerSample> window, std::uint64_t request, bool encode,
      Ledger& ledger);

  /// EyeballService::restore: builder state from `dir`, then a from-scratch
  /// publish.  Root span "restore.snapshot".
  std::shared_ptr<const eyeball::serve::ServingSnapshot> restore_snapshot(
      const std::string& dir, std::uint64_t request, Ledger& ledger);

  /// EyeballService::restore_from_artifact.  Root span "restore.artifact".
  std::shared_ptr<const eyeball::serve::ServingSnapshot> restore_artifact(
      const std::string& path, std::uint64_t request, Ledger& ledger);

  /// Where the traced writer publishes its epochs: the service's own
  /// publication point, since EyeballService has no entry point for an epoch
  /// built outside it.
  [[nodiscard]] const eyeball::serve::detail::SnapshotCell& cell() const noexcept {
    return cell_;
  }
  [[nodiscard]] const WriterCounts& counts() const noexcept { return counts_; }

 private:
  /// EyeballPipeline::refresh_analyses, step by step.  `fresh` receives the
  /// dataset indices that were recomputed.
  std::vector<eyeball::core::AsAnalysis> analyze(
      const eyeball::core::TargetDataset& dataset,
      std::span<const eyeball::core::AsAnalysis> previous,
      std::span<const eyeball::net::Asn> changed, std::uint64_t parent,
      std::uint64_t request, std::vector<std::size_t>& fresh);
  /// EyeballPipeline::analyze for one AS.
  eyeball::core::AsAnalysis analyze_one(const eyeball::core::AsPeerSet& peers,
                                        std::uint64_t parent, std::uint64_t request);
  void probe(const eyeball::serve::ServingSnapshot& epoch,
             const std::vector<std::size_t>& fresh, std::uint64_t request, bool encode);
  std::shared_ptr<const eyeball::serve::ServingSnapshot> swap(
      std::shared_ptr<const eyeball::serve::ServingSnapshot> next, std::uint64_t parent,
      std::uint64_t request);

  const World& world_;
  std::size_t ways_;
  Tracer& tracer_;
  Durability durability_;
  eyeball::core::StreamingDatasetBuilder builder_;
  eyeball::core::AsClassifier classifier_;
  eyeball::core::GeoFootprintEstimator estimator_;
  eyeball::core::PopCityMapper mapper_;
  eyeball::serve::detail::SnapshotCell cell_;
  std::uint64_t epoch_ = 0;
  WriterCounts counts_;
};

}  // namespace perfbench

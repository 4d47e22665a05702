#include "serve/service.hpp"

#include <algorithm>
#include <exception>
#include <functional>
#include <utility>

#include "util/check.hpp"

namespace eyeball::serve {
namespace {

/// One supervised-durability step of publish(): runs `write` under the
/// retry policy, keeps its per-attempt history (whose final Status is the
/// step's verdict) in `history`, and folds a final failure into
/// `durability` — a later step's failure replaces an earlier one's.
void supervise_durable_write(const util::RetryPolicy& policy,
                             const std::function<util::Status()>& write,
                             util::RetryResult& history, util::Status& durability) {
  history = policy.run(write);
  if (!history.ok()) durability = history.status;
}

}  // namespace

std::string_view to_string(ServiceHealth health) noexcept {
  switch (health) {
    case ServiceHealth::kHealthy:
      return "healthy";
    case ServiceHealth::kDegradedDurability:
      return "degraded-durability";
    case ServiceHealth::kReadOnly:
      return "read-only";
  }
  return "unknown";
}

ServingSnapshot::ServingSnapshot(std::uint64_t epoch, core::TargetDataset dataset,
                                 std::vector<core::AsAnalysis> analyses)
    : epoch_(epoch), dataset_(std::move(dataset)), analyses_(std::move(analyses)) {
  EYEBALL_DCHECK(analyses_.size() == dataset_->ases().size(),
                 "snapshot analyses must be parallel to the dataset's ASes");
}

ServingSnapshot::ServingSnapshot(std::uint64_t epoch,
                                 std::shared_ptr<const core::ArtifactView> artifact)
    : epoch_(epoch),
      artifact_(std::move(artifact)),
      thaw_once_(artifact_ == nullptr ? 0 : artifact_->as_count()),
      thawed_(artifact_ == nullptr ? 0 : artifact_->as_count()) {
  EYEBALL_DCHECK(artifact_ != nullptr && artifact_->valid(),
                 "artifact-backed snapshot needs an opened view");
}

const core::DatasetStats& ServingSnapshot::stats() const noexcept {
  return artifact_ != nullptr ? artifact_->stats() : dataset_->stats();
}

std::size_t ServingSnapshot::as_count() const noexcept {
  return artifact_ != nullptr ? artifact_->as_count() : dataset_->ases().size();
}

net::Asn ServingSnapshot::asn_at(std::size_t index) const noexcept {
  return artifact_ != nullptr ? artifact_->as_at(index).asn()
                              : dataset_->ases()[index].asn;
}

const core::AsAnalysis* ServingSnapshot::analysis_at(std::size_t index) const {
  if (artifact_ == nullptr) return &analyses_[index];
  // First request thaws the AS out of the mapped image; call_once makes the
  // thaw happen exactly once under concurrent readers, and the unique_ptr
  // slot (vector sized at construction, never resized) gives the answer a
  // stable address for the snapshot's lifetime.
  std::call_once(thaw_once_[index], [&] {
    thawed_[index] = std::make_unique<core::AsAnalysis>(
        artifact_->as_at(index).materialize());
  });
  return thawed_[index].get();
}

const core::AsAnalysis* ServingSnapshot::find(net::Asn asn) const {
  if (artifact_ != nullptr) {
    const std::optional<std::size_t> index = artifact_->find_index(asn);
    if (!index.has_value()) return nullptr;
    return analysis_at(*index);
  }
  const core::AsPeerSet* as = dataset_->find(asn);
  if (as == nullptr) return nullptr;
  // ases() and analyses_ are parallel vectors, so the dataset's index is
  // the analysis index.
  const auto index = static_cast<std::size_t>(as - dataset_->ases().data());
  return &analyses_[index];
}

const core::TargetDataset& ServingSnapshot::dataset() const noexcept {
  EYEBALL_DCHECK(dataset_.has_value(),
                 "dataset() is for in-memory epochs; artifact-backed epochs "
                 "materialize per AS via artifact()");
  return *dataset_;
}

std::span<const core::AsAnalysis> ServingSnapshot::analyses() const noexcept {
  EYEBALL_DCHECK(dataset_.has_value(),
                 "analyses() is for in-memory epochs; artifact-backed epochs "
                 "thaw per AS via analysis_at()");
  return analyses_;
}

EyeballService::EyeballService(const core::EyeballPipeline& pipeline, ServiceConfig config)
    : pipeline_(pipeline),
      config_(std::move(config)),
      builder_(pipeline.streaming_builder()) {}

void EyeballService::ingest(std::span<const p2p::PeerSample> window) {
  const util::SerialSection writer{writer_serial_};
  builder_.ingest(window);
}

std::shared_ptr<const ServingSnapshot> EyeballService::publish() {
  const util::SerialSection writer{writer_serial_};
  // Touched set must be read BEFORE finalize(): finalize clears it.  Merge
  // in the work list rescued from a previously firewalled publish — those
  // ASes changed, were never re-analyzed, and would otherwise be silently
  // served stale forever.
  std::vector<net::Asn> changed = builder_.touched_asns();
  if (!carryover_changed_.empty()) {
    changed.insert(changed.end(), carryover_changed_.begin(),
                   carryover_changed_.end());
    std::sort(changed.begin(), changed.end());
    changed.erase(std::unique(changed.begin(), changed.end()), changed.end());
  }
  const std::shared_ptr<const ServingSnapshot> next = publish_firewalled(std::move(changed));
  if (next == nullptr) return nullptr;

  // ---- Supervised durability: retry transient failures with exponential
  // backoff; surface (never throw) the final verdicts.  A failed save must
  // not take queries down.
  const util::RetryPolicy policy{config_.durability_retry, clock()};
  util::FileSystem& fs = filesystem();
  util::Status durability;
  if (!config_.snapshot_dir.empty()) {
    core::StreamingDatasetBuilder& builder = builder_;
    const std::string dir = config_.snapshot_dir;
    supervise_durable_write(
        policy, [&builder, &fs, &dir] { return builder.save_snapshot(dir, fs, nullptr); },
        last_save_retry_, durability);
  }
  if (!config_.artifact_path.empty()) {
    const std::string path = config_.artifact_path;
    const std::uint64_t fingerprint =
        core::SnapshotCodec::config_fingerprint(pipeline_.config().dataset);
    const ServingSnapshot& epoch = *next;
    supervise_durable_write(
        policy,
        [&fs, &path, &epoch, fingerprint] {
          return core::ArtifactCodec::write(fs, path, epoch.dataset(), epoch.analyses(),
                                            epoch.epoch(), fingerprint);
        },
        last_artifact_retry_, durability);
  }
  health_.transition(durability.ok() ? ServiceHealth::kHealthy
                                     : ServiceHealth::kDegradedDurability,
                     durability);
  return next;
}

util::Status EyeballService::restore(const std::string& dir,
                                     core::SnapshotRestoreInfo* info) {
  const util::SerialSection writer{writer_serial_};
  if (util::Status status = builder_.restore_snapshot(dir, filesystem(), info);
      !status.ok()) {
    // Health is deliberately unchanged: a failed restore leaves both the
    // serving surface and the builder exactly as they were.
    return status;
  }
  // The restored touched-set is relative to the snapshot's own history, not
  // to whatever this service last published — republish from scratch.  The
  // flag outlives a firewall trip here, so the next publish() re-analyzes
  // every AS too.  A stale carry-over list from before the restore is
  // superseded for the same reason.
  carryover_changed_.clear();
  reanalyze_all_ = true;
  if (publish_firewalled({}) == nullptr) return last_publish_status_;
  health_.transition(ServiceHealth::kHealthy, util::Status{});
  return util::Status{};
}

util::Status EyeballService::restore_from_artifact(const std::string& path) {
  const util::SerialSection writer{writer_serial_};
  util::FileSystem& fs = filesystem();
  core::ArtifactView view;
  if (util::Status status = core::ArtifactView::open(path, fs, view); !status.ok()) {
    if (status.code() == util::StatusCode::kCorruption) {
      // A damaged image must not ambush every future restore: move it
      // aside with its verdict, like a corrupt snapshot generation.
      // Best-effort — the typed refusal below is the load-bearing part.
      static_cast<void>(util::quarantine_file(fs, path, status));
    }
    return status;
  }
  // Same refusal the snapshot codec makes: an artifact produced under a
  // different result-affecting configuration must not serve as if it were
  // this pipeline's output.
  const std::uint64_t expected =
      core::SnapshotCodec::config_fingerprint(pipeline_.config().dataset);
  if (view.config_fingerprint() != expected) {
    return util::Status::config_mismatch(
        "artifact '" + path + "' was produced under a different dataset "
        "configuration than this pipeline's");
  }
  auto artifact = std::make_shared<const core::ArtifactView>(std::move(view));
  auto next =
      std::make_shared<const ServingSnapshot>(this->epoch() + 1, std::move(artifact));
  current_.store(next);
  health_.transition(ServiceHealth::kHealthy, util::Status{});
  return util::Status{};
}

std::shared_ptr<const ServingSnapshot> EyeballService::publish_firewalled(
    std::vector<net::Asn> changed) {
  // The previous epoch stays pinned by this local shared_ptr, so handing
  // its analyses span to refresh_analyses is safe even though readers may
  // concurrently drop their own references.  An artifact-backed previous
  // epoch has no in-memory analyses span to reuse — treat it as no
  // previous epoch (full re-analysis); the published result is identical
  // either way.
  const std::shared_ptr<const ServingSnapshot> previous = current_.load();
  const bool reuse = !reanalyze_all_ && previous != nullptr && !previous->artifact_backed();

  // ---- Exception firewall.  finalize/analysis may throw (bad_alloc, a
  // bug surfacing as a logic_error); on a long-lived server that must
  // become a typed value, not an unwound writer thread.  The builder holds
  // no invariant across the publish boundary that a throw can break:
  // finalize() is non-destructive (touched-set clearing is repaired by the
  // carry-over below), so the service keeps ingesting and the previous
  // epoch keeps serving.
  std::shared_ptr<const ServingSnapshot> next;
  try {
    core::TargetDataset dataset = builder_.finalize(config_.threads);
    // After finalize, before analysis: the window where a throw strands the
    // already-cleared touched set — exactly what the carry-over must rescue.
    if (config_.publish_fault_hook) config_.publish_fault_hook();
    std::vector<core::AsAnalysis> analyses = pipeline_.refresh_analyses(
        dataset, reuse ? previous->analyses() : std::span<const core::AsAnalysis>{},
        changed);
    next = std::make_shared<const ServingSnapshot>(this->epoch() + 1, std::move(dataset),
                                                   std::move(analyses));
    last_publish_status_ = util::Status{};
  } catch (const std::exception& e) {
    last_publish_status_ = util::Status::internal(
        std::string{"publish firewall: "} + e.what());
  }
  // eyeball-lint: allow(swallowed-exception): the publish firewall — a non-std exception crossing here must still become a typed Status instead of unwinding the writer, and there is no type info to preserve
  catch (...) {
    last_publish_status_ =
        util::Status::internal("publish firewall: non-std exception");
  }
  if (next == nullptr) {
    carryover_changed_ = std::move(changed);
    health_.transition(ServiceHealth::kReadOnly, last_publish_status_);
    return nullptr;
  }
  carryover_changed_.clear();
  reanalyze_all_ = false;
  // The store is the publication point: the snapshot is fully constructed
  // and never mutated again, so readers that load the pointer see a
  // complete epoch or the previous one — never a mix.
  current_.store(next);
  return next;
}

std::uint64_t EyeballService::epoch() const {
  const std::shared_ptr<const ServingSnapshot> snap = current_.load();
  return snap == nullptr ? 0 : snap->epoch();
}

AnalysisRef EyeballService::query(net::Asn asn) const {
  AnalysisRef ref;
  ref.snapshot = snapshot();
  if (ref.snapshot != nullptr) ref.analysis = ref.snapshot->find(asn);
  return ref;
}

BatchResult EyeballService::query_batch(std::span<const net::Asn> asns) const {
  BatchResult result;
  // One snapshot load for the whole batch: every answer is from this epoch.
  result.snapshot = snapshot();
  result.analyses.resize(asns.size(), nullptr);
  if (result.snapshot == nullptr) return result;
  for (std::size_t i = 0; i < asns.size(); ++i) {
    result.analyses[i] = result.snapshot->find(asns[i]);
  }
  return result;
}

std::optional<EyeballService::StatsAnswer> EyeballService::stats() const {
  const std::shared_ptr<const ServingSnapshot> snap = snapshot();
  if (snap == nullptr) return std::nullopt;
  return StatsAnswer{snap->epoch(), snap->stats()};
}

}  // namespace eyeball::serve

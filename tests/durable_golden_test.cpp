// Golden byte pins for the two durable formats: EYBSNAP1 (builder state)
// and EYBART1 (published epoch).  Both encoders are canonical, so a fixed
// small world must encode to the same bytes on every build; these tests pin
// the CRC32C and size of each image.  A pin that moves means the on-disk
// format changed — which breaks every file already written — so a refactor
// of either codec must leave these constants exactly as they are.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/artifact.hpp"
#include "core/snapshot.hpp"
#include "core/streaming_dataset.hpp"
#include "p2p/churn.hpp"
#include "pipeline_fixture.hpp"
#include "util/crc32c.hpp"
#include "util/status.hpp"

namespace eyeball {
namespace {

using eyeball::testing::shared_fixture;

/// Three churned crawl windows streamed into one builder, finalized and
/// analyzed at two threads.  Everything is seeded, so the state is fixed.
struct GoldenWorld {
  const testing::PipelineFixture& f = shared_fixture();
  core::PipelineConfig config = [] {
    core::PipelineConfig pipeline_config = shared_fixture().pipeline.config();
    pipeline_config.dataset.min_peers_per_as = 300;
    pipeline_config.threads = 2;
    return pipeline_config;
  }();
  core::EyeballPipeline pipeline{f.gaz, f.primary, f.secondary, f.mapper, config};
  p2p::LongitudinalResult churn = [this] {
    p2p::CrawlerConfig crawl_config;
    crawl_config.seed = 77;
    crawl_config.coverage = 0.05;
    p2p::ChurnConfig churn_config;
    churn_config.seed = 2009;
    churn_config.windows = 3;
    churn_config.lease_survival = 0.6;
    return p2p::longitudinal_crawl(f.eco, f.gaz, crawl_config, churn_config);
  }();
  core::StreamingDatasetBuilder builder = pipeline.streaming_builder();
  /// Encoded before finalize(), which clears the touched set.
  std::vector<std::byte> snapshot = [this] {
    for (const auto& window : churn.windows) builder.ingest(window);
    return core::SnapshotCodec::encode(builder, 7);
  }();
  core::TargetDataset dataset = builder.finalize(2);
  std::vector<core::AsAnalysis> analyses = pipeline.refresh_analyses(dataset, {}, {});
};

const GoldenWorld& golden_world() {
  static const GoldenWorld instance;
  return instance;
}

// Recorded from the encoders as they stood before the shared byte-codec
// refactor.  Do not update these to make a failing run pass.
constexpr std::uint32_t kSnapshotCrc = 0x543bab20;
constexpr std::size_t kSnapshotSize = 37362345;
constexpr std::uint32_t kArtifactCrc = 0x4d75ecfd;
constexpr std::size_t kArtifactSize = 57297608;

TEST(DurableGolden, SnapshotBytesArePinned) {
  const auto& w = golden_world();
  ASSERT_GT(w.dataset.ases().size(), 0u) << "the golden world must be non-trivial";
  EXPECT_EQ(w.snapshot.size(), kSnapshotSize);
  EXPECT_EQ(util::crc32c(w.snapshot), kSnapshotCrc)
      << std::hex << "got 0x" << util::crc32c(w.snapshot);
}

TEST(DurableGolden, ArtifactBytesArePinned) {
  const auto& w = golden_world();
  std::vector<std::byte> bytes;
  const util::Status status = core::ArtifactCodec::encode(
      w.dataset, w.analyses, 3, core::SnapshotCodec::config_fingerprint(w.config.dataset),
      bytes);
  ASSERT_TRUE(status.ok()) << status.message();
  EXPECT_EQ(bytes.size(), kArtifactSize);
  EXPECT_EQ(util::crc32c(bytes), kArtifactCrc) << std::hex << "got 0x" << util::crc32c(bytes);
}

TEST(DurableGolden, PinnedSnapshotDecodesToTheSameState) {
  // The pinned bytes are also a valid image: decoding them into a fresh
  // builder and re-encoding reproduces them exactly.
  const auto& w = golden_world();
  auto restored = w.pipeline.streaming_builder();
  std::uint64_t generation = 0;
  const util::Status status = core::SnapshotCodec::decode(w.snapshot, restored, &generation);
  ASSERT_TRUE(status.ok()) << status.message();
  EXPECT_EQ(generation, 7u);
  EXPECT_EQ(core::SnapshotCodec::encode(restored, 7), w.snapshot);
}

}  // namespace
}  // namespace eyeball

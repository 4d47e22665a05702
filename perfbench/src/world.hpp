// The benchmark world: the ROADMAP bench world (ecosystem scale 0.05,
// crawl coverage 0.2: 4.70 M samples, 54 kept ASes), split into six
// contiguous monthly windows.  The AS ecosystem and the crawl are the bench
// world's own (generator seed 2009) on every run, so every seed measures
// the same scale: a crawl seed alone moves the sample count by +-7 %.  The
// workload seed drives the two geo databases' error draws, the RIB and the
// query keys.  The program under test only ever sees the generated inputs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "bgp/rib.hpp"
#include "core/pipeline.hpp"
#include "gazetteer/gazetteer.hpp"
#include "geodb/synthetic_db.hpp"
#include "p2p/crawler.hpp"
#include "topology/generator.hpp"
#include "topology/ground_truth.hpp"

namespace perfbench {

inline constexpr double kScale = 0.05;
inline constexpr double kCoverage = 0.2;
inline constexpr std::size_t kWindows = 6;
/// Ecosystem and crawler seed of the ROADMAP bench world.
inline constexpr std::uint64_t kBenchWorldSeed = 2009;

/// Members reference each other (truth -> eco, pipeline -> databases), so a
/// World is built in place and never moved.
struct World {
  /// `ways` sets every writer concurrency knob of the pipeline: ingest
  /// shards, finalize and the per-AS analysis fan-out.
  World(std::uint64_t seed, std::size_t ways);
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  eyeball::gazetteer::Gazetteer gaz;
  eyeball::topology::AsEcosystem eco;
  eyeball::topology::GroundTruthLocator truth;
  eyeball::geodb::SyntheticGeoDatabase primary;
  eyeball::geodb::SyntheticGeoDatabase secondary;
  eyeball::bgp::RibSnapshot rib;
  eyeball::bgp::IpToAsMapper mapper;
  eyeball::core::EyeballPipeline pipeline;
  /// The whole crawl, in crawl order.
  std::vector<eyeball::p2p::PeerSample> samples;
  /// The crawl as kWindows contiguous windows (views into `samples`).
  std::vector<std::span<const eyeball::p2p::PeerSample>> windows;
  /// Config fingerprint stamped into artifacts (as the service does).
  std::uint64_t fingerprint = 0;
};

}  // namespace perfbench

#include "world.hpp"

#include <algorithm>

#include "core/snapshot.hpp"

namespace perfbench {
namespace {

using namespace eyeball;

topology::AsEcosystem generate(const gazetteer::Gazetteer& gaz) {
  topology::EcosystemConfig config;
  config.seed = kBenchWorldSeed;
  return topology::generate_ecosystem(gaz, config.scaled(kScale));
}

core::PipelineConfig pipeline_config(std::size_t ways) {
  core::PipelineConfig config;
  config.threads = ways;
  config.dataset.threads = ways;
  return config;
}

}  // namespace

World::World(std::uint64_t seed, std::size_t ways)
    : gaz(gazetteer::Gazetteer::builtin()),
      eco(generate(gaz)),
      truth(eco, gaz),
      primary("geoip-city-like", truth, geodb::ErrorModel{}, seed ^ 0xaaaaU),
      secondary("ip2location-like", truth, geodb::ErrorModel{}, seed ^ 0xbbbbU),
      rib(bgp::RibSnapshot::from_ecosystem(eco, seed)),
      mapper(rib),
      pipeline(gaz, primary, secondary, mapper, pipeline_config(ways)) {
  p2p::CrawlerConfig crawler;
  crawler.seed = kBenchWorldSeed;
  crawler.coverage = kCoverage;
  samples = p2p::Crawler{eco, gaz, crawler}.crawl().samples;
  const std::span<const p2p::PeerSample> all{samples};
  const std::size_t chunk = (all.size() + kWindows - 1) / kWindows;
  for (std::size_t lo = 0; lo < all.size(); lo += chunk) {
    windows.push_back(all.subspan(lo, std::min(chunk, all.size() - lo)));
  }
  fingerprint = core::SnapshotCodec::config_fingerprint(pipeline.config().dataset);
}

}  // namespace perfbench

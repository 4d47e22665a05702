// The four workloads.  Each sets up its world several times (setup_s is
// the median), measures for the requested seconds, then checks every
// output against the oracle.  A traced run alternates untraced and traced
// units so it can report the tracing overhead next to the per-layer sums.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "report.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch and output directory (durability files, spans.csv).
  std::string out_dir;
};

/// A configuration the benchmark will not measure (thread budget, build).
class Refusal : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Runs `options.workload`; throws Refusal for an unknown workload or an
/// over-budget configuration.
void run_workload(const Options& options, Report& report);

}  // namespace perfbench

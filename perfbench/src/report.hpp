// Measurement bookkeeping shared by every workload: wall-clock helpers, an
// empty-safe percentile, the attempted/failed ledger, the peak-RSS probe,
// and the metric sheet the binary prints as one JSON object for
// perfbench/run.py.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/stats.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// util::percentile (q in [0, 100]), or 0 for an empty sample: a layer a
/// workload leaves idle, or a unit that failed before it was timed.
[[nodiscard]] inline double percentile_or_zero(std::span<const double> values, double q) {
  return values.empty() ? 0.0 : eyeball::util::percentile(values, q);
}
[[nodiscard]] inline double median_or_zero(std::span<const double> values) {
  return percentile_or_zero(values, 50.0);
}

/// Attempted and failed operations per class.  A failure keeps its first
/// few messages so a failed run says what went wrong.
class Ledger {
 public:
  /// Records one operation of class `cls`; `why` is kept when it failed.
  void record(const std::string& cls, bool ok, std::string_view why = {});
  /// Folds in counts gathered elsewhere (reader threads tally privately).
  void add(const std::string& cls, std::uint64_t attempted, std::uint64_t failed);
  void note_failure(std::string_view why);

  [[nodiscard]] std::uint64_t attempted() const;
  [[nodiscard]] std::uint64_t failed() const;
  [[nodiscard]] const std::map<std::string, std::pair<std::uint64_t, std::uint64_t>>&
  classes() const noexcept {
    return classes_;
  }
  [[nodiscard]] const std::vector<std::string>& failures() const noexcept {
    return failures_;
  }

 private:
  static constexpr std::size_t kMaxMessages = 16;
  std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> classes_;
  std::vector<std::string> failures_;
};

/// One measured figure: `samples` is how many observations the value
/// summarizes (units run, queries timed, spans summed).
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
};

/// Everything one run reports.  The perfbench binary prints it as the last
/// line of its standard output; run.py picks the gated metrics out of it.
class Report {
 public:
  void metric(std::string name, double value, std::string unit, std::size_t samples);
  void context(std::string key, std::string value);
  void context(std::string key, std::uint64_t value);

  [[nodiscard]] Ledger& ledger() noexcept { return ledger_; }
  [[nodiscard]] std::string to_json() const;

 private:
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> context_;  // value is JSON text
  Ledger ledger_;
};

/// Peak resident set size of this process since start or since the last
/// successful reset_peak_rss(), in MB (VmHWM).
[[nodiscard]] double peak_rss_mb();
/// Lowers the peak resident set size to the current one (Linux: "5" to
/// /proc/self/clear_refs).  False where the kernel refuses; the peak then
/// keeps counting from process start.
bool reset_peak_rss();

}  // namespace perfbench

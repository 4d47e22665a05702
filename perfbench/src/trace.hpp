// In-memory spans for the traced run.  Spans are recorded by the benchmark
// around its calls into each layer's public functions (nothing inside the
// program is instrumented), kept in memory and written out at the end.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "report.hpp"

namespace perfbench {

struct SpanRecord {
  /// Layer name; a string literal (static storage).
  const char* name = "";
  std::uint64_t id = 0;
  /// 0 for a root span.
  std::uint64_t parent = 0;
  /// Window index for writer spans, sampled query id for reader spans.
  std::uint64_t request = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] std::int64_t now_ns() const noexcept {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_)
        .count();
  }
  [[nodiscard]] std::uint64_t next_id() noexcept {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }
  /// Thread-safe; writer-side spans arrive at a few hundred per window.
  /// (Reader threads keep their sampled spans privately.)
  void record(const SpanRecord& span);
  /// Every span recorded so far (call after all recording threads joined).
  [[nodiscard]] std::vector<SpanRecord> spans() const;

 private:
  const Clock::time_point origin_ = Clock::now();
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
};

/// RAII span: opens at construction, recorded at destruction.
class Span {
 public:
  Span(Tracer& tracer, const char* name, std::uint64_t request, std::uint64_t parent = 0)
      : tracer_(tracer),
        record_{name, tracer.next_id(), parent, request, tracer.now_ns(), 0} {}
  ~Span() {
    record_.end_ns = tracer_.now_ns();
    tracer_.record(record_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  [[nodiscard]] std::uint64_t id() const noexcept { return record_.id; }

 private:
  Tracer& tracer_;
  SpanRecord record_;
};

/// Per-layer sums over a set of spans.
struct LayerTime {
  std::size_t count = 0;
  /// Summed span durations.
  double total_s = 0.0;
  /// Summed self time: each span's duration minus the part of it that its
  /// child spans cover (children may overlap when they ran in parallel).
  double self_s = 0.0;
};

[[nodiscard]] std::map<std::string, LayerTime> layer_times(
    const std::vector<SpanRecord>& spans);

/// The spans whose root span is named `root` (the root included).
[[nodiscard]] std::vector<SpanRecord> under_root(const std::vector<SpanRecord>& spans,
                                                 std::string_view root);

/// How much of one root span its direct children cover.
struct Coverage {
  std::uint64_t request = 0;
  double covered_s = 0.0;
  double span_s = 0.0;

  [[nodiscard]] double share() const noexcept {
    return span_s > 0.0 ? covered_s / span_s : 1.0;
  }
};

/// One entry per root span named `root`.
[[nodiscard]] std::vector<Coverage> child_coverage(const std::vector<SpanRecord>& spans,
                                                   const std::string& root);

/// Writes spans as CSV (name,id,parent,request,start_ns,end_ns).
bool write_spans(const std::string& path, const std::vector<SpanRecord>& spans);

}  // namespace perfbench

#include "trace.hpp"

#include <algorithm>
#include <fstream>
#include <unordered_map>
#include <utility>

namespace perfbench {
namespace {

using Interval = std::pair<std::int64_t, std::int64_t>;

/// Length of the union of `children`, clipped to [lo, hi].
std::int64_t covered_ns(std::vector<Interval> children, std::int64_t lo, std::int64_t hi) {
  std::sort(children.begin(), children.end());
  std::int64_t covered = 0;
  std::int64_t reach = lo;
  for (auto [start, end] : children) {
    start = std::max(start, reach);
    end = std::min(end, hi);
    if (end > start) {
      covered += end - start;
      reach = end;
    }
  }
  return covered;
}

std::unordered_map<std::uint64_t, std::vector<Interval>> children_by_parent(
    const std::vector<SpanRecord>& spans) {
  std::unordered_map<std::uint64_t, std::vector<Interval>> out;
  for (const SpanRecord& span : spans) {
    if (span.parent != 0) out[span.parent].emplace_back(span.start_ns, span.end_ns);
  }
  return out;
}

}  // namespace

void Tracer::record(const SpanRecord& span) {
  const std::lock_guard<std::mutex> lock{mutex_};
  spans_.push_back(span);
}

std::vector<SpanRecord> Tracer::spans() const {
  const std::lock_guard<std::mutex> lock{mutex_};
  return spans_;
}

std::map<std::string, LayerTime> layer_times(const std::vector<SpanRecord>& spans) {
  const auto children = children_by_parent(spans);
  std::map<std::string, LayerTime> out;
  for (const SpanRecord& span : spans) {
    const std::int64_t duration = span.end_ns - span.start_ns;
    std::int64_t covered = 0;
    if (const auto it = children.find(span.id); it != children.end()) {
      covered = covered_ns(it->second, span.start_ns, span.end_ns);
    }
    LayerTime& layer = out[span.name];
    ++layer.count;
    layer.total_s += static_cast<double>(duration) * 1e-9;
    layer.self_s += static_cast<double>(duration - covered) * 1e-9;
  }
  return out;
}

std::vector<SpanRecord> under_root(const std::vector<SpanRecord>& spans,
                                   std::string_view root) {
  std::unordered_map<std::uint64_t, const SpanRecord*> by_id;
  for (const SpanRecord& span : spans) by_id.emplace(span.id, &span);
  std::vector<SpanRecord> out;
  for (const SpanRecord& span : spans) {
    const SpanRecord* top = &span;
    while (top->parent != 0) {
      const auto it = by_id.find(top->parent);
      if (it == by_id.end()) break;
      top = it->second;
    }
    if (top->name == root) out.push_back(span);
  }
  return out;
}

std::vector<Coverage> child_coverage(const std::vector<SpanRecord>& spans,
                                     const std::string& root) {
  const auto children = children_by_parent(spans);
  std::vector<Coverage> out;
  for (const SpanRecord& span : spans) {
    if (span.name != root) continue;
    const auto it = children.find(span.id);
    const std::int64_t covered =
        it == children.end() ? 0 : covered_ns(it->second, span.start_ns, span.end_ns);
    out.push_back(Coverage{span.request, static_cast<double>(covered) * 1e-9,
                           static_cast<double>(span.end_ns - span.start_ns) * 1e-9});
  }
  return out;
}

bool write_spans(const std::string& path, const std::vector<SpanRecord>& spans) {
  std::ofstream out{path};
  out << "name,id,parent,request,start_ns,end_ns\n";
  for (const SpanRecord& span : spans) {
    out << span.name << ',' << span.id << ',' << span.parent << ',' << span.request << ','
        << span.start_ns << ',' << span.end_ns << '\n';
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench

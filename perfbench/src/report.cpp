#include "report.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {
namespace {

std::string json_string(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

}  // namespace

void Ledger::record(const std::string& cls, bool ok, std::string_view why) {
  auto& [attempted, failed] = classes_[cls];
  ++attempted;
  if (!ok) {
    ++failed;
    note_failure(cls + ": " + std::string{why});
  }
}

void Ledger::add(const std::string& cls, std::uint64_t attempted, std::uint64_t failed) {
  auto& entry = classes_[cls];
  entry.first += attempted;
  entry.second += failed;
}

void Ledger::note_failure(std::string_view why) {
  if (failures_.size() < kMaxMessages) failures_.emplace_back(why);
}

std::uint64_t Ledger::attempted() const {
  std::uint64_t total = 0;
  for (const auto& [cls, counts] : classes_) total += counts.first;
  return total;
}

std::uint64_t Ledger::failed() const {
  std::uint64_t total = 0;
  for (const auto& [cls, counts] : classes_) total += counts.second;
  return total;
}

void Report::metric(std::string name, double value, std::string unit, std::size_t samples) {
  metrics_.push_back(Metric{std::move(name), value, std::move(unit), samples});
}

void Report::context(std::string key, std::string value) {
  context_.emplace_back(std::move(key), json_string(value));
}

void Report::context(std::string key, std::uint64_t value) {
  context_.emplace_back(std::move(key), std::to_string(value));
}

std::string Report::to_json() const {
  std::ostringstream out;
  out << "{\"context\": {";
  for (std::size_t i = 0; i < context_.size(); ++i) {
    out << (i == 0 ? "" : ", ") << json_string(context_[i].first) << ": "
        << context_[i].second;
  }
  out << "}, \"attempted\": " << ledger_.attempted()
      << ", \"failed\": " << ledger_.failed() << ", \"classes\": {";
  bool first = true;
  for (const auto& [cls, counts] : ledger_.classes()) {
    out << (first ? "" : ", ") << json_string(cls) << ": {\"attempted\": " << counts.first
        << ", \"failed\": " << counts.second << "}";
    first = false;
  }
  out << "}, \"failures\": [";
  for (std::size_t i = 0; i < ledger_.failures().size(); ++i) {
    out << (i == 0 ? "" : ", ") << json_string(ledger_.failures()[i]);
  }
  out << "], \"metrics\": [";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    out << (i == 0 ? "" : ", ") << "{\"name\": " << json_string(m.name)
        << ", \"value\": " << json_number(m.value) << ", \"unit\": " << json_string(m.unit)
        << ", \"samples\": " << m.samples << "}";
  }
  out << "]}";
  return out.str();
}

double peak_rss_mb() {
  std::ifstream status{"/proc/self/status"};
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields{line.substr(6)};
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

bool reset_peak_rss() {
  std::ofstream clear{"/proc/self/clear_refs"};
  clear << "5" << std::flush;
  return static_cast<bool>(clear);
}

}  // namespace perfbench

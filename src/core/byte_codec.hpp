// Little-endian byte codec shared by the two durable formats: EYBSNAP1
// (builder state, core/snapshot.cpp) and EYBART1 (published epoch,
// core/artifact.cpp).  Integers are written least-significant byte first
// and doubles as their IEEE-754 bit patterns, so the bytes are the same on
// every host.
//
// Everything is inline in this header on purpose: the encoders call the
// writers once per field of every peer record (millions per snapshot), and
// the calls must keep compiling down to the same straight-line stores they
// did as file-local helpers.
//
// Three layers:
//   - append writers (put_*, pad8) and an in-place patch (put_u32_at);
//   - positional loads (load_*), which trust the caller's bounds;
//   - Cursor, a bounds-checked sequential reader built on the loads, for
//     decoders that walk untrusted bytes field by field.
// Plus the one DatasetStats section layout both formats embed.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/dataset.hpp"

namespace eyeball::core::codec {

[[nodiscard]] constexpr std::size_t align8(std::size_t n) noexcept {
  return (n + 7U) & ~std::size_t{7};
}

// ---- append writers -------------------------------------------------------

inline void put_u32(std::vector<std::byte>& out, std::uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8) {
    out.push_back(static_cast<std::byte>((v >> shift) & 0xffU));
  }
}

inline void put_u64(std::vector<std::byte>& out, std::uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8) {
    out.push_back(static_cast<std::byte>((v >> shift) & 0xffU));
  }
}

inline void put_f64(std::vector<std::byte>& out, double v) {
  put_u64(out, std::bit_cast<std::uint64_t>(v));
}

/// Zero-pads `out` to the next 8-byte boundary.
inline void pad8(std::vector<std::byte>& out) {
  while ((out.size() & 7U) != 0) out.push_back(std::byte{0});
}

/// Overwrites the four bytes at `at` (a field reserved earlier, e.g. a CRC
/// that covers the bytes written after it was reserved).
inline void put_u32_at(std::span<std::byte> out, std::size_t at, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out[at + static_cast<std::size_t>(i)] = static_cast<std::byte>((v >> (8 * i)) & 0xffU);
  }
}

// ---- positional loads (callers guarantee bounds) ---------------------------

[[nodiscard]] inline std::uint32_t load_u32(std::span<const std::byte> bytes,
                                            std::size_t at) noexcept {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(bytes[at + static_cast<std::size_t>(i)]) << (8 * i);
  }
  return v;
}

[[nodiscard]] inline std::uint64_t load_u64(std::span<const std::byte> bytes,
                                            std::size_t at) noexcept {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(bytes[at + static_cast<std::size_t>(i)]) << (8 * i);
  }
  return v;
}

[[nodiscard]] inline double load_f64(std::span<const std::byte> bytes,
                                     std::size_t at) noexcept {
  return std::bit_cast<double>(load_u64(bytes, at));
}

// ---- bounds-checked cursor -------------------------------------------------

/// Sequential reader over a byte span.  Every read returns false instead of
/// walking past the end (and then leaves the cursor where it was); callers
/// turn a false into kCorruption.
class Cursor {
 public:
  explicit Cursor(std::span<const std::byte> data) noexcept : data_(data) {}

  [[nodiscard]] std::size_t remaining() const noexcept { return data_.size() - pos_; }

  [[nodiscard]] bool read_u8(std::uint8_t& out) noexcept {
    if (remaining() < 1) return false;
    out = std::to_integer<std::uint8_t>(data_[pos_++]);
    return true;
  }

  [[nodiscard]] bool read_u32(std::uint32_t& out) noexcept {
    if (remaining() < 4) return false;
    out = load_u32(data_, pos_);
    pos_ += 4;
    return true;
  }

  [[nodiscard]] bool read_u64(std::uint64_t& out) noexcept {
    if (remaining() < 8) return false;
    out = load_u64(data_, pos_);
    pos_ += 8;
    return true;
  }

  [[nodiscard]] bool read_f64(double& out) noexcept {
    if (remaining() < 8) return false;
    out = load_f64(data_, pos_);
    pos_ += 8;
    return true;
  }

  /// The next `n` bytes as a sub-span of the input.
  [[nodiscard]] bool read_bytes(std::uint64_t n, std::span<const std::byte>& out) noexcept {
    if (n > remaining()) return false;
    out = data_.subspan(pos_, static_cast<std::size_t>(n));
    pos_ += static_cast<std::size_t>(n);
    return true;
  }

 private:
  std::span<const std::byte> data_;
  std::size_t pos_ = 0;
};

// ---- the DatasetStats section ----------------------------------------------
//
// Ten u64 counters in declaration order (raw_samples .. rejected_samples),
// a u64 window count, then one record of five u64 per window (offered,
// duplicates, admitted, cumulative_unique, rejected).

inline constexpr std::size_t kStatsFixedSize = 11 * 8;
inline constexpr std::size_t kWindowRecordSize = 5 * 8;

inline void put_dataset_stats(std::vector<std::byte>& out, const DatasetStats& s) {
  out.reserve(out.size() + kStatsFixedSize + s.windows.size() * kWindowRecordSize);
  put_u64(out, s.raw_samples);
  put_u64(out, s.missing_geo);
  put_u64(out, s.high_error);
  put_u64(out, s.unmapped_as);
  put_u64(out, s.peers_in_small_ases);
  put_u64(out, s.ases_below_min_peers);
  put_u64(out, s.ases_above_p90_error);
  put_u64(out, s.final_peers);
  put_u64(out, s.final_ases);
  put_u64(out, s.rejected_samples);
  put_u64(out, s.windows.size());
  for (const WindowStats& w : s.windows) {
    put_u64(out, w.offered);
    put_u64(out, w.duplicates);
    put_u64(out, w.admitted);
    put_u64(out, w.cumulative_unique);
    put_u64(out, w.rejected);
  }
}

/// Decodes a whole DatasetStats section into `out`.  False — with `out`
/// untouched — unless the payload is exactly the fixed part plus the
/// window records its count declares.
[[nodiscard]] inline bool read_dataset_stats(std::span<const std::byte> payload,
                                             DatasetStats& out) {
  if (payload.size() < kStatsFixedSize) return false;
  const std::uint64_t window_count = load_u64(payload, 80);
  // Divide before multiplying: a hostile count must not overflow the check.
  if (window_count > (payload.size() - kStatsFixedSize) / kWindowRecordSize ||
      payload.size() != kStatsFixedSize + window_count * kWindowRecordSize) {
    return false;
  }
  const auto at = [&payload](std::size_t offset) {
    return static_cast<std::size_t>(load_u64(payload, offset));
  };
  DatasetStats stats;
  stats.raw_samples = at(0);
  stats.missing_geo = at(8);
  stats.high_error = at(16);
  stats.unmapped_as = at(24);
  stats.peers_in_small_ases = at(32);
  stats.ases_below_min_peers = at(40);
  stats.ases_above_p90_error = at(48);
  stats.final_peers = at(56);
  stats.final_ases = at(64);
  stats.rejected_samples = at(72);
  stats.windows.reserve(static_cast<std::size_t>(window_count));
  for (std::size_t w = 0; w < window_count; ++w) {
    const std::size_t record = kStatsFixedSize + w * kWindowRecordSize;
    WindowStats window;
    window.offered = at(record);
    window.duplicates = at(record + 8);
    window.admitted = at(record + 16);
    window.cumulative_unique = at(record + 24);
    window.rejected = at(record + 32);
    stats.windows.push_back(window);
  }
  out = std::move(stats);
  return true;
}

}  // namespace eyeball::core::codec

// CRC32C (Castagnoli polynomial 0x1EDC6F41, reflected 0x82F63B78) — the
// checksum guarding every section and whole-file footer of the snapshot
// and artifact formats.
//
// Castagnoli rather than the zlib polynomial because its error-detection
// properties are strictly better at these block sizes and it is the de
// facto storage-format choice (iSCSI, ext4, LevelDB table files), so the
// on-disk format stays recognizable to standard tooling.
//
// One entry point, crc32c(), for both durable formats (EYBSNAP1 and
// EYBART1).  The checksum is a real share of their cost: encode and decode
// each make two full passes over the image, and over a 166 MB snapshot the
// byte-at-a-time table runs at ~0.33 GB/s (about 0.5 s per pass) where the
// SSE4.2 instruction path runs at ~10 GB/s (4-CPU x86-64 VM).  crc32c()
// therefore dispatches to the instruction at runtime and falls back to the
// constexpr table loop, which stays only as that fallback and as the
// reference the tests compare against.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

namespace eyeball::util {

namespace detail {

[[nodiscard]] constexpr std::array<std::uint32_t, 256> make_crc32c_table() noexcept {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1U) != 0 ? (crc >> 1) ^ 0x82f63b78U : crc >> 1;
    }
    table[i] = crc;
  }
  return table;
}

inline constexpr std::array<std::uint32_t, 256> kCrc32cTable = make_crc32c_table();

/// The portable table loop, one byte at a time: crc32c()'s fallback on
/// hosts without SSE4.2 and the reference its tests compare against.
[[nodiscard]] constexpr std::uint32_t crc32c_table(std::span<const std::byte> data,
                                                   std::uint32_t seed = 0) noexcept {
  std::uint32_t crc = ~seed;
  for (const std::byte b : data) {
    crc = kCrc32cTable[(crc ^ static_cast<std::uint32_t>(b)) & 0xffU] ^ (crc >> 8);
  }
  return ~crc;
}

}  // namespace detail

/// CRC32C of `data`.  `seed` chains blocks: crc32c(b, crc32c(a)) equals
/// crc32c of a followed by b, so callers can checksum streamed writes
/// without buffering.  crc32c of "123456789" is 0xE3069283 (the published
/// check value, pinned by file_test).  Uses the SSE4.2 CRC32 instruction
/// when the host has it (runtime dispatch), the table loop otherwise; both
/// give the same results, pinned by file_test over arbitrary inputs.
[[nodiscard]] std::uint32_t crc32c(std::span<const std::byte> data,
                                   std::uint32_t seed = 0) noexcept;

/// Former name of crc32c(), kept so existing callers still compile.
[[nodiscard]] inline std::uint32_t crc32c_fast(std::span<const std::byte> data,
                                               std::uint32_t seed = 0) noexcept {
  return crc32c(data, seed);
}

}  // namespace eyeball::util

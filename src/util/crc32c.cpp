#include "util/crc32c.hpp"

#include <array>
#include <cstdint>
#include <cstddef>

// crc32c: the one checksum entry point.  One implementation per mechanism,
// selected once per process:
//
//   - SSE4.2 `crc32` instruction (x86-64 with the feature bit set —
//     runtime-checked, so the same binary runs on hosts without it).  The
//     instruction has a 3-cycle dependent latency, so a single chain tops
//     out near 8 bytes / 3 cycles; large buffers are therefore split into
//     THREE independent lanes whose chains pipeline to ~8 bytes/cycle, and
//     the three partial CRCs are recombined exactly (see below).  That
//     pushes the artifact open path to the machine's memory bandwidth
//     rather than the instruction's latency.
//   - The portable table loop from the header (detail::crc32c_table).
//
// Recombination: the CRC register update is GF(2)-linear, so processing a
// block B from register r satisfies f(r, B) = f(0, B) ^ Z^|B|(r), where Z
// is the linear operator "advance the register over one zero byte".  The
// lane results combine as Z^(|B|+|C|)(a) ^ Z^|C|(b) ^ c.  Z's matrix
// powers Z^(2^k) are built at compile time from the same constexpr table
// the portable implementation uses — no magic constants to drift, and the
// equality crc32c == detail::crc32c_table over arbitrary inputs is pinned
// by file_test.
//
// The intrinsics are spelled as GCC/Clang builtins under a function-level
// `target("sse4.2")` attribute rather than compiling the whole TU with
// -msse4.2: only those functions may execute the instruction, and only
// after the cpuid check, so the library keeps running on any x86-64.

namespace eyeball::util {

namespace {

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define EYEBALL_CRC32C_HW 1

// ---- GF(2) machinery for lane recombination -------------------------------

/// 32x32 bit-matrix over GF(2), stored as the images of the unit vectors.
using Gf2Mat = std::array<std::uint32_t, 32>;

[[nodiscard]] constexpr std::uint32_t gf2_apply(const Gf2Mat& m,
                                                std::uint32_t v) noexcept {
  std::uint32_t out = 0;
  for (int j = 0; j < 32; ++j) {
    if (((v >> j) & 1U) != 0) out ^= m[j];
  }
  return out;
}

[[nodiscard]] constexpr Gf2Mat gf2_compose(const Gf2Mat& a, const Gf2Mat& b) noexcept {
  Gf2Mat out{};
  for (int j = 0; j < 32; ++j) out[j] = gf2_apply(a, b[j]);
  return out;
}

/// Z^(2^k) for k in [0, 64): Z advances the raw CRC register across one
/// zero byte, reg -> (reg >> 8) ^ table[reg & 0xff] — linear because the
/// table itself is (table[a^b] == table[a]^table[b]).
constexpr std::array<Gf2Mat, 64> kZeroBytePowers = [] {
  std::array<Gf2Mat, 64> powers{};
  for (int j = 0; j < 32; ++j) {
    const auto reg = std::uint32_t{1} << j;
    powers[0][j] = (reg >> 8) ^ detail::kCrc32cTable[reg & 0xffU];
  }
  for (int k = 1; k < 64; ++k) {
    powers[k] = gf2_compose(powers[k - 1], powers[k - 1]);
  }
  return powers;
}();

/// Advances the raw register across `n` zero bytes in O(log n).
[[nodiscard]] std::uint32_t shift_zero_bytes(std::uint32_t reg,
                                             std::uint64_t n) noexcept {
  for (int k = 0; n != 0; ++k, n >>= 1) {
    if ((n & 1U) != 0) reg = gf2_apply(kZeroBytePowers[static_cast<std::size_t>(k)], reg);
  }
  return reg;
}

// ---- hardware lanes --------------------------------------------------------

/// Raw register update (no pre/post inversion) over an arbitrary block.
__attribute__((target("sse4.2"))) std::uint32_t crc32c_raw_hw(
    std::uint32_t reg, const std::byte* p, std::size_t n) noexcept {
  std::uint64_t crc = reg;
  while (n >= 8) {
    std::uint64_t word;
    __builtin_memcpy(&word, p, sizeof word);
    crc = __builtin_ia32_crc32di(crc, word);
    p += 8;
    n -= 8;
  }
  while (n > 0) {
    crc = __builtin_ia32_crc32qi(static_cast<std::uint32_t>(crc),
                                 static_cast<std::uint8_t>(*p));
    ++p;
    --n;
  }
  return static_cast<std::uint32_t>(crc);
}

/// Three independent raw chains over equal `words`-long lanes; the chains
/// carry no dependency on each other, so the crc32 unit pipelines them.
__attribute__((target("sse4.2"))) void crc32c_raw_hw3(
    const std::byte* a, const std::byte* b, const std::byte* c, std::size_t words,
    std::uint32_t& ra, std::uint32_t& rb, std::uint32_t& rc) noexcept {
  std::uint64_t x = ra;
  std::uint64_t y = rb;
  std::uint64_t z = rc;
  for (std::size_t i = 0; i < words; ++i) {
    std::uint64_t wa;
    std::uint64_t wb;
    std::uint64_t wc;
    __builtin_memcpy(&wa, a + i * 8, 8);
    __builtin_memcpy(&wb, b + i * 8, 8);
    __builtin_memcpy(&wc, c + i * 8, 8);
    x = __builtin_ia32_crc32di(x, wa);
    y = __builtin_ia32_crc32di(y, wb);
    z = __builtin_ia32_crc32di(z, wc);
  }
  ra = static_cast<std::uint32_t>(x);
  rb = static_cast<std::uint32_t>(y);
  rc = static_cast<std::uint32_t>(z);
}

/// Below this, lane setup + recombination costs more than the latency it
/// hides; the single chain is already load-bound there.
constexpr std::size_t kThreeLaneThreshold = 768;

std::uint32_t crc32c_sse42(std::span<const std::byte> data,
                           std::uint32_t seed) noexcept {
  std::uint32_t reg = ~seed;
  const std::byte* p = data.data();
  std::size_t n = data.size();
  if (n >= kThreeLaneThreshold) {
    // Equal 8-byte-multiple lanes; whatever is left past the third lane is
    // folded in by the sequential tail below.
    const std::size_t lane = (n / 3) & ~std::size_t{7};
    std::uint32_t ra = reg;
    std::uint32_t rb = 0;
    std::uint32_t rc = 0;
    crc32c_raw_hw3(p, p + lane, p + 2 * lane, lane / 8, ra, rb, rc);
    reg = shift_zero_bytes(ra, 2 * lane) ^ shift_zero_bytes(rb, lane) ^ rc;
    p += 3 * lane;
    n -= 3 * lane;
  }
  reg = crc32c_raw_hw(reg, p, n);
  return ~reg;
}

[[nodiscard]] bool host_has_sse42() noexcept {
  return __builtin_cpu_supports("sse4.2") != 0;
}
#endif  // __x86_64__

}  // namespace

std::uint32_t crc32c(std::span<const std::byte> data, std::uint32_t seed) noexcept {
#if defined(EYEBALL_CRC32C_HW)
  // Dispatch decided once; the static init is thread-safe and the branch
  // predicts perfectly afterwards.
  static const bool use_hw = host_has_sse42();
  if (use_hw) return crc32c_sse42(data, seed);
#endif
  return detail::crc32c_table(data, seed);
}

}  // namespace eyeball::util

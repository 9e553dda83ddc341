#include "reldev/util/crc32.hpp"

#include <array>
#include <cstring>

namespace reldev {

namespace {

// CRC-32C (Castagnoli) polynomial, reflected form.
constexpr std::uint32_t kPolynomial = 0x82f63b78u;

constexpr std::array<std::uint32_t, 256> make_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) != 0 ? (crc >> 1) ^ kPolynomial : crc >> 1;
    }
    table[i] = crc;
  }
  return table;
}

constexpr auto kTable = make_table();

std::uint32_t crc32c_sw(std::span<const std::byte> data,
                        std::uint32_t crc) noexcept {
  for (const std::byte b : data) {
    crc = (crc >> 8) ^
          kTable[(crc ^ static_cast<std::uint32_t>(std::to_integer<std::uint8_t>(b))) & 0xffu];
  }
  return crc;
}

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define RELDEV_CRC32C_HW 1

// The register after appending `bytes` zero bytes is a linear function of
// the register before (GF(2)), so it is fully described by where each of
// the four register bytes goes: shift(crc) = t[0][b0] ^ t[1][b1] ^ t[2][b2]
// ^ t[3][b3]. Built once, at compile time, from the byte table.
using ZeroShift = std::array<std::array<std::uint32_t, 256>, 4>;

constexpr ZeroShift make_zero_shift(std::size_t bytes) {
  std::array<std::uint32_t, 32> bit_image{};
  for (std::size_t bit = 0; bit < 32; ++bit) {
    std::uint32_t crc = 1u << bit;
    for (std::size_t i = 0; i < bytes; ++i) {
      crc = (crc >> 8) ^ kTable[crc & 0xffu];
    }
    bit_image[bit] = crc;
  }
  ZeroShift table{};
  for (std::size_t lane = 0; lane < 4; ++lane) {
    for (std::uint32_t value = 0; value < 256; ++value) {
      std::uint32_t image = 0;
      for (std::size_t bit = 0; bit < 8; ++bit) {
        if ((value >> bit) & 1u) image ^= bit_image[lane * 8 + bit];
      }
      table[lane][value] = image;
    }
  }
  return table;
}

// Each of the three interleaved streams covers one third of a chunk:
// long chunks first, then short ones, then the single-stream tail.
constexpr std::size_t kLongStream = 1024;
constexpr std::size_t kShortStream = 256;
constexpr ZeroShift kLongShift = make_zero_shift(kLongStream);
constexpr ZeroShift kShortShift = make_zero_shift(kShortStream);

std::uint32_t shift_past(const ZeroShift& table, std::uint32_t crc) noexcept {
  return table[0][crc & 0xffu] ^ table[1][(crc >> 8) & 0xffu] ^
         table[2][(crc >> 16) & 0xffu] ^ table[3][crc >> 24];
}

__attribute__((target("sse4.2"))) inline std::uint64_t load_crc(
    std::uint64_t crc, const std::byte* p) noexcept {
  std::uint64_t chunk;
  std::memcpy(&chunk, p, 8);
  return __builtin_ia32_crc32di(crc, chunk);
}

// Three independent crc32 streams over the thirds of a 3 * stream chunk
// keep the instruction's three-cycle latency pipeline full; the streams'
// registers are then joined by shifting the earlier ones past the bytes
// that follow them (Adler's zero-append combination).
__attribute__((target("sse4.2"))) std::uint32_t crc32c_3way(
    const std::byte*& p, std::size_t& n, std::uint32_t crc, std::size_t stream,
    const ZeroShift& table) noexcept {
  while (n >= 3 * stream) {
    std::uint64_t crc0 = crc;
    std::uint64_t crc1 = 0;
    std::uint64_t crc2 = 0;
    for (std::size_t i = 0; i < stream; i += 8) {
      crc0 = load_crc(crc0, p + i);
      crc1 = load_crc(crc1, p + stream + i);
      crc2 = load_crc(crc2, p + 2 * stream + i);
    }
    crc = shift_past(table, static_cast<std::uint32_t>(crc0)) ^
          static_cast<std::uint32_t>(crc1);
    crc = shift_past(table, crc) ^ static_cast<std::uint32_t>(crc2);
    p += 3 * stream;
    n -= 3 * stream;
  }
  return crc;
}

// The SSE4.2 crc32 instruction computes exactly this reflected-Castagnoli
// CRC, 8 bytes per issue instead of 1 byte per table lookup — the block
// payload checksums on the storage write path are where this matters.
__attribute__((target("sse4.2"))) std::uint32_t crc32c_hw(
    std::span<const std::byte> data, std::uint32_t crc) noexcept {
  const std::byte* p = data.data();
  std::size_t n = data.size();
  crc = crc32c_3way(p, n, crc, kLongStream, kLongShift);
  crc = crc32c_3way(p, n, crc, kShortStream, kShortShift);
  std::uint64_t crc64 = crc;
  while (n >= 8) {
    crc64 = load_crc(crc64, p);
    p += 8;
    n -= 8;
  }
  crc = static_cast<std::uint32_t>(crc64);
  while (n > 0) {
    crc = __builtin_ia32_crc32qi(crc, std::to_integer<std::uint8_t>(*p));
    ++p;
    --n;
  }
  return crc;
}

const bool kHaveHwCrc = __builtin_cpu_supports("sse4.2") != 0;
#endif

}  // namespace

std::uint32_t crc32c(std::span<const std::byte> data,
                     std::uint32_t seed) noexcept {
  const std::uint32_t crc = ~seed;
#ifdef RELDEV_CRC32C_HW
  if (kHaveHwCrc) return ~crc32c_hw(data, crc);
#endif
  return ~crc32c_sw(data, crc);
}

std::uint32_t crc32c(const void* data, std::size_t size,
                     std::uint32_t seed) noexcept {
  return crc32c(
      std::span<const std::byte>(static_cast<const std::byte*>(data), size),
      seed);
}

}  // namespace reldev

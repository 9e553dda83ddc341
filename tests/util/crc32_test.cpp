#include "reldev/util/crc32.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

namespace reldev {
namespace {

std::vector<std::byte> bytes_of(const char* text) {
  std::vector<std::byte> out(std::strlen(text));
  std::memcpy(out.data(), text, out.size());
  return out;
}

TEST(Crc32Test, EmptyInputIsZero) {
  EXPECT_EQ(crc32c(std::span<const std::byte>{}), 0u);
}

TEST(Crc32Test, KnownVector) {
  // CRC-32C("123456789") = 0xE3069283 (canonical check value).
  const auto data = bytes_of("123456789");
  EXPECT_EQ(crc32c(std::span<const std::byte>(data)), 0xE3069283u);
}

TEST(Crc32Test, DifferentInputsDiffer) {
  const auto a = bytes_of("hello world");
  const auto b = bytes_of("hello worle");
  EXPECT_NE(crc32c(std::span<const std::byte>(a)),
            crc32c(std::span<const std::byte>(b)));
}

TEST(Crc32Test, SeedChainingEqualsWholeBuffer) {
  const auto whole = bytes_of("abcdefghij");
  const auto head = bytes_of("abcde");
  const auto tail = bytes_of("fghij");
  const std::uint32_t chained =
      crc32c(std::span<const std::byte>(tail),
             crc32c(std::span<const std::byte>(head)));
  EXPECT_EQ(chained, crc32c(std::span<const std::byte>(whole)));
}

TEST(Crc32Test, RawPointerOverloadAgrees) {
  const auto data = bytes_of("block payload");
  EXPECT_EQ(crc32c(data.data(), data.size()),
            crc32c(std::span<const std::byte>(data)));
}

TEST(Crc32Test, SingleBitFlipDetected) {
  std::vector<std::byte> data(512, std::byte{0xAB});
  const std::uint32_t original = crc32c(std::span<const std::byte>(data));
  data[255] ^= std::byte{0x01};
  EXPECT_NE(crc32c(std::span<const std::byte>(data)), original);
}

// One byte of bit-at-a-time CRC-32C, straight from the definition: the
// reference the table and instruction kernels must match. `crc` is the
// running (inverted) register.
std::uint32_t reference_step(std::uint32_t crc, std::byte byte) {
  crc ^= std::to_integer<std::uint32_t>(byte);
  for (int bit = 0; bit < 8; ++bit) {
    crc = (crc & 1u) != 0 ? (crc >> 1) ^ 0x82f63b78u : crc >> 1;
  }
  return crc;
}

TEST(Crc32Test, MatchesBitwiseReferenceAcrossEveryChunkBoundary) {
  // Lengths up to three long chunks, three short chunks and a tail reach
  // every stream split and zero-shift combination; start offsets 1-7 make
  // every 8-byte load unaligned.
  constexpr std::size_t kMaxLength = 3 * 1024 + 3 * 256 + 64;
  std::vector<std::byte> buffer(kMaxLength + 8);
  for (std::size_t i = 0; i < buffer.size(); ++i) {
    buffer[i] = static_cast<std::byte>((i * 131u + 7u) ^ (i >> 5));
  }
  for (const std::uint32_t seed : {0u, 1u, 0xFFFFFFFFu}) {
    for (std::size_t offset = 0; offset < 8; ++offset) {
      const std::byte* data = buffer.data() + offset;
      std::uint32_t reference = ~seed;  // the prefix of length `length`
      for (std::size_t length = 0; length <= kMaxLength; ++length) {
        ASSERT_EQ(crc32c(data, length, seed), ~reference)
            << "length " << length << " offset " << offset << " seed "
            << seed;
        if (length < kMaxLength) {
          reference = reference_step(reference, data[length]);
        }
      }
    }
  }
}

TEST(Crc32Test, Rfc3720Vectors) {
  // iSCSI (RFC 3720) §B.4 CRC-32C examples over 32-byte inputs.
  std::vector<std::byte> data(32);
  std::fill(data.begin(), data.end(), std::byte{0x00});
  EXPECT_EQ(crc32c(std::span<const std::byte>(data)), 0x8A9136AAu);
  std::fill(data.begin(), data.end(), std::byte{0xFF});
  EXPECT_EQ(crc32c(std::span<const std::byte>(data)), 0x62A8AB43u);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::byte>(i);
  }
  EXPECT_EQ(crc32c(std::span<const std::byte>(data)), 0x46DD794Eu);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::byte>(31 - i);
  }
  EXPECT_EQ(crc32c(std::span<const std::byte>(data)), 0x113FDB5Cu);
}

}  // namespace
}  // namespace reldev

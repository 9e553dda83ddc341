#include "reldev/storage/mem_block_store.hpp"

#include <gtest/gtest.h>

namespace reldev::storage {
namespace {

BlockData pattern(std::size_t size, std::uint8_t seed) {
  BlockData data(size);
  for (std::size_t i = 0; i < size; ++i) {
    data[i] = static_cast<std::byte>((seed + i) & 0xff);
  }
  return data;
}

TEST(MemBlockStoreTest, GeometryAndInitialState) {
  MemBlockStore store(8, 128);
  EXPECT_EQ(store.block_count(), 8u);
  EXPECT_EQ(store.block_size(), 128u);
  auto block = store.read(0);
  ASSERT_TRUE(block.is_ok());
  EXPECT_EQ(block.value().version, 0u);
  EXPECT_EQ(block.value().data, BlockData(128, std::byte{0}));
}

TEST(MemBlockStoreTest, WriteThenRead) {
  MemBlockStore store(4, 64);
  const auto payload = pattern(64, 7);
  ASSERT_TRUE(store.write(2, payload, 3).is_ok());
  auto block = store.read(2);
  ASSERT_TRUE(block.is_ok());
  EXPECT_EQ(block.value().data, payload);
  EXPECT_EQ(block.value().version, 3u);
  EXPECT_EQ(store.version_of(2).value(), 3u);
}

TEST(MemBlockStoreTest, WritesAreIndependentPerBlock) {
  MemBlockStore store(3, 16);
  ASSERT_TRUE(store.write(0, pattern(16, 1), 1).is_ok());
  ASSERT_TRUE(store.write(1, pattern(16, 2), 5).is_ok());
  EXPECT_EQ(store.read(0).value().data, pattern(16, 1));
  EXPECT_EQ(store.read(1).value().data, pattern(16, 2));
  EXPECT_EQ(store.read(2).value().version, 0u);
}

TEST(MemBlockStoreTest, BatchAndRangeDefaultsGoBlockByBlock) {
  // The BlockStore defaults: a batch validates every entry first, then
  // writes each; a range read concatenates the blocks.
  MemBlockStore store(4, 64);
  const auto a = pattern(64, 1);
  const auto b = pattern(64, 2);
  const std::vector<BlockWrite> bad{{0, a, 1}, {4, b, 1}};
  EXPECT_EQ(store.write_batch(bad).code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(store.version_of(0).value(), 0u);
  const std::vector<BlockWrite> good{{1, a, 3}, {2, b, 4}};
  ASSERT_TRUE(store.write_batch(good).is_ok());
  auto range = store.read_range(1, 3);
  ASSERT_TRUE(range.is_ok());
  EXPECT_EQ(range.value().versions, (std::vector<VersionNumber>{3, 4, 0}));
  EXPECT_TRUE(range.value().corrupt.empty());
  BlockData expected = a;
  expected.insert(expected.end(), b.begin(), b.end());
  expected.resize(3 * 64, std::byte{0});
  EXPECT_EQ(range.value().data, expected);
  EXPECT_EQ(store.read_range(2, 3).status().code(),
            ErrorCode::kInvalidArgument);
}

TEST(MemBlockStoreTest, VersionVectorSnapshot) {
  MemBlockStore store(3, 16);
  ASSERT_TRUE(store.write(1, pattern(16, 3), 4).is_ok());
  const VersionVector vv = store.version_vector();
  EXPECT_EQ(vv.at(0), 0u);
  EXPECT_EQ(vv.at(1), 4u);
  EXPECT_EQ(vv.total(), 4u);
}

TEST(MemBlockStoreTest, OutOfRangeRejected) {
  MemBlockStore store(2, 16);
  EXPECT_EQ(store.read(2).status().code(),
            reldev::ErrorCode::kInvalidArgument);
  EXPECT_EQ(store.write(2, pattern(16, 0), 1).code(),
            reldev::ErrorCode::kInvalidArgument);
  EXPECT_EQ(store.version_of(9).status().code(),
            reldev::ErrorCode::kInvalidArgument);
}

TEST(MemBlockStoreTest, WrongPayloadSizeRejected) {
  MemBlockStore store(2, 16);
  EXPECT_EQ(store.write(0, pattern(15, 0), 1).code(),
            reldev::ErrorCode::kInvalidArgument);
  EXPECT_EQ(store.write(0, pattern(17, 0), 1).code(),
            reldev::ErrorCode::kInvalidArgument);
}

TEST(MemBlockStoreTest, MetadataRoundTrip) {
  MemBlockStore store(2, 16);
  EXPECT_TRUE(store.get_metadata().value().empty());
  const auto blob = pattern(40, 9);
  ASSERT_TRUE(store.put_metadata(blob).is_ok());
  EXPECT_EQ(store.get_metadata().value(), blob);
}

TEST(MemBlockStoreTest, ResetClearsEverything) {
  MemBlockStore store(2, 16);
  ASSERT_TRUE(store.write(0, pattern(16, 5), 2).is_ok());
  ASSERT_TRUE(store.put_metadata(pattern(8, 1)).is_ok());
  store.reset();
  EXPECT_EQ(store.read(0).value().version, 0u);
  EXPECT_EQ(store.read(0).value().data, BlockData(16, std::byte{0}));
  EXPECT_TRUE(store.get_metadata().value().empty());
}

TEST(MemBlockStoreTest, InvalidGeometryRejected) {
  EXPECT_THROW(MemBlockStore(0, 16), reldev::ContractViolation);
  EXPECT_THROW(MemBlockStore(4, 0), reldev::ContractViolation);
}

}  // namespace
}  // namespace reldev::storage

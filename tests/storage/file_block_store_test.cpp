#include "reldev/storage/file_block_store.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>

#include "support/temp_dir.hpp"

namespace reldev::storage {
namespace {

class FileBlockStoreTest : public ::testing::Test {
 protected:
  BlockData pattern(std::size_t size, std::uint8_t seed) {
    BlockData data(size);
    for (std::size_t i = 0; i < size; ++i) {
      data[i] = static_cast<std::byte>((seed * 31 + i) & 0xff);
    }
    return data;
  }

  static std::vector<char> file_bytes(const std::filesystem::path& path) {
    std::ifstream in(path, std::ios::binary);
    return std::vector<char>(std::istreambuf_iterator<char>(in), {});
  }

  test::TempDir dir_{"reldev_store"};
  const std::filesystem::path path_ = dir_.path() / "site.rdev";
};

TEST_F(FileBlockStoreTest, CreateInitializesZeroed) {
  auto store = FileBlockStore::create(path_.string(), 4, 64);
  ASSERT_TRUE(store.is_ok());
  EXPECT_EQ(store.value()->block_count(), 4u);
  EXPECT_EQ(store.value()->block_size(), 64u);
  auto block = store.value()->read(3);
  ASSERT_TRUE(block.is_ok());
  EXPECT_EQ(block.value().version, 0u);
  EXPECT_EQ(block.value().data, BlockData(64, std::byte{0}));
}

TEST_F(FileBlockStoreTest, WriteReadRoundTrip) {
  auto store = FileBlockStore::create(path_.string(), 4, 64).value();
  const auto payload = pattern(64, 3);
  ASSERT_TRUE(store->write(1, payload, 9).is_ok());
  auto block = store->read(1);
  ASSERT_TRUE(block.is_ok());
  EXPECT_EQ(block.value().data, payload);
  EXPECT_EQ(block.value().version, 9u);
}

TEST_F(FileBlockStoreTest, PersistsAcrossReopen) {
  {
    auto store = FileBlockStore::create(path_.string(), 4, 64).value();
    ASSERT_TRUE(store->write(0, pattern(64, 1), 2).is_ok());
    ASSERT_TRUE(store->write(2, pattern(64, 2), 7).is_ok());
    ASSERT_TRUE(store->put_metadata(pattern(32, 5)).is_ok());
    ASSERT_TRUE(store->sync().is_ok());
  }
  auto reopened = FileBlockStore::open(path_.string());
  ASSERT_TRUE(reopened.is_ok());
  EXPECT_EQ(reopened.value()->block_count(), 4u);
  EXPECT_EQ(reopened.value()->read(0).value().data, pattern(64, 1));
  EXPECT_EQ(reopened.value()->read(2).value().version, 7u);
  EXPECT_EQ(reopened.value()->get_metadata().value(), pattern(32, 5));
  // The version cache is rebuilt from disk.
  const VersionVector vv = reopened.value()->version_vector();
  EXPECT_EQ(vv.at(0), 2u);
  EXPECT_EQ(vv.at(2), 7u);
  EXPECT_EQ(vv.at(1), 0u);
}

TEST_F(FileBlockStoreTest, OpenMissingFileFails) {
  // kNotFound, not kIoError: "no store yet" is the one open failure a
  // caller may answer by creating the file.
  auto store = FileBlockStore::open("/nonexistent/dir/store.dat");
  EXPECT_EQ(store.status().code(), reldev::ErrorCode::kNotFound);
  EXPECT_EQ(FileBlockStore::open(path_.string()).status().code(),
            reldev::ErrorCode::kNotFound);
  EXPECT_FALSE(std::filesystem::exists(path_));
}

TEST_F(FileBlockStoreTest, OpenGarbageFileFailsWithCorruption) {
  {
    std::FILE* f = std::fopen(path_.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    const char junk[64] = "this is not a block store";
    std::fwrite(junk, 1, sizeof(junk), f);
    std::fclose(f);
  }
  auto store = FileBlockStore::open(path_.string());
  EXPECT_FALSE(store.is_ok());
  EXPECT_EQ(store.status().code(), reldev::ErrorCode::kCorruption);
}

TEST_F(FileBlockStoreTest, CorruptBlockDetectedOnReadAndDemotedByScrub) {
  auto store = FileBlockStore::create(path_.string(), 2, 64).value();
  ASSERT_TRUE(store->write(0, pattern(64, 8), 1).is_ok());
  ASSERT_TRUE(store->write(1, pattern(64, 9), 3).is_ok());
  ASSERT_TRUE(store->sync().is_ok());
  // Flip a payload byte of block 0 behind the store's back.
  {
    std::FILE* f = std::fopen(path_.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    const auto where = static_cast<long>(store->block_record_offset(0) +
                                         FileBlockStore::kBlockRecordHeader +
                                         5);
    std::fseek(f, where, SEEK_SET);
    const char zap = 0x5A;
    std::fwrite(&zap, 1, 1, f);
    std::fclose(f);
  }
  // The live store detects the rot on the next read of that block; the
  // untouched block still reads fine.
  EXPECT_EQ(store->read(0).status().code(), reldev::ErrorCode::kCorruption);
  EXPECT_TRUE(store->read(1).is_ok());
  store.reset();
  // Reopen: the scrub demotes the damaged record to "needs repair" —
  // version 0, zeroed payload — instead of ever serving the bad bytes.
  auto reopened = FileBlockStore::open(path_.string()).value();
  EXPECT_EQ(reopened->scrub_demoted(), std::vector<BlockId>{0});
  auto demoted = reopened->read(0);
  ASSERT_TRUE(demoted.is_ok());
  EXPECT_EQ(demoted.value().version, 0u);
  EXPECT_EQ(demoted.value().data, BlockData(64, std::byte{0}));
  EXPECT_EQ(reopened->read(1).value().data, pattern(64, 9));
  EXPECT_EQ(reopened->read(1).value().version, 3u);
}

TEST_F(FileBlockStoreTest, WriteBatchMatchesBlockByBlockWritesOnDisk) {
  // Two runs (3-5, then 7-8) and a lone block, with mixed versions: the
  // batch must leave exactly the bytes the same writes made one by one.
  const auto batched_path = dir_.path() / "batched.rdev";
  auto batched = FileBlockStore::create(batched_path.string(), 32, 64).value();
  auto single = FileBlockStore::create(path_.string(), 32, 64).value();
  std::vector<BlockData> payloads;
  for (std::uint8_t i = 0; i < 6; ++i) payloads.push_back(pattern(64, i));
  const std::vector<BlockWrite> batch{
      {3, payloads[0], 1}, {4, payloads[1], 7},  {5, payloads[2], 2},
      {7, payloads[3], 9}, {8, payloads[4], 1},  {20, payloads[5], 4}};
  ASSERT_TRUE(batched->write_batch(batch).is_ok());
  for (const BlockWrite& entry : batch) {
    ASSERT_TRUE(single->write(entry.block, entry.data, entry.version).is_ok());
  }
  ASSERT_TRUE(batched->sync().is_ok());
  ASSERT_TRUE(single->sync().is_ok());
  EXPECT_EQ(file_bytes(batched_path), file_bytes(path_));
  for (const BlockWrite& entry : batch) {
    EXPECT_EQ(batched->version_of(entry.block).value(), entry.version);
  }
  batched.reset();
  auto reopened = FileBlockStore::open(batched_path.string()).value();
  EXPECT_TRUE(reopened->scrub_demoted().empty());
  for (const BlockWrite& entry : batch) {
    auto block = reopened->read(entry.block);
    ASSERT_TRUE(block.is_ok());
    EXPECT_EQ(block.value().version, entry.version);
    EXPECT_EQ(block.value().data,
              BlockData(entry.data.begin(), entry.data.end()));
  }
}

TEST_F(FileBlockStoreTest, ReadRangeListsCorruptBlockAndKeepsNeighbours) {
  auto store = FileBlockStore::create(path_.string(), 8, 64).value();
  std::vector<BlockWrite> batch;
  std::vector<BlockData> payloads;
  for (std::uint8_t i = 0; i < 5; ++i) payloads.push_back(pattern(64, i + 1));
  for (std::size_t i = 0; i < 5; ++i) {
    batch.push_back(BlockWrite{1 + i, payloads[i], 2 + i});
  }
  ASSERT_TRUE(store->write_batch(batch).is_ok());
  // Flip one payload byte of block 3 behind the store's back.
  const std::byte zap{0x5A};
  ASSERT_TRUE(store
                  ->raw_write_at(store->block_record_offset(3) +
                                     FileBlockStore::kBlockRecordHeader + 9,
                                 std::span<const std::byte>(&zap, 1))
                  .is_ok());
  auto range = store->read_range(1, 5);
  ASSERT_TRUE(range.is_ok());
  EXPECT_EQ(range.value().corrupt, std::vector<BlockId>{3});
  EXPECT_EQ(range.value().versions,
            (std::vector<VersionNumber>{2, 3, 0, 5, 6}));
  const std::span<const std::byte> data(range.value().data);
  for (std::size_t i = 0; i < 5; ++i) {
    const auto got = data.subspan(i * 64, 64);
    EXPECT_EQ(BlockData(got.begin(), got.end()),
              i == 2 ? BlockData(64, std::byte{0}) : payloads[i])
        << i;
  }
  // The store itself is untouched: the record still fails on its own.
  EXPECT_EQ(store->read(3).status().code(), reldev::ErrorCode::kCorruption);
}

TEST_F(FileBlockStoreTest, TruncatedTailReadsAsCorruptRecords) {
  auto store = FileBlockStore::create(path_.string(), 4, 64).value();
  ASSERT_TRUE(store->write(2, pattern(64, 3), 5).is_ok());
  // Cut the file inside block 3's payload.
  std::filesystem::resize_file(path_, store->block_record_offset(3) +
                                          FileBlockStore::kBlockRecordHeader +
                                          10);
  auto range = store->read_range(1, 3);
  ASSERT_TRUE(range.is_ok());
  EXPECT_EQ(range.value().corrupt, std::vector<BlockId>{3});
  EXPECT_EQ(range.value().versions, (std::vector<VersionNumber>{0, 5, 0}));
}

TEST_F(FileBlockStoreTest, RangeLargerThanOneVectoredCallRoundTrips) {
  // 600 records of 512 bytes need more iovecs than one pwritev/preadv
  // can take (two per record, at most IOV_MAX = 1024 per call), so the
  // batch and the range read both split into runs, several of them.
  constexpr std::size_t kCount = 600;
  auto store = FileBlockStore::create(path_.string(), kCount, 512).value();
  std::vector<BlockData> payloads;
  std::vector<BlockWrite> batch;
  for (std::size_t i = 0; i < kCount; ++i) {
    payloads.push_back(pattern(512, static_cast<std::uint8_t>(i % 251)));
  }
  for (std::size_t i = 0; i < kCount; ++i) {
    batch.push_back(BlockWrite{i, payloads[i], i + 1});
  }
  ASSERT_TRUE(store->write_batch(batch).is_ok());
  auto range = store->read_range(0, kCount);
  ASSERT_TRUE(range.is_ok());
  EXPECT_TRUE(range.value().corrupt.empty());
  const std::span<const std::byte> data(range.value().data);
  for (std::size_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(range.value().versions[i], i + 1);
    const auto got = data.subspan(i * 512, 512);
    ASSERT_TRUE(std::equal(got.begin(), got.end(), payloads[i].begin())) << i;
  }
  store.reset();
  auto reopened = FileBlockStore::open(path_.string()).value();
  EXPECT_TRUE(reopened->scrub_demoted().empty());
  EXPECT_EQ(reopened->version_of(kCount - 1).value(), kCount);
}

TEST_F(FileBlockStoreTest, BatchWithABadEntryWritesNothing) {
  auto store = FileBlockStore::create(path_.string(), 4, 64).value();
  const auto payload = pattern(64, 4);
  const BlockData short_payload(10, std::byte{1});
  const std::vector<BlockWrite> out_of_range{
      {0, payload, 1}, {9, payload, 1}, {1, payload, 1}};
  EXPECT_EQ(store->write_batch(out_of_range).code(),
            reldev::ErrorCode::kInvalidArgument);
  const std::vector<BlockWrite> wrong_size{{0, payload, 1},
                                           {1, short_payload, 1}};
  EXPECT_EQ(store->write_batch(wrong_size).code(),
            reldev::ErrorCode::kInvalidArgument);
  auto range = store->read_range(0, 4);
  ASSERT_TRUE(range.is_ok());
  EXPECT_EQ(range.value().versions, (std::vector<VersionNumber>(4, 0)));
  EXPECT_EQ(range.value().data, BlockData(4 * 64, std::byte{0}));
  EXPECT_EQ(store->read_range(3, 2).status().code(),
            reldev::ErrorCode::kInvalidArgument);
}

TEST_F(FileBlockStoreTest, MetadataUpdatesAlternateSlots) {
  auto store = FileBlockStore::create(path_.string(), 1, 64).value();
  EXPECT_EQ(store->metadata_sequence(), 0u);
  EXPECT_TRUE(store->get_metadata().value().empty());
  ASSERT_TRUE(store->put_metadata(pattern(16, 1)).is_ok());
  EXPECT_EQ(store->metadata_sequence(), 1u);
  EXPECT_EQ(store->active_metadata_slot(), 1u);
  ASSERT_TRUE(store->put_metadata(pattern(16, 2)).is_ok());
  EXPECT_EQ(store->metadata_sequence(), 2u);
  EXPECT_EQ(store->active_metadata_slot(), 0u);
  EXPECT_EQ(store->get_metadata().value(), pattern(16, 2));
  store.reset();
  // Reopen elects the highest-sequence valid slot.
  auto reopened = FileBlockStore::open(path_.string()).value();
  EXPECT_EQ(reopened->metadata_sequence(), 2u);
  EXPECT_EQ(reopened->get_metadata().value(), pattern(16, 2));
}

TEST_F(FileBlockStoreTest, MetadataCapacityEnforced) {
  auto store = FileBlockStore::create(path_.string(), 1, 64).value();
  const BlockData huge(FileBlockStore::kMetadataCapacity + 1, std::byte{1});
  EXPECT_EQ(store->put_metadata(huge).code(),
            reldev::ErrorCode::kInvalidArgument);
  const BlockData max(FileBlockStore::kMetadataCapacity, std::byte{1});
  EXPECT_TRUE(store->put_metadata(max).is_ok());
  EXPECT_EQ(store->get_metadata().value(), max);
}

TEST_F(FileBlockStoreTest, OutOfRangeRejected) {
  auto store = FileBlockStore::create(path_.string(), 2, 64).value();
  EXPECT_EQ(store->read(2).status().code(),
            reldev::ErrorCode::kInvalidArgument);
  EXPECT_EQ(store->write(5, pattern(64, 0), 1).code(),
            reldev::ErrorCode::kInvalidArgument);
}

TEST_F(FileBlockStoreTest, InvalidGeometryRejected) {
  EXPECT_FALSE(FileBlockStore::create(path_.string(), 0, 64).is_ok());
  EXPECT_FALSE(FileBlockStore::create(path_.string(), 4, 0).is_ok());
}

}  // namespace
}  // namespace reldev::storage

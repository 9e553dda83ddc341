#include "reldev/storage/file_block_store.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

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

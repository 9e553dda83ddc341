// Byte-level torn-write tests: each test mutilates the store file exactly
// the way an ill-timed crash could — a truncated record, a record whose
// version advanced but whose payload did not, a garbage metadata slot —
// and asserts the reopen path (header check, slot election, block scrub)
// recovers without ever serving damaged bytes.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "reldev/storage/file_block_store.hpp"
#include "reldev/util/crc32.hpp"
#include "reldev/util/serial.hpp"
#include "support/temp_dir.hpp"

namespace reldev::storage {
namespace {

class TornWriteTest : public ::testing::Test {
 protected:
  BlockData pattern(std::size_t size, std::uint8_t seed) {
    BlockData data(size);
    for (std::size_t i = 0; i < size; ++i) {
      data[i] = static_cast<std::byte>((seed * 31 + i) & 0xff);
    }
    return data;
  }

  void overwrite_at(std::uint64_t offset, std::span<const std::byte> bytes) {
    std::FILE* f = std::fopen(path_.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, static_cast<long>(offset), SEEK_SET), 0);
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
    std::fclose(f);
  }

  test::TempDir dir_{"reldev_torn"};
  const std::filesystem::path path_ = dir_.path() / "site.rdev";
};

TEST_F(TornWriteTest, TruncatedRecordDemotedOnOpen) {
  std::uint64_t cut = 0;
  {
    auto store = FileBlockStore::create(path_.string(), 3, 64).value();
    ASSERT_TRUE(store->write(0, pattern(64, 1), 4).is_ok());
    ASSERT_TRUE(store->write(2, pattern(64, 2), 6).is_ok());
    ASSERT_TRUE(store->sync().is_ok());
    // Cut the file in the middle of the last record's payload — the torn
    // state a crash during an append-extending write leaves behind.
    cut = store->block_record_offset(2) + FileBlockStore::kBlockRecordHeader +
          20;
  }
  std::filesystem::resize_file(path_, cut);
  auto reopened = FileBlockStore::open(path_.string()).value();
  EXPECT_EQ(reopened->scrub_demoted(), std::vector<BlockId>{2});
  auto demoted = reopened->read(2);
  ASSERT_TRUE(demoted.is_ok());
  EXPECT_EQ(demoted.value().version, 0u);
  EXPECT_EQ(demoted.value().data, BlockData(64, std::byte{0}));
  // The record before the cut is untouched.
  EXPECT_EQ(reopened->read(0).value().data, pattern(64, 1));
  EXPECT_EQ(reopened->read(0).value().version, 4u);
}

TEST_F(TornWriteTest, VersionUpdatedButStaleDataDemoted) {
  std::uint64_t record = 0;
  {
    auto store = FileBlockStore::create(path_.string(), 2, 64).value();
    ASSERT_TRUE(store->write(1, pattern(64, 3), 5).is_ok());
    ASSERT_TRUE(store->sync().is_ok());
    record = store->block_record_offset(1);
  }
  // The header of a newer write landed (version 6 and the CRC of payload
  // bytes that never made it) but the old payload is still in place — the
  // classic reordered torn write. The version field alone must never be
  // trusted.
  BufferWriter header(FileBlockStore::kBlockRecordHeader);
  header.put_u64(6);
  header.put_u32(crc32c(pattern(64, 4)));
  overwrite_at(record, header.bytes());
  auto reopened = FileBlockStore::open(path_.string()).value();
  EXPECT_EQ(reopened->scrub_demoted(), std::vector<BlockId>{1});
  auto demoted = reopened->read(1);
  ASSERT_TRUE(demoted.is_ok());
  EXPECT_EQ(demoted.value().version, 0u);
}

TEST_F(TornWriteTest, GarbageInactiveSlotIgnored) {
  {
    auto store = FileBlockStore::create(path_.string(), 1, 64).value();
    ASSERT_TRUE(store->put_metadata(pattern(24, 7)).is_ok());  // slot 1, seq 1
    ASSERT_TRUE(store->sync().is_ok());
  }
  // Scribble garbage over the inactive slot (slot 0) — a torn in-progress
  // update that never completed.
  const BlockData garbage(FileBlockStore::kSlotHeader + 64, std::byte{0xA5});
  overwrite_at(FileBlockStore::metadata_slot_offset(0), garbage);
  auto reopened = FileBlockStore::open(path_.string()).value();
  EXPECT_EQ(reopened->metadata_sequence(), 1u);
  EXPECT_EQ(reopened->get_metadata().value(), pattern(24, 7));
}

TEST_F(TornWriteTest, GarbageActiveSlotFallsBackToPreviousBlob) {
  {
    auto store = FileBlockStore::create(path_.string(), 1, 64).value();
    ASSERT_TRUE(store->put_metadata(pattern(24, 1)).is_ok());  // slot 1, seq 1
    ASSERT_TRUE(store->put_metadata(pattern(24, 2)).is_ok());  // slot 0, seq 2
    ASSERT_TRUE(store->sync().is_ok());
  }
  // Destroy the live slot: the election must fall back to the surviving
  // older blob rather than fail or return garbage.
  const BlockData garbage(FileBlockStore::kSlotHeader + 64, std::byte{0x5A});
  overwrite_at(FileBlockStore::metadata_slot_offset(0), garbage);
  auto reopened = FileBlockStore::open(path_.string()).value();
  EXPECT_EQ(reopened->metadata_sequence(), 1u);
  EXPECT_EQ(reopened->get_metadata().value(), pattern(24, 1));
}

TEST_F(TornWriteTest, BothSlotsGarbageFailsOpen) {
  {
    auto store = FileBlockStore::create(path_.string(), 1, 64).value();
    ASSERT_TRUE(store->sync().is_ok());
  }
  const BlockData garbage(FileBlockStore::kSlotHeader + 64, std::byte{0xEE});
  overwrite_at(FileBlockStore::metadata_slot_offset(0), garbage);
  overwrite_at(FileBlockStore::metadata_slot_offset(1), garbage);
  auto reopened = FileBlockStore::open(path_.string());
  ASSERT_FALSE(reopened.is_ok());
  EXPECT_EQ(reopened.status().code(), reldev::ErrorCode::kCorruption);
}

TEST_F(TornWriteTest, HalfWrittenRecordDemotedOthersIntact) {
  std::uint64_t record = 0;
  {
    auto store = FileBlockStore::create(path_.string(), 4, 64).value();
    for (BlockId b = 0; b < 4; ++b) {
      ASSERT_TRUE(store->write(b, pattern(64, static_cast<std::uint8_t>(b)),
                               b + 1)
                      .is_ok());
    }
    ASSERT_TRUE(store->sync().is_ok());
    record = store->block_record_offset(2);
  }
  // New header plus the first half of the new payload; the tail keeps the
  // old bytes — what a crash in the middle of a single pwrite leaves.
  const BlockData fresh = pattern(64, 9);
  BufferWriter torn(FileBlockStore::kBlockRecordHeader + 32);
  torn.put_u64(8);
  torn.put_u32(crc32c(fresh));
  torn.put_raw(std::span<const std::byte>(fresh).first(32));
  overwrite_at(record, torn.bytes());
  auto reopened = FileBlockStore::open(path_.string()).value();
  EXPECT_EQ(reopened->scrub_demoted(), std::vector<BlockId>{2});
  EXPECT_EQ(reopened->read(2).value().version, 0u);
  for (const BlockId b : {0u, 1u, 3u}) {
    EXPECT_EQ(reopened->read(b).value().data,
              pattern(64, static_cast<std::uint8_t>(b)));
    EXPECT_EQ(reopened->read(b).value().version, b + 1);
  }
}

}  // namespace
}  // namespace reldev::storage

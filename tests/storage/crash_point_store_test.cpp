// Unit tests for the crash-point injector: each enumerated point must
// fail-stop the store at exactly the scheduled event, leave the file in
// the corresponding torn state, and let a reopen-through-recovery (the
// surrender/adopt cycle) come back with the invariants intact.
#include <gtest/gtest.h>

#include <filesystem>

#include "reldev/storage/crash_point_store.hpp"
#include "support/temp_dir.hpp"

namespace reldev::storage {
namespace {

class CrashPointStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    store_ = std::make_unique<CrashPointBlockStore>(
        FileBlockStore::create(path_.string(), 4, 64).value());
  }

  BlockData pattern(std::size_t size, std::uint8_t seed) {
    BlockData data(size);
    for (std::size_t i = 0; i < size; ++i) {
      data[i] = static_cast<std::byte>((seed * 31 + i) & 0xff);
    }
    return data;
  }

  /// Simulated machine restart: drop the torn handle, reopen through the
  /// full recovery path, hand the recovered store back to the decorator.
  void restart() {
    (void)store_->surrender();
    store_->adopt(FileBlockStore::open(path_.string()).value());
  }

  // Declared before store_, so the directory outlives the store.
  test::TempDir dir_{"reldev_crashpt"};
  const std::filesystem::path path_ = dir_.path() / "site.rdev";
  std::unique_ptr<CrashPointBlockStore> store_;
};

TEST_F(CrashPointStoreTest, NamesRoundTrip) {
  for (const CrashPoint point : kAllCrashPoints) {
    EXPECT_EQ(crash_point_from_name(crash_point_name(point)), point);
  }
  EXPECT_EQ(crash_point_from_name("no-such-point"), CrashPoint::kNone);
}

TEST_F(CrashPointStoreTest, FiresAtNthEventOnly) {
  store_->arm(CrashSchedule{CrashPoint::kBeforeBlockWrite, 2});
  EXPECT_TRUE(store_->write(0, pattern(64, 1), 1).is_ok());
  EXPECT_TRUE(store_->write(1, pattern(64, 2), 1).is_ok());
  EXPECT_FALSE(store_->crashed());
  EXPECT_EQ(store_->write(2, pattern(64, 3), 1).code(), ErrorCode::kIoError);
  EXPECT_TRUE(store_->crashed());
  EXPECT_EQ(store_->fired(), CrashPoint::kBeforeBlockWrite);
  // Fail-stop: every operation is refused until adopt().
  EXPECT_EQ(store_->read(0).status().code(), ErrorCode::kUnavailable);
  EXPECT_EQ(store_->sync().code(), ErrorCode::kUnavailable);
  EXPECT_EQ(store_->version_of(0).status().code(), ErrorCode::kUnavailable);
  restart();
  // The write the crash swallowed never reached the file; the earlier
  // writes did.
  EXPECT_EQ(store_->read(2).value().version, 0u);
  EXPECT_EQ(store_->read(0).value().data, pattern(64, 1));
}

TEST_F(CrashPointStoreTest, MidBlockWriteLeavesTornRecord) {
  ASSERT_TRUE(store_->write(1, pattern(64, 5), 3).is_ok());
  ASSERT_TRUE(store_->sync().is_ok());
  store_->arm(CrashSchedule{CrashPoint::kMidBlockWrite, 0});
  EXPECT_EQ(store_->write(1, pattern(64, 6), 4).code(), ErrorCode::kIoError);
  EXPECT_TRUE(store_->crashed());
  restart();
  // The record was torn (new header, half the new payload): the scrub must
  // demote it rather than serve either half.
  EXPECT_EQ(store_->inner().scrub_demoted(), std::vector<BlockId>{1});
  auto demoted = store_->read(1);
  ASSERT_TRUE(demoted.is_ok());
  EXPECT_EQ(demoted.value().version, 0u);
  EXPECT_EQ(demoted.value().data, BlockData(64, std::byte{0}));
}

TEST_F(CrashPointStoreTest, AfterBlockWriteIsDurableButUnacked) {
  store_->arm(CrashSchedule{CrashPoint::kAfterBlockWrite, 0});
  EXPECT_EQ(store_->write(2, pattern(64, 7), 9).code(), ErrorCode::kIoError);
  restart();
  // The record landed completely before the simulated death: recovery
  // serves it at full fidelity even though the writer never saw the ack.
  auto block = store_->read(2);
  ASSERT_TRUE(block.is_ok());
  EXPECT_EQ(block.value().version, 9u);
  EXPECT_EQ(block.value().data, pattern(64, 7));
}

TEST_F(CrashPointStoreTest, MidMetadataWritePreservesPreviousBlob) {
  ASSERT_TRUE(store_->put_metadata(pattern(20, 1)).is_ok());
  ASSERT_TRUE(store_->sync().is_ok());
  store_->arm(CrashSchedule{CrashPoint::kMidMetadataWrite, 0});
  EXPECT_EQ(store_->put_metadata(pattern(20, 2)).code(), ErrorCode::kIoError);
  restart();
  // The torn slot loses the election; the previous blob survives.
  EXPECT_EQ(store_->get_metadata().value(), pattern(20, 1));
  EXPECT_EQ(store_->inner().metadata_sequence(), 1u);
  // And the slot machinery still works going forward.
  ASSERT_TRUE(store_->put_metadata(pattern(20, 3)).is_ok());
  EXPECT_EQ(store_->get_metadata().value(), pattern(20, 3));
}

TEST_F(CrashPointStoreTest, BeforeSyncFailsTheSync) {
  ASSERT_TRUE(store_->write(0, pattern(64, 4), 1).is_ok());
  store_->arm(CrashSchedule{CrashPoint::kBeforeSync, 1});
  EXPECT_TRUE(store_->sync().is_ok());  // event 0 passes
  EXPECT_EQ(store_->sync().code(), ErrorCode::kIoError);
  EXPECT_TRUE(store_->crashed());
  restart();
  EXPECT_TRUE(store_->sync().is_ok());
}

TEST_F(CrashPointStoreTest, DisarmPreventsFiring) {
  store_->arm(CrashSchedule{CrashPoint::kBeforeBlockWrite, 0});
  store_->disarm();
  EXPECT_TRUE(store_->write(0, pattern(64, 1), 1).is_ok());
  EXPECT_FALSE(store_->crashed());
}

TEST_F(CrashPointStoreTest, GeometryServedWhileCrashed) {
  store_->arm(CrashSchedule{CrashPoint::kBeforeBlockWrite, 0});
  EXPECT_EQ(store_->write(0, pattern(64, 1), 1).code(), ErrorCode::kIoError);
  (void)store_->surrender();
  // A replica holding this store can still answer geometry questions
  // between kill and restart; data operations stay refused.
  EXPECT_EQ(store_->block_count(), 4u);
  EXPECT_EQ(store_->block_size(), 64u);
  EXPECT_EQ(store_->version_vector().size(), 4u);
  EXPECT_EQ(store_->read(0).status().code(), ErrorCode::kUnavailable);
}

}  // namespace
}  // namespace reldev::storage

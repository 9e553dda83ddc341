// JournaledBlockStore: write-ahead journal + group commit over the v2
// file store. Covers the commit/replay cycle (committed mutations survive
// reopen, unsynced ones are lost outright), replay idempotence, torn-tail
// truncation, checkpointing, the journal crash points, and group commit
// under concurrent writers.
#include "reldev/storage/journaled_block_store.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <thread>

#include "reldev/storage/crash_point_store.hpp"
#include "support/temp_dir.hpp"

namespace reldev::storage {
namespace {

class JournaledBlockStoreTest : public ::testing::Test {
 protected:
  BlockData pattern(std::size_t size, std::uint8_t seed) {
    BlockData data(size);
    for (std::size_t i = 0; i < size; ++i) {
      data[i] = static_cast<std::byte>((seed * 31 + i) & 0xff);
    }
    return data;
  }

  std::unique_ptr<JournaledBlockStore> make(JournalOptions options = {}) {
    auto store =
        JournaledBlockStore::create(path_.string(), 8, 64, options);
    EXPECT_TRUE(store.is_ok()) << store.status().to_string();
    return std::move(store).value();
  }

  test::TempDir dir_{"reldev_wal_store"};
  const std::filesystem::path path_ = dir_.path() / "site.rdev";
};

TEST_F(JournaledBlockStoreTest, CreateInitializesZeroedWithJournalSidecar) {
  auto store = make();
  EXPECT_EQ(store->block_count(), 8u);
  EXPECT_EQ(store->block_size(), 64u);
  EXPECT_EQ(store->read(5).value().version, 0u);
  EXPECT_EQ(store->journal_bytes(), WalJournal::kHeaderSize);
  EXPECT_TRUE(std::filesystem::exists(
      JournaledBlockStore::journal_path(path_.string())));
}

TEST_F(JournaledBlockStoreTest, OpenMissingStoreIsNotFound) {
  auto store = JournaledBlockStore::open(path_.string());
  EXPECT_EQ(store.status().code(), reldev::ErrorCode::kNotFound);
  EXPECT_FALSE(std::filesystem::exists(
      JournaledBlockStore::journal_path(path_.string())));
}

TEST_F(JournaledBlockStoreTest, WritesAreVisibleBeforeAnySync) {
  auto store = make();
  ASSERT_TRUE(store->write(2, pattern(64, 1), 4).is_ok());
  ASSERT_TRUE(store->demote(3).is_ok());
  ASSERT_TRUE(store->put_metadata(pattern(16, 9)).is_ok());
  EXPECT_EQ(store->read(2).value().data, pattern(64, 1));
  EXPECT_EQ(store->read(2).value().version, 4u);
  EXPECT_EQ(store->version_of(2).value(), 4u);
  EXPECT_EQ(store->version_vector().at(2), 4u);
  EXPECT_EQ(store->read(3).value().version, 0u);
  EXPECT_EQ(store->get_metadata().value(), pattern(16, 9));
  // Nothing touched the journal yet: mutations live in the pending batch.
  EXPECT_EQ(store->journal_bytes(), WalJournal::kHeaderSize);
  EXPECT_EQ(store->last_sequence(), 3u);
  EXPECT_EQ(store->durable_sequence(), 0u);
}

TEST_F(JournaledBlockStoreTest, SyncCommitsOneBatch) {
  auto store = make();
  ASSERT_TRUE(store->write(0, pattern(64, 1), 1).is_ok());
  ASSERT_TRUE(store->write(1, pattern(64, 2), 1).is_ok());
  ASSERT_TRUE(store->sync().is_ok());
  EXPECT_EQ(store->durable_sequence(), 2u);
  EXPECT_EQ(store->commit_batches(), 1u);
  EXPECT_GT(store->journal_bytes(), WalJournal::kHeaderSize);
}

TEST_F(JournaledBlockStoreTest, CommittedMutationsSurviveReopen) {
  {
    auto store = make();
    ASSERT_TRUE(store->write(1, pattern(64, 3), 7).is_ok());
    ASSERT_TRUE(store->put_metadata(pattern(24, 5)).is_ok());
    ASSERT_TRUE(store->demote(4).is_ok());
    ASSERT_TRUE(store->sync().is_ok());
  }
  auto reopened = JournaledBlockStore::open(path_.string());
  ASSERT_TRUE(reopened.is_ok()) << reopened.status().to_string();
  EXPECT_EQ(reopened.value()->replayed_records(), 3u);
  EXPECT_FALSE(reopened.value()->replay_truncated_tail());
  EXPECT_EQ(reopened.value()->read(1).value().data, pattern(64, 3));
  EXPECT_EQ(reopened.value()->read(1).value().version, 7u);
  EXPECT_EQ(reopened.value()->get_metadata().value(), pattern(24, 5));
  EXPECT_EQ(reopened.value()->read(4).value().version, 0u);
  // The opening replay was checkpointed: journal folded and cut.
  EXPECT_EQ(reopened.value()->journal_bytes(), WalJournal::kHeaderSize);
}

TEST_F(JournaledBlockStoreTest, UnsyncedMutationsAreLostOnReopen) {
  {
    auto store = make();
    ASSERT_TRUE(store->write(0, pattern(64, 1), 3).is_ok());
    ASSERT_TRUE(store->sync().is_ok());
    // Accepted but never committed: dies with the process.
    ASSERT_TRUE(store->write(0, pattern(64, 2), 4).is_ok());
    ASSERT_TRUE(store->write(5, pattern(64, 6), 1).is_ok());
  }
  auto reopened = JournaledBlockStore::open(path_.string());
  ASSERT_TRUE(reopened.is_ok());
  EXPECT_EQ(reopened.value()->read(0).value().data, pattern(64, 1));
  EXPECT_EQ(reopened.value()->read(0).value().version, 3u);
  EXPECT_EQ(reopened.value()->read(5).value().version, 0u);
}

TEST_F(JournaledBlockStoreTest, WaitDurableHonoursOwnSequenceOnly) {
  auto store = make();
  ASSERT_TRUE(store->write(0, pattern(64, 1), 1).is_ok());
  const CommitSequence mine = store->last_sequence();
  ASSERT_TRUE(store->write(1, pattern(64, 2), 1).is_ok());
  ASSERT_TRUE(store->wait_durable(mine).is_ok());
  // Group commit swept everything in flight, including the later write.
  EXPECT_GE(store->durable_sequence(), mine);
  EXPECT_EQ(store->durable_sequence(), 2u);
  // Already durable: no new batch.
  const auto batches = store->commit_batches();
  ASSERT_TRUE(store->wait_durable(mine).is_ok());
  EXPECT_EQ(store->commit_batches(), batches);
}

TEST_F(JournaledBlockStoreTest, ReplayIsIdempotent) {
  JournalOptions keep;
  keep.checkpoint_on_open = false;
  {
    auto store = make(keep);
    ASSERT_TRUE(store->write(2, pattern(64, 1), 1).is_ok());
    ASSERT_TRUE(store->write(2, pattern(64, 2), 2).is_ok());
    ASSERT_TRUE(store->put_metadata(pattern(8, 3)).is_ok());
    ASSERT_TRUE(store->sync().is_ok());
  }
  // First reopen replays the journal but leaves it in place...
  std::uint64_t journal_size = 0;
  {
    auto reopened = JournaledBlockStore::open(path_.string(), keep);
    ASSERT_TRUE(reopened.is_ok());
    EXPECT_EQ(reopened.value()->replayed_records(), 3u);
    EXPECT_EQ(reopened.value()->read(2).value().data, pattern(64, 2));
    EXPECT_EQ(reopened.value()->read(2).value().version, 2u);
    journal_size = reopened.value()->journal_bytes();
    EXPECT_GT(journal_size, WalJournal::kHeaderSize);
  }
  // ...so the second reopen replays the SAME records again. Replaying
  // twice must equal replaying once: same bytes, versions, metadata.
  auto again = JournaledBlockStore::open(path_.string(), keep);
  ASSERT_TRUE(again.is_ok());
  EXPECT_EQ(again.value()->replayed_records(), 3u);
  EXPECT_FALSE(again.value()->replay_truncated_tail());
  EXPECT_EQ(again.value()->journal_bytes(), journal_size);
  EXPECT_EQ(again.value()->read(2).value().data, pattern(64, 2));
  EXPECT_EQ(again.value()->read(2).value().version, 2u);
  EXPECT_EQ(again.value()->get_metadata().value(), pattern(8, 3));
}

TEST_F(JournaledBlockStoreTest, TornTailIsTruncatedNotFatal) {
  {
    auto store = make();
    ASSERT_TRUE(store->write(3, pattern(64, 4), 5).is_ok());
    ASSERT_TRUE(store->sync().is_ok());
  }
  // A crash mid-append leaves garbage past the committed prefix.
  const std::string wal = JournaledBlockStore::journal_path(path_.string());
  const auto before = std::filesystem::file_size(wal);
  {
    std::ofstream torn(wal, std::ios::binary | std::ios::app);
    torn << "torn-frame-garbage";
  }
  ASSERT_GT(std::filesystem::file_size(wal), before);
  auto reopened = JournaledBlockStore::open(path_.string());
  ASSERT_TRUE(reopened.is_ok()) << reopened.status().to_string();
  EXPECT_TRUE(reopened.value()->replay_truncated_tail());
  EXPECT_EQ(reopened.value()->replayed_records(), 1u);
  EXPECT_EQ(reopened.value()->read(3).value().data, pattern(64, 4));
  EXPECT_EQ(reopened.value()->read(3).value().version, 5u);
}

TEST_F(JournaledBlockStoreTest, ExplicitCheckpointFoldsAndCutsJournal) {
  auto store = make();
  ASSERT_TRUE(store->write(0, pattern(64, 1), 2).is_ok());
  ASSERT_TRUE(store->put_metadata(pattern(12, 7)).is_ok());
  ASSERT_TRUE(store->sync().is_ok());
  ASSERT_GT(store->journal_bytes(), WalJournal::kHeaderSize);
  ASSERT_TRUE(store->checkpoint().is_ok());
  EXPECT_EQ(store->journal_bytes(), WalJournal::kHeaderSize);
  EXPECT_EQ(store->checkpoints_taken(), 1u);
  // Reads still serve the folded data.
  EXPECT_EQ(store->read(0).value().data, pattern(64, 1));
  EXPECT_EQ(store->get_metadata().value(), pattern(12, 7));
  // A second checkpoint with nothing dirty is a no-op.
  ASSERT_TRUE(store->checkpoint().is_ok());
  EXPECT_EQ(store->checkpoints_taken(), 1u);
}

TEST_F(JournaledBlockStoreTest, AutoCheckpointTriggersOnJournalGrowth) {
  JournalOptions options;
  options.checkpoint_bytes = 512;  // a few block records
  auto store = make(options);
  for (std::uint64_t round = 1; round <= 20; ++round) {
    ASSERT_TRUE(
        store->write(round % 8, pattern(64, std::uint8_t(round)), round)
            .is_ok());
    ASSERT_TRUE(store->sync().is_ok());
  }
  EXPECT_GT(store->checkpoints_taken(), 0u);
  EXPECT_LE(store->journal_bytes(), 512u + WalJournal::kHeaderSize);
  // Every committed write survives the folds.
  EXPECT_EQ(store->read(20 % 8).value().version, 20u);
}

TEST_F(JournaledBlockStoreTest, CheckpointedStateSurvivesReopenWithoutReplay) {
  {
    auto store = make();
    ASSERT_TRUE(store->write(6, pattern(64, 8), 9).is_ok());
    ASSERT_TRUE(store->sync().is_ok());
    ASSERT_TRUE(store->checkpoint().is_ok());
  }
  auto reopened = JournaledBlockStore::open(path_.string());
  ASSERT_TRUE(reopened.is_ok());
  EXPECT_EQ(reopened.value()->replayed_records(), 0u);
  EXPECT_EQ(reopened.value()->read(6).value().data, pattern(64, 8));
  EXPECT_EQ(reopened.value()->read(6).value().version, 9u);
}

TEST_F(JournaledBlockStoreTest, OpenWithoutSidecarStartsEmptyJournal) {
  {
    auto plain = FileBlockStore::create(path_.string(), 8, 64);
    ASSERT_TRUE(plain.is_ok());
    ASSERT_TRUE(plain.value()->write(1, pattern(64, 2), 3).is_ok());
    ASSERT_TRUE(plain.value()->sync().is_ok());
  }
  ASSERT_FALSE(std::filesystem::exists(
      JournaledBlockStore::journal_path(path_.string())));
  auto store = JournaledBlockStore::open(path_.string());
  ASSERT_TRUE(store.is_ok()) << store.status().to_string();
  EXPECT_EQ(store.value()->replayed_records(), 0u);
  EXPECT_EQ(store.value()->read(1).value().version, 3u);
  EXPECT_TRUE(std::filesystem::exists(
      JournaledBlockStore::journal_path(path_.string())));
}

TEST_F(JournaledBlockStoreTest, GeometryMismatchedJournalIsRejected) {
  { auto store = make(); }
  // A journal from a differently-shaped store must not replay.
  ASSERT_TRUE(std::filesystem::remove(
      JournaledBlockStore::journal_path(path_.string())));
  auto other = WalJournal::create(
      JournaledBlockStore::journal_path(path_.string()), 4, 128);
  ASSERT_TRUE(other.is_ok());
  auto reopened = JournaledBlockStore::open(path_.string());
  EXPECT_EQ(reopened.status().code(), reldev::ErrorCode::kCorruption);
}

TEST_F(JournaledBlockStoreTest, GroupCommitUnderConcurrentWriters) {
  constexpr std::size_t kThreads = 8;
  constexpr std::uint64_t kRounds = 24;
  JournalOptions options;
  options.max_delay = std::chrono::microseconds(300);
  {
    auto store = make(options);
    std::vector<std::thread> writers;
    std::vector<Status> failures(kThreads, Status::ok());
    writers.reserve(kThreads);
    for (std::size_t t = 0; t < kThreads; ++t) {
      writers.emplace_back([&, t] {
        for (std::uint64_t round = 1; round <= kRounds; ++round) {
          // Each thread owns one block; versions must come out in order.
          auto status = store->write(
              t, pattern(64, static_cast<std::uint8_t>(t * 32 + round)),
              round);
          if (!status.is_ok()) {
            failures[t] = status;
            return;
          }
          status = store->wait_durable(store->last_sequence());
          if (!status.is_ok()) {
            failures[t] = status;
            return;
          }
        }
      });
    }
    for (auto& writer : writers) writer.join();
    for (const auto& status : failures) {
      ASSERT_TRUE(status.is_ok()) << status.to_string();
    }
    // No lost or reordered commits: every block ends at its last version.
    for (std::size_t t = 0; t < kThreads; ++t) {
      EXPECT_EQ(store->version_of(t).value(), kRounds);
      EXPECT_EQ(store->read(t).value().data,
                pattern(64, static_cast<std::uint8_t>(t * 32 + kRounds)));
    }
    EXPECT_EQ(store->durable_sequence(), kThreads * kRounds);
    // Group commit: the fsync count is bounded by the sync count, and with
    // contending writers batches should coalesce at least occasionally.
    EXPECT_GE(store->commit_batches(), 1u);
    EXPECT_LE(store->commit_batches(), kThreads * kRounds);
  }
  // And the committed state is really on disk.
  auto reopened = JournaledBlockStore::open(path_.string());
  ASSERT_TRUE(reopened.is_ok());
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(reopened.value()->version_of(t).value(), kRounds);
  }
}

// --- journal crash points through the injector -------------------------------

class JournaledCrashPointTest : public JournaledBlockStoreTest {
 protected:
  /// Wrap a fresh journaled store in the injector.
  std::unique_ptr<CrashPointBlockStore> make_injected(
      JournalOptions options = {}) {
    return std::make_unique<CrashPointBlockStore>(make(options));
  }
};

TEST_F(JournaledCrashPointTest, MidJournalAppendLeavesTornTail) {
  auto injected = make_injected();
  ASSERT_TRUE(injected->write(0, pattern(64, 1), 1).is_ok());
  ASSERT_TRUE(injected->sync().is_ok());  // committed prefix
  injected->arm({CrashPoint::kMidJournalAppend, 0});
  ASSERT_TRUE(injected->write(1, pattern(64, 2), 1).is_ok());
  EXPECT_FALSE(injected->sync().is_ok());  // half the batch hit the disk
  EXPECT_TRUE(injected->crashed());
  EXPECT_EQ(injected->fired(), CrashPoint::kMidJournalAppend);
  injected->drop_inner();

  auto reopened = JournaledBlockStore::open(path_.string());
  ASSERT_TRUE(reopened.is_ok()) << reopened.status().to_string();
  EXPECT_TRUE(reopened.value()->replay_truncated_tail());
  // The committed prefix replays; the torn batch is gone.
  EXPECT_EQ(reopened.value()->read(0).value().version, 1u);
  EXPECT_EQ(reopened.value()->read(0).value().data, pattern(64, 1));
  EXPECT_EQ(reopened.value()->read(1).value().version, 0u);
}

TEST_F(JournaledCrashPointTest, BeforeJournalSyncKeepsAppendedBatchReadable) {
  auto injected = make_injected();
  injected->arm({CrashPoint::kBeforeJournalSync, 0});
  ASSERT_TRUE(injected->write(2, pattern(64, 3), 4).is_ok());
  EXPECT_FALSE(injected->sync().is_ok());  // appended, never fsynced
  EXPECT_EQ(injected->fired(), CrashPoint::kBeforeJournalSync);
  injected->drop_inner();

  // The batch was fully appended; without a real power cut the frames
  // validate, so recovery treats them as committed (the contract allows
  // either outcome for an unacknowledged sync).
  auto reopened = JournaledBlockStore::open(path_.string());
  ASSERT_TRUE(reopened.is_ok());
  EXPECT_EQ(reopened.value()->read(2).value().version, 4u);
  EXPECT_EQ(reopened.value()->read(2).value().data, pattern(64, 3));
}

TEST_F(JournaledCrashPointTest, MidCheckpointLeavesJournalAuthoritative) {
  auto injected = make_injected();
  ASSERT_TRUE(injected->write(0, pattern(64, 1), 2).is_ok());
  ASSERT_TRUE(injected->write(1, pattern(64, 2), 3).is_ok());
  ASSERT_TRUE(injected->write(2, pattern(64, 3), 4).is_ok());
  ASSERT_TRUE(injected->write(3, pattern(64, 4), 5).is_ok());
  ASSERT_TRUE(injected->sync().is_ok());
  injected->arm({CrashPoint::kMidCheckpoint, 0});
  EXPECT_FALSE(injected->checkpoint().is_ok());  // half-folded, no truncate
  EXPECT_EQ(injected->fired(), CrashPoint::kMidCheckpoint);
  injected->drop_inner();

  // The journal survived untruncated, so replay restores every committed
  // write regardless of how much of the fold landed.
  auto reopened = JournaledBlockStore::open(path_.string());
  ASSERT_TRUE(reopened.is_ok());
  EXPECT_GT(reopened.value()->replayed_records(), 0u);
  EXPECT_EQ(reopened.value()->read(0).value().data, pattern(64, 1));
  EXPECT_EQ(reopened.value()->read(1).value().data, pattern(64, 2));
  EXPECT_EQ(reopened.value()->read(2).value().data, pattern(64, 3));
  EXPECT_EQ(reopened.value()->read(3).value().data, pattern(64, 4));
  EXPECT_EQ(reopened.value()->read(3).value().version, 5u);
}

TEST_F(JournaledCrashPointTest, BeforeCheckpointTruncateReplaysIdempotently) {
  auto injected = make_injected();
  ASSERT_TRUE(injected->write(5, pattern(64, 6), 7).is_ok());
  ASSERT_TRUE(injected->put_metadata(pattern(20, 2)).is_ok());
  ASSERT_TRUE(injected->sync().is_ok());
  injected->arm({CrashPoint::kBeforeCheckpointTruncate, 0});
  EXPECT_FALSE(injected->checkpoint().is_ok());  // folded + fsynced, not cut
  EXPECT_EQ(injected->fired(), CrashPoint::kBeforeCheckpointTruncate);
  injected->drop_inner();

  // Main file already holds the folded state AND the journal still holds
  // the records — replay over already-applied data must change nothing.
  auto reopened = JournaledBlockStore::open(path_.string());
  ASSERT_TRUE(reopened.is_ok());
  EXPECT_EQ(reopened.value()->replayed_records(), 2u);
  EXPECT_EQ(reopened.value()->read(5).value().data, pattern(64, 6));
  EXPECT_EQ(reopened.value()->read(5).value().version, 7u);
  EXPECT_EQ(reopened.value()->get_metadata().value(), pattern(20, 2));
}

TEST_F(JournaledCrashPointTest, FailStopAfterFiringUntilAdopt) {
  auto injected = make_injected();
  injected->arm({CrashPoint::kBeforeJournalSync, 0});
  ASSERT_TRUE(injected->write(0, pattern(64, 1), 1).is_ok());
  ASSERT_FALSE(injected->sync().is_ok());
  // Everything fails until a restart adopts a recovered store.
  EXPECT_FALSE(injected->write(1, pattern(64, 2), 1).is_ok());
  EXPECT_FALSE(injected->read(0).is_ok());
  EXPECT_FALSE(injected->sync().is_ok());
  injected->drop_inner();
  auto reopened = JournaledBlockStore::open(path_.string());
  ASSERT_TRUE(reopened.is_ok());
  injected->adopt(std::move(reopened).value());
  EXPECT_FALSE(injected->crashed());
  EXPECT_TRUE(injected->write(1, pattern(64, 2), 1).is_ok());
  EXPECT_TRUE(injected->sync().is_ok());
}

}  // namespace
}  // namespace reldev::storage

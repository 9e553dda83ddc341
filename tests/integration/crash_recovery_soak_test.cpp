// Crash-recovery soak: for every engine (MCV / AC / NAC), every enumerated
// storage crash point, and several event indices, run the cycle
//
//   write workload -> sync -> arm crash -> write until the store dies ->
//   hard-kill the site (file handle dropped, torn bytes on disk) ->
//   restart through the full recovery path -> verify invariants
//
// Invariants asserted after every cycle:
//   * no block read on any site ever returns kCorruption — torn records
//     are demoted by the opening scrub and healed from peers, not served;
//   * no acknowledged write is lost at the cluster level: every block
//     reads back as the payload of its last acknowledged write (or the
//     payload of the single in-flight write the crash interrupted);
//   * all sites converge to the same bytes per block;
//   * per-block version numbers never move backwards at the cluster level.
//
// A blackout coda replays the paper's total-failure recovery (§4) over
// crash-consistent stores: the crashed site's torn file plus the closure
// restart order must still produce the most recent data.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "reldev/core/group.hpp"
#include "reldev/util/rng.hpp"
#include "support/temp_dir.hpp"

namespace reldev::core {
namespace {

constexpr std::size_t kSites = 3;
constexpr std::size_t kBlocks = 8;
constexpr std::size_t kBlockSize = 64;
constexpr std::uint64_t kEventIndices = 3;  // nth = 0, 1, 2
constexpr int kWarmupWrites = 6;
constexpr int kMaxCrashAttempts = 24;

storage::BlockData payload(std::uint8_t tag) {
  return storage::BlockData(kBlockSize, static_cast<std::byte>(tag));
}

class CrashRecoverySoakTest
    : public ::testing::TestWithParam<std::tuple<SchemeKind, std::uint64_t>> {
 protected:
  CrashRecoverySoakTest()
      : scheme_(std::get<0>(GetParam())), seed_(std::get<1>(GetParam())) {}

  void TearDown() override {
    group_.reset();
    dir_.reset();
  }

  /// A fresh persistent group in a fresh directory for one crash cycle.
  /// Journal mode runs every site through the write-ahead journal with a
  /// deliberately small checkpoint threshold, so the soak exercises
  /// commits AND automatic checkpoints.
  void fresh_group(const std::string& label, bool journal = false) {
    group_.reset();
    dir_.reset();
    dir_.emplace("reldev_crashsoak_" + label);
    PersistentOptions persist;
    persist.directory = dir_->path().string();
    persist.journal = journal;
    persist.journal_options.checkpoint_bytes = 512;
    group_.emplace(scheme_, GroupConfig::majority(kSites, kBlocks, kBlockSize),
                   std::move(persist));
    acked_.assign(kBlocks, 0);
    inflight_.assign(kBlocks, std::optional<std::uint8_t>{});
    max_version_.assign(kBlocks, 0);
  }

  /// One client write via `via`; tracks the acknowledged model and, for a
  /// refused write (the one the crash interrupts), the in-flight payload
  /// that peers may legitimately have applied.
  void tracked_write(SiteId via, BlockId block, std::uint8_t tag) {
    const Status status = group_->write(via, block, payload(tag));
    if (status.is_ok()) {
      acked_[block] = tag;
      inflight_[block].reset();
    } else {
      inflight_[block] = tag;
    }
  }

  void note_cluster_versions() {
    for (BlockId b = 0; b < kBlocks; ++b) {
      for (SiteId site = 0; site < kSites; ++site) {
        auto& injector = group_->crash_points(site);
        if (!injector.has_inner() || injector.crashed()) continue;
        auto version = injector.version_of(b);
        if (version && version.value() > max_version_[b]) {
          max_version_[b] = version.value();
        }
      }
    }
  }

  /// The post-recovery invariant sweep (see file comment).
  void verify_invariants(const std::string& context) {
    for (BlockId b = 0; b < kBlocks; ++b) {
      std::optional<storage::BlockData> agreed;
      for (SiteId via = 0; via < kSites; ++via) {
        auto data = group_->read(via, b);
        ASSERT_TRUE(data.is_ok())
            << context << ": read of block " << b << " via site " << via
            << " failed: " << data.status().to_string();
        ASSERT_NE(data.status().code(), ErrorCode::kCorruption)
            << context << ": corruption served for block " << b;
        if (!agreed) {
          agreed = data.value();
        } else {
          EXPECT_EQ(*agreed, data.value())
              << context << ": sites disagree on block " << b;
        }
      }
      // Durability: the block holds its last acknowledged payload, or the
      // single interrupted write's payload when peers applied it before
      // the coordinator's store died.
      const storage::BlockData expect_acked = payload(acked_[b]);
      const bool matches_acked = *agreed == expect_acked;
      const bool matches_inflight =
          inflight_[b].has_value() && *agreed == payload(*inflight_[b]);
      EXPECT_TRUE(matches_acked || matches_inflight)
          << context << ": block " << b
          << " lost its acknowledged write (acked tag "
          << static_cast<int>(acked_[b]) << ")";
      // Version monotonicity at the cluster level.
      storage::VersionNumber cluster_max = 0;
      for (SiteId site = 0; site < kSites; ++site) {
        auto version = group_->store(site).version_of(b);
        ASSERT_TRUE(version.is_ok());
        if (version.value() > cluster_max) cluster_max = version.value();
      }
      EXPECT_GE(cluster_max, max_version_[b])
          << context << ": cluster-wide version of block " << b
          << " moved backwards";
      max_version_[b] = cluster_max;
    }
  }

  /// Bring every site to `available` (restarting the killed coordinator is
  /// the caller's job): retry the comatose fixpoint a few times.
  void settle() {
    for (int i = 0; i < 4; ++i) group_->retry_comatose();
    for (SiteId site = 0; site < kSites; ++site) {
      ASSERT_EQ(group_->replica(site).state(), SiteState::kAvailable)
          << "site " << site << " did not settle";
    }
  }

  SchemeKind scheme_;
  std::uint64_t seed_;
  // Declared before group_, so the directory outlives the group.
  std::optional<test::TempDir> dir_;
  std::optional<ReplicaGroup> group_;
  std::vector<std::uint8_t> acked_;
  std::vector<std::optional<std::uint8_t>> inflight_;
  std::vector<storage::VersionNumber> max_version_;
};

TEST_P(CrashRecoverySoakTest, EveryCrashPointRecovers) {
  Rng rng(seed_);
  for (const storage::CrashPoint point : storage::kAllCrashPoints) {
    for (std::uint64_t nth = 0; nth < kEventIndices; ++nth) {
      const std::string context = std::string(crash_point_name(point)) +
                                  "_n" + std::to_string(nth);
      SCOPED_TRACE(context);
      fresh_group(context);

      // Phase 1: an acknowledged, synced baseline.
      for (int i = 0; i < kWarmupWrites; ++i) {
        const auto block = static_cast<BlockId>(rng.uniform_u64(0, kBlocks - 1));
        const auto tag =
            static_cast<std::uint8_t>(rng.uniform_u64(1, 0xDF));
        const auto via = static_cast<SiteId>(rng.uniform_u64(0, kSites - 1));
        tracked_write(via, block, tag);
      }
      for (SiteId site = 0; site < kSites; ++site) {
        ASSERT_TRUE(group_->sync_site(site).is_ok());
      }
      note_cluster_versions();

      // Phase 2: arm the crash at site 0's store and drive coordinated
      // writes (with syncs, so before-sync points see events) until it
      // fires. Not every point applies to every engine — only the
      // available-copy scheme persists metadata on the write path, for
      // example — so a schedule that cannot fire just exhausts the
      // attempt budget and the cycle still verifies clean recovery.
      group_->crash_points(0).arm(storage::CrashSchedule{point, nth});
      int attempts = 0;
      while (!group_->crash_points(0).crashed() &&
             attempts < kMaxCrashAttempts) {
        const auto block = static_cast<BlockId>(rng.uniform_u64(0, kBlocks - 1));
        const auto tag =
            static_cast<std::uint8_t>(rng.uniform_u64(1, 0xDF));
        tracked_write(0, block, tag);
        (void)group_->sync_site(0);
        ++attempts;
      }
      group_->crash_points(0).disarm();

      // Phase 3: hard-kill the site (torn bytes stay on disk), then
      // restart it through the full recovery path.
      group_->kill_site(0);
      Status restarted = group_->restart_site(0);
      ASSERT_TRUE(restarted.is_ok() ||
                  restarted.code() == ErrorCode::kUnavailable)
          << context << ": restart failed: " << restarted.to_string();
      settle();

      // Phase 4: the invariants.
      verify_invariants(context);

      // And the recovered group still takes writes.
      tracked_write(0, 0, 0xEE);
      EXPECT_EQ(acked_[0], 0xEE) << context;
    }
  }
}

TEST_P(CrashRecoverySoakTest, JournalCrashPointsRecoverToCommittedPrefix) {
  Rng rng(seed_ ^ 0x3A1Full);
  for (const storage::CrashPoint point : storage::kJournalCrashPoints) {
    for (std::uint64_t nth = 0; nth < kEventIndices; ++nth) {
      const std::string context = std::string("wal_") +
                                  crash_point_name(point) + "_n" +
                                  std::to_string(nth);
      SCOPED_TRACE(context);
      fresh_group(context, /*journal=*/true);

      // Phase 1: an acknowledged, committed baseline.
      for (int i = 0; i < kWarmupWrites; ++i) {
        const auto block = static_cast<BlockId>(rng.uniform_u64(0, kBlocks - 1));
        const auto tag =
            static_cast<std::uint8_t>(rng.uniform_u64(1, 0xDF));
        const auto via = static_cast<SiteId>(rng.uniform_u64(0, kSites - 1));
        tracked_write(via, block, tag);
      }
      for (SiteId site = 0; site < kSites; ++site) {
        ASSERT_TRUE(group_->sync_site(site).is_ok());
      }
      note_cluster_versions();

      // Phase 2: arm site 0 and drive write+commit cycles until it fires;
      // the commit points fire inside sync_site's group commit (crash
      // during append, or between append and fsync), the checkpoint
      // points through the automatic threshold checkpoints and the
      // explicit ones injected every third attempt.
      group_->crash_points(0).arm(storage::CrashSchedule{point, nth});
      int attempts = 0;
      while (!group_->crash_points(0).crashed() &&
             attempts < kMaxCrashAttempts) {
        const auto block = static_cast<BlockId>(rng.uniform_u64(0, kBlocks - 1));
        const auto tag =
            static_cast<std::uint8_t>(rng.uniform_u64(1, 0xDF));
        tracked_write(0, block, tag);
        (void)group_->sync_site(0);
        if (attempts % 3 == 2 && !group_->crash_points(0).crashed()) {
          (void)group_->checkpoint_site(0);
        }
        ++attempts;
      }
      group_->crash_points(0).disarm();

      // Phase 3: hard-kill (pending batch and write-back table evaporate;
      // the journal keeps only what a commit fsynced), then restart
      // through scrub + journal replay (torn tails truncated, committed
      // prefix re-applied).
      group_->kill_site(0);
      Status restarted = group_->restart_site(0);
      ASSERT_TRUE(restarted.is_ok() ||
                  restarted.code() == ErrorCode::kUnavailable)
          << context << ": restart failed: " << restarted.to_string();
      settle();

      // Phase 4: cluster-level invariants — every acknowledged write is
      // served, no corruption, all sites converge.
      verify_invariants(context);

      // And the recovered group still takes writes.
      tracked_write(0, 0, 0xEE);
      EXPECT_EQ(acked_[0], 0xEE) << context;
    }
  }
}

TEST_P(CrashRecoverySoakTest, JournalBlackoutRecoversCommittedWrites) {
  if (scheme_ == SchemeKind::kVoting) {
    GTEST_SKIP() << "closure restart order is an available-copy concept";
  }
  Rng rng(seed_ ^ 0xD1A7ull);
  fresh_group("wal_blackout", /*journal=*/true);

  for (int i = 0; i < kWarmupWrites; ++i) {
    tracked_write(static_cast<SiteId>(rng.uniform_u64(0, kSites - 1)),
                  static_cast<BlockId>(rng.uniform_u64(0, kBlocks - 1)),
                  static_cast<std::uint8_t>(rng.uniform_u64(1, 0xDF)));
  }
  for (SiteId site = 0; site < kSites; ++site) {
    ASSERT_TRUE(group_->sync_site(site).is_ok());
  }

  // Site 0 dies of a torn journal append; the survivors keep going. In
  // journal mode a kill also discards unsynced in-memory mutations, so
  // each pre-kill write is committed (synced) on the survivors first —
  // the blackout then proves the *committed* closure state recovers.
  group_->crash_points(0).arm(
      storage::CrashSchedule{storage::CrashPoint::kMidJournalAppend, 0});
  int attempts = 0;
  while (!group_->crash_points(0).crashed() && attempts < kMaxCrashAttempts) {
    tracked_write(0, static_cast<BlockId>(rng.uniform_u64(0, kBlocks - 1)),
                  static_cast<std::uint8_t>(rng.uniform_u64(1, 0xDF)));
    (void)group_->sync_site(0);
    ++attempts;
  }
  ASSERT_TRUE(group_->crash_points(0).crashed());
  group_->kill_site(0);
  tracked_write(1, 2, 0xA1);  // was-available shrinks to {1, 2}
  ASSERT_TRUE(group_->sync_site(1).is_ok());
  ASSERT_TRUE(group_->sync_site(2).is_ok());
  group_->kill_site(1);
  tracked_write(2, 3, 0xA2);  // was-available shrinks to {2}
  ASSERT_TRUE(group_->sync_site(2).is_ok());
  group_->kill_site(2);

  // Worst restart order: everyone must wait for the last-failed site.
  EXPECT_EQ(group_->restart_site(0).code(), ErrorCode::kUnavailable);
  EXPECT_EQ(group_->restart_site(1).code(), ErrorCode::kUnavailable);
  ASSERT_TRUE(group_->restart_site(2).is_ok());
  settle();

  verify_invariants("wal_blackout");
  EXPECT_EQ(group_->read(0, 2).value(), payload(0xA1));
  EXPECT_EQ(group_->read(0, 3).value(), payload(0xA2));
}

TEST_P(CrashRecoverySoakTest, BlackoutAfterTornCrashRecoversInClosureOrder) {
  if (scheme_ == SchemeKind::kVoting) {
    GTEST_SKIP() << "closure restart order is an available-copy concept";
  }
  Rng rng(seed_ ^ 0xB1ACull);
  fresh_group("blackout");

  // Baseline everybody holds.
  for (int i = 0; i < kWarmupWrites; ++i) {
    tracked_write(static_cast<SiteId>(rng.uniform_u64(0, kSites - 1)),
                  static_cast<BlockId>(rng.uniform_u64(0, kBlocks - 1)),
                  static_cast<std::uint8_t>(rng.uniform_u64(1, 0xDF)));
  }
  for (SiteId site = 0; site < kSites; ++site) {
    ASSERT_TRUE(group_->sync_site(site).is_ok());
  }

  // Site 0 dies of a torn block write; the survivors keep going, then the
  // whole group goes dark one site at a time (2 fails last).
  group_->crash_points(0).arm(
      storage::CrashSchedule{storage::CrashPoint::kMidBlockWrite, 0});
  int attempts = 0;
  while (!group_->crash_points(0).crashed() && attempts < kMaxCrashAttempts) {
    tracked_write(0, static_cast<BlockId>(rng.uniform_u64(0, kBlocks - 1)),
                  static_cast<std::uint8_t>(rng.uniform_u64(1, 0xDF)));
    ++attempts;
  }
  ASSERT_TRUE(group_->crash_points(0).crashed());
  group_->kill_site(0);
  tracked_write(1, 2, 0xA1);  // was-available shrinks to {1, 2}
  group_->kill_site(1);
  tracked_write(2, 3, 0xA2);  // was-available shrinks to {2}
  group_->kill_site(2);

  // Restart in the WORST order: everyone but the last-failed site must
  // wait (comatose) until the site that could have seen the final writes
  // is back.
  EXPECT_EQ(group_->restart_site(0).code(), ErrorCode::kUnavailable);
  // AC: site 1's was-available set {1,2} keeps it comatose until 2 is up;
  // NAC waits for the full group regardless.
  EXPECT_EQ(group_->restart_site(1).code(), ErrorCode::kUnavailable);
  ASSERT_TRUE(group_->restart_site(2).is_ok());
  settle();

  verify_invariants("blackout");
  // The final pre-blackout writes survived the torn-crash site's restart.
  EXPECT_EQ(group_->read(0, 2).value(), payload(0xA1));
  EXPECT_EQ(group_->read(0, 3).value(), payload(0xA2));
}

INSTANTIATE_TEST_SUITE_P(
    AllEnginesFixedSeeds, CrashRecoverySoakTest,
    ::testing::Combine(::testing::Values(SchemeKind::kVoting,
                                         SchemeKind::kAvailableCopy,
                                         SchemeKind::kNaiveAvailableCopy),
                       ::testing::Values(0xC0FFEEull, 1987ull, 42ull)),
    [](const auto& param_info) {
      std::string name = scheme_kind_name(std::get<0>(param_info.param));
      for (auto& c : name) {
        if (c == '-') c = '_';
      }
      return name + "_seed" +
             std::to_string(std::get<1>(param_info.param) & 0xFFFF);
    });

}  // namespace
}  // namespace reldev::core

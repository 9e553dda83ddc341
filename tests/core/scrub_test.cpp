// The anti-entropy scrub daemon: digest exchange finds stale and latently
// corrupt blocks without client traffic, heals route through the engines'
// repair machinery, throttling is accounted deterministically, races with
// foreground writes never demote newer data, and the cursor survives a
// kill/restart. Divergence is injected by writing to the stores behind the
// replicas' backs — the on-disk shape of a missed update or silent rot.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <unordered_map>

#include "reldev/core/group.hpp"
#include "reldev/storage/scrubber.hpp"
#include "support/temp_dir.hpp"

namespace reldev::core {
namespace {

constexpr std::size_t kSites = 3;
constexpr std::size_t kBlocks = 8;
constexpr std::size_t kBlockSize = 64;

storage::BlockData payload(std::uint8_t tag) {
  return storage::BlockData(kBlockSize, static_cast<std::byte>(tag));
}

class ScrubTest : public ::testing::TestWithParam<SchemeKind> {
 protected:
  ScrubTest()
      : group_(GetParam(), GroupConfig::majority(kSites, kBlocks, kBlockSize)) {
  }

  /// All sites hold `data` at version `version` for `block` — the state
  /// after a fully replicated write, set up without protocol traffic.
  void seed_block(BlockId block, const storage::BlockData& data,
                  storage::VersionNumber version) {
    for (SiteId site = 0; site < kSites; ++site) {
      ASSERT_TRUE(group_.store(site).write(block, data, version).is_ok());
    }
  }

  ReplicaGroup group_;
};

TEST_P(ScrubTest, StaleCopyHealsWithoutClientAccess) {
  seed_block(3, payload(0x11), 1);
  // Sites 0 and 1 took an update site 2 missed.
  ASSERT_TRUE(group_.store(0).write(3, payload(0x22), 2).is_ok());
  ASSERT_TRUE(group_.store(1).write(3, payload(0x22), 2).is_ok());

  auto report = group_.scrub_site(2);
  ASSERT_TRUE(report.is_ok()) << report.status().to_string();
  EXPECT_EQ(report.value().stale_healed, 1u);
  EXPECT_TRUE(report.value().cycle_completed);

  auto local = group_.store(2).read(3);
  ASSERT_TRUE(local.is_ok());
  EXPECT_EQ(local.value().version, 2u);
  EXPECT_EQ(local.value().data, payload(0x22));
}

TEST_P(ScrubTest, LatentCorruptionHealsByDigestMajority) {
  seed_block(5, payload(0x33), 4);
  // Site 0's record rotted without touching the version: only the digest
  // exchange can see this.
  ASSERT_TRUE(group_.store(0).write(5, payload(0xBD), 4).is_ok());

  auto report = group_.scrub_site(0);
  ASSERT_TRUE(report.is_ok()) << report.status().to_string();
  EXPECT_EQ(report.value().corrupt_healed, 1u);

  auto local = group_.store(0).read(5);
  ASSERT_TRUE(local.is_ok());
  EXPECT_EQ(local.value().data, payload(0x33));
  const ScrubStats stats = group_.scrub_stats(0);
  EXPECT_EQ(stats.corrupt_healed, 1u);
  EXPECT_EQ(stats.blocks_scanned, kBlocks);
  EXPECT_EQ(stats.digests_exchanged, kSites - 1);
}

TEST_P(ScrubTest, TwoWaySplitIsAmbiguousAndLeftAlone) {
  // Only one peer is reachable and it disagrees at the same version: a
  // 1-vs-1 vote. Adopting the peer's bytes could destroy the only good
  // copy, so the scrubber must leave the block alone.
  group_.crash_site(2);
  seed_block(1, payload(0x44), 2);
  ASSERT_TRUE(group_.store(1).write(1, payload(0x55), 2).is_ok());

  auto report = group_.scrub_site(0);
  ASSERT_TRUE(report.is_ok()) << report.status().to_string();
  EXPECT_EQ(report.value().corrupt_healed, 0u);
  EXPECT_EQ(report.value().stale_healed, 0u);
  EXPECT_EQ(group_.scrub_stats(0).ambiguous_mismatches, 1u);
  EXPECT_EQ(group_.store(0).read(1).value().data, payload(0x44));
}

TEST_P(ScrubTest, ForegroundWriteDuringScrubIsNeverDemoted) {
  seed_block(2, payload(0x66), 3);
  ASSERT_TRUE(group_.store(0).write(2, payload(0xBD), 3).is_ok());
  // Between the digest exchange and the heal, a foreground write lands on
  // the very block the exchange flagged as corrupt. The heal must notice
  // the version moved and leave the fresh data untouched.
  group_.scrubber(0).set_preheal_hook([this] {
    ASSERT_TRUE(group_.write(0, 2, payload(0x77)).is_ok());
  });
  auto report = group_.scrub_site(0);
  ASSERT_TRUE(report.is_ok()) << report.status().to_string();
  EXPECT_EQ(report.value().corrupt_healed, 0u);

  auto local = group_.store(0).read(2);
  ASSERT_TRUE(local.is_ok());
  EXPECT_EQ(local.value().data, payload(0x77));
  EXPECT_EQ(local.value().version, 4u);
}

TEST_P(ScrubTest, ThrottleBudgetIsAccountedDeterministically) {
  // A synthetic clock frozen at one instant: no refill ever happens, so
  // the arithmetic is exact. One cycle scans kBlocks * kBlockSize bytes —
  // precisely the burst — and the second cycle must go into debt.
  ScrubOptions options;
  options.bytes_per_sec = kBlocks * kBlockSize;
  group_.set_scrub_options(options);
  const auto frozen = TokenBucket::Clock::time_point{};
  group_.scrubber(0).set_clock([frozen] { return frozen; });

  ASSERT_TRUE(group_.scrub_site(0).is_ok());
  EXPECT_EQ(group_.scrub_stats(0).throttle_stalls, 0u);
  ASSERT_TRUE(group_.scrub_site(0).is_ok());
  EXPECT_GE(group_.scrub_stats(0).throttle_stalls, 1u);
}

TEST_P(ScrubTest, UnreachablePeerIsSkippedWithBackoff) {
  group_.crash_site(2);
  ASSERT_TRUE(group_.scrub_site(0).is_ok());
  // First cycle probed the dead peer (no skip yet)...
  EXPECT_EQ(group_.scrub_stats(0).peer_unreachable_skips, 0u);
  ASSERT_TRUE(group_.scrub_site(0).is_ok());
  // ...and the second skips it under backoff.
  EXPECT_EQ(group_.scrub_stats(0).peer_unreachable_skips, 1u);
  EXPECT_EQ(group_.scrub_stats(0).digests_exchanged, 2u);  // site 1 twice
}

TEST_P(ScrubTest, SynchronousStepRefusedWhileBackgroundRunning) {
  ScrubOptions options;
  options.cycle_interval = std::chrono::milliseconds(50);
  group_.set_scrub_options(options);
  auto& daemon = group_.scrubber(0);
  daemon.start();
  EXPECT_TRUE(daemon.running());
  EXPECT_EQ(daemon.step().status().code(), ErrorCode::kConflict);
  daemon.stop();
  EXPECT_FALSE(daemon.running());
  EXPECT_TRUE(daemon.step().is_ok());
}

TEST_P(ScrubTest, ConvergenceDriverHealsMixedDivergence) {
  seed_block(0, payload(0x10), 1);
  seed_block(4, payload(0x40), 2);
  seed_block(7, payload(0x70), 5);
  // Stale copy at site 2, rot at site 1, rot at site 0.
  ASSERT_TRUE(group_.store(0).write(0, payload(0x1A), 2).is_ok());
  ASSERT_TRUE(group_.store(1).write(0, payload(0x1A), 2).is_ok());
  ASSERT_TRUE(group_.store(1).write(4, payload(0xBD), 2).is_ok());
  ASSERT_TRUE(group_.store(0).write(7, payload(0xBE), 5).is_ok());

  auto rounds = group_.scrub_until_converged(4);
  ASSERT_TRUE(rounds.is_ok()) << rounds.status().to_string();

  for (BlockId block = 0; block < kBlocks; ++block) {
    auto reference = group_.store(0).read(block);
    ASSERT_TRUE(reference.is_ok());
    for (SiteId site = 1; site < kSites; ++site) {
      auto copy = group_.store(site).read(block);
      ASSERT_TRUE(copy.is_ok());
      EXPECT_EQ(copy.value().version, reference.value().version)
          << "site " << site << " block " << block;
      EXPECT_EQ(copy.value().data, reference.value().data)
          << "site " << site << " block " << block;
    }
  }
  const ScrubStats total = group_.total_scrub_stats();
  EXPECT_GE(total.stale_healed + total.corrupt_healed, 3u);
  EXPECT_NE(format_scrub_stats(total).find("stale-healed="),
            std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(
    AllEngines, ScrubTest,
    ::testing::Values(SchemeKind::kVoting, SchemeKind::kAvailableCopy,
                      SchemeKind::kNaiveAvailableCopy),
    [](const auto& param_info) {
      std::string name = scheme_kind_name(param_info.param);
      for (auto& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

/// Derive a payload whose first eight bytes come from `seed` (the rest
/// zero) — cheap to regenerate when the birthday search below finds a
/// CRC-32C collision.
storage::BlockData collision_payload(std::uint64_t seed) {
  storage::BlockData data(kBlockSize, std::byte{0});
  std::uint64_t x = seed * 0x9e3779b97f4a7c15ull + 0xbf58476d1ce4e5b9ull;
  for (std::size_t i = 0; i < 8; ++i) {
    data[i] = static_cast<std::byte>(x >> (8 * i));
  }
  return data;
}

TEST(ScrubCollisionTest, CollidingDigestsAreUndetectedButHarmless) {
  // Find two distinct payloads with equal CRC-32C by birthday search
  // (expected ~82k draws over a 32-bit digest).
  std::unordered_map<std::uint32_t, std::uint64_t> seen;
  std::optional<std::pair<std::uint64_t, std::uint64_t>> collision;
  for (std::uint64_t seed = 0; seed < (1u << 21); ++seed) {
    const auto digest = storage::scrub_digest(collision_payload(seed));
    auto [it, inserted] = seen.emplace(digest, seed);
    if (!inserted) {
      collision = {it->second, seed};
      break;
    }
  }
  ASSERT_TRUE(collision.has_value()) << "no CRC-32C collision in 2^21 draws";
  const storage::BlockData a = collision_payload(collision->first);
  const storage::BlockData b = collision_payload(collision->second);
  ASSERT_NE(a, b);
  ASSERT_EQ(storage::scrub_digest(a), storage::scrub_digest(b));

  // Same version, colliding digests: the exchange cannot tell the copies
  // apart. The required behavior is stability — no heal, no demotion, no
  // thrash — because the version mechanism still dominates: any later
  // foreground write replaces both copies.
  ReplicaGroup group(SchemeKind::kAvailableCopy,
                     GroupConfig::majority(kSites, kBlocks, kBlockSize));
  for (SiteId site = 1; site < kSites; ++site) {
    ASSERT_TRUE(group.store(site).write(6, b, 3).is_ok());
  }
  ASSERT_TRUE(group.store(0).write(6, a, 3).is_ok());

  auto report = group.scrub_site(0);
  ASSERT_TRUE(report.is_ok()) << report.status().to_string();
  EXPECT_EQ(report.value().stale_healed, 0u);
  EXPECT_EQ(report.value().corrupt_healed, 0u);
  EXPECT_EQ(group.scrub_stats(0).ambiguous_mismatches, 0u);
  EXPECT_EQ(group.store(0).read(6).value().data, a);

  // The escape hatch: a versioned write supersedes the colliding pair.
  ASSERT_TRUE(group.write(1, 6, payload(0x99)).is_ok());
  EXPECT_EQ(group.store(0).read(6).value().data, payload(0x99));
}

TEST(ScrubCursorResumeTest, KillAndRestartResumesMidCycle) {
  const test::TempDir dir("reldev_scrub_resume");
  {
    PersistentOptions persist;
    persist.directory = dir.path().string();
    ReplicaGroup group(SchemeKind::kAvailableCopy,
                       GroupConfig::majority(kSites, kBlocks, kBlockSize),
                       persist);
    ScrubOptions options;
    options.batch_blocks = 2;  // a cycle takes four steps
    group.set_scrub_options(options);

    ASSERT_TRUE(group.scrubber(0).step().is_ok());
    ASSERT_TRUE(group.scrubber(0).step().is_ok());
    EXPECT_EQ(group.scrubber(0).cursor(), 4u);

    group.kill_site(0);
    ASSERT_TRUE(group.restart_site(0).is_ok());
    // The rebuilt daemon loaded the persisted cursor: the next step scans
    // [4, 6), not the start of the device.
    EXPECT_EQ(group.scrubber(0).cursor(), 4u);
    auto report = group.scrubber(0).step();
    ASSERT_TRUE(report.is_ok()) << report.status().to_string();
    EXPECT_EQ(report.value().scanned, 2u);
    EXPECT_FALSE(report.value().cycle_completed);
    EXPECT_EQ(group.scrubber(0).cursor(), 6u);
  }
}

}  // namespace
}  // namespace reldev::core

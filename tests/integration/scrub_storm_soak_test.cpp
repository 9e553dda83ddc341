// Scrub-storm soak: for every engine (MCV / AC / NAC) and several seeds,
// run rounds of
//
//   foreground writes -> silent-rot + missed-update injection -> partial
//   scrub cycles under link faults -> hard-kill a site mid-cycle ->
//   restart (cursor must resume) -> heal the network -> bounded
//   anti-entropy convergence
//
// and assert after each round that the group converges within a fixed
// number of scrub cycles to sealed-identical replicas: every site holds
// byte-identical payloads at identical versions, and every block carries
// its last acknowledged payload. This is the storm-hardening contract of
// the scrub daemon: crashes, flapping links, and mid-cycle restarts may
// delay convergence, never prevent it.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "reldev/core/group.hpp"
#include "reldev/util/rng.hpp"
#include "support/temp_dir.hpp"

namespace reldev::core {
namespace {

constexpr std::size_t kSites = 3;
constexpr std::size_t kBlocks = 16;
constexpr std::size_t kBlockSize = 64;
constexpr int kRounds = 3;
constexpr int kWritesPerRound = 8;
// The K of the convergence contract: enough cycles for the worst-case
// post-storm peer backoff (a few cycles) to drain plus two clean rounds.
constexpr std::size_t kConvergenceRounds = 10;

storage::BlockData payload(std::uint8_t tag) {
  return storage::BlockData(kBlockSize, static_cast<std::byte>(tag));
}

class ScrubStormSoakTest
    : public ::testing::TestWithParam<std::tuple<SchemeKind, std::uint64_t>> {
 protected:
  ScrubStormSoakTest()
      : scheme_(std::get<0>(GetParam())), seed_(std::get<1>(GetParam())) {
    PersistentOptions persist;
    persist.directory = dir_.path().string();
    group_.emplace(scheme_, GroupConfig::majority(kSites, kBlocks, kBlockSize),
                   persist);
    ScrubOptions options;
    options.batch_blocks = 4;  // four steps per cycle: room for mid-cycle storms
    group_->set_scrub_options(options);
    acked_.assign(kBlocks, 0);
  }

  void tracked_write(Rng& rng) {
    const auto block = static_cast<BlockId>(rng.uniform_u64(0, kBlocks - 1));
    const auto tag = static_cast<std::uint8_t>(rng.uniform_u64(1, 0xDF));
    SiteId via = static_cast<SiteId>(rng.uniform_u64(0, kSites - 1));
    for (SiteId probe = 0; probe < kSites; ++probe) {
      const SiteId candidate = (via + probe) % kSites;
      if (group_->replica(candidate).state() == SiteState::kAvailable) {
        via = candidate;
        break;
      }
    }
    if (group_->write(via, block, payload(tag)).is_ok()) acked_[block] = tag;
  }

  /// Silent rot: same version, garbage bytes, one site only — invisible to
  /// the version mechanism, visible only to the digest exchange. Blocks
  /// already rotted this round keep their single bad copy so a digest
  /// majority always exists.
  void inject_rot(Rng& rng, std::vector<bool>& rotted) {
    for (int tries = 0; tries < 8; ++tries) {
      const auto block = static_cast<BlockId>(rng.uniform_u64(0, kBlocks - 1));
      if (rotted[block]) continue;
      const auto site = static_cast<SiteId>(rng.uniform_u64(0, kSites - 1));
      if (!group_->crash_points(site).has_inner()) continue;
      auto version = group_->store(site).version_of(block);
      if (!version.is_ok() || version.value() == 0) continue;
      ASSERT_TRUE(group_->store(site)
                      .write(block, payload(0xBD), version.value())
                      .is_ok());
      rotted[block] = true;
      return;
    }
  }

  /// One scrub step on every available site, ignoring per-site transient
  /// failures (a comatose replica, a faulted exchange): the storm phase
  /// cares that stepping never wedges, not that it heals.
  void step_all_available() {
    for (SiteId site = 0; site < kSites; ++site) {
      if (group_->replica(site).state() != SiteState::kAvailable) continue;
      (void)group_->scrubber(site).step();
    }
  }

  void settle() {
    for (int i = 0; i < 4; ++i) group_->retry_comatose();
    for (SiteId site = 0; site < kSites; ++site) {
      ASSERT_EQ(group_->replica(site).state(), SiteState::kAvailable)
          << "site " << site << " did not settle";
    }
  }

  /// Sealed-identical: per block, all sites agree on version AND bytes,
  /// and the bytes are the last acknowledged payload.
  void verify_sealed_identical(const std::string& context) {
    for (BlockId block = 0; block < kBlocks; ++block) {
      auto reference = group_->store(0).read(block);
      ASSERT_TRUE(reference.is_ok())
          << context << ": block " << block << " unreadable at site 0: "
          << reference.status().to_string();
      EXPECT_EQ(reference.value().data, payload(acked_[block]))
          << context << ": block " << block
          << " lost its acknowledged payload";
      for (SiteId site = 1; site < kSites; ++site) {
        auto copy = group_->store(site).read(block);
        ASSERT_TRUE(copy.is_ok())
            << context << ": block " << block << " unreadable at site "
            << site << ": " << copy.status().to_string();
        EXPECT_EQ(copy.value().version, reference.value().version)
            << context << ": version split on block " << block << " at site "
            << site;
        EXPECT_EQ(copy.value().data, reference.value().data)
            << context << ": byte split on block " << block << " at site "
            << site;
      }
    }
  }

  SchemeKind scheme_;
  std::uint64_t seed_;
  // Declared before group_, so the directory outlives the group.
  test::TempDir dir_{"reldev_scrubstorm"};
  std::optional<ReplicaGroup> group_;
  std::vector<std::uint8_t> acked_;
};

TEST_P(ScrubStormSoakTest, ConvergesWithinBoundedCyclesAfterStorms) {
  Rng rng(seed_);
  for (int round = 0; round < kRounds; ++round) {
    const std::string context = "round " + std::to_string(round);
    SCOPED_TRACE(context);

    // Foreground load everybody acknowledges.
    for (int i = 0; i < kWritesPerRound; ++i) tracked_write(rng);
    for (SiteId site = 0; site < kSites; ++site) {
      ASSERT_TRUE(group_->sync_site(site).is_ok());
    }

    // Latent damage: a couple of silently rotted records (one site per
    // block, so a digest majority exists) plus one missed update — two
    // sites advance a block behind the third's back.
    std::vector<bool> rotted(kBlocks, false);
    inject_rot(rng, rotted);
    inject_rot(rng, rotted);
    const auto stale_block =
        static_cast<BlockId>(rng.uniform_u64(0, kBlocks - 1));
    const auto stale_site =
        static_cast<SiteId>(rng.uniform_u64(0, kSites - 1));
    {
      auto version = group_->store(stale_site).version_of(stale_block);
      ASSERT_TRUE(version.is_ok());
      const auto tag = static_cast<std::uint8_t>(rng.uniform_u64(1, 0xDF));
      for (SiteId site = 0; site < kSites; ++site) {
        if (site == stale_site) continue;
        ASSERT_TRUE(group_->store(site)
                        .write(stale_block, payload(tag),
                               version.value() + 1)
                        .is_ok());
      }
      acked_[stale_block] = tag;
    }

    // Storm phase: scrub under flapping links, then a hard kill mid-cycle.
    const auto flap_from = static_cast<SiteId>(rng.uniform_u64(0, kSites - 1));
    const auto flap_to =
        static_cast<SiteId>((flap_from + 1 + rng.uniform_u64(0, kSites - 2)) %
                            kSites);
    net::FaultRule flap;
    flap.drop = 0.5;
    group_->faults().set_link_rule(flap_from, flap_to, flap);
    step_all_available();
    step_all_available();

    const auto victim = static_cast<SiteId>(rng.uniform_u64(0, kSites - 1));
    const std::uint64_t cursor_before = group_->scrubber(victim).cursor();
    group_->kill_site(victim);
    step_all_available();  // the survivors keep scrubbing through the storm
    // The restart happens while the link still flaps: its recovery round
    // may time out. That leaves the site alive-but-unrecovered, which the
    // post-heal recovery below must fix — only the reopen itself (local,
    // no network) is required to work here.
    const Status restarted = group_->restart_site(victim);
    (void)restarted;
    // The rebuilt daemon resumed from the persisted cursor — the kill did
    // not reset the cycle.
    EXPECT_EQ(group_->scrubber(victim).cursor(), cursor_before)
        << context << ": scrub cursor lost across kill/restart";

    // Heal and converge: within K full cycles the group must be sealed.
    group_->faults().heal();
    group_->transport().clear_partitions();
    if (group_->replica(victim).state() != SiteState::kAvailable) {
      (void)group_->recover_site(victim);
    }
    settle();
    auto rounds_used = group_->scrub_until_converged(kConvergenceRounds);
    ASSERT_TRUE(rounds_used.is_ok())
        << context << ": " << rounds_used.status().to_string();
    verify_sealed_identical(context);
  }

  // The storm actually exercised the heal paths: across the run the
  // daemons found and repaired real divergence.
  const ScrubStats total = group_->total_scrub_stats();
  EXPECT_GT(total.blocks_scanned, 0u);
  EXPECT_GT(total.stale_healed + total.corrupt_healed, 0u);
  EXPECT_GT(total.cycles_completed, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllEnginesFixedSeeds, ScrubStormSoakTest,
    ::testing::Combine(::testing::Values(SchemeKind::kVoting,
                                         SchemeKind::kAvailableCopy,
                                         SchemeKind::kNaiveAvailableCopy),
                       ::testing::Values(7u, 1987u)),
    [](const auto& param_info) {
      std::string name = scheme_kind_name(std::get<0>(param_info.param));
      for (auto& c : name) {
        if (c == '-') c = '_';
      }
      return name + "_seed" + std::to_string(std::get<1>(param_info.param));
    });

}  // namespace
}  // namespace reldev::core

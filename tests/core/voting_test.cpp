#include "reldev/core/voting_replica.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "reldev/core/group.hpp"
#include "reldev/net/inproc_transport.hpp"
#include "reldev/storage/mem_block_store.hpp"
#include "support/temp_dir.hpp"

namespace reldev::core {
namespace {

storage::BlockData payload(std::size_t size, std::uint8_t seed) {
  storage::BlockData data(size);
  for (std::size_t i = 0; i < size; ++i) {
    data[i] = static_cast<std::byte>((seed + i) & 0xff);
  }
  return data;
}

class VotingTest : public ::testing::Test {
 protected:
  VotingTest()
      : group_(SchemeKind::kVoting, GroupConfig::majority(5, 8, 64)) {}
  ReplicaGroup group_;
};

TEST_F(VotingTest, WriteThenReadThroughAnySite) {
  const auto data = payload(64, 1);
  ASSERT_TRUE(group_.write(0, 3, data).is_ok());
  for (SiteId site = 0; site < 5; ++site) {
    auto read = group_.read(site, 3);
    ASSERT_TRUE(read.is_ok()) << "site " << site;
    EXPECT_EQ(read.value(), data);
  }
}

TEST_F(VotingTest, WritePropagatesToQuorumSites) {
  ASSERT_TRUE(group_.write(0, 0, payload(64, 2)).is_ok());
  // All five sites were reachable, so all hold version 1.
  for (SiteId site = 0; site < 5; ++site) {
    EXPECT_EQ(group_.store(site).version_of(0).value(), 1u);
  }
}

TEST_F(VotingTest, VersionsIncrementPerWrite) {
  for (int i = 1; i <= 4; ++i) {
    ASSERT_TRUE(group_.write(0, 0, payload(64, static_cast<std::uint8_t>(i)))
                    .is_ok());
    EXPECT_EQ(group_.store(0).version_of(0).value(),
              static_cast<storage::VersionNumber>(i));
  }
}

TEST_F(VotingTest, MinorityCannotWrite) {
  group_.crash_site(0);
  group_.crash_site(1);
  group_.crash_site(2);
  const auto status = group_.write(3, 0, payload(64, 3));
  EXPECT_EQ(status.code(), reldev::ErrorCode::kUnavailable);
}

TEST_F(VotingTest, MinorityCannotRead) {
  group_.crash_site(0);
  group_.crash_site(1);
  group_.crash_site(2);
  EXPECT_EQ(group_.read(4, 0).status().code(),
            reldev::ErrorCode::kUnavailable);
}

TEST_F(VotingTest, BareMajorityServes) {
  group_.crash_site(3);
  group_.crash_site(4);
  const auto data = payload(64, 4);
  ASSERT_TRUE(group_.write(0, 2, data).is_ok());
  EXPECT_EQ(group_.read(1, 2).value(), data);
}

TEST_F(VotingTest, StaleSiteRefreshesOnRead) {
  // Site 4 misses a write, then the read through it must fetch the newer
  // version from the quorum (lazy per-block repair, Figure 3).
  group_.crash_site(4);
  const auto data = payload(64, 5);
  ASSERT_TRUE(group_.write(0, 1, data).is_ok());
  ASSERT_TRUE(group_.recover_site(4).is_ok());
  EXPECT_EQ(group_.store(4).version_of(1).value(), 0u);  // still stale
  auto read = group_.read(4, 1);
  ASSERT_TRUE(read.is_ok());
  EXPECT_EQ(read.value(), data);
  // The lazy repair wrote the block locally.
  EXPECT_EQ(group_.store(4).version_of(1).value(), 1u);
}

TEST_F(VotingTest, StaleSiteRepairedOnWriteBySideEffect) {
  group_.crash_site(4);
  ASSERT_TRUE(group_.write(0, 1, payload(64, 6)).is_ok());
  ASSERT_TRUE(group_.recover_site(4).is_ok());
  // A write through another site pushes the new version to all reachable
  // sites, including the stale one (Figure 4 repairs en passant).
  const auto data = payload(64, 7);
  ASSERT_TRUE(group_.write(0, 1, data).is_ok());
  EXPECT_EQ(group_.store(4).version_of(1).value(), 2u);
  EXPECT_EQ(group_.store(4).read(1).value().data, data);
}

TEST_F(VotingTest, RecoveryIsImmediateAndFree) {
  group_.crash_site(2);
  EXPECT_EQ(group_.replica(2).state(), SiteState::kFailed);
  group_.meter().reset();
  ASSERT_TRUE(group_.recover_site(2).is_ok());
  EXPECT_EQ(group_.replica(2).state(), SiteState::kAvailable);
  // §5: block-level voting incurs no traffic upon recovery.
  EXPECT_EQ(group_.meter().total(), 0u);
}

TEST_F(VotingTest, OnlyLatestVersionWinsAfterPartialWrites) {
  // Write v1 with all sites up, v2 with sites {0,1,2}; a read through a
  // stale site must return v2.
  const auto v1 = payload(64, 8);
  const auto v2 = payload(64, 9);
  ASSERT_TRUE(group_.write(0, 5, v1).is_ok());
  group_.crash_site(3);
  group_.crash_site(4);
  ASSERT_TRUE(group_.write(0, 5, v2).is_ok());
  ASSERT_TRUE(group_.recover_site(3).is_ok());
  ASSERT_TRUE(group_.recover_site(4).is_ok());
  EXPECT_EQ(group_.read(4, 5).value(), v2);
}

TEST_F(VotingTest, EarlyQuorumReadStillSeesNewestVersion) {
  // Reads stop gathering votes at the read quorum. Write v2 to quorum
  // {0,3,4} while {1,2} are down; a later read through site 1 assembles
  // its early quorum from the lowest site ids — {1,0,2}, which contains
  // stale site 2 — yet must still find and fetch v2, because every read
  // quorum intersects the write quorum that accepted v2.
  const auto v1 = payload(64, 10);
  const auto v2 = payload(64, 11);
  ASSERT_TRUE(group_.write(0, 2, v1).is_ok());
  group_.crash_site(1);
  group_.crash_site(2);
  ASSERT_TRUE(group_.write(0, 2, v2).is_ok());
  ASSERT_TRUE(group_.recover_site(1).is_ok());
  ASSERT_TRUE(group_.recover_site(2).is_ok());
  EXPECT_EQ(group_.read(1, 2).value(), v2);
  // The read-repair refreshed site 1's copy to v2 as well.
  EXPECT_EQ(group_.store(1).version_of(2).value(), 2u);
}

TEST_F(VotingTest, EvenGroupTieBreaks) {
  // Six sites; exactly the half containing the heavy site 0 is up.
  ReplicaGroup even(SchemeKind::kVoting, GroupConfig::majority(6, 4, 64));
  even.crash_site(3);
  even.crash_site(4);
  even.crash_site(5);
  EXPECT_TRUE(even.write(0, 0, payload(64, 1)).is_ok());
  // Now the half without the heavy site: no quorum.
  ReplicaGroup even2(SchemeKind::kVoting, GroupConfig::majority(6, 4, 64));
  even2.crash_site(0);
  even2.crash_site(1);
  even2.crash_site(2);
  EXPECT_EQ(even2.write(3, 0, payload(64, 1)).code(),
            reldev::ErrorCode::kUnavailable);
}

TEST_F(VotingTest, InvalidArgumentsRejected) {
  EXPECT_EQ(group_.write(0, 99, payload(64, 1)).code(),
            reldev::ErrorCode::kInvalidArgument);
  EXPECT_EQ(group_.write(0, 0, payload(63, 1)).code(),
            reldev::ErrorCode::kInvalidArgument);
  EXPECT_EQ(group_.read(0, 99).status().code(),
            reldev::ErrorCode::kInvalidArgument);
}

TEST_F(VotingTest, MulticastWriteTrafficMatchesPaper) {
  // §5.1 with every site up: a write costs 1 (vote query) + (n-1) replies
  // + 1 (block update broadcast) = n + 1 transmissions.
  group_.meter().reset();
  group_.meter().set_current_op(net::OpKind::kWrite);
  ASSERT_TRUE(group_.write(0, 0, payload(64, 1)).is_ok());
  EXPECT_EQ(group_.meter().count(net::OpKind::kWrite), 6u);
}

TEST_F(VotingTest, MulticastReadTrafficMatchesPaper) {
  // A read with the local copy current: 1 query + (n-1) replies = n.
  ASSERT_TRUE(group_.write(0, 0, payload(64, 1)).is_ok());
  group_.meter().reset();
  group_.meter().set_current_op(net::OpKind::kRead);
  ASSERT_TRUE(group_.read(0, 0).is_ok());
  EXPECT_EQ(group_.meter().count(net::OpKind::kRead), 5u);
}

TEST_F(VotingTest, RangeWriteReadRoundTrip) {
  const auto contents = payload(4 * 64, 11);
  ASSERT_TRUE(group_.write_range(0, 2, contents).is_ok());
  for (SiteId site = 0; site < 5; ++site) {
    EXPECT_EQ(group_.read_range(site, 2, 4).value(), contents) << "site "
                                                               << site;
  }
  // The batch landed block by block with per-block versions.
  for (SiteId site = 0; site < 5; ++site) {
    for (storage::BlockId b = 2; b < 6; ++b) {
      EXPECT_EQ(group_.store(site).version_of(b).value(), 1u);
    }
  }
}

TEST_F(VotingTest, RangeWriteCostsOneQuorumRound) {
  // Scalar loop: k writes at n + 1 = 6 transmissions each (§5.1).
  group_.meter().reset();
  for (storage::BlockId b = 0; b < 4; ++b) {
    ASSERT_TRUE(group_.write(0, b, payload(64, 1)).is_ok());
  }
  const auto scalar_cost = group_.meter().total();
  EXPECT_EQ(scalar_cost, 24u);
  // Vectored: ONE vote round (1 query + 4 replies) and ONE acked grouped
  // push (1 multicast + 4 acks) for the whole range.
  group_.meter().reset();
  ASSERT_TRUE(group_.write_range(0, 0, payload(4 * 64, 2)).is_ok());
  EXPECT_EQ(group_.meter().total(), 10u);
}

TEST_F(VotingTest, RangeReadCostsOneVoteRound) {
  ASSERT_TRUE(group_.write_range(0, 0, payload(4 * 64, 3)).is_ok());
  // Scalar loop: k current-copy reads at n transmissions each.
  group_.meter().reset();
  for (storage::BlockId b = 0; b < 4; ++b) {
    ASSERT_TRUE(group_.read(0, b).is_ok());
  }
  const auto scalar_cost = group_.meter().total();
  EXPECT_EQ(scalar_cost, 20u);
  // Vectored: one range vote round covers every block.
  group_.meter().reset();
  ASSERT_TRUE(group_.read_range(0, 0, 4).is_ok());
  EXPECT_EQ(group_.meter().total(), 5u);
}

TEST_F(VotingTest, RangeReadRepairsStaleSiteInOneFetch) {
  // Site 4 misses a range write, then serves a range read: every stale
  // block must be repaired via one grouped fetch and the read must return
  // current data.
  group_.transport().set_partition_group(4, 1);
  const auto contents = payload(3 * 64, 7);
  ASSERT_TRUE(group_.write_range(0, 0, contents).is_ok());
  group_.transport().clear_partitions();
  EXPECT_EQ(group_.read_range(4, 0, 3).value(), contents);
  for (storage::BlockId b = 0; b < 3; ++b) {
    EXPECT_EQ(group_.store(4).version_of(b).value(), 1u);
  }
}

TEST_F(VotingTest, RangeWriteWithoutQuorumMutatesNothing) {
  const auto before = payload(64, 3);
  ASSERT_TRUE(group_.write(0, 1, before).is_ok());
  group_.crash_site(2);
  group_.crash_site(3);
  group_.crash_site(4);  // sites {0, 1} hold 2 of 5 votes: no write quorum
  EXPECT_EQ(group_.write_range(0, 0, payload(4 * 64, 9)).code(),
            reldev::ErrorCode::kUnavailable);
  // Atomic-none: the quorum check precedes any local mutation, so not a
  // single block of the range was touched.
  EXPECT_EQ(group_.store(0).version_of(0).value(), 0u);
  EXPECT_EQ(group_.store(0).version_of(1).value(), 1u);
  EXPECT_EQ(group_.store(0).read(1).value().data, before);
}

TEST_F(VotingTest, RangeArgumentsValidated) {
  EXPECT_EQ(group_.write_range(0, 6, payload(3 * 64, 1)).code(),
            reldev::ErrorCode::kInvalidArgument);
  EXPECT_EQ(group_.write_range(0, 0, payload(63, 1)).code(),
            reldev::ErrorCode::kInvalidArgument);
  EXPECT_EQ(group_.read_range(0, 0, 0).status().code(),
            reldev::ErrorCode::kInvalidArgument);
  EXPECT_EQ(group_.read_range(0, 7, 2).status().code(),
            reldev::ErrorCode::kInvalidArgument);
}

/// Fault injection for the mid-batch window: forwards everything to the
/// inner in-process transport, but the moment a write-access range vote
/// round completes it fail-stops the victim sites — exactly between the
/// vote round and the grouped push.
class VoteThenCrashTransport final : public net::Transport {
 public:
  VoteThenCrashTransport(net::InProcTransport& inner,
                         std::vector<SiteId> victims)
      : inner_(inner), victims_(std::move(victims)) {}

  /// The next completed write-range vote round triggers the crash.
  void arm() { armed_ = true; }

  Result<net::Message> call(SiteId from, SiteId to,
                            const net::Message& request) override {
    return inner_.call(from, to, request);
  }
  Status send(SiteId from, SiteId to, const net::Message& message) override {
    return inner_.send(from, to, message);
  }
  Status multicast(SiteId from, const SiteSet& to,
                   const net::Message& message) override {
    return inner_.multicast(from, to, message);
  }
  std::vector<net::GatherReply> multicast_call(
      SiteId from, const SiteSet& to, const net::Message& request,
      const net::EarlyStop& early_stop) override {
    auto replies = inner_.multicast_call(from, to, request, early_stop);
    if (armed_ && request.holds<net::RangeVoteRequest>() &&
        request.as<net::RangeVoteRequest>().access == net::AccessKind::kWrite) {
      armed_ = false;
      for (const SiteId victim : victims_) inner_.set_up(victim, false);
    }
    return replies;
  }

 private:
  net::InProcTransport& inner_;
  std::vector<SiteId> victims_;
  bool armed_ = false;
};

/// Three voting sites on memory stores behind a VoteThenCrashTransport
/// whose victims are sites 1 and 2.
class VotingMidBatchFaultTest : public ::testing::Test {
 protected:
  VotingMidBatchFaultTest() {
    const auto config = GroupConfig::majority(3, 8, 64);
    for (SiteId site = 0; site < 3; ++site) {
      stores_.push_back(std::make_unique<storage::MemBlockStore>(8, 64));
      replicas_.push_back(std::make_unique<VotingReplica>(
          site, config, *stores_.back(), transport_));
      inner_.bind(site, replicas_.back().get());
    }
  }

  net::InProcTransport inner_;
  VoteThenCrashTransport transport_{inner_, {1, 2}};
  std::vector<std::unique_ptr<storage::MemBlockStore>> stores_;
  std::vector<std::unique_ptr<VotingReplica>> replicas_;
};

TEST_F(VotingMidBatchFaultTest, CrashBetweenVoteAndPushFailsCleanly) {
  // Both peers die after granting the write-range quorum but before the
  // grouped push arrives. The batch write must report kUnavailable (the
  // push reached no quorum), and once the peers return, readers must see a
  // consistent range — every block old or every block new, never a torn
  // mix.
  const auto old_data = payload(4 * 64, 1);
  ASSERT_TRUE(replicas_[0]->write_range(0, old_data).is_ok());
  const auto new_data = payload(4 * 64, 2);
  transport_.arm();
  EXPECT_EQ(replicas_[0]->write_range(0, new_data).code(),
            reldev::ErrorCode::kUnavailable);

  // The peers come back; a range read through any site must return one
  // consistent generation for the whole range.
  inner_.set_up(1, true);
  inner_.set_up(2, true);
  for (SiteId site = 0; site < 3; ++site) {
    auto read = replicas_[site]->read_range(0, 4);
    ASSERT_TRUE(read.is_ok()) << "site " << site;
    EXPECT_TRUE(read.value() == old_data || read.value() == new_data)
        << "torn range visible through site " << site;
  }
  // And all sites converge on the same generation.
  EXPECT_EQ(replicas_[0]->read_range(0, 4).value(),
            replicas_[1]->read_range(0, 4).value());
}

TEST_F(VotingMidBatchFaultTest, SingleBlockClientWriteNeedsAnAckedQuorum) {
  // A client's one-block write is a range of one, so it runs the range
  // write's acknowledged push: losing both peers between the vote and the
  // push reports kUnavailable instead of acking a write only the
  // coordinator holds. Checked on both client paths.
  ASSERT_TRUE(replicas_[0]->write(0, payload(64, 1)).is_ok());
  constexpr auto kUnavailable =
      static_cast<std::uint8_t>(reldev::ErrorCode::kUnavailable);

  // Through the server's request handler (every TCP client).
  transport_.arm();
  const auto reply = replicas_[0]->handle(
      net::Message{100, net::MultiBlockWriteRequest{0, payload(64, 2)}});
  ASSERT_TRUE(reply.holds<net::MultiBlockWriteAck>()) << reply.name();
  EXPECT_EQ(reply.as<net::MultiBlockWriteAck>().error_code, kUnavailable);

  // Through the BlockDevice adapter.
  inner_.set_up(1, true);
  inner_.set_up(2, true);
  transport_.arm();
  ReplicaDevice device(*replicas_[0]);
  EXPECT_EQ(device.write_block(0, payload(64, 3)).code(),
            reldev::ErrorCode::kUnavailable);
}

TEST(VotingUnappliedPushTest, PushTheStoreRefusedLosesTheWriteQuorum) {
  // Three voting sites on file stores; site 2 is down, so the write quorum
  // (2 of 3) needs site 1's ack. Site 1's store dies as the push reaches
  // it: the write must not be acknowledged, or losing site 0 afterwards
  // would lose an acknowledged write.
  const test::TempDir dir("reldev_unapplied_push");
  PersistentOptions persist;
  persist.directory = dir.path().string();
  ReplicaGroup group(SchemeKind::kVoting, GroupConfig::majority(3, 8, 64),
                     persist);
  const auto first = payload(64, 1);
  const auto second = payload(64, 2);
  ASSERT_TRUE(group.write_range(0, 0, first).is_ok());
  group.crash_site(2);
  group.crash_points(1).arm({storage::CrashPoint::kBeforeBlockWrite, 0});
  EXPECT_EQ(group.write_range(0, 0, second).code(),
            reldev::ErrorCode::kUnavailable);
  ASSERT_TRUE(group.crash_points(1).crashed());

  // Site 1 restarts on its store, site 0 fails and site 2 returns: the
  // quorum {1, 2} never held the refused write and serves the old bytes.
  group.kill_site(1);
  ASSERT_TRUE(group.restart_site(1).is_ok());
  group.crash_site(0);
  ASSERT_TRUE(group.recover_site(2).is_ok());
  auto read = group.read(1, 0);
  ASSERT_TRUE(read.is_ok()) << read.status().to_string();
  EXPECT_EQ(read.value(), first);
}

TEST_F(VotingTest, PartitionedMinoritiesStayConsistent) {
  // Voting's selling point: under a partition, at most one side can form
  // a quorum, so no split-brain writes occur.
  const auto before = payload(64, 1);
  ASSERT_TRUE(group_.write(0, 0, before).is_ok());
  group_.transport().set_partition_group(0, 1);
  group_.transport().set_partition_group(1, 1);
  // Partition {0,1} vs {2,3,4}: only the majority side can write.
  EXPECT_EQ(group_.write(0, 0, payload(64, 2)).code(),
            reldev::ErrorCode::kUnavailable);
  ASSERT_TRUE(group_.write(2, 0, payload(64, 3)).is_ok());
  group_.transport().clear_partitions();
  EXPECT_EQ(group_.read(0, 0).value(), payload(64, 3));
}

}  // namespace
}  // namespace reldev::core

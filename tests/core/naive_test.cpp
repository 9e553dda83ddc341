#include "reldev/core/available_copy_replica.hpp"

#include <gtest/gtest.h>

#include "reldev/core/group.hpp"
#include "reldev/net/inproc_transport.hpp"
#include "reldev/storage/site_metadata.hpp"
#include "support/temp_dir.hpp"

namespace reldev::core {
namespace {

storage::BlockData payload(std::size_t size, std::uint8_t seed) {
  storage::BlockData data(size);
  for (std::size_t i = 0; i < size; ++i) {
    data[i] = static_cast<std::byte>((seed * 11 + i) & 0xff);
  }
  return data;
}

class NaiveTest : public ::testing::Test {
 protected:
  NaiveTest()
      : group_(SchemeKind::kNaiveAvailableCopy,
               GroupConfig::majority(3, 8, 64)) {}
  ReplicaGroup group_;
};

TEST_F(NaiveTest, WriteReachesAllAvailableCopies) {
  const auto data = payload(64, 1);
  ASSERT_TRUE(group_.write(1, 2, data).is_ok());
  for (SiteId site = 0; site < 3; ++site) {
    EXPECT_EQ(group_.store(site).read(2).value().data, data);
  }
}

TEST_F(NaiveTest, WriteCostsExactlyOneTransmission) {
  // §5.1: the naive scheme's whole advantage — one multicast, no acks.
  group_.meter().reset();
  group_.meter().set_current_op(net::OpKind::kWrite);
  ASSERT_TRUE(group_.write(0, 0, payload(64, 2)).is_ok());
  EXPECT_EQ(group_.meter().count(net::OpKind::kWrite), 1u);
}

TEST_F(NaiveTest, WriteCostsNMinusOneUnderUniqueAddressing) {
  ReplicaGroup unique(SchemeKind::kNaiveAvailableCopy,
                      GroupConfig::majority(4, 4, 64),
                      net::AddressingMode::kUnique);
  unique.meter().reset();
  unique.meter().set_current_op(net::OpKind::kWrite);
  ASSERT_TRUE(unique.write(0, 0, payload(64, 1)).is_ok());
  EXPECT_EQ(unique.meter().count(net::OpKind::kWrite), 3u);
}

TEST_F(NaiveTest, ReadIsLocalAndFree) {
  ASSERT_TRUE(group_.write(0, 1, payload(64, 3)).is_ok());
  group_.meter().reset();
  ASSERT_TRUE(group_.read(2, 1).is_ok());
  EXPECT_EQ(group_.meter().total(), 0u);
}

TEST_F(NaiveTest, SurvivesAllButOneFailure) {
  group_.crash_site(1);
  group_.crash_site(2);
  const auto data = payload(64, 4);
  ASSERT_TRUE(group_.write(0, 4, data).is_ok());
  EXPECT_EQ(group_.read(0, 4).value(), data);
}

TEST_F(NaiveTest, RepairFromAvailableSite) {
  group_.crash_site(2);
  const auto data = payload(64, 5);
  ASSERT_TRUE(group_.write(0, 3, data).is_ok());
  ASSERT_TRUE(group_.recover_site(2).is_ok());
  EXPECT_EQ(group_.replica(2).state(), SiteState::kAvailable);
  EXPECT_EQ(group_.store(2).read(3).value().data, data);
}

TEST_F(NaiveTest, TotalFailureWaitsForEverySite) {
  // Fail in order 2, 1, 0 — even though 0 failed last and could (under
  // conventional AC) restore service alone, the naive scheme must wait
  // for all three sites (§3.3, Figure 6).
  group_.crash_site(2);
  ASSERT_TRUE(group_.write(0, 0, payload(64, 6)).is_ok());
  group_.crash_site(1);
  const auto final_data = payload(64, 7);
  ASSERT_TRUE(group_.write(0, 1, final_data).is_ok());
  group_.crash_site(0);

  // Even the last-failed site cannot recover alone.
  group_.transport().set_up(0, true);
  EXPECT_EQ(group_.replica(0).recover().code(),
            reldev::ErrorCode::kUnavailable);
  EXPECT_EQ(group_.replica(0).state(), SiteState::kComatose);
  EXPECT_FALSE(group_.group_available());

  group_.transport().set_up(1, true);
  EXPECT_EQ(group_.replica(1).recover().code(),
            reldev::ErrorCode::kUnavailable);

  // The third site completes the set; everyone recovers to the highest
  // version.
  ASSERT_TRUE(group_.recover_site(2).is_ok());
  group_.retry_comatose();
  for (SiteId site = 0; site < 3; ++site) {
    ASSERT_EQ(group_.replica(site).state(), SiteState::kAvailable);
    EXPECT_EQ(group_.read(site, 1).value(), final_data);
  }
}

TEST_F(NaiveTest, HighestVersionWinsAfterTotalFailure) {
  // Site 0 holds the most writes when everything goes down; whatever the
  // recovery order, its state must win.
  group_.crash_site(1);
  group_.crash_site(2);
  const auto data = payload(64, 8);
  ASSERT_TRUE(group_.write(0, 5, data).is_ok());
  ASSERT_TRUE(group_.write(0, 6, data).is_ok());
  group_.crash_site(0);

  group_.transport().set_up(1, true);
  (void)group_.replica(1).recover();
  group_.transport().set_up(2, true);
  (void)group_.replica(2).recover();
  ASSERT_TRUE(group_.recover_site(0).is_ok());
  group_.retry_comatose();

  for (SiteId site = 0; site < 3; ++site) {
    EXPECT_EQ(group_.read(site, 5).value(), data) << "site " << site;
    EXPECT_EQ(group_.read(site, 6).value(), data) << "site " << site;
  }
}

TEST_F(NaiveTest, ComatoseCopyIgnoresWritePushes) {
  group_.crash_site(0);
  group_.crash_site(1);
  group_.crash_site(2);
  group_.transport().set_up(2, true);
  (void)group_.replica(2).recover();  // stays comatose (waiting for all)
  ASSERT_EQ(group_.replica(2).state(), SiteState::kComatose);
  // No available coordinator exists, so no write can even start; verify
  // the defensive path directly: a push delivered to a comatose site is
  // dropped, and the call form (a push over TCP) is refused, not acked.
  const net::Message push{
      0, net::BatchWriteRequest{{net::BlockUpdate{0, 99, payload(64, 9)}},
                                {}}};
  group_.replica(2).handle_oneway(push);
  EXPECT_EQ(group_.store(2).version_of(0).value(), 0u);
  const auto reply = group_.replica(2).handle(push);
  ASSERT_TRUE(reply.holds<net::ErrorReply>()) << reply.name();
  EXPECT_EQ(reply.as<net::ErrorReply>().error_code,
            static_cast<std::uint8_t>(reldev::ErrorCode::kUnavailable));
  EXPECT_EQ(group_.store(2).version_of(0).value(), 0u);
}

TEST_F(NaiveTest, StalePushIsIgnored) {
  ASSERT_TRUE(group_.write(0, 0, payload(64, 1)).is_ok());
  ASSERT_TRUE(group_.write(0, 0, payload(64, 2)).is_ok());
  // A delayed duplicate of the first push must not regress the block.
  group_.replica(1).handle_oneway(net::Message{
      0, net::BatchWriteRequest{{net::BlockUpdate{0, 1, payload(64, 1)}},
                                {}}});
  EXPECT_EQ(group_.store(1).version_of(0).value(), 2u);
  EXPECT_EQ(group_.store(1).read(0).value().data, payload(64, 2));
}

/// Whether a site's metadata blob is free of a was-available set: the
/// naive scheme keeps W fixed to every site and never persists it.
bool persists_no_was_available(storage::BlockStore& store) {
  auto blob = store.get_metadata();
  if (!blob.is_ok()) return false;
  if (blob.value().empty()) return true;
  auto meta = storage::SiteMetadata::decode(blob.value());
  return meta.is_ok() && !meta.value().was_available.has_value();
}

TEST(NaiveFoldTest, CoordinatorDyingAfterItsPushConverges) {
  // The push goes out before the coordinator's own store write, so a
  // coordinator whose write dies has never been ahead of the group: after
  // its restart every store holds the same version and bytes.
  const test::TempDir dir("reldev_naive_fold");
  PersistentOptions persist;
  persist.directory = dir.path().string();
  ReplicaGroup group(SchemeKind::kNaiveAvailableCopy,
                     GroupConfig::majority(3, 8, 64), persist);
  ASSERT_TRUE(group.write(0, 0, payload(64, 1)).is_ok());
  group.crash_points(0).arm({storage::CrashPoint::kMidBlockWrite, 0});
  EXPECT_FALSE(group.write(0, 0, payload(64, 2)).is_ok());
  ASSERT_TRUE(group.crash_points(0).crashed());

  group.kill_site(0);
  ASSERT_TRUE(group.restart_site(0).is_ok());
  const auto expected = group.store(1).read(0);
  ASSERT_TRUE(expected.is_ok());
  // The push reached the peers before the coordinator's write died.
  EXPECT_EQ(expected.value().version, 2u);
  EXPECT_EQ(expected.value().data, payload(64, 2));
  for (SiteId site = 0; site < 3; ++site) {
    const auto stored = group.store(site).read(0);
    ASSERT_TRUE(stored.is_ok()) << "site " << site;
    EXPECT_EQ(stored.value().version, expected.value().version)
        << "site " << site;
    EXPECT_EQ(stored.value().data, expected.value().data) << "site " << site;
    const auto read = group.read(site, 0);
    ASSERT_TRUE(read.is_ok()) << "site " << site;
    EXPECT_EQ(read.value(), expected.value().data) << "site " << site;
  }
}

TEST_F(NaiveTest, NoWasAvailableSetIsPersisted) {
  group_.crash_site(2);
  ASSERT_TRUE(group_.write(0, 0, payload(64, 1)).is_ok());
  ASSERT_TRUE(group_.write(1, 1, payload(64, 2)).is_ok());
  for (SiteId site = 0; site < 3; ++site) {
    EXPECT_TRUE(persists_no_was_available(group_.store(site)))
        << "site " << site;
  }
  ASSERT_TRUE(group_.recover_site(2).is_ok());
  for (SiteId site = 0; site < 3; ++site) {
    EXPECT_TRUE(persists_no_was_available(group_.store(site)))
        << "site " << site;
  }
}

// Pinned recovery costs (validate_traffic's NAC "recovery (sim)" column
// rests on them): NAC recovery never pays AC's was-available notification.
TEST_F(NaiveTest, RecoveryFromAnAvailableSiteCost) {
  // One state inquiry and its two replies, then one repair round trip; no
  // was-available notification (AC's Figure 5 sends one, NAC has no W).
  group_.crash_site(2);
  ASSERT_TRUE(group_.write(0, 0, payload(64, 1)).is_ok());
  group_.meter().reset();
  group_.meter().set_current_op(net::OpKind::kRecovery);
  ASSERT_TRUE(group_.recover_site(2).is_ok());
  EXPECT_EQ(group_.meter().count(net::OpKind::kRecovery), 5u);
  EXPECT_EQ(group_.meter().total(), 5u);
}

TEST_F(NaiveTest, RecoveryAfterTotalFailureCost) {
  // Every site inquires as it comes back; only the last one finds the
  // whole group recovered, and the comatose ones retry.
  group_.crash_site(2);
  ASSERT_TRUE(group_.write(0, 0, payload(64, 1)).is_ok());
  group_.crash_site(1);
  ASSERT_TRUE(group_.write(0, 1, payload(64, 2)).is_ok());
  group_.crash_site(0);
  group_.meter().reset();
  group_.meter().set_current_op(net::OpKind::kRecovery);
  EXPECT_EQ(group_.recover_site(1).code(), reldev::ErrorCode::kUnavailable);
  EXPECT_EQ(group_.recover_site(2).code(), reldev::ErrorCode::kUnavailable);
  ASSERT_TRUE(group_.recover_site(0).is_ok());
  for (SiteId site = 0; site < 3; ++site) {
    ASSERT_EQ(group_.replica(site).state(), SiteState::kAvailable);
  }
  EXPECT_EQ(group_.meter().count(net::OpKind::kRecovery), 21u);
  EXPECT_EQ(group_.meter().total(), 21u);
}

TEST(NaiveFoldTest, AvailableCopyWithAFixedSetIsRejected) {
  // A fixed W-set has one spelling: the naive scheme.
  net::InProcTransport transport;
  SiteOptions options;
  options.scheme = SchemeKind::kAvailableCopy;
  options.policy = WasAvailablePolicy::kFixed;
  auto site = Site::open(0, GroupConfig::majority(3, 8, 64), transport,
                         options);
  ASSERT_FALSE(site.is_ok());
  EXPECT_EQ(site.status().code(), reldev::ErrorCode::kInvalidArgument);

  options.scheme = SchemeKind::kNaiveAvailableCopy;
  site = Site::open(0, GroupConfig::majority(3, 8, 64), transport, options);
  ASSERT_TRUE(site.is_ok()) << site.status().to_string();
  EXPECT_STREQ(site.value()->replica().scheme_name(), "naive-available-copy");
}

}  // namespace
}  // namespace reldev::core

// Edge cases of the replica machinery shared by all schemes: unexpected
// messages get error replies, failed replicas answer nothing, client
// messages are dispatched by the base class, and repair replies apply
// correctly in corner cases.
#include <gtest/gtest.h>

#include "reldev/core/group.hpp"

namespace reldev::core {
namespace {

storage::BlockData payload(std::size_t size, std::uint8_t seed) {
  return storage::BlockData(size, static_cast<std::byte>(seed));
}

class ReplicaEdgeTest : public ::testing::TestWithParam<SchemeKind> {
 protected:
  ReplicaEdgeTest() : group_(GetParam(), GroupConfig::majority(3, 4, 64)) {}
  ReplicaGroup group_;
};

TEST_P(ReplicaEdgeTest, UnexpectedPeerRequestGetsErrorReply) {
  // A RangeVoteRequest is only meaningful under voting, and a
  // WasAvailableUpdate only under available-copy; the wrong one must yield
  // a protocol error, never a crash. (Fetch requests are deliberately absent here: the scrub
  // path serves them scheme-independently.)
  net::Message request =
      GetParam() == SchemeKind::kVoting
          ? net::Message{1, net::WasAvailableUpdate{{}, false}}
          : net::Message{
                1, net::RangeVoteRequest{net::AccessKind::kRead, 0, 1}};
  const auto reply = group_.replica(0).handle(request);
  ASSERT_TRUE(reply.holds<net::ErrorReply>());
  EXPECT_EQ(reply.as<net::ErrorReply>().error_code,
            static_cast<std::uint8_t>(reldev::ErrorCode::kProtocol));
}

TEST_P(ReplicaEdgeTest, FailedReplicaRefusesEverything) {
  group_.replica(0).crash();
  const auto reply =
      group_.replica(0).handle(net::Message{1, net::StateInquiry{}});
  ASSERT_TRUE(reply.holds<net::ErrorReply>());
  EXPECT_EQ(reply.as<net::ErrorReply>().error_code,
            static_cast<std::uint8_t>(reldev::ErrorCode::kUnavailable));
  // One-way messages are dropped silently.
  group_.replica(0).handle_oneway(
      net::Message{1, net::BatchWriteRequest{
                          {net::BlockUpdate{0, 5, payload(64, 1)}}, {}}});
  // (state unchanged: still failed, no data applied)
  EXPECT_EQ(group_.replica(0).state(), SiteState::kFailed);
  EXPECT_EQ(group_.store(0).version_of(0).value(), 0u);
}

TEST_P(ReplicaEdgeTest, ClientMessagesDispatchThroughHandle) {
  ASSERT_TRUE(group_.write(0, 1, payload(64, 9)).is_ok());
  const auto read_reply = group_.replica(0).handle(
      net::Message{100, net::ClientReadRequest{1}});
  ASSERT_TRUE(read_reply.holds<net::ClientReadReply>());
  EXPECT_EQ(read_reply.as<net::ClientReadReply>().error_code, 0);
  EXPECT_EQ(read_reply.as<net::ClientReadReply>().data, payload(64, 9));

  const auto write_reply = group_.replica(0).handle(
      net::Message{100, net::ClientWriteRequest{2, payload(64, 3)}});
  ASSERT_TRUE(write_reply.holds<net::ClientWriteReply>());
  EXPECT_EQ(write_reply.as<net::ClientWriteReply>().error_code, 0);

  const auto info_reply = group_.replica(0).handle(
      net::Message{100, net::DeviceInfoRequest{}});
  ASSERT_TRUE(info_reply.holds<net::DeviceInfoReply>());
  EXPECT_EQ(info_reply.as<net::DeviceInfoReply>().block_count, 4u);
  EXPECT_EQ(info_reply.as<net::DeviceInfoReply>().block_size, 64u);
}

TEST_P(ReplicaEdgeTest, ClientErrorsSurfaceInReplyCodes) {
  const auto reply = group_.replica(0).handle(
      net::Message{100, net::ClientReadRequest{999}});
  ASSERT_TRUE(reply.holds<net::ClientReadReply>());
  EXPECT_EQ(reply.as<net::ClientReadReply>().error_code,
            static_cast<std::uint8_t>(reldev::ErrorCode::kInvalidArgument));
}

TEST_P(ReplicaEdgeTest, SchemeNameIsStable) {
  EXPECT_STREQ(group_.replica(0).scheme_name(),
               scheme_kind_name(GetParam()));
}

TEST_P(ReplicaEdgeTest, ConfigMismatchIsContractViolation) {
  storage::MemBlockStore wrong_geometry(8, 32);
  net::InProcTransport transport;
  EXPECT_THROW(VotingReplica(0, GroupConfig::majority(3, 4, 64),
                             wrong_geometry, transport),
               reldev::ContractViolation);
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, ReplicaEdgeTest,
                         ::testing::Values(SchemeKind::kVoting,
                                           SchemeKind::kAvailableCopy,
                                           SchemeKind::kNaiveAvailableCopy));

TEST(RepairReplyTest, OnlyNewerBlocksShipAndApply) {
  ReplicaGroup group(SchemeKind::kAvailableCopy,
                     GroupConfig::majority(2, 4, 64));
  // Site 0 writes blocks 0 and 1 while site 1 is up: both current.
  ASSERT_TRUE(group.write(0, 0, payload(64, 1)).is_ok());
  ASSERT_TRUE(group.write(0, 1, payload(64, 2)).is_ok());
  // Site 1 misses an update to block 1 only.
  group.crash_site(1);
  ASSERT_TRUE(group.write(0, 1, payload(64, 3)).is_ok());

  // Ask site 0 for a repair against site 1's (stale) vector directly.
  const auto reply = group.replica(0).handle(net::Message{
      1, net::RepairRequest{group.store(1).version_vector()}});
  ASSERT_TRUE(reply.holds<net::RepairReply>());
  const auto& repair = reply.as<net::RepairReply>();
  ASSERT_EQ(repair.blocks.size(), 1u);  // only the stale block ships
  EXPECT_EQ(repair.blocks[0].block, 1u);
  EXPECT_EQ(repair.blocks[0].data, payload(64, 3));
}

TEST(RepairReplyTest, EqualVectorsShipNothing) {
  ReplicaGroup group(SchemeKind::kNaiveAvailableCopy,
                     GroupConfig::majority(2, 4, 64));
  ASSERT_TRUE(group.write(0, 0, payload(64, 5)).is_ok());
  const auto reply = group.replica(0).handle(net::Message{
      1, net::RepairRequest{group.store(1).version_vector()}});
  ASSERT_TRUE(reply.holds<net::RepairReply>());
  EXPECT_TRUE(reply.as<net::RepairReply>().blocks.empty());
}

}  // namespace
}  // namespace reldev::core

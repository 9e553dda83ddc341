#include "reldev/core/driver_stub.hpp"

#include <gtest/gtest.h>

#include <chrono>

#include "reldev/core/group.hpp"
#include "reldev/net/fault_transport.hpp"

namespace reldev::core {
namespace {

constexpr SiteId kClientId = 100;

storage::BlockData payload(std::size_t size, std::uint8_t seed) {
  return storage::BlockData(size, static_cast<std::byte>(seed));
}

class DriverStubTest : public ::testing::Test {
 protected:
  DriverStubTest()
      : group_(SchemeKind::kAvailableCopy, GroupConfig::majority(3, 8, 64)) {}
  ReplicaGroup group_;
};

TEST_F(DriverStubTest, ConnectDiscoversGeometry) {
  auto stub = DriverStub::connect(group_.transport(), kClientId, {0, 1, 2});
  ASSERT_TRUE(stub.is_ok());
  EXPECT_EQ(stub.value().block_count(), 8u);
  EXPECT_EQ(stub.value().block_size(), 64u);
}

TEST_F(DriverStubTest, ConnectFailsWhenAllServersDown) {
  group_.crash_site(0);
  group_.crash_site(1);
  group_.crash_site(2);
  auto stub = DriverStub::connect(group_.transport(), kClientId, {0, 1, 2});
  EXPECT_EQ(stub.status().code(), reldev::ErrorCode::kUnavailable);
}

TEST_F(DriverStubTest, ReadWriteRoundTrip) {
  auto stub =
      DriverStub::connect(group_.transport(), kClientId, {0, 1, 2}).value();
  const auto data = payload(64, 3);
  ASSERT_TRUE(stub.write_block(2, data).is_ok());
  EXPECT_EQ(stub.read_block(2).value(), data);
  EXPECT_EQ(stub.last_server(), 0u);
}

TEST_F(DriverStubTest, FailsOverToNextServer) {
  auto stub =
      DriverStub::connect(group_.transport(), kClientId, {0, 1, 2}).value();
  const auto data = payload(64, 4);
  ASSERT_TRUE(stub.write_block(1, data).is_ok());
  group_.crash_site(0);
  EXPECT_EQ(stub.read_block(1).value(), data);
  EXPECT_EQ(stub.last_server(), 1u);  // the stub moved on
}

TEST_F(DriverStubTest, FailsOverPastComatoseServer) {
  auto stub =
      DriverStub::connect(group_.transport(), kClientId, {0, 1, 2}).value();
  // Make site 0 comatose: total failure, then bring 0 back while the
  // closure is still incomplete.
  group_.crash_site(1);
  group_.crash_site(2);
  const auto data = payload(64, 5);
  ASSERT_TRUE(stub.write_block(3, data).is_ok());  // via site 0; W_0 = {0}
  group_.crash_site(0);
  // Bring back 1: it cannot recover (0 failed last) — stays comatose.
  group_.transport().set_up(1, true);
  (void)group_.replica(1).recover();
  ASSERT_EQ(group_.replica(1).state(), SiteState::kComatose);
  // 0 returns and recovers alone; a client pointed first at the comatose
  // site must skip it and reach an available one.
  ASSERT_TRUE(group_.recover_site(0).is_ok());
  DriverStub stub2(group_.transport(), kClientId, {1, 0}, 8, 64);
  EXPECT_EQ(stub2.read_block(3).value(), data);
}

TEST_F(DriverStubTest, ReportsUnavailableWhenNoCopyServes) {
  auto stub =
      DriverStub::connect(group_.transport(), kClientId, {0, 1, 2}).value();
  group_.crash_site(0);
  group_.crash_site(1);
  group_.crash_site(2);
  EXPECT_EQ(stub.read_block(0).status().code(),
            reldev::ErrorCode::kUnavailable);
  EXPECT_EQ(stub.write_block(0, payload(64, 1)).code(),
            reldev::ErrorCode::kUnavailable);
}

TEST_F(DriverStubTest, WrongPayloadSizeRejectedClientSide) {
  auto stub =
      DriverStub::connect(group_.transport(), kClientId, {0}).value();
  EXPECT_EQ(stub.write_block(0, payload(63, 1)).code(),
            reldev::ErrorCode::kInvalidArgument);
}

// Answers every client read with a 10-byte payload and kOk — a server
// speaking the protocol wrongly.
class ShortReadTransport final : public net::Transport {
 public:
  using net::Transport::multicast_call;

  Result<net::Message> call(SiteId, SiteId to, const net::Message&) override {
    return net::Message{to, net::ClientReadReply{0, payload(10, 1)}};
  }
  Status send(SiteId, SiteId, const net::Message&) override {
    return Status::ok();
  }
  Status multicast(SiteId, const net::SiteSet&, const net::Message&) override {
    return Status::ok();
  }
  std::vector<net::GatherReply> multicast_call(
      SiteId, const net::SiteSet&, const net::Message&,
      const net::EarlyStop&) override {
    return {};
  }
};

TEST(DriverStubReplyTest, ShortReadReplyIsAProtocolError) {
  ShortReadTransport transport;
  DriverStub stub(transport, kClientId, {0}, 8, 64);
  EXPECT_EQ(stub.read_block(0).status().code(), reldev::ErrorCode::kProtocol);
}

TEST_F(DriverStubTest, ServerSideErrorsPropagate) {
  auto stub =
      DriverStub::connect(group_.transport(), kClientId, {0}).value();
  EXPECT_EQ(stub.read_block(999).status().code(),
            reldev::ErrorCode::kInvalidArgument);
}

TEST_F(DriverStubTest, StaysStickyAfterFailover) {
  auto stub =
      DriverStub::connect(group_.transport(), kClientId, {0, 1, 2}).value();
  const auto data = payload(64, 8);
  ASSERT_TRUE(stub.write_block(1, data).is_ok());
  group_.crash_site(0);
  ASSERT_TRUE(stub.read_block(1).is_ok());
  ASSERT_EQ(stub.last_server(), 1u);
  // Direct-hit cost: the stub is already pointed at site 1.
  group_.meter().reset();
  ASSERT_TRUE(stub.read_block(1).is_ok());
  const auto direct_cost = group_.meter().total();
  // Site 0 comes back, but the stub must keep talking to site 1 instead of
  // probing the front of the list again on every call.
  ASSERT_TRUE(group_.recover_site(0).is_ok());
  group_.meter().reset();
  ASSERT_TRUE(stub.read_block(1).is_ok());
  EXPECT_EQ(stub.last_server(), 1u);
  EXPECT_EQ(group_.meter().total(), direct_cost);  // no dead-head probe
}

TEST_F(DriverStubTest, VectoredReadWriteRoundTrip) {
  auto stub =
      DriverStub::connect(group_.transport(), kClientId, {0, 1, 2}).value();
  storage::BlockData contents(3 * 64);
  for (std::size_t i = 0; i < contents.size(); ++i) {
    contents[i] = static_cast<std::byte>(i & 0xff);
  }
  ASSERT_TRUE(stub.write_blocks(2, contents).is_ok());
  EXPECT_EQ(stub.read_blocks(2, 3).value(), contents);
  // The batch really landed block by block.
  EXPECT_EQ(stub.read_block(3).value(),
            storage::BlockData(contents.begin() + 64,
                               contents.begin() + 128));
}

TEST_F(DriverStubTest, VectoredRangeValidatedClientSide) {
  auto stub =
      DriverStub::connect(group_.transport(), kClientId, {0, 1, 2}).value();
  EXPECT_EQ(stub.read_blocks(7, 2).status().code(),
            reldev::ErrorCode::kInvalidArgument);
  EXPECT_EQ(stub.read_blocks(0, 0).status().code(),
            reldev::ErrorCode::kInvalidArgument);
  EXPECT_EQ(stub.write_blocks(0, payload(65, 1)).code(),
            reldev::ErrorCode::kInvalidArgument);
}

TEST_F(DriverStubTest, VectoredOpsFailOverToo) {
  auto stub =
      DriverStub::connect(group_.transport(), kClientId, {0, 1, 2}).value();
  const auto contents = payload(2 * 64, 9);
  ASSERT_TRUE(stub.write_blocks(0, contents).is_ok());
  group_.crash_site(0);
  EXPECT_EQ(stub.read_blocks(0, 2).value(), contents);
  EXPECT_EQ(stub.last_server(), 1u);
}

// Fails the first `failures` calls with `code`, then forwards to the inner
// transport — a deterministic stand-in for a transiently sick network.
class FlakyTransport final : public net::Transport {
 public:
  FlakyTransport(net::Transport& inner, int failures, ErrorCode code)
      : inner_(inner), failures_(failures), code_(code) {}

  using net::Transport::multicast_call;

  Result<net::Message> call(SiteId from, SiteId to,
                            const net::Message& request) override {
    ++calls;
    if (failures_ > 0) {
      --failures_;
      return Status(code_, "flaky transport: injected failure");
    }
    return inner_.call(from, to, request);
  }
  Status send(SiteId from, SiteId to, const net::Message& message) override {
    return inner_.send(from, to, message);
  }
  Status multicast(SiteId from, const net::SiteSet& to,
                   const net::Message& message) override {
    return inner_.multicast(from, to, message);
  }
  std::vector<net::GatherReply> multicast_call(
      SiteId from, const net::SiteSet& to, const net::Message& request,
      const net::EarlyStop& early_stop) override {
    return inner_.multicast_call(from, to, request, early_stop);
  }

  int calls = 0;

 private:
  net::Transport& inner_;
  int failures_;
  ErrorCode code_;
};

RetryPolicy fast_policy(std::size_t rounds) {
  RetryPolicy policy;
  policy.max_rounds = rounds;
  policy.initial_backoff = std::chrono::milliseconds{0};
  policy.max_backoff = std::chrono::milliseconds{0};
  return policy;
}

TEST(RetryClassification, TransientVsTerminal) {
  EXPECT_TRUE(is_retryable(ErrorCode::kUnavailable));
  EXPECT_TRUE(is_retryable(ErrorCode::kTimeout));
  EXPECT_TRUE(is_retryable(ErrorCode::kCorruption));
  EXPECT_FALSE(is_retryable(ErrorCode::kInvalidArgument));
  EXPECT_FALSE(is_retryable(ErrorCode::kProtocol));
  EXPECT_FALSE(is_retryable(ErrorCode::kConflict));
  EXPECT_FALSE(is_retryable(ErrorCode::kIoError));
}

TEST_F(DriverStubTest, RetriesThroughTransientTimeouts) {
  const auto data = payload(64, 11);
  {
    DriverStub seeder(group_.transport(), kClientId, {0}, 8, 64);
    ASSERT_TRUE(seeder.write_block(0, data).is_ok());
  }
  // One server, first four calls time out: only the retry rounds save it.
  FlakyTransport flaky(group_.transport(), 4, ErrorCode::kTimeout);
  DriverStub stub(flaky, kClientId, {0}, 8, 64, fast_policy(5));
  EXPECT_EQ(stub.read_block(0).value(), data);
  EXPECT_EQ(flaky.calls, 5);
}

TEST_F(DriverStubTest, TerminalErrorIsNotRetried) {
  FlakyTransport broken(group_.transport(), 1000, ErrorCode::kProtocol);
  DriverStub stub(broken, kClientId, {0, 1, 2}, 8, 64, fast_policy(5));
  EXPECT_EQ(stub.read_block(0).status().code(), reldev::ErrorCode::kProtocol);
  EXPECT_EQ(broken.calls, 1);  // no failover, no rounds
}

TEST_F(DriverStubTest, ExhaustionReportsStructuredDetail) {
  group_.crash_site(0);
  group_.crash_site(1);
  group_.crash_site(2);
  DriverStub stub(group_.transport(), kClientId, {0, 1, 2}, 8, 64,
                  fast_policy(2));
  const auto status = stub.read_block(0).status();
  EXPECT_EQ(status.code(), reldev::ErrorCode::kUnavailable);
  EXPECT_NE(status.message().find("exhausted"), std::string::npos);
  EXPECT_NE(status.message().find("site"), std::string::npos);
  const auto& detail = stub.last_failure();
  EXPECT_EQ(detail.attempts, 6u);  // 3 servers x 2 rounds
  EXPECT_EQ(detail.rounds, 2u);
  EXPECT_EQ(detail.last_error.code(), reldev::ErrorCode::kUnavailable);
}

TEST_F(DriverStubTest, PolicyNoneIsASingleScan) {
  group_.crash_site(0);
  group_.crash_site(1);
  group_.crash_site(2);
  DriverStub stub(group_.transport(), kClientId, {0, 1, 2}, 8, 64,
                  RetryPolicy::none());
  EXPECT_FALSE(stub.read_block(0).is_ok());
  EXPECT_EQ(stub.last_failure().attempts, 3u);
  EXPECT_EQ(stub.last_failure().rounds, 1u);
}

TEST_F(DriverStubTest, OpDeadlineBoundsTheWholeOperation) {
  group_.crash_site(0);
  group_.crash_site(1);
  group_.crash_site(2);
  auto policy = fast_policy(1000);  // would be 3000 attempts without a budget
  policy.op_deadline = std::chrono::milliseconds{0};
  DriverStub stub(group_.transport(), kClientId, {0, 1, 2}, 8, 64, policy);
  const auto status = stub.read_block(0).status();
  EXPECT_EQ(status.code(), reldev::ErrorCode::kUnavailable);
  EXPECT_NE(status.message().find("deadline"), std::string::npos);
  EXPECT_EQ(stub.last_failure().attempts, 0u);
}

TEST_F(DriverStubTest, FailsOverAroundAFaultyLink) {
  const auto data = payload(64, 12);
  {
    DriverStub seeder(group_.transport(), kClientId, {0}, 8, 64);
    ASSERT_TRUE(seeder.write_block(5, data).is_ok());
  }
  net::FaultInjectingTransport faults(group_.transport(), 7);
  net::FaultRule dead;
  dead.drop = 1.0;
  faults.set_link_rule(kClientId, 0, dead);  // client cannot reach site 0
  DriverStub stub(faults, kClientId, {0, 1}, 8, 64, fast_policy(3));
  EXPECT_EQ(stub.read_block(5).value(), data);
  EXPECT_EQ(stub.last_server(), 1u);
}

TEST_F(DriverStubTest, WorksAgainstVotingGroupToo) {
  ReplicaGroup voting(SchemeKind::kVoting, GroupConfig::majority(5, 4, 32));
  auto stub =
      DriverStub::connect(voting.transport(), kClientId, {0, 1}).value();
  const auto data = payload(32, 6);
  ASSERT_TRUE(stub.write_block(0, data).is_ok());
  voting.crash_site(0);
  voting.crash_site(1);
  // Client must fail over: servers 0/1 are dead; reconfigure with all.
  DriverStub wide(voting.transport(), kClientId, {0, 1, 2, 3, 4}, 4, 32);
  EXPECT_EQ(wide.read_block(0).value(), data);
}

}  // namespace
}  // namespace reldev::core

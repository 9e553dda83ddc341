// A real multi-process-shaped deployment in one test binary: three site
// servers behind TCP, replicas talking to each other through
// TcpPeerTransport, and a client driving block I/O through the DriverStub
// over the same wire protocol — the full Figure 1/2 picture.
#include <gtest/gtest.h>

#include <optional>

#include "reldev/core/driver_stub.hpp"
#include "reldev/core/site.hpp"
#include "reldev/net/tcp/tcp_client.hpp"
#include "support/temp_dir.hpp"

namespace reldev::core {
namespace {

storage::BlockData payload(std::size_t size, std::uint8_t seed) {
  return storage::BlockData(size, static_cast<std::byte>(seed));
}

constexpr std::size_t kBlocks = 4;
constexpr std::size_t kBlockSize = 64;

/// `n` Sites of one scheme over one shared peer transport, each serving on
/// its own ephemeral TCP port: n daemons in one process. With
/// `file_stores`, every site keeps a file store in a fresh directory.
class TcpSites {
 protected:
  void open_sites(SchemeKind scheme, std::size_t n, bool file_stores = false) {
    if (file_stores) dir_.emplace("reldev_tcp_group");
    const auto config = GroupConfig::majority(n, kBlocks, kBlockSize);
    for (SiteId id = 0; id < n; ++id) {
      SiteOptions options;
      options.scheme = scheme;
      options.listen_port = 0;
      if (dir_) {
        options.store_path =
            (dir_->path() / ("site" + std::to_string(id) + ".rdev")).string();
      }
      auto site = Site::open(id, config, transport_, options);
      ASSERT_TRUE(site.is_ok()) << site.status().to_string();
      transport_.set_endpoint(id, "127.0.0.1", site.value()->port());
      sites_.push_back(std::move(site).value());
      replicas_.push_back(&sites_.back()->replica());
      stores_.push_back(&sites_.back()->store());
      servers_.push_back(sites_.back()->server());
    }
  }

  std::optional<test::TempDir> dir_;  // outlives the sites' open files
  net::tcp::TcpPeerTransport transport_;
  std::vector<std::unique_ptr<Site>> sites_;
  // Views into sites_, valid until a site restarts.
  std::vector<ReplicaBase*> replicas_;
  std::vector<storage::BlockStore*> stores_;
  std::vector<net::tcp::TcpServer*> servers_;
};

/// Three AC sites on file stores, each behind its own TCP server, with a
/// shared peer transport for inter-site traffic.
class TcpGroupTest : public ::testing::Test, protected TcpSites {
 protected:
  void SetUp() override {
    open_sites(SchemeKind::kAvailableCopy, 3, /*file_stores=*/true);
  }
};

TEST_F(TcpGroupTest, WriteReplicatesOverRealSockets) {
  const auto data = payload(kBlockSize, 5);
  ASSERT_TRUE(replicas_[0]->write(1, data).is_ok());
  // Every store received the write through TCP.
  for (SiteId site = 0; site < 3; ++site) {
    EXPECT_EQ(stores_[site]->read(1).value().data, data) << "site " << site;
  }
}

TEST_F(TcpGroupTest, ClientStubOverTcp) {
  auto stub = DriverStub::connect(transport_, 100, {0, 1, 2});
  ASSERT_TRUE(stub.is_ok()) << stub.status().to_string();
  EXPECT_EQ(stub.value().block_count(), kBlocks);
  const auto data = payload(kBlockSize, 6);
  ASSERT_TRUE(stub.value().write_block(2, data).is_ok());
  EXPECT_EQ(stub.value().read_block(2).value(), data);
}

TEST_F(TcpGroupTest, ClientFailsOverWhenServerDies) {
  auto stub = DriverStub::connect(transport_, 100, {0, 1, 2}).value();
  const auto data = payload(kBlockSize, 7);
  ASSERT_TRUE(stub.write_block(0, data).is_ok());
  // Kill server 0's process stand-in.
  replicas_[0]->crash();
  servers_[0]->stop();
  EXPECT_EQ(stub.read_block(0).value(), data);
  EXPECT_NE(stub.last_server(), 0u);
}

TEST_F(TcpGroupTest, SiteRecoversOverTcpAfterMissingWrites) {
  const auto old_data = payload(kBlockSize, 8);
  ASSERT_TRUE(replicas_[0]->write(3, old_data).is_ok());
  // Site 2 "crashes" (stays reachable at the TCP level, but fail-stopped:
  // its replica refuses everything).
  replicas_[2]->crash();
  const auto new_data = payload(kBlockSize, 9);
  ASSERT_TRUE(replicas_[0]->write(3, new_data).is_ok());
  EXPECT_EQ(stores_[2]->read(3).value().data, old_data);  // missed it
  // Recovery over TCP: state inquiry, version vectors, block transfer.
  ASSERT_TRUE(replicas_[2]->recover().is_ok());
  EXPECT_EQ(replicas_[2]->state(), SiteState::kAvailable);
  EXPECT_EQ(stores_[2]->read(3).value().data, new_data);
}

/// Five voting replicas behind TCP: the push after a write travels as a
/// call (request/reply transports have no one-way send), and reads stop
/// gathering votes at the read quorum.
class TcpVotingGroupTest : public ::testing::Test, protected TcpSites {
 protected:
  static constexpr std::size_t kSites = 5;

  void SetUp() override { open_sites(SchemeKind::kVoting, kSites); }
};

TEST_F(TcpVotingGroupTest, WritePushReplicatesOverRealSockets) {
  // Regression: the BlockUpdate push used to be dropped over TCP (the
  // server routed it to handle_peer, which rejected it), leaving every
  // peer permanently stale — unnoticed while full-gather reads always
  // polled the coordinator, fatal once early-stopped reads could assemble
  // a quorum that excludes it.
  const auto data = payload(kBlockSize, 11);
  ASSERT_TRUE(replicas_[0]->write(1, data).is_ok());
  for (SiteId site = 0; site < kSites; ++site) {
    EXPECT_EQ(stores_[site]->read(1).value().data, data) << "site " << site;
  }
}

TEST_F(TcpVotingGroupTest, EarlyStopReadThroughEverySiteSeesNewestVersion) {
  const auto v1 = payload(kBlockSize, 12);
  const auto v2 = payload(kBlockSize, 13);
  ASSERT_TRUE(replicas_[0]->write(2, v1).is_ok());
  ASSERT_TRUE(replicas_[0]->write(2, v2).is_ok());
  for (SiteId site = 0; site < kSites; ++site) {
    EXPECT_EQ(replicas_[site]->read(2).value(), v2) << "site " << site;
  }
}

TEST_F(TcpGroupTest, KilledSiteRestartsOnItsPortAndRecoversFromItsFile) {
  const auto v1 = payload(kBlockSize, 20);
  ASSERT_TRUE(sites_[0]->replica().write(2, v1).is_ok());
  const std::uint16_t port = sites_[2]->port();
  // Process death: the server goes away and the store closes unflushed.
  sites_[2]->kill();
  const auto v2 = payload(kBlockSize, 21);
  ASSERT_TRUE(sites_[0]->replica().write(2, v2).is_ok());

  // The new process reopens the same file, comes up failed on the same
  // port, and its recovery round over TCP brings back the missed write.
  const Status restarted = sites_[2]->restart();
  ASSERT_TRUE(restarted.is_ok()) << restarted.to_string();
  EXPECT_EQ(sites_[2]->port(), port);
  EXPECT_EQ(sites_[2]->replica().state(), SiteState::kAvailable);
  EXPECT_EQ(sites_[2]->store().read(2).value().data, v2);

  // Clients reach it at its old address again.
  auto stub = DriverStub::connect(transport_, 100, {2});
  ASSERT_TRUE(stub.is_ok()) << stub.status().to_string();
  EXPECT_EQ(stub.value().read_block(2).value(), v2);
  EXPECT_EQ(stub.value().last_server(), 2u);
}

TEST_F(TcpGroupTest, SiteRestartedWithNoTrafficTakesTheNextWrite) {
  // Sites 0 and 1 each park a socket to site 2. Once site 2 restarts,
  // those sockets are half-closed: the next write must not be sent into
  // one and lost, leaving site 2 to serve the old value.
  ASSERT_TRUE(sites_[0]->replica().write(1, payload(kBlockSize, 30)).is_ok());
  ASSERT_TRUE(sites_[1]->replica().write(1, payload(kBlockSize, 31)).is_ok());
  sites_[2]->kill();
  const Status restarted = sites_[2]->restart();
  ASSERT_TRUE(restarted.is_ok()) << restarted.to_string();

  const auto v3 = payload(kBlockSize, 33);
  ASSERT_TRUE(sites_[0]->replica().write(1, v3).is_ok());
  EXPECT_EQ(sites_[2]->store().read(1).value().data, v3);
  auto stub = DriverStub::connect(transport_, 100, {2});
  ASSERT_TRUE(stub.is_ok()) << stub.status().to_string();
  EXPECT_EQ(stub.value().read_block(1).value(), v3);
}

TEST_F(TcpGroupTest, FailedReplicaAnswersNothing) {
  replicas_[1]->crash();
  // Direct client call to the failed site: server responds with an error
  // reply (defense in depth), and the caller treats it as unavailable.
  net::tcp::TcpChannel channel("127.0.0.1", servers_[1]->port());
  auto reply = channel.call(
      net::Message{100, net::MultiBlockReadRequest{0, 1}});
  ASSERT_TRUE(reply.is_ok());
  EXPECT_TRUE(reply.value().holds<net::ErrorReply>());
}

}  // namespace
}  // namespace reldev::core

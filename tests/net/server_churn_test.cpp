// Connection-churn and shutdown stress for the TCP server: hundreds of
// short-lived clients, half-written frames, mid-frame disconnects, and
// stop() while requests are in flight. These are the paths where a
// readiness-driven server can leak state machines or hang its shutdown.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "reldev/net/tcp/tcp_client.hpp"
#include "reldev/net/tcp/tcp_server.hpp"

namespace reldev::net::tcp {
namespace {

using namespace std::chrono_literals;
using Clock = std::chrono::steady_clock;

class CountingHandler : public MessageHandler {
 public:
  explicit CountingHandler(std::chrono::milliseconds delay = 0ms)
      : delay_(delay) {}
  Message handle(const Message&) override {
    calls.fetch_add(1);
    if (delay_.count() > 0) std::this_thread::sleep_for(delay_);
    return Message{0, StateInfo{SiteState::kAvailable, 1, {}}};
  }
  void handle_oneway(const Message&) override {}
  std::atomic<int> calls{0};

 private:
  const std::chrono::milliseconds delay_;
};

class ServerChurnTest : public ::testing::Test {
 protected:
  [[nodiscard]] static std::unique_ptr<TcpServer> start_server(
      MessageHandler* handler) {
    return TcpServer::start(0, handler).value();
  }

  /// Spin until `predicate` holds or `deadline_ms` passes.
  template <typename Fn>
  static bool eventually(Fn predicate, int deadline_ms = 5000) {
    const auto deadline = Clock::now() + std::chrono::milliseconds(deadline_ms);
    while (Clock::now() < deadline) {
      if (predicate()) return true;
      std::this_thread::sleep_for(2ms);
    }
    return predicate();
  }
};

TEST_F(ServerChurnTest, HundredsOfShortLivedClients) {
  CountingHandler handler;
  auto server = start_server(&handler);
  constexpr int kThreads = 8;
  constexpr int kConnectionsPerThread = 30;  // 240 connections total
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&] {
      for (int i = 0; i < kConnectionsPerThread; ++i) {
        // A fresh channel per iteration: connect, two calls, disconnect.
        TcpChannel channel("127.0.0.1", server->port(), 5000ms);
        for (int call = 0; call < 2; ++call) {
          if (!channel.call(Message{0, StateInquiry{}}).is_ok()) {
            failures.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& client : clients) client.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(handler.calls.load(), kThreads * kConnectionsPerThread * 2);
  EXPECT_EQ(server->served_frames(),
            static_cast<std::uint64_t>(kThreads * kConnectionsPerThread * 2));
  // All churned connections are eventually torn down server-side.
  EXPECT_TRUE(eventually(
      [&] { return server->active_connections() == 0; }))
      << "still " << server->active_connections() << " connections";
}

TEST_F(ServerChurnTest, PartialFramesAndMidFrameDisconnects) {
  CountingHandler handler;
  auto server = start_server(&handler);
  for (int round = 0; round < 50; ++round) {
    auto socket = Socket::connect("127.0.0.1", server->port(), 1000ms);
    ASSERT_TRUE(socket.is_ok());
    switch (round % 3) {
      case 0: {  // half a prefix, then vanish
        const std::array<std::byte, 3> half{std::byte{0x47}, std::byte{0x4d},
                                            std::byte{0x44}};
        (void)socket.value().write_all(half);
        break;
      }
      case 1: {  // a full prefix promising 64 KiB, then vanish mid-body
        const auto prefix = encode_frame_prefix(64 * 1024);
        (void)socket.value().write_all(prefix);
        const std::vector<std::byte> some(1000, std::byte{0x55});
        (void)socket.value().write_all(some);
        break;
      }
      default:  // connect and immediately vanish
        break;
    }
    socket.value().close();
  }
  // The server survives the storm and still serves well-formed requests.
  TcpChannel channel("127.0.0.1", server->port());
  EXPECT_TRUE(channel.call(Message{0, StateInquiry{}}).is_ok());
  EXPECT_EQ(handler.calls.load(), 1);
  EXPECT_TRUE(eventually([&] { return server->active_connections() <= 1; }));
}

TEST_F(ServerChurnTest, GarbageBytesCostOnlyThatConnection) {
  CountingHandler handler;
  auto server = start_server(&handler);
  for (int i = 0; i < 10; ++i) {
    auto socket = Socket::connect("127.0.0.1", server->port(), 1000ms);
    ASSERT_TRUE(socket.is_ok());
    const std::vector<std::byte> junk(64, std::byte{0xEE});
    (void)socket.value().write_all(junk);
    // The server rejects the magic and drops us; reading sees EOF/reset.
    std::array<std::byte, 1> probe{};
    EXPECT_FALSE(socket.value().read_exact(probe).is_ok());
  }
  EXPECT_TRUE(eventually([&] { return server->corrupted_frames() == 10; }))
      << server->corrupted_frames();
  TcpChannel channel("127.0.0.1", server->port());
  EXPECT_TRUE(channel.call(Message{0, StateInquiry{}}).is_ok());
}

TEST_F(ServerChurnTest, ShutdownUnderLoadIsPrompt) {
  // Regression: stop() used to wait on worker threads blocked in recv()
  // only after shutdown()-ing their sockets one by one; a server with
  // requests mid-handler must still come down in bounded time, closing
  // in-flight connections rather than draining them.
  CountingHandler handler(100ms);
  auto server = start_server(&handler);
  constexpr int kInFlight = 16;
  std::atomic<int> finished{0};
  std::vector<std::thread> clients;
  clients.reserve(kInFlight);
  for (int i = 0; i < kInFlight; ++i) {
    clients.emplace_back([&] {
      TcpChannel channel("127.0.0.1", server->port(), 3000ms);
      (void)channel.call(Message{0, StateInquiry{}});  // ok or error, both fine
      finished.fetch_add(1);
    });
  }
  // Let the calls reach the server before pulling the plug.
  std::this_thread::sleep_for(50ms);
  const auto start = Clock::now();
  server->stop();
  const auto stop_elapsed = Clock::now() - start;
  EXPECT_LT(stop_elapsed, 2s) << "stop() stalled on in-flight connections";
  for (auto& client : clients) client.join();
  EXPECT_EQ(finished.load(), kInFlight);
  EXPECT_EQ(server->active_connections(), 0u);
}

TEST_F(ServerChurnTest, ConcurrentCallsDuringStopNeitherHangNorCrash) {
  CountingHandler handler;
  auto server = start_server(&handler);
  std::atomic<bool> go{true};
  std::vector<std::thread> clients;
  clients.reserve(4);
  for (int i = 0; i < 4; ++i) {
    clients.emplace_back([&] {
      TcpChannel channel("127.0.0.1", server->port(), 500ms);
      while (go.load()) {
        (void)channel.call(Message{0, StateInquiry{}});
      }
    });
  }
  std::this_thread::sleep_for(50ms);
  server->stop();
  go.store(false);
  for (auto& client : clients) client.join();
  SUCCEED();
}

// ---------------------------------------------------------------------------
// Client-side pool behaviour (satellite of the same churn story: bounded
// idle sockets, observable hit/miss counters).
// ---------------------------------------------------------------------------

TEST(ChannelPoolTest, HitAndMissCountersTrackReuse) {
  CountingHandler handler;
  auto server = TcpServer::start(0, &handler).value();
  TcpChannel channel("127.0.0.1", server->port());
  ASSERT_TRUE(channel.call(Message{0, StateInquiry{}}).is_ok());
  EXPECT_EQ(channel.pool_hits(), 0u);
  EXPECT_EQ(channel.pool_misses(), 1u);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(channel.call(Message{0, StateInquiry{}}).is_ok());
  }
  EXPECT_EQ(channel.pool_hits(), 5u);  // sequential calls reuse one socket
  EXPECT_EQ(channel.pool_misses(), 1u);
  EXPECT_EQ(channel.idle_connections(), 1u);
}

TEST(ChannelPoolTest, MaxIdleBoundsParkedSockets) {
  CountingHandler handler(20ms);
  auto server = TcpServer::start(0, &handler).value();
  TcpChannel channel("127.0.0.1", server->port());
  // kCallers concurrent calls need kCallers sockets; at most
  // kMaxIdleSockets may be parked afterwards.
  constexpr std::size_t kCallers = kMaxIdleSockets + 4;
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (std::size_t i = 0; i < kCallers; ++i) {
    callers.emplace_back([&] {
      EXPECT_TRUE(channel.call(Message{0, StateInquiry{}}).is_ok());
    });
  }
  for (auto& caller : callers) caller.join();
  EXPECT_LE(channel.idle_connections(), kMaxIdleSockets);
  // At least kCallers - kMaxIdleSockets connects.
  EXPECT_GE(channel.pool_misses(), kCallers - kMaxIdleSockets);
}

TEST(ChannelPoolTest, TransportAggregatesAcrossSites) {
  CountingHandler h1;
  CountingHandler h2;
  auto s1 = TcpServer::start(0, &h1).value();
  auto s2 = TcpServer::start(0, &h2).value();
  TcpPeerTransport transport;
  transport.set_endpoint(1, "127.0.0.1", s1->port());
  transport.set_endpoint(2, "127.0.0.1", s2->port());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(transport.call(0, 1, Message{0, StateInquiry{}}).is_ok());
    ASSERT_TRUE(transport.call(0, 2, Message{0, StateInquiry{}}).is_ok());
  }
  EXPECT_EQ(transport.pool_misses(), 2u);  // one connect per site
  EXPECT_EQ(transport.pool_hits(), 4u);    // remaining calls reused
}

}  // namespace
}  // namespace reldev::net::tcp

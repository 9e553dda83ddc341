#include <gtest/gtest.h>
#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <future>
#include <latch>
#include <thread>
#include <vector>

#include "reldev/net/tcp/tcp_client.hpp"
#include "reldev/net/tcp/tcp_server.hpp"

namespace reldev::net::tcp {
namespace {

using namespace std::chrono_literals;

/// Thread-safe counting echo: replies StateInfo to StateInquiry and echoes
/// ClientWriteRequests with an ok ClientWriteReply.
class EchoHandler : public MessageHandler {
 public:
  Message handle(const Message& request) override {
    calls.fetch_add(1);
    if (request.holds<ClientWriteRequest>()) {
      return Message{0, ClientWriteReply{0}};
    }
    return Message{0, StateInfo{SiteState::kAvailable, 7, {}}};
  }
  void handle_oneway(const Message&) override {}
  std::atomic<int> calls{0};
};

TEST(ParseEndpointsTest, ParsesPositionalList) {
  auto endpoints = parse_endpoints("127.0.0.1:7000,localhost:65535,h:1");
  ASSERT_TRUE(endpoints.is_ok()) << endpoints.status().to_string();
  ASSERT_EQ(endpoints.value().size(), 3u);
  EXPECT_EQ(endpoints.value()[0].host, "127.0.0.1");
  EXPECT_EQ(endpoints.value()[0].port, 7000);
  EXPECT_EQ(endpoints.value()[1].host, "localhost");
  EXPECT_EQ(endpoints.value()[1].port, 65535);
  EXPECT_EQ(endpoints.value()[2].port, 1);
}

TEST(ParseEndpointsTest, RejectsBadEntries) {
  for (const char* text :
       {"127.0.0.1:", "127.0.0.1:0", "127.0.0.1:65536", ":70000",
        "127.0.0.1:70000", "127.0.0.1:http", "127.0.0.1:12ab",
        "127.0.0.1:-1", "127.0.0.1", "", "127.0.0.1:7000,", ":7000"}) {
    auto endpoints = parse_endpoints(text);
    EXPECT_EQ(endpoints.status().code(), reldev::ErrorCode::kInvalidArgument)
        << "'" << text << "'";
  }
}

TEST(TcpSocketTest, ConnectToClosedPortFails) {
  // Port 1 on localhost is essentially never listening.
  auto socket = Socket::connect("127.0.0.1", 1);
  EXPECT_FALSE(socket.is_ok());
  EXPECT_EQ(socket.status().code(), reldev::ErrorCode::kUnavailable);
}

TEST(TcpSocketTest, BadAddressRejected) {
  auto socket = Socket::connect("not-an-address", 80);
  EXPECT_EQ(socket.status().code(), reldev::ErrorCode::kInvalidArgument);
}

class TcpServerModeTest : public ::testing::Test {
 protected:
  [[nodiscard]] static Result<std::unique_ptr<TcpServer>> start_server(
      MessageHandler* handler) {
    return TcpServer::start(0, handler);
  }
};

TEST_F(TcpServerModeTest, EphemeralPortAssigned) {
  EchoHandler handler;
  auto server = start_server(&handler);
  ASSERT_TRUE(server.is_ok());
  EXPECT_GT(server.value()->port(), 0);
}

TEST_F(TcpServerModeTest, RoundTripCall) {
  EchoHandler handler;
  auto server = start_server(&handler).value();
  TcpChannel channel("127.0.0.1", server->port());
  auto reply = channel.call(Message{9, StateInquiry{}});
  ASSERT_TRUE(reply.is_ok()) << reply.status().to_string();
  ASSERT_TRUE(reply.value().holds<StateInfo>());
  EXPECT_EQ(reply.value().as<StateInfo>().version_total, 7u);
  EXPECT_EQ(handler.calls.load(), 1);
  EXPECT_EQ(server->served_frames(), 1u);
}

TEST_F(TcpServerModeTest, ManySequentialCallsOnOneConnection) {
  EchoHandler handler;
  auto server = start_server(&handler).value();
  TcpChannel channel("127.0.0.1", server->port());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(channel.call(Message{1, StateInquiry{}}).is_ok());
  }
  EXPECT_EQ(handler.calls.load(), 50);
}

TEST_F(TcpServerModeTest, LargePayloadSurvives) {
  EchoHandler handler;
  auto server = start_server(&handler).value();
  TcpChannel channel("127.0.0.1", server->port());
  BlockData big(256 * 1024);
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<std::byte>(i & 0xff);
  }
  auto reply = channel.call(Message{1, ClientWriteRequest{0, big}});
  ASSERT_TRUE(reply.is_ok());
  EXPECT_TRUE(reply.value().holds<ClientWriteReply>());
}

TEST_F(TcpServerModeTest, MultipleClients) {
  EchoHandler handler;
  auto server = start_server(&handler).value();
  TcpChannel a("127.0.0.1", server->port());
  TcpChannel b("127.0.0.1", server->port());
  EXPECT_TRUE(a.call(Message{1, StateInquiry{}}).is_ok());
  EXPECT_TRUE(b.call(Message{2, StateInquiry{}}).is_ok());
  EXPECT_TRUE(a.call(Message{1, StateInquiry{}}).is_ok());
  EXPECT_EQ(handler.calls.load(), 3);
}

TEST_F(TcpServerModeTest, ChannelReconnectsAfterDisconnect) {
  EchoHandler handler;
  auto server = start_server(&handler).value();
  TcpChannel channel("127.0.0.1", server->port());
  ASSERT_TRUE(channel.call(Message{1, StateInquiry{}}).is_ok());
  channel.disconnect();
  ASSERT_TRUE(channel.call(Message{1, StateInquiry{}}).is_ok());
  EXPECT_EQ(handler.calls.load(), 2);
}

TEST_F(TcpServerModeTest, ChannelReachesServerRestartedOnItsPort) {
  // The pooled socket from the first call is half-closed once the server
  // stops: a write to it still succeeds and only the reply read fails. The
  // channel must drop it before use instead of sending the request into it.
  EchoHandler handler;
  auto server = start_server(&handler).value();
  const std::uint16_t port = server->port();
  TcpChannel channel("127.0.0.1", port);
  ASSERT_TRUE(channel.call(Message{1, StateInquiry{}}).is_ok());
  server->stop();
  auto restarted = TcpServer::start(port, &handler);
  ASSERT_TRUE(restarted.is_ok()) << restarted.status().to_string();
  auto reply = channel.call(Message{1, StateInquiry{}});
  ASSERT_TRUE(reply.is_ok()) << reply.status().to_string();
  EXPECT_EQ(handler.calls.load(), 2);
}

TEST_F(TcpServerModeTest, CallAfterServerStopFails) {
  EchoHandler handler;
  auto server = start_server(&handler).value();
  const std::uint16_t port = server->port();
  TcpChannel channel("127.0.0.1", port);
  ASSERT_TRUE(channel.call(Message{1, StateInquiry{}}).is_ok());
  server->stop();
  auto reply = channel.call(Message{1, StateInquiry{}});
  EXPECT_FALSE(reply.is_ok());
}

/// Replies to StateInquiry at once; a ClientWriteRequest blocks its handler
/// until `release` opens, the way a replica handler blocks on storage I/O
/// or on its peers.
class BlockingHandler : public MessageHandler {
 public:
  Message handle(const Message& request) override {
    if (request.holds<ClientWriteRequest>()) {
      entered.store(true);
      release.wait();
      return Message{0, ClientWriteReply{0}};
    }
    return Message{0, StateInfo{SiteState::kAvailable, 7, {}}};
  }
  void handle_oneway(const Message&) override {}
  std::atomic<bool> entered{false};
  std::latch release{1};
};

TEST_F(TcpServerModeTest, BlockedHandlerDoesNotStallOtherConnections) {
  BlockingHandler handler;
  auto server = start_server(&handler).value();
  TcpChannel blocked("127.0.0.1", server->port(), 10s);
  auto pending = std::async(std::launch::async, [&] {
    return blocked.call(Message{1, ClientWriteRequest{0, BlockData(16)}});
  });
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (!handler.entered.load() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_TRUE(handler.entered.load());
  // The blocked handler holds one worker; the others still serve every
  // fresh connection, one per core here.
  const unsigned shards = std::max(1u, std::thread::hardware_concurrency());
  for (unsigned i = 0; i < shards; ++i) {
    TcpChannel other("127.0.0.1", server->port(), 2s);
    auto reply = other.call(Message{2, StateInquiry{}});
    EXPECT_TRUE(reply.is_ok()) << reply.status().to_string();
  }
  // Release before any fatal assertion: stop() waits for the handler.
  handler.release.count_down();
  auto reply = pending.get();
  ASSERT_TRUE(reply.is_ok()) << reply.status().to_string();
  EXPECT_TRUE(reply.value().holds<ClientWriteReply>());
}

TEST(TcpPeerTransportTest, RoutesPerSite) {
  EchoHandler h1;
  EchoHandler h2;
  auto s1 = TcpServer::start(0, &h1).value();
  auto s2 = TcpServer::start(0, &h2).value();
  TcpPeerTransport transport;
  transport.set_endpoint(1, "127.0.0.1", s1->port());
  transport.set_endpoint(2, "127.0.0.1", s2->port());

  ASSERT_TRUE(transport.call(0, 1, Message{0, StateInquiry{}}).is_ok());
  ASSERT_TRUE(transport.call(0, 2, Message{0, StateInquiry{}}).is_ok());
  EXPECT_EQ(h1.calls.load(), 1);
  EXPECT_EQ(h2.calls.load(), 1);
}

TEST(TcpPeerTransportTest, MulticastCallSkipsDeadPeers) {
  EchoHandler h1;
  auto s1 = TcpServer::start(0, &h1).value();
  TcpPeerTransport transport;
  transport.set_endpoint(1, "127.0.0.1", s1->port());
  transport.set_endpoint(2, "127.0.0.1", 1);  // nothing listens there

  auto replies = transport.multicast_call(0, SiteSet{1, 2},
                                          Message{0, StateInquiry{}});
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].first, 1u);
}

TEST(TcpPeerTransportTest, UnknownSiteIsUnavailable) {
  TcpPeerTransport transport;
  auto reply = transport.call(0, 5, Message{0, StateInquiry{}});
  EXPECT_EQ(reply.status().code(), reldev::ErrorCode::kUnavailable);
}

/// Builds a connected stream-socket pair for framing tests.
std::pair<Socket, Socket> socket_pair() {
  int fds[2];
  EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  return {Socket(fds[0]), Socket(fds[1])};
}

TEST(FramingTest, RoundTrip) {
  auto [a, b] = socket_pair();
  const std::vector<std::byte> payload{std::byte{1}, std::byte{2},
                                       std::byte{3}};
  ASSERT_TRUE(write_frame(a, payload).is_ok());
  auto read = read_frame(b);
  ASSERT_TRUE(read.is_ok());
  EXPECT_EQ(read.value(), payload);
}

TEST(FramingTest, EmptyPayloadFrame) {
  auto [a, b] = socket_pair();
  ASSERT_TRUE(write_frame(a, {}).is_ok());
  auto read = read_frame(b);
  ASSERT_TRUE(read.is_ok());
  EXPECT_TRUE(read.value().empty());
}

TEST(FramingTest, CorruptPayloadRejected) {
  auto [a, b] = socket_pair();
  const std::vector<std::byte> payload(100, std::byte{0x42});
  ASSERT_TRUE(write_frame(a, payload).is_ok());
  // Flip a payload byte in flight by reading raw and re-sending garbled.
  std::vector<std::byte> raw(12 + 100);
  ASSERT_TRUE(b.read_exact(raw).is_ok());
  raw[50] ^= std::byte{0xFF};
  auto [c, d] = socket_pair();
  ASSERT_TRUE(c.write_all(raw).is_ok());
  auto read = read_frame(d);
  EXPECT_EQ(read.status().code(), reldev::ErrorCode::kCorruption);
}

TEST(FramingTest, BadMagicRejected) {
  auto [a, b] = socket_pair();
  const std::vector<std::byte> junk(12, std::byte{0x11});
  ASSERT_TRUE(a.write_all(junk).is_ok());
  auto read = read_frame(b);
  EXPECT_EQ(read.status().code(), reldev::ErrorCode::kCorruption);
}

TEST(FramingTest, CleanEofIsUnavailable) {
  auto [a, b] = socket_pair();
  a.close();
  auto read = read_frame(b);
  EXPECT_EQ(read.status().code(), reldev::ErrorCode::kUnavailable);
}

TEST(FramingTest, EofMidFrameIsIoError) {
  auto [a, b] = socket_pair();
  // A valid header promising 100 bytes, then nothing.
  const std::vector<std::byte> payload(100, std::byte{0x01});
  ASSERT_TRUE(write_frame(a, payload).is_ok());
  std::vector<std::byte> partial(12 + 10);
  ASSERT_TRUE(b.read_exact(partial).is_ok());
  auto [c, d] = socket_pair();
  ASSERT_TRUE(c.write_all(partial).is_ok());
  c.close();
  auto read = read_frame(d);
  EXPECT_EQ(read.status().code(), reldev::ErrorCode::kIoError);
}

/// Threads in this process right now.
std::size_t thread_count() {
  const std::filesystem::directory_iterator tasks("/proc/self/task");
  return static_cast<std::size_t>(std::distance(
      std::filesystem::begin(tasks), std::filesystem::end(tasks)));
}

/// The server's worker count: max(8, cores).
std::size_t worker_count() {
  return std::max<std::size_t>(8, std::thread::hardware_concurrency());
}

TEST_F(TcpServerModeTest, FixedWorkerSetServesManyConnections) {
  EchoHandler handler;
  const std::size_t before = thread_count();
  auto server = start_server(&handler).value();
  // Every connection has a request in flight before any reply is read.
  const std::vector<std::byte> request = Message{1, StateInquiry{}}.encode();
  std::vector<Socket> sockets;
  for (int i = 0; i < 64; ++i) {
    auto socket = Socket::connect("127.0.0.1", server->port(), 2s);
    ASSERT_TRUE(socket.is_ok()) << socket.status().to_string();
    ASSERT_TRUE(write_frame(socket.value(), request).is_ok());
    sockets.push_back(std::move(socket).value());
  }
  for (auto& socket : sockets) {
    socket.set_recv_timeout(5s);
    auto frame = read_frame(socket);
    ASSERT_TRUE(frame.is_ok()) << frame.status().to_string();
    auto reply = Message::decode(frame.value());
    ASSERT_TRUE(reply.is_ok()) << reply.status().to_string();
    EXPECT_TRUE(reply.value().holds<StateInfo>());
  }
  EXPECT_EQ(server->served_frames(), 64u);
  EXPECT_LE(thread_count(), before + worker_count());
}

/// Answers a ClientReadRequest with a reply far larger than a socket buffer
/// holds, and a StateInquiry at once.
class BigReplyHandler : public MessageHandler {
 public:
  Message handle(const Message& request) override {
    if (request.holds<ClientReadRequest>()) {
      big_replies.fetch_add(1);
      return Message{0, ClientReadReply{0, BlockData(4u << 20)}};
    }
    return Message{0, StateInfo{SiteState::kAvailable, 7, {}}};
  }
  void handle_oneway(const Message&) override {}
  std::atomic<int> big_replies{0};
};

TEST_F(TcpServerModeTest, NonReadingClientsPinNoWorker) {
  BigReplyHandler handler;
  auto server = start_server(&handler).value();
  // More clients than workers ask for a big reply and never read it.
  const std::vector<std::byte> request =
      Message{1, ClientReadRequest{0}}.encode();
  const int hogs = static_cast<int>(worker_count()) + 2;
  std::vector<Socket> sockets;
  for (int i = 0; i < hogs; ++i) {
    auto socket = Socket::connect("127.0.0.1", server->port(), 2s);
    ASSERT_TRUE(socket.is_ok()) << socket.status().to_string();
    ASSERT_TRUE(write_frame(socket.value(), request).is_ok());
    sockets.push_back(std::move(socket).value());
  }
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (handler.big_replies.load() < hogs &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_EQ(handler.big_replies.load(), hogs);

  const auto call_start = std::chrono::steady_clock::now();
  TcpChannel channel("127.0.0.1", server->port(), 2s);
  auto reply = channel.call(Message{2, StateInquiry{}});
  EXPECT_TRUE(reply.is_ok()) << reply.status().to_string();
  EXPECT_LT(std::chrono::steady_clock::now() - call_start, 2s);

  const auto stop_start = std::chrono::steady_clock::now();
  server->stop();
  EXPECT_LT(std::chrono::steady_clock::now() - stop_start, 2s);
}

}  // namespace
}  // namespace reldev::net::tcp

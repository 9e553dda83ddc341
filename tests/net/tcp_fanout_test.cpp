// Concurrency behaviour of the TCP transport's parallel fan-out: a
// multicast round costs the slowest peer (not the sum), an early-stop
// quorum returns before the straggler (whose reply is still metered), and
// a dead peer costs one bounded deadline instead of a hang.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <iterator>
#include <thread>

#include "reldev/net/tcp/tcp_client.hpp"
#include "reldev/net/tcp/tcp_server.hpp"

namespace reldev::net::tcp {
namespace {

using namespace std::chrono_literals;
using Clock = std::chrono::steady_clock;

/// Replies StateInfo after an injected per-call delay.
class DelayHandler : public MessageHandler {
 public:
  explicit DelayHandler(std::chrono::milliseconds delay) : delay_(delay) {}
  Message handle(const Message&) override {
    calls.fetch_add(1);
    std::this_thread::sleep_for(delay_);
    return Message{0, StateInfo{SiteState::kAvailable, 1, {}}};
  }
  void handle_oneway(const Message&) override {}
  std::atomic<int> calls{0};

 private:
  std::chrono::milliseconds delay_;
};

std::chrono::milliseconds elapsed_since(Clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() -
                                                               start);
}

TEST(TcpFanOutTest, MulticastCallOverlapsPerPeerDelays) {
  constexpr auto kDelay = 150ms;
  constexpr int kPeers = 4;
  DelayHandler handler(kDelay);
  std::vector<std::unique_ptr<TcpServer>> servers;
  TcpPeerTransport transport;
  SiteSet peers;
  for (SiteId site = 1; site <= kPeers; ++site) {
    servers.push_back(TcpServer::start(0, &handler).value());
    transport.set_endpoint(site, "127.0.0.1", servers.back()->port());
    peers.insert(site);
  }

  const auto start = Clock::now();
  auto replies = transport.multicast_call(0, peers, Message{0, StateInquiry{}});
  const auto elapsed = elapsed_since(start);

  EXPECT_EQ(replies.size(), static_cast<std::size_t>(kPeers));
  // Sequential fan-out would cost kPeers * kDelay = 600ms. Parallel is one
  // delay plus overhead; 3x one delay is a generous CI margin.
  EXPECT_LT(elapsed, 3 * kDelay) << "fan-out did not overlap peer delays";
}

TEST(TcpFanOutTest, EarlyStopReturnsBeforeStragglerAndStillMetersIt) {
  constexpr auto kStragglerDelay = 1000ms;
  DelayHandler fast(0ms);
  DelayHandler slow(kStragglerDelay);
  auto s1 = TcpServer::start(0, &fast).value();
  auto s2 = TcpServer::start(0, &fast).value();
  auto s3 = TcpServer::start(0, &slow).value();

  TrafficMeter meter;
  {
    TcpPeerTransport transport;
    transport.set_traffic_meter(&meter);
    transport.set_endpoint(1, "127.0.0.1", s1->port());
    transport.set_endpoint(2, "127.0.0.1", s2->port());
    transport.set_endpoint(3, "127.0.0.1", s3->port());

    const auto start = Clock::now();
    auto replies = transport.multicast_call(
        0, SiteSet{1, 2, 3}, Message{0, StateInquiry{}},
        [](const std::vector<GatherReply>& so_far) {
          return so_far.size() >= 2;
        });
    const auto elapsed = elapsed_since(start);

    EXPECT_EQ(replies.size(), 2u);
    for (const auto& [site, reply] : replies) {
      EXPECT_NE(site, 3u) << "straggler reply should not be gathered";
    }
    EXPECT_LT(elapsed, kStragglerDelay)
        << "early-stop gather waited for the straggler";
    // The transport destructor drains the straggler task before the meter
    // goes out of scope.
  }
  // 3 requests + 3 replies: the straggler's late reply crossed the network
  // and must be metered even though it was never gathered.
  EXPECT_EQ(meter.total(), 6u);
  EXPECT_EQ(slow.calls.load(), 1);
}

TEST(TcpFanOutTest, DeadPeerCostsOneBoundedTimeout) {
  // An acceptor whose backlog takes the connection but which never serves
  // it: the call's recv blocks until the deadline, not forever.
  auto acceptor = Acceptor::listen(0).value();
  DelayHandler fast(0ms);
  auto live = TcpServer::start(0, &fast).value();

  TcpPeerTransport transport;
  transport.set_call_timeout(250ms);
  transport.set_endpoint(1, "127.0.0.1", live->port());
  transport.set_endpoint(2, "127.0.0.1", acceptor.port());

  const auto start = Clock::now();
  auto replies =
      transport.multicast_call(0, SiteSet{1, 2}, Message{0, StateInquiry{}});
  const auto elapsed = elapsed_since(start);

  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].first, 1u);
  EXPECT_LT(elapsed, 2500ms) << "dead peer stalled the whole gather";

  auto direct = transport.call(0, 2, Message{0, StateInquiry{}});
  EXPECT_EQ(direct.status().code(), reldev::ErrorCode::kUnavailable);
}

TEST(TcpFanOutTest, HandshakeThatNeverCompletesDoesNotStarveLivePeers) {
  // A listener with backlog 0 whose one queued connection is never
  // accepted: the kernel drops later SYNs, so a connect to it hangs.
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&addr), len), 0);
  ASSERT_EQ(::listen(listener, 0), 0);
  ASSERT_EQ(::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len),
            0);
  const std::uint16_t stuck_port = ntohs(addr.sin_port);
  auto filler = Socket::connect("127.0.0.1", stuck_port, 1000ms);
  ASSERT_TRUE(filler.is_ok()) << filler.status().to_string();

  DelayHandler fast(0ms);
  auto live = TcpServer::start(0, &fast).value();
  constexpr auto kCallTimeout = 2000ms;
  {
    TcpPeerTransport transport;
    transport.set_call_timeout(kCallTimeout);
    transport.set_endpoint(1, "127.0.0.1", stuck_port);  // contacted first
    transport.set_endpoint(2, "127.0.0.1", live->port());

    const auto start = Clock::now();
    auto replies = transport.multicast_call(
        0, SiteSet{1, 2}, Message{0, StateInquiry{}},
        [](const std::vector<GatherReply>& so_far) { return !so_far.empty(); });
    const auto elapsed = elapsed_since(start);

    ASSERT_EQ(replies.size(), 1u);
    EXPECT_EQ(replies[0].first, 2u);
    // Connects run side by side under the round's one deadline; one after
    // the other, the live peer would wait out the stuck handshake.
    EXPECT_LT(elapsed, kCallTimeout / 2) << "stuck connect delayed the gather";
  }
  ::close(listener);
}

TEST(TcpFanOutTest, GathersRunOnTheCallingThread) {
  DelayHandler fast(0ms);
  DelayHandler slow(2ms);
  auto s1 = TcpServer::start(0, &fast).value();
  auto s2 = TcpServer::start(0, &slow).value();
  TcpPeerTransport transport;
  transport.set_endpoint(1, "127.0.0.1", s1->port());
  transport.set_endpoint(2, "127.0.0.1", s2->port());

  const auto threads = [] {
    return std::distance(std::filesystem::directory_iterator("/proc/self/task"),
                         std::filesystem::directory_iterator{});
  };
  const auto before = threads();
  for (int round = 0; round < 100; ++round) {
    auto replies = transport.multicast_call(
        0, SiteSet{1, 2}, Message{0, StateInquiry{}},
        [](const std::vector<GatherReply>& so_far) { return !so_far.empty(); });
    ASSERT_EQ(replies.size(), 1u);
  }
  // The only thread a gather may start is the transport's straggler reaper.
  EXPECT_LE(threads(), before + 1);
}

TEST(TcpFanOutTest, ConcurrentCallsToOnePeerDoNotSerialize) {
  constexpr auto kDelay = 150ms;
  constexpr int kCallers = 3;
  DelayHandler handler(kDelay);
  auto server = TcpServer::start(0, &handler).value();
  TcpPeerTransport transport;
  transport.set_endpoint(1, "127.0.0.1", server->port());

  std::atomic<int> ok{0};
  const auto start = Clock::now();
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int i = 0; i < kCallers; ++i) {
    callers.emplace_back([&transport, &ok] {
      if (transport.call(0, 1, Message{0, StateInquiry{}}).is_ok()) {
        ok.fetch_add(1);
      }
    });
  }
  for (auto& caller : callers) caller.join();
  const auto elapsed = elapsed_since(start);

  EXPECT_EQ(ok.load(), kCallers);
  // One shared socket would serialize to kCallers * kDelay = 450ms; the
  // per-endpoint pool runs them concurrently.
  EXPECT_LT(elapsed, 2 * kDelay) << "channel pool serialized concurrent calls";
  EXPECT_EQ(handler.calls.load(), kCallers);
}

TEST(TcpFanOutTest, ChannelPoolReusesConnections) {
  DelayHandler handler(0ms);
  auto server = TcpServer::start(0, &handler).value();
  TcpChannel channel("127.0.0.1", server->port());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(channel.call(Message{0, StateInquiry{}}).is_ok());
  }
  EXPECT_EQ(handler.calls.load(), 20);
}

TEST(TcpFanOutTest, MeterSwapDuringConcurrentCallsLosesNoCounts) {
  // Regression: meter_ was a plain pointer, so set_traffic_meter racing
  // with the count() reads in concurrent call()s was a data race (TSan
  // catches the old code on this very test). With the atomic, every
  // transmission lands in whichever meter was installed at count time —
  // the sum across both meters must be exact.
  DelayHandler handler(1ms);
  auto server = TcpServer::start(0, &handler).value();
  TcpPeerTransport transport;
  transport.set_endpoint(1, "127.0.0.1", server->port());

  TrafficMeter meter_a;
  TrafficMeter meter_b;
  transport.set_traffic_meter(&meter_a);

  constexpr int kCallers = 4;
  constexpr int kCallsPerCaller = 25;
  std::atomic<bool> done{false};
  std::atomic<int> ok{0};
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int i = 0; i < kCallers; ++i) {
    callers.emplace_back([&] {
      for (int call = 0; call < kCallsPerCaller; ++call) {
        if (transport.call(0, 1, Message{0, StateInquiry{}}).is_ok()) {
          ok.fetch_add(1);
        }
      }
    });
  }
  std::thread swapper([&] {
    bool use_a = false;
    while (!done.load()) {
      transport.set_traffic_meter(use_a ? &meter_a : &meter_b);
      use_a = !use_a;
      std::this_thread::sleep_for(1ms);
    }
  });
  for (auto& caller : callers) caller.join();
  done.store(true);
  swapper.join();

  EXPECT_EQ(ok.load(), kCallers * kCallsPerCaller);
  // Every successful call is 1 request + 1 reply transmission; each must
  // have been counted in exactly one of the two meters.
  EXPECT_EQ(meter_a.total() + meter_b.total(),
            2u * static_cast<std::uint64_t>(kCallers) * kCallsPerCaller);
}

TEST(TcpFanOutTest, StragglerMetersIntoTheMeterActiveAtMulticastTime) {
  // The fan-out contract: multicast_call snapshots the meter once, so a
  // straggler's late reply is charged to the meter that was active when
  // the round started — not whatever was installed afterwards.
  constexpr auto kStragglerDelay = 400ms;
  DelayHandler fast(0ms);
  DelayHandler slow(kStragglerDelay);
  auto s1 = TcpServer::start(0, &fast).value();
  auto s2 = TcpServer::start(0, &slow).value();

  TrafficMeter round_meter;
  TrafficMeter later_meter;
  {
    TcpPeerTransport transport;
    transport.set_traffic_meter(&round_meter);
    transport.set_endpoint(1, "127.0.0.1", s1->port());
    transport.set_endpoint(2, "127.0.0.1", s2->port());

    auto replies = transport.multicast_call(
        0, SiteSet{1, 2}, Message{0, StateInquiry{}},
        [](const std::vector<GatherReply>& so_far) { return !so_far.empty(); });
    ASSERT_EQ(replies.size(), 1u);

    // Gather returned early; the straggler is still in flight. Swapping
    // the meter now must not redirect (or race with) its reply count.
    transport.set_traffic_meter(&later_meter);
    // Destructor drains the straggler.
  }
  EXPECT_EQ(round_meter.total(), 4u);  // 2 requests + 2 replies
  EXPECT_EQ(later_meter.total(), 0u);
  EXPECT_EQ(slow.calls.load(), 1);
}

TEST(TcpFanOutTest, TransportDestructorWaitsForStragglers) {
  DelayHandler fast(0ms);
  DelayHandler slow(400ms);
  auto s1 = TcpServer::start(0, &fast).value();
  auto s2 = TcpServer::start(0, &slow).value();
  {
    TcpPeerTransport transport;
    transport.set_endpoint(1, "127.0.0.1", s1->port());
    transport.set_endpoint(2, "127.0.0.1", s2->port());
    auto replies = transport.multicast_call(
        0, SiteSet{1, 2}, Message{0, StateInquiry{}},
        [](const std::vector<GatherReply>& so_far) { return !so_far.empty(); });
    EXPECT_EQ(replies.size(), 1u);
  }
  // If the destructor returned early the straggler would still be using
  // freed channels; reaching this line without crashing (and under TSan
  // without a race) is the assertion.
  EXPECT_EQ(slow.calls.load(), 1);
}

}  // namespace
}  // namespace reldev::net::tcp

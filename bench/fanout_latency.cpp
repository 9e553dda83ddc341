// FANOUT: sequential vs parallel quorum fan-out latency over real TCP.
// Each peer's handler sleeps an injected delay d before voting; sequential
// scatter-gather costs ~k*d, while TcpPeerTransport's multicast (the
// request written to every peer, then one poll() over all their sockets on
// the calling thread) costs ~d, and an early-stop read quorum with one
// straggler returns in ~d instead of the straggler's delay. These are the
// wins the transport must show before the protocol engines can be "as fast
// as the hardware allows" (ROADMAP).
#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <thread>
#include <vector>

#include "reldev/net/tcp/tcp_client.hpp"
#include "reldev/net/tcp/tcp_server.hpp"
#include "reldev/util/flags.hpp"
#include "reldev/util/table.hpp"

using namespace reldev;
using namespace std::chrono_literals;
using Clock = std::chrono::steady_clock;

namespace {

/// Replies StateInfo after the injected per-peer delay.
class DelayHandler : public net::MessageHandler {
 public:
  explicit DelayHandler(std::chrono::milliseconds delay) : delay_(delay) {}
  net::Message handle(const net::Message&) override {
    std::this_thread::sleep_for(delay_);
    return net::Message{0, net::StateInfo{net::SiteState::kAvailable, 1, {}}};
  }
  void handle_oneway(const net::Message&) override {}

 private:
  std::chrono::milliseconds delay_;
};

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// A replica group's peer set behind real TCP servers: `uniform` sites with
/// the base delay, plus optionally one straggler with its own delay.
struct PeerGroup {
  PeerGroup(std::size_t uniform, std::chrono::milliseconds delay,
            std::chrono::milliseconds straggler_delay, bool with_straggler)
      : uniform_handler(delay), straggler_handler(straggler_delay) {
    net::SiteId site = 1;
    for (std::size_t i = 0; i < uniform; ++i, ++site) {
      add_peer(site, &uniform_handler);
    }
    if (with_straggler) add_peer(site, &straggler_handler);
    // Warm the connection pools so measurements cover the round, not the
    // TCP handshakes.
    (void)transport.multicast_call(0, peers, net::Message{0,
                                                          net::StateInquiry{}});
  }

  void add_peer(net::SiteId site, net::MessageHandler* handler) {
    servers.push_back(net::tcp::TcpServer::start(0, handler).value());
    transport.set_endpoint(site, "127.0.0.1", servers.back()->port());
    peers.insert(site);
  }

  DelayHandler uniform_handler;
  DelayHandler straggler_handler;
  std::vector<std::unique_ptr<net::tcp::TcpServer>> servers;
  net::tcp::TcpPeerTransport transport;
  net::SiteSet peers;
};

/// One scatter-gather, peer by peer — a call per peer, each waiting for its
/// reply before the next is sent — kept here as the measured baseline.
double sequential_round(PeerGroup& group, const net::Message& request) {
  const auto start = Clock::now();
  for (const net::SiteId peer : group.peers) {
    (void)group.transport.call(0, peer, request);
  }
  return ms_since(start);
}

double parallel_round(PeerGroup& group, const net::Message& request,
                      const net::EarlyStop& early_stop = {}) {
  const auto start = Clock::now();
  (void)group.transport.multicast_call(0, group.peers, request, early_stop);
  return ms_since(start);
}

}  // namespace

int main(int argc, char** argv) {
  FlagSet flags;
  flags.add_int("delay-ms", 20, "injected per-peer handling delay");
  flags.add_int("straggler-ms", 200, "delay of the one slow peer");
  flags.add_int("rounds", 5, "measured rounds per configuration (best kept)");
  flags.add_bool("smoke", false, "short delays and few rounds (CI smoke run)");
  flags.add_bool("csv", false, "emit CSV");
  flags.add_string("json", "", "write a machine-readable summary to this path");
  if (auto status = flags.parse(argc, argv); !status.is_ok()) {
    std::cerr << status.to_string() << '\n';
    return 1;
  }
  if (flags.help_requested()) {
    std::cout << flags.usage("fanout_latency");
    return 0;
  }
  // The acceptance thresholds are relative (speedup, beat-the-straggler),
  // so the smoke run can shrink the injected delays without weakening them.
  const bool smoke = flags.get_bool("smoke");
  const auto delay = std::chrono::milliseconds(
      smoke ? std::min<std::int64_t>(flags.get_int("delay-ms"), 10)
            : flags.get_int("delay-ms"));
  const auto straggler_delay = std::chrono::milliseconds(
      smoke ? std::min<std::int64_t>(flags.get_int("straggler-ms"), 100)
            : flags.get_int("straggler-ms"));
  const auto rounds =
      smoke ? std::min<std::int64_t>(flags.get_int("rounds"), 2)
            : flags.get_int("rounds");
  const net::Message request{0, net::StateInquiry{}};

  TextTable table({"sites", "delay (ms)", "sequential (ms)", "parallel (ms)",
                   "speedup", "quorum w/ straggler (ms)",
                   "full gather w/ straggler (ms)"});
  table.set_title(
      "FANOUT: k peers with per-peer delay d — parallel gather is O(d), "
      "sequential O(k*d); an early-stop quorum dodges the straggler");

  struct JsonRow {
    std::size_t sites;
    double sequential_ms;
    double parallel_ms;
    double early_ms;
    double full_ms;
  };
  std::vector<JsonRow> json_rows;

  bool parallel_wins = true;
  bool early_stop_wins = true;
  for (const std::size_t sites : {3u, 5u, 7u}) {
    const std::size_t k = sites - 1;  // the coordinator polls its peers

    // Uniform group: every peer costs d. Sequential vs parallel.
    PeerGroup uniform(k, delay, straggler_delay, /*with_straggler=*/false);
    // Straggler group: k-1 peers cost d, one costs straggler_delay. An
    // early-stop gather needs a majority of `sites` voters (coordinator
    // included): quorum-1 peer replies, reachable without the straggler.
    PeerGroup skewed(k - 1, delay, straggler_delay, /*with_straggler=*/true);
    const std::size_t quorum_replies = sites / 2;
    const net::EarlyStop read_quorum =
        [quorum_replies](const std::vector<net::GatherReply>& so_far) {
          return so_far.size() >= quorum_replies;
        };

    double sequential = 1e9;
    double parallel = 1e9;
    double early = 1e9;
    double full = 1e9;
    for (std::int64_t round = 0; round < rounds; ++round) {
      sequential = std::min(sequential, sequential_round(uniform, request));
      parallel = std::min(parallel, parallel_round(uniform, request));
      early = std::min(early, parallel_round(skewed, request, read_quorum));
      full = std::min(full, parallel_round(skewed, request));
    }
    const double speedup = sequential / parallel;
    // k peers cap the ideal speedup at k; demand most of it, and at least
    // the 2x the acceptance bar sets for 5 sites.
    const double required = std::min(2.0, 0.8 * static_cast<double>(k));
    parallel_wins = parallel_wins && speedup >= required;
    early_stop_wins =
        early_stop_wins && early < static_cast<double>(straggler_delay.count());

    table.add_row({std::to_string(sites), std::to_string(delay.count()),
                   TextTable::fmt(sequential, 1), TextTable::fmt(parallel, 1),
                   TextTable::fmt(speedup, 2), TextTable::fmt(early, 1),
                   TextTable::fmt(full, 1)});
    json_rows.push_back(JsonRow{sites, sequential, parallel, early, full});
  }

  if (const std::string path = flags.get_string("json"); !path.empty()) {
    std::ofstream out(path);
    if (!out) {
      std::cerr << "cannot write " << path << '\n';
      return 1;
    }
    out << "{\n  \"bench\": \"fanout_latency\",\n  \"delay_ms\": "
        << delay.count() << ",\n  \"straggler_ms\": "
        << straggler_delay.count() << ",\n  \"results\": [\n";
    for (std::size_t i = 0; i < json_rows.size(); ++i) {
      const auto& row = json_rows[i];
      out << "    {\"op\": \"state-inquiry-round\", \"sites\": " << row.sites
          << ", \"sequential_ms\": " << row.sequential_ms
          << ", \"parallel_ms\": " << row.parallel_ms
          << ", \"early_stop_ms\": " << row.early_ms
          << ", \"full_gather_ms\": " << row.full_ms << "}"
          << (i + 1 < json_rows.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
  }

  if (flags.get_bool("csv")) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }
  std::cout << (parallel_wins ? "PASS" : "FAIL")
            << ": parallel fan-out >= 2x sequential at every group size\n";
  std::cout << (early_stop_wins ? "PASS" : "FAIL")
            << ": early-stop read quorum returns before the straggler\n";
  return parallel_wins && early_stop_wins ? 0 : 1;
}

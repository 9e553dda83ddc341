// One site server of the reliable device, as a standalone daemon — the
// "user-state server" of Figures 1 and 2. Run three of these, then point
// block_client at them:
//
//   ./reliable_device_daemon --site=0 --port=7000
//       --peers=127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002
//       --scheme=available-copy --blocks=128 --block-size=512
//       --store=/tmp/site0.rdev
//   (one command line; wrapped here for readability)
//
// The peer list is positional: entry i is site i's address. The store file
// persists blocks, versions, and the was-available set across restarts;
// after a restart the daemon runs the scheme's recovery protocol against
// its peers before serving.
#include <algorithm>
#include <csignal>
#include <iostream>
#include <memory>

#include "reldev/core/available_copy_replica.hpp"
#include "reldev/core/naive_replica.hpp"
#include "reldev/core/scrub_daemon.hpp"
#include "reldev/core/voting_replica.hpp"
#include "reldev/net/tcp/tcp_client.hpp"
#include "reldev/net/tcp/tcp_server.hpp"
#include "reldev/storage/file_block_store.hpp"
#include "reldev/util/flags.hpp"
#include "reldev/util/logging.hpp"

using namespace reldev;

namespace {

volatile std::sig_atomic_t g_stop = 0;
void handle_signal(int) { g_stop = 1; }

struct Endpoint {
  std::string host;
  std::uint16_t port;
};

Result<std::vector<Endpoint>> parse_peers(const std::string& text) {
  std::vector<Endpoint> peers;
  std::size_t start = 0;
  while (start <= text.size()) {
    const auto comma = text.find(',', start);
    const std::string item = text.substr(
        start, comma == std::string::npos ? std::string::npos : comma - start);
    const auto colon = item.rfind(':');
    if (colon == std::string::npos) {
      return errors::invalid_argument("peer '" + item + "' is not host:port");
    }
    try {
      const int port = std::stoi(item.substr(colon + 1));
      if (port <= 0 || port > 65535) throw std::out_of_range("port");
      peers.push_back(
          Endpoint{item.substr(0, colon), static_cast<std::uint16_t>(port)});
    } catch (const std::exception&) {
      return errors::invalid_argument("bad port in peer '" + item + "'");
    }
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  if (peers.empty()) return errors::invalid_argument("empty peer list");
  return peers;
}

}  // namespace

int main(int argc, char** argv) {
  FlagSet flags;
  flags.add_int("site", 0, "this site's id (index into --peers)");
  flags.add_int("port", 7000, "TCP port to listen on");
  flags.add_string("peers", "127.0.0.1:7000",
                   "comma-separated host:port list; entry i = site i");
  flags.add_string("scheme", "available-copy",
                   "voting | available-copy | naive-available-copy");
  flags.add_int("blocks", 128, "device size in blocks");
  flags.add_int("block-size", 512, "block size in bytes");
  flags.add_string("store", "", "path to the persistent store file "
                                "(empty = fresh in this run's tmp)");
  flags.add_int("call-timeout-ms", 5000,
                "per-peer RPC deadline: a dead peer costs at most this long");
  flags.add_int("scrub-interval", 0,
                "anti-entropy scrub cycle interval in ms (0 = scrubbing off)");
  flags.add_int("scrub-throttle", 0,
                "scrub byte budget (scan reads + healed payloads) in "
                "bytes/s; 0 = unthrottled");
  flags.add_bool("verbose", false, "debug logging");
  if (auto status = flags.parse(argc, argv); !status.is_ok()) {
    std::cerr << status.to_string() << '\n' << flags.usage(argv[0]);
    return 1;
  }
  if (flags.help_requested()) {
    std::cout << flags.usage(argv[0]);
    return 0;
  }
  if (flags.get_bool("verbose")) {
    Logger::instance().set_level(LogLevel::kDebug);
  }

  auto peers = parse_peers(flags.get_string("peers"));
  if (!peers) {
    std::cerr << peers.status().to_string() << '\n';
    return 1;
  }
  const auto site = static_cast<storage::SiteId>(flags.get_int("site"));
  const auto n = peers.value().size();
  if (site >= n) {
    std::cerr << "--site out of range for --peers\n";
    return 1;
  }
  const auto blocks = static_cast<std::size_t>(flags.get_int("blocks"));
  const auto block_size = static_cast<std::size_t>(flags.get_int("block-size"));

  // Open or create the persistent store.
  std::string store_path = flags.get_string("store");
  if (store_path.empty()) {
    store_path = "/tmp/reldev_site" + std::to_string(site) + ".rdev";
  }
  std::unique_ptr<storage::FileBlockStore> store;
  bool fresh = false;
  if (auto opened = storage::FileBlockStore::open(store_path); opened) {
    store = std::move(opened).value();
    if (store->block_count() != blocks || store->block_size() != block_size) {
      std::cerr << "store geometry mismatch: " << store_path << '\n';
      return 1;
    }
  } else {
    auto created = storage::FileBlockStore::create(store_path, blocks,
                                                   block_size);
    if (!created) {
      std::cerr << created.status().to_string() << '\n';
      return 1;
    }
    store = std::move(created).value();
    fresh = true;
  }

  // Wire up the peer transport.
  net::tcp::TcpPeerTransport transport;
  transport.set_call_timeout(
      std::chrono::milliseconds(flags.get_int("call-timeout-ms")));
  for (storage::SiteId peer = 0; peer < n; ++peer) {
    if (peer == site) continue;
    transport.set_endpoint(peer, peers.value()[peer].host,
                           peers.value()[peer].port);
  }

  const auto config = core::GroupConfig::majority(n, blocks, block_size);
  std::unique_ptr<core::ReplicaBase> replica;
  const std::string scheme = flags.get_string("scheme");
  if (scheme == "voting") {
    replica = std::make_unique<core::VotingReplica>(site, config, *store,
                                                    transport);
  } else if (scheme == "naive-available-copy") {
    replica = std::make_unique<core::NaiveAvailableCopyReplica>(
        site, config, *store, transport);
  } else if (scheme == "available-copy") {
    replica = std::make_unique<core::AvailableCopyReplica>(site, config,
                                                           *store, transport);
  } else {
    std::cerr << "unknown scheme '" << scheme << "'\n";
    return 1;
  }

  auto server = net::tcp::TcpServer::start(
      static_cast<std::uint16_t>(flags.get_int("port")), replica.get());
  if (!server) {
    std::cerr << server.status().to_string() << '\n';
    return 1;
  }
  std::cout << "site " << site << " (" << replica->scheme_name()
            << ") serving on port " << server.value()->port() << ", store "
            << store_path
            << (fresh ? " (fresh)" : " (reopened)") << '\n';

  // A restarted site must not serve stale data: run recovery until it
  // succeeds (peers may still be coming up).
  if (!fresh) {
    std::cout << "running recovery against peers...\n";
    while (g_stop == 0) {
      const auto status = replica->recover();
      if (status.is_ok()) break;
      std::cout << "  still comatose: " << status.to_string() << '\n';
      struct timespec delay{1, 0};
      nanosleep(&delay, nullptr);
    }
    std::cout << "recovered; state: "
              << net::site_state_name(replica->state()) << '\n';
  }

  // Background anti-entropy: walk the device in batches, exchange digests
  // with the peers, heal stale/rotted blocks — throttled so it never
  // competes with foreground traffic. Started only after recovery, so the
  // scrubber never runs over a state the scheme has not vouched for.
  std::unique_ptr<core::ScrubDaemon> scrubber;
  if (const auto interval = flags.get_int("scrub-interval"); interval > 0) {
    core::ScrubOptions scrub_options;
    scrub_options.cycle_interval = std::chrono::milliseconds(interval);
    scrub_options.bytes_per_sec = static_cast<std::uint64_t>(
        std::max<std::int64_t>(flags.get_int("scrub-throttle"), 0));
    scrub_options.jitter_seed = site + 1;  // desynchronize the fleet
    scrubber = std::make_unique<core::ScrubDaemon>(*replica, scrub_options);
    scrubber->start();
    std::cout << "scrub daemon: every " << interval << " ms"
              << (scrub_options.bytes_per_sec != 0
                      ? ", " + std::to_string(scrub_options.bytes_per_sec) +
                            " B/s budget"
                      : ", unthrottled")
              << '\n';
  }

  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);
  while (g_stop == 0) {
    struct timespec delay{0, 200 * 1000 * 1000};
    nanosleep(&delay, nullptr);
  }
  std::cout << "shutting down site " << site << '\n';
  if (scrubber) {
    scrubber->stop();
    std::cout << "scrub: " << core::format_scrub_stats(scrubber->stats())
              << '\n';
  }
  server.value()->stop();
  return 0;
}

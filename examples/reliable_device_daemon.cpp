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
// its peers before serving. A store file that exists but cannot be opened
// (a corrupt header, an I/O error, another geometry) is fatal: the daemon
// exits non-zero and leaves the file as it is. Delete the file to start
// the site fresh.
#include <algorithm>
#include <csignal>
#include <iostream>

#include "reldev/core/site.hpp"
#include "reldev/net/tcp/tcp_client.hpp"
#include "reldev/util/flags.hpp"
#include "reldev/util/logging.hpp"

using namespace reldev;

namespace {

volatile std::sig_atomic_t g_stop = 0;
void handle_signal(int) { g_stop = 1; }

void sleep_ms(long ms) {
  struct timespec delay{ms / 1000, (ms % 1000) * 1000 * 1000};
  nanosleep(&delay, nullptr);
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

  // Installed first, so a SIGTERM during recovery stops the daemon too.
  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);

  auto peers = net::tcp::parse_endpoints(flags.get_string("peers"));
  if (!peers) {
    std::cerr << "--peers: " << peers.status().to_string() << '\n';
    return 1;
  }
  auto scheme = core::scheme_kind_from_name(flags.get_string("scheme"));
  if (!scheme) {
    std::cerr << "--scheme: " << scheme.status().to_string() << '\n';
    return 1;
  }
  const auto site_id = static_cast<storage::SiteId>(flags.get_int("site"));
  const auto n = peers.value().size();
  if (site_id >= n) {
    std::cerr << "--site out of range for --peers\n";
    return 1;
  }

  net::tcp::TcpPeerTransport transport;
  transport.set_call_timeout(
      std::chrono::milliseconds(flags.get_int("call-timeout-ms")));
  for (storage::SiteId peer = 0; peer < n; ++peer) {
    if (peer == site_id) continue;
    transport.set_endpoint(peer, peers.value()[peer].host,
                           peers.value()[peer].port);
  }

  core::SiteOptions options;
  options.scheme = scheme.value();
  options.store_path = flags.get_string("store");
  if (options.store_path.empty()) {
    options.store_path =
        "/tmp/reldev_site" + std::to_string(site_id) + ".rdev";
  }
  options.listen_port = static_cast<std::uint16_t>(flags.get_int("port"));
  options.scrub.cycle_interval =
      std::chrono::milliseconds(flags.get_int("scrub-interval"));
  options.scrub.bytes_per_sec = static_cast<std::uint64_t>(
      std::max<std::int64_t>(flags.get_int("scrub-throttle"), 0));
  options.scrub.jitter_seed = site_id + 1;  // desynchronize the fleet
  auto opened = core::Site::open(
      site_id,
      core::GroupConfig::majority(
          n, static_cast<std::size_t>(flags.get_int("blocks")),
          static_cast<std::size_t>(flags.get_int("block-size"))),
      transport, options);
  if (!opened) {
    std::cerr << options.store_path << ": "
              << opened.status().to_string() << '\n';
    return 1;
  }
  core::Site& site = *opened.value();
  std::cout << "site " << site_id << " (" << site.replica().scheme_name()
            << ") serving on port " << site.port() << ", store "
            << options.store_path
            << (site.reopened() ? " (reopened)" : " (fresh)") << std::endl;

  // A restarted site must not serve stale data: Site::open ran one
  // recovery round; retry until it succeeds (peers may still be coming up).
  if (site.reopened()) {
    std::cout << "running recovery against peers..." << std::endl;
    while (g_stop == 0 &&
           site.replica().state() != net::SiteState::kAvailable) {
      sleep_ms(1000);
      const auto status = site.replica().recover();
      if (!status.is_ok()) {
        std::cout << "  still comatose: " << status.to_string() << std::endl;
      }
    }
    std::cout << "recovered; state: "
              << net::site_state_name(site.replica().state()) << std::endl;
  }

  // Background anti-entropy: walk the device in batches, exchange digests
  // with the peers, heal stale/rotted blocks — throttled so it never
  // competes with foreground traffic. Started only after recovery, so the
  // scrubber never runs over a state the scheme has not vouched for.
  if (const auto interval = flags.get_int("scrub-interval"); interval > 0) {
    site.scrubber().start();
    std::cout << "scrub daemon: every " << interval << " ms"
              << (options.scrub.bytes_per_sec != 0
                      ? ", " + std::to_string(options.scrub.bytes_per_sec) +
                            " B/s budget"
                      : ", unthrottled")
              << std::endl;
  }

  while (g_stop == 0) sleep_ms(200);
  std::cout << "shutting down site " << site_id << '\n';
  if (site.scrubber().running()) {
    site.scrubber().stop();
    std::cout << "scrub: " << core::format_scrub_stats(site.scrubber().stats())
              << '\n';
  }
  return 0;
}

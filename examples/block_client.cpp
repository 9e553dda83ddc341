// Block-level client for the reliable device daemons: the device-driver
// stub of Figure 1 as a command-line tool.
//
//   ./block_client --servers=127.0.0.1:7000,127.0.0.1:7001 write 3 "hello"
//   ./block_client --servers=127.0.0.1:7000,127.0.0.1:7001 read 3
//   ./block_client --servers=... info
//   ./block_client --servers=... bench 100
#include <chrono>
#include <cstring>
#include <iostream>

#include "reldev/core/driver_stub.hpp"
#include "reldev/net/tcp/tcp_client.hpp"
#include "reldev/util/flags.hpp"

using namespace reldev;

namespace {

constexpr storage::SiteId kClientId = 1000;

}  // namespace

int main(int argc, char** argv) {
  FlagSet flags;
  flags.add_string("servers", "127.0.0.1:7000",
                   "comma-separated site-server addresses, tried in order");
  if (auto status = flags.parse(argc, argv); !status.is_ok()) {
    std::cerr << status.to_string() << '\n';
    return 1;
  }
  if (flags.help_requested() || flags.positional().empty()) {
    std::cout << flags.usage(argv[0])
              << "commands:\n"
                 "  info                 print device geometry\n"
                 "  read <block>         read one block, print as text\n"
                 "  write <block> <text> write text into one block\n"
                 "  bench <count>        time <count> write+read pairs\n";
    return flags.help_requested() ? 0 : 1;
  }

  auto servers = net::tcp::parse_endpoints(flags.get_string("servers"));
  if (!servers) {
    std::cerr << "--servers: " << servers.status().to_string() << '\n';
    return 1;
  }
  net::tcp::TcpPeerTransport transport;
  std::vector<storage::SiteId> ids;
  for (std::size_t i = 0; i < servers.value().size(); ++i) {
    const auto id = static_cast<storage::SiteId>(i);
    transport.set_endpoint(id, servers.value()[i].host,
                           servers.value()[i].port);
    ids.push_back(id);
  }
  auto stub = core::DriverStub::connect(transport, kClientId, ids);
  if (!stub) {
    std::cerr << "connect: " << stub.status().to_string() << '\n';
    return 1;
  }

  const auto& args = flags.positional();
  const std::string& command = args[0];
  if (command == "info") {
    std::cout << "block_count=" << stub.value().block_count()
              << " block_size=" << stub.value().block_size() << '\n';
    return 0;
  }
  if (command == "read" && args.size() == 2) {
    const auto block = static_cast<storage::BlockId>(std::stoull(args[1]));
    auto data = stub.value().read_block(block);
    if (!data) {
      std::cerr << data.status().to_string() << '\n';
      return 1;
    }
    const std::string text(reinterpret_cast<const char*>(data.value().data()),
                           data.value().size());
    std::cout << text.substr(0, text.find('\0')) << '\n';
    return 0;
  }
  if (command == "write" && args.size() == 3) {
    const auto block = static_cast<storage::BlockId>(std::stoull(args[1]));
    storage::BlockData data(stub.value().block_size(), std::byte{0});
    std::memcpy(data.data(), args[2].data(),
                std::min(args[2].size(), data.size()));
    const auto status = stub.value().write_block(block, data);
    std::cout << status.to_string() << '\n';
    return status.is_ok() ? 0 : 1;
  }
  if (command == "bench" && args.size() == 2) {
    const int count = std::stoi(args[1]);
    storage::BlockData data(stub.value().block_size(), std::byte{0x5a});
    const auto start = std::chrono::steady_clock::now();
    // Names the failing op, its block, the returned status and the stub's
    // retry detail: which site answered last, after how many attempts.
    const auto failed = [&](int i, const char* op, storage::BlockId block,
                            const Status& status) {
      const auto detail = stub.value().last_failure();
      std::cerr << "operation " << i << " failed: " << op << " block "
                << block << ": " << status.to_string() << " (last site "
                << detail.last_site << ", " << detail.attempts
                << " attempt(s), " << detail.rounds << " round(s))\n";
      return 1;
    };
    for (int i = 0; i < count; ++i) {
      const auto block =
          static_cast<storage::BlockId>(i) % stub.value().block_count();
      if (auto status = stub.value().write_block(block, data);
          !status.is_ok()) {
        return failed(i, "write", block, status);
      }
      if (auto read = stub.value().read_block(block); !read) {
        return failed(i, "read", block, read.status());
      }
    }
    const auto elapsed = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
    std::cout << count << " write+read pairs in " << elapsed << " s ("
              << static_cast<int>(2 * count / elapsed) << " ops/s)\n";
    return 0;
  }
  std::cerr << "unknown command; run with --help\n";
  return 1;
}

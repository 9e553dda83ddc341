// Quickstart: build a 3-site reliable device, write and read blocks, kill
// a site, keep working, recover it, and watch it catch up.
//
//   ./quickstart [--scheme=available-copy|naive-available-copy|voting]
#include <cstring>
#include <iostream>

#include "reldev/core/group.hpp"
#include "reldev/util/flags.hpp"

using namespace reldev;

namespace {

storage::BlockData from_text(const std::string& text, std::size_t block_size) {
  storage::BlockData data(block_size, std::byte{0});
  std::memcpy(data.data(), text.data(), std::min(text.size(), block_size));
  return data;
}

std::string to_text(const storage::BlockData& data) {
  std::string text(reinterpret_cast<const char*>(data.data()), data.size());
  return text.substr(0, text.find('\0'));
}

}  // namespace

int main(int argc, char** argv) {
  FlagSet flags;
  flags.add_string("scheme", "available-copy",
                   "consistency scheme: voting, available-copy, "
                   "naive-available-copy");
  if (auto status = flags.parse(argc, argv); !status.is_ok()) {
    std::cerr << status.to_string() << '\n';
    return 1;
  }
  if (flags.help_requested()) {
    std::cout << flags.usage("quickstart");
    return 0;
  }

  const auto parsed = core::scheme_kind_from_name(flags.get_string("scheme"));
  if (!parsed) {
    std::cerr << parsed.status().to_string() << '\n';
    return 1;
  }
  const auto scheme = parsed.value();
  std::cout << "Reliable device quickstart — scheme: "
            << core::scheme_kind_name(scheme) << "\n\n";

  // A replicated block device: 3 sites, 64 blocks of 512 bytes.
  core::ReplicaGroup group(scheme, core::GroupConfig::majority(3, 64, 512));

  // 1. Ordinary block I/O through site 0.
  std::cout << "write block 7 via site 0... ";
  auto status = group.write(0, 7, from_text("hello, replicated world", 512));
  std::cout << status.to_string() << '\n';

  std::cout << "read  block 7 via site 2... ";
  auto read = group.read(2, 7);
  std::cout << '"' << to_text(read.value()) << "\"\n\n";

  // 2. A site dies; the device keeps serving.
  std::cout << "site 1 crashes (fail-stop)\n";
  group.crash_site(1);
  std::cout << "write block 8 via site 0... "
            << group.write(0, 8, from_text("written during the outage", 512))
                   .to_string()
            << '\n';
  std::cout << "read  block 8 via site 2... \""
            << to_text(group.read(2, 8).value()) << "\"\n\n";

  // 3. The site returns and recovers the blocks it missed.
  std::cout << "site 1 repairs and recovers... "
            << group.recover_site(1).to_string() << '\n';
  std::cout << "site 1 state: "
            << net::site_state_name(group.replica(1).state()) << '\n';
  std::cout << "read  block 8 via site 1... \""
            << to_text(group.read(1, 8).value()) << "\"\n\n";

  // 4. Where did the traffic go?
  std::cout << "high-level transmissions so far: " << group.meter().total()
            << " (the naive scheme uses the fewest — try --scheme)\n";
  return 0;
}

// The naive available-copy scheme (§3.3, Figure 6): available copy with
// W_s fixed to the full site set. No failure information is maintained, so
// a write is a single unacknowledged push — the cheapest write of the
// three schemes — but after a total failure the block stays out of service
// until every site has recovered.
#pragma once

#include "reldev/core/replica.hpp"

namespace reldev::core {

class NaiveAvailableCopyReplica final : public ReplicaBase {
 public:
  NaiveAvailableCopyReplica(SiteId self, GroupConfig config,
                            storage::BlockStore& store,
                            net::Transport& transport);

  [[nodiscard]] const char* scheme_name() const noexcept override {
    return "naive-available-copy";
  }

  /// Local read, exactly as under the tracked scheme.
  [[nodiscard]] Result<storage::BlockData> read_range(BlockId first,
                                                      std::size_t count) override {
    return read_local(first, count);
  }

  /// The whole range in ONE unacknowledged grouped push to all peers (a
  /// single transmission on a multicast network — the scheme's whole
  /// advantage).
  [[nodiscard]] Status write_range(BlockId first, std::span<const std::byte> data) override;

  /// Figure 6: repair from any available site, or — after a total failure —
  /// wait for all sites and take the highest version.
  [[nodiscard]] Status recover() override;

 protected:
  net::Message handle_peer(const net::Message& request) override;
  void handle_peer_oneway(const net::Message& message) override;

 private:
  [[nodiscard]] Status repair_from(SiteId source);
};

}  // namespace reldev::core

// The available-copy scheme adapted to block-level replication (§3.2,
// Figure 5). Writes go to all available copies; reads are purely local.
// Each site maintains a was-available set W_s — the sites that received
// its most recent write plus the sites that have repaired from it —
// persisted with the store so it survives crashes. After a total failure
// the site may return to service once the closure C*(W_s) has recovered,
// taking the highest version among the closure's members.
#pragma once

#include "reldev/core/closure.hpp"
#include "reldev/core/replica.hpp"

namespace reldev::core {

/// How writers propagate their was-available sets (§3.2 discusses both).
enum class WasAvailablePolicy {
  /// Each write carries the writer's *current* W; recipients adopt it.
  /// Their knowledge lags one write behind — cheap, still safe (a lagging
  /// W is a superset, which can only enlarge the closure and delay
  /// recovery, never corrupt it).
  kPiggybacked,
  /// After gathering acknowledgements the writer pushes the exact ack set
  /// to the recipients — the "atomic broadcast" the paper posits. One
  /// extra transmission per write; failure-order knowledge is exact, which
  /// matches the Figure-7 availability model.
  kEagerBroadcast,
};

class AvailableCopyReplica final : public ReplicaBase {
 public:
  AvailableCopyReplica(SiteId self, GroupConfig config,
                       storage::BlockStore& store, net::Transport& transport,
                       WasAvailablePolicy policy =
                           WasAvailablePolicy::kEagerBroadcast);

  [[nodiscard]] const char* scheme_name() const noexcept override {
    return "available-copy";
  }

  /// Local read; kUnavailable unless this site is `available`. No traffic
  /// unless a block is corrupt and must be healed from peers.
  [[nodiscard]] Result<storage::BlockData> read_range(BlockId first,
                                                      std::size_t count) override {
    return read_local(first, count);
  }

  /// Write-all: the whole range rides in ONE grouped push to every peer
  /// (one high-level transmission however many blocks it carries); the
  /// available peers acknowledge, and W becomes exactly the set that
  /// received the write.
  [[nodiscard]] Status write_range(BlockId first, std::span<const std::byte> data) override;

  /// Figure 5. Becomes comatose, inquires group state, then either repairs
  /// from an available site, or — after a total failure — waits until
  /// C*(W_s) has recovered and repairs from its highest-version member.
  /// kUnavailable while the wait condition is unmet (call again later).
  [[nodiscard]] Status recover() override;

  /// The current was-available set (exposed for tests and experiments).
  [[nodiscard]] const SiteSet& was_available() const noexcept { return was_available_; }

 protected:
  net::Message handle_peer(const net::Message& request) override;
  void handle_peer_oneway(const net::Message& message) override;

  [[nodiscard]] WasAvailablePolicy policy() const noexcept { return policy_; }

 private:
  void persist_metadata();
  void load_metadata();
  [[nodiscard]] Status repair_from(SiteId source);

  WasAvailablePolicy policy_;
  SiteSet was_available_;
};

}  // namespace reldev::core

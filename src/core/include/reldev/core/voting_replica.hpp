// Majority consensus voting at the block level (§3.1, Figures 3 and 4).
// Reads and writes collect votes — (weight, per-block versions) — from
// every reachable site in one round per operation, whatever its block
// range (a single-block operation is a range of one); a quorum by weight
// admits the operation. Out-of-date blocks are repaired lazily: a read
// refreshes only the blocks it touches,
// a write overwrites stale copies in the quorum as a side effect, and a
// recovering site does nothing at all at repair time — the property that
// lets block-level voting dispense with recovery traffic entirely (§5).
#pragma once

#include "reldev/core/replica.hpp"

namespace reldev::core {

class VotingReplica final : public ReplicaBase {
 public:
  VotingReplica(SiteId self, GroupConfig config, storage::BlockStore& store,
                net::Transport& transport);

  [[nodiscard]] const char* scheme_name() const noexcept override {
    return "voting";
  }

  /// Figure 3, batched: ONE vote round covering the whole range (each
  /// reply carries a version vector), one grouped fetch per stale source
  /// site, then the range is served locally. A block whose local record is
  /// corrupt is demoted and fetched from its best peer voter of the same
  /// round.
  [[nodiscard]] Result<storage::BlockData> read_range(BlockId first,
                                        std::size_t count) override;

  /// Figure 4 for one block: the shared vote round and local write, then
  /// the paper's single unacknowledged multicast to the quorum (n + 1
  /// transmissions, the cost §5 analyses).
  [[nodiscard]] Status write(BlockId block, std::span<const std::byte> data) override;

  /// Figure 4, batched: one vote round for the range, local writes at
  /// per-block max+1, then one grouped push to the quorum. The quorum is
  /// checked before any local mutation, so a failed batch leaves nothing
  /// behind (atomic-none); the push is a single message per site, so a
  /// recipient applies the whole batch or none of it. The push is
  /// acknowledged, and losing the write quorum between the vote round and
  /// the push reports kUnavailable.
  [[nodiscard]] Status write_range(BlockId first, std::span<const std::byte> data) override;

  /// Voting sites are always immediately available after repair: stale
  /// blocks are caught by version numbers at access time.
  [[nodiscard]] Status recover() override;

 protected:
  net::Message handle_peer(const net::Message& request) override;

 private:
  struct RangeVotes {
    std::uint64_t weight_millivotes = 0;            // including self
    std::vector<storage::VersionNumber> max_versions;  // per block in range
    std::vector<SiteId> max_sites;                  // site holding each max
    std::vector<net::GatherReply> replies;          // the raw peer votes
  };
  RangeVotes collect_range_votes(net::AccessKind access, BlockId first,
                                 std::size_t count);

  /// A write-quorum push ready to send: the voters and the grouped update.
  struct Push {
    SiteSet quorum;
    net::Message message;
  };
  /// Everything in a write before the push, shared by write() and
  /// write_range(): the range vote round, the write-quorum check, and the
  /// local writes at per-block max+1.
  [[nodiscard]] Result<Push> vote_and_write_locally(
      BlockId first, std::span<const std::byte> data);
};

}  // namespace reldev::core

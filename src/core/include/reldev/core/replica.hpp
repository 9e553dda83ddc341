// ReplicaBase: one site's server process. Holds the site's block store,
// answers peer protocol messages, and exposes the coordinator-side device
// operations (read/write/recover) that each consistency scheme implements.
// The same object serves the in-process transport, the simulator, and TCP.
#pragma once

#include <span>

#include "reldev/core/device.hpp"
#include "reldev/core/types.hpp"
#include "reldev/net/message.hpp"
#include "reldev/net/transport.hpp"
#include "reldev/storage/block_store.hpp"

namespace reldev::core {

using net::SiteState;

class ReplicaBase : public net::MessageHandler {
 public:
  ReplicaBase(SiteId self, GroupConfig config, storage::BlockStore& store,
              net::Transport& transport);
  ~ReplicaBase() override = default;

  [[nodiscard]] SiteId id() const noexcept { return self_; }
  [[nodiscard]] SiteState state() const noexcept { return state_; }
  [[nodiscard]] const GroupConfig& config() const noexcept { return config_; }
  [[nodiscard]] storage::BlockStore& store() noexcept { return store_; }
  /// The peer transport (the scrub daemon drives its digest exchange and
  /// heal fetches over the same links the foreground protocol uses).
  [[nodiscard]] net::Transport& transport() noexcept { return transport_; }

  /// Name of the scheme this replica runs ("voting", ...), for logs.
  [[nodiscard]] virtual const char* scheme_name() const noexcept = 0;

  // --- coordinator-side device operations --------------------------------
  // Each scheme has one read and one write implementation: the range
  // operations. A single-block operation is a range of one block.

  /// Read one block with the scheme's consistency rules.
  [[nodiscard]] Result<storage::BlockData> read(BlockId block) {
    return read_range(block, 1);
  }

  /// Write one block (full block) with the scheme's consistency rules:
  /// kInvalidArgument unless `data` is exactly one block, otherwise the
  /// range write of that one block.
  [[nodiscard]] virtual Status write(BlockId block, std::span<const std::byte> data);

  /// Read of blocks [first, first + count) as one flat buffer.
  [[nodiscard]] virtual Result<storage::BlockData> read_range(BlockId first,
                                                std::size_t count) = 0;

  /// Write of data.size() / block_size consecutive blocks starting at
  /// `first`.
  [[nodiscard]] virtual Status write_range(BlockId first, std::span<const std::byte> data) = 0;

  // --- lifecycle -----------------------------------------------------------

  /// Fail-stop crash: volatile state is lost; persistent state (the block
  /// store and its metadata) survives. The caller is responsible for also
  /// marking the site unreachable on the transport.
  void crash() noexcept { state_ = SiteState::kFailed; }

  /// Run the scheme's recovery procedure. Returns kOk when the replica
  /// reached `available`; kUnavailable when it must stay comatose and try
  /// again later (e.g. the closure has not fully recovered). The caller
  /// must have made the site reachable again before calling.
  [[nodiscard]] virtual Status recover() = 0;

  // --- anti-entropy scrub support ------------------------------------------
  // Heal entry points the background scrubber uses once a digest exchange
  // has identified a block as stale or corrupt. Both are safe against
  // concurrent foreground progress: a local copy that advanced past what
  // the scrubber observed is never demoted or overwritten.

  /// Refresh stale local copies of `blocks` from `source` with one batch
  /// fetch, applying only updates strictly newer than the local version.
  /// Returns the blocks actually replaced.
  [[nodiscard]] virtual Result<std::vector<BlockId>> scrub_heal_stale(
      const std::vector<BlockId>& blocks, SiteId source);

  /// Heal one latently corrupt local block off the read/write path. The
  /// base demotes and runs the repair round (the available-copy family's
  /// machinery); voting overrides to heal through its vote round.
  [[nodiscard]] virtual Status scrub_heal_corrupt(BlockId block);

  // --- MessageHandler ------------------------------------------------------

  net::Message handle(const net::Message& request) final;
  void handle_oneway(const net::Message& message) final;

 protected:
  /// Scheme-specific request dispatch for peer messages the base does not
  /// understand; return an ErrorReply for unexpected types.
  virtual net::Message handle_peer(const net::Message& request) = 0;
  virtual void handle_peer_oneway(const net::Message& message) = 0;

  /// Every peer except this site.
  [[nodiscard]] SiteSet peers() const;

  void set_state(SiteState state) noexcept { state_ = state; }

  /// Current version vector of the local store.
  [[nodiscard]] storage::VersionVector local_versions() const {
    return store_.version_vector();
  }

  /// Build a RepairReply for a peer whose vector is `theirs`: my vector
  /// plus every block where mine is newer.
  [[nodiscard]] net::RepairReply build_repair_reply(
      const storage::VersionVector& theirs) const;

  /// Apply a RepairReply: replace every block the source knew newer.
  [[nodiscard]] Status apply_repair(const net::RepairReply& reply);

  /// Media-fault repair: demote a locally corrupt block to "needs repair"
  /// and refill it from peers with one RepairRequest round, applying every
  /// answer. kOk once at least one peer replied (the block then holds the
  /// newest version any reachable peer had); kCorruption when the damaged
  /// copy is the only one reachable. The available-copy family heals
  /// through this (read_local); voting heals from its range vote instead.
  [[nodiscard]] Status heal_corrupt_block(BlockId block);

  /// The available-copy family's read: kUnavailable unless this site is
  /// `available`, then every block of the range is served locally, and a
  /// corrupt one is first healed through heal_corrupt_block.
  [[nodiscard]] Result<storage::BlockData> read_local(BlockId first,
                                                      std::size_t count);

  /// Every engine's last read step: blocks [first, first + count) from the
  /// local store as one flat buffer. A record that fails its checksum is
  /// handed to `heal(block)`, which must demote and refill it, and read
  /// again. A one-block read returns the stored buffer without a copy.
  template <typename Heal>
  [[nodiscard]] Result<storage::BlockData> serve_local(BlockId first,
                                                       std::size_t count,
                                                       Heal heal) {
    storage::BlockData out;
    for (BlockId block = first; block < first + count; ++block) {
      auto stored = store_.read(block);
      if (!stored && stored.status().code() == ErrorCode::kCorruption) {
        if (auto status = heal(block); !status.is_ok()) return status;
        stored = store_.read(block);
      }
      if (!stored) return stored.status();
      auto& data = stored.value().data;
      if (block == first) {
        out = std::move(data);
        out.reserve(count * config_.block_size);
      } else {
        out.insert(out.end(), data.begin(), data.end());
      }
    }
    return out;
  }

  /// Validation shared by the range operations: count > 0 and the whole
  /// range inside the device.
  [[nodiscard]] Status check_range(BlockId first, std::size_t count) const;

  /// check_range for a write payload, which must also be a non-empty
  /// multiple of the block size. Returns the block count.
  [[nodiscard]] Result<std::size_t> check_write_range(
      BlockId first, std::span<const std::byte> data) const;

  SiteId self_;
  GroupConfig config_;
  storage::BlockStore& store_;
  net::Transport& transport_;
  SiteState state_ = SiteState::kAvailable;
};

/// Adapts a replica to the BlockDevice interface so the file system can
/// mount a replicated device exactly like a local disk.
class ReplicaDevice final : public BlockDevice {
 public:
  explicit ReplicaDevice(ReplicaBase& replica) : replica_(replica) {}

  [[nodiscard]] std::size_t block_count() const noexcept override {
    return replica_.config().block_count;
  }
  [[nodiscard]] std::size_t block_size() const noexcept override {
    return replica_.config().block_size;
  }
  [[nodiscard]] Result<storage::BlockData> read_block(BlockId block) override {
    return replica_.read(block);
  }
  [[nodiscard]] Status write_block(BlockId block, std::span<const std::byte> data) override {
    return replica_.write(block, data);
  }
  [[nodiscard]] Result<storage::BlockData> read_blocks(BlockId first,
                                         std::size_t count) override {
    return replica_.read_range(first, count);
  }
  [[nodiscard]] Status write_blocks(BlockId first, std::span<const std::byte> data) override {
    return replica_.write_range(first, data);
  }

 private:
  ReplicaBase& replica_;
};

}  // namespace reldev::core

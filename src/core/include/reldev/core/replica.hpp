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

  // --- taking a peer's blocks ---------------------------------------------

  /// Fetch `blocks` from `source` in one BatchFetch round trip and install
  /// every update strictly newer than the local copy (apply_newer). Returns
  /// the blocks actually replaced. Voting's read refresh and the scrubber's
  /// stale and corrupt heals all fetch through here, so a local copy that
  /// advanced past what the caller observed is never overwritten.
  [[nodiscard]] Result<std::vector<BlockId>> fetch_newer(
      std::vector<BlockId> blocks, SiteId source);

  // --- MessageHandler ------------------------------------------------------

  net::Message handle(const net::Message& request) final;
  void handle_oneway(const net::Message& message) final;

 protected:
  /// Scheme-specific request dispatch for peer messages the base does not
  /// understand; return an ErrorReply for unexpected types.
  virtual net::Message handle_peer(const net::Message& request) = 0;
  /// The same for one-way messages; the default logs and drops them.
  virtual void handle_peer_oneway(const net::Message& message);

  /// Runs after a peer's push has been applied, before it is acknowledged
  /// (available copy adopts the piggybacked was-available set here).
  virtual void on_push_applied(SiteId /*from*/,
                               const net::BatchWriteRequest& /*push*/) {}

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

  /// The one way a peer's blocks enter the local store: write each update
  /// that is strictly newer than the local copy, in order. Returns the
  /// blocks replaced; the first store error stops it and is returned.
  [[nodiscard]] Result<std::vector<BlockId>> apply_newer(
      std::span<const net::BlockUpdate> updates);

  /// One repair round trip: send `source` a RepairRequest with the local
  /// version vector, apply its reply, and return the source's vector. An
  /// ErrorReply comes back as its status.
  [[nodiscard]] Result<storage::VersionVector> repair_from(SiteId source);

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

  /// The device's range validation (device.hpp) on this group's geometry.
  [[nodiscard]] Status check_range(BlockId first, std::size_t count) const {
    return core::check_range(first, count, config_.block_count);
  }
  [[nodiscard]] Result<std::size_t> check_write_range(
      BlockId first, std::span<const std::byte> data) const {
    return core::check_write_range(first, data, config_.block_count,
                                   config_.block_size);
  }

  SiteId self_;
  GroupConfig config_;
  storage::BlockStore& store_;
  net::Transport& transport_;
  SiteState state_ = SiteState::kAvailable;

 private:
  /// The push handler every engine shares: only an `available` copy takes
  /// a push, and it is applied (apply_newer, then on_push_applied) before
  /// anything acknowledges it.
  [[nodiscard]] Status take_push(const net::Message& message);
};

/// Adapts a replica to the BlockDevice interface so the file system can
/// mount a replicated device exactly like a local disk. Every access is a
/// range operation, so a one-block write takes the scheme's range write
/// (under voting: the acknowledged push and its quorum re-check).
class ReplicaDevice final : public BlockDevice {
 public:
  explicit ReplicaDevice(ReplicaBase& replica) : replica_(replica) {}

  [[nodiscard]] std::size_t block_count() const noexcept override {
    return replica_.config().block_count;
  }
  [[nodiscard]] std::size_t block_size() const noexcept override {
    return replica_.config().block_size;
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

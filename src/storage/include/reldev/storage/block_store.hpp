// The block-store interface: an "ordinary block-structured device" (§2)
// extended with the per-block version numbers the consistency algorithms
// need. One implementation is a plain in-memory array; another persists to
// a single file with checksummed blocks and a metadata region.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "reldev/storage/block.hpp"
#include "reldev/storage/version.hpp"
#include "reldev/util/result.hpp"

namespace reldev::storage {

/// Monotonic per-store sequence number stamped on every accepted mutation.
/// 0 means "nothing accepted yet"; sequences never repeat within one open
/// store instance.
using CommitSequence = std::uint64_t;

/// One entry of a write batch. `data` must be exactly block_size() bytes
/// and stay valid for the call; the store copies it into the record.
struct BlockWrite {
  BlockId block = 0;
  std::span<const std::byte> data;
  VersionNumber version = 0;
};

/// The result of a range read: blocks [first, first + count) as one flat
/// buffer plus each block's version. A block whose record failed its
/// checksum (or is cut short) is listed in `corrupt`, in block order, and
/// reads as version 0 zeros; the store itself is left as it is.
struct RangeRead {
  BlockData data;
  std::vector<VersionNumber> versions;
  std::vector<BlockId> corrupt;
};

class BlockStore {
 public:
  virtual ~BlockStore() = default;

  [[nodiscard]] virtual std::size_t block_count() const noexcept = 0;
  [[nodiscard]] virtual std::size_t block_size() const noexcept = 0;

  /// Read one block's payload and version.
  [[nodiscard]] virtual Result<VersionedBlock> read(BlockId block) const = 0;

  /// Write one block's payload, stamping it with `version`. The payload
  /// must be exactly block_size() bytes.
  [[nodiscard]] virtual Status write(BlockId block, std::span<const std::byte> data,
                       VersionNumber version) = 0;

  /// Write every entry of `writes`, in order, as if by write() each. All
  /// entries are validated before anything is written, so a bad entry
  /// writes nothing; the first store error stops the batch. The default
  /// loops over write(); the file store serves a run of consecutive
  /// blocks with one vectored write.
  [[nodiscard]] virtual Status write_batch(std::span<const BlockWrite> writes);

  /// Read blocks [first, first + count). A record that fails its checksum
  /// is reported in RangeRead::corrupt rather than failing the call; any
  /// other error fails it. The default loops over read(); the file store
  /// serves a run of records with one vectored read.
  [[nodiscard]] virtual Result<RangeRead> read_range(BlockId first,
                                                     std::size_t count) const;

  /// The version of one block without reading its payload.
  [[nodiscard]] virtual Result<VersionNumber> version_of(BlockId block) const = 0;

  /// Snapshot of all block versions (the vector v of §3.2).
  [[nodiscard]] virtual VersionVector version_vector() const = 0;

  /// Opaque site metadata (state flags, was-available set). Persistent
  /// stores keep this across reopen; the in-memory store keeps it for
  /// interface parity.
  [[nodiscard]] virtual Status put_metadata(std::span<const std::byte> blob) = 0;
  [[nodiscard]] virtual Result<std::vector<std::byte>> get_metadata() const = 0;

  /// Make everything written so far crash-durable. A no-op for volatile
  /// stores; persistent stores fsync. The durability contract across the
  /// library: a write is "committed" once a sync() issued after it
  /// returned OK.
  [[nodiscard]] virtual Status sync() { return Status::ok(); }

  // --- async-friendly commit/wait surface -----------------------------------
  // sync() is "wait for everything"; stores that batch durability (the
  // journaled store's group commit) expose the finer-grained form: read
  // the sequence your mutation got, then wait for exactly that sequence.
  // Defaults make every store trivially conformant: a store without
  // sequence tracking reports 0/0 and wait_durable() degrades to sync().

  /// Sequence of the most recently accepted mutation (0 = none, or the
  /// store does not track sequences).
  [[nodiscard]] virtual CommitSequence last_sequence() const noexcept {
    return 0;
  }
  /// Highest sequence already crash-durable.
  [[nodiscard]] virtual CommitSequence durable_sequence() const noexcept {
    return last_sequence();
  }
  /// Block until every mutation up through `sequence` is crash-durable.
  /// Callers that captured last_sequence() after their write wait for
  /// exactly their own commit instead of draining the whole store.
  [[nodiscard]] virtual Status wait_durable(CommitSequence sequence);

  /// Demote a block to "needs repair": version 0 with zeroed payload.
  /// Used when a local record turns out torn or corrupt — the consistency
  /// engines then treat the block exactly like an out-of-date copy and
  /// lazily refresh it from peers (the paper's per-block repair, extended
  /// to media faults).
  [[nodiscard]] virtual Status demote(BlockId block);

 protected:
  /// Shared argument validation for implementations.
  [[nodiscard]] Status check_write(BlockId block, std::span<const std::byte> data) const;
  [[nodiscard]] Status check_block(BlockId block) const;
  /// [first, first + count) lies on the device.
  [[nodiscard]] Status check_range(BlockId first, std::size_t count) const;
  /// check_write for every entry.
  [[nodiscard]] Status check_batch(std::span<const BlockWrite> writes) const;
};

}  // namespace reldev::storage

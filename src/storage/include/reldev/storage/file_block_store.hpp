// File-backed block store, on-disk format v2 (crash-consistent).
//
// A single file holds a checksummed header, a DOUBLE-SLOT metadata region,
// and one record per block (version + CRC-32C + payload). The store is
// built for fail-stop crashes mid-write:
//
//   * Durability contract: write()/put_metadata() reach the OS immediately
//     (unbuffered pwrite/pwritev), but only sync() — a real fsync(2) of the file
//     descriptor — makes them power-failure durable. An operation is
//     "committed" once a sync() issued after it returns OK; create()
//     syncs the fully initialized file (and its parent directory entry)
//     before returning.
//   * Torn metadata can never lose state: put_metadata() writes the slot
//     NOT currently active, stamped with the next sequence number; open()
//     picks the valid (CRC-checked) slot with the highest sequence, so a
//     write torn anywhere in a slot simply yields the previous blob.
//   * Torn blocks are never served: open() scrubs every block record and
//     DEMOTES any record with a short or CRC-mismatched payload to
//     version 0 / zeroed ("needs repair") instead of serving it — the
//     consistency engines then treat it exactly like an out-of-date copy
//     and lazily refresh it from peers. A record whose bytes cannot be
//     read at all (a true I/O error, not truncation) fails open() with
//     the failing block named in the error.
//   * All file offsets are explicit 64-bit values fed to pread/pwrite, so
//     stores larger than 2 GiB address correctly on every platform (no
//     `long`/fseek truncation).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "reldev/storage/block_store.hpp"

namespace reldev::storage {

class FileBlockStore final : public BlockStore {
 public:
  /// Create a new store file (truncating any existing one), zero-filled,
  /// all versions 0, fully synced to disk before returning.
  static Result<std::unique_ptr<FileBlockStore>> create(
      const std::string& path, std::size_t block_count, std::size_t block_size);

  /// Open an existing store file: validate the header, elect the live
  /// metadata slot, and scrub every block record (see the header comment).
  /// kNotFound when the file does not exist; kCorruption for a bad header.
  static Result<std::unique_ptr<FileBlockStore>> open(const std::string& path);

  ~FileBlockStore() override;
  FileBlockStore(const FileBlockStore&) = delete;
  FileBlockStore& operator=(const FileBlockStore&) = delete;

  [[nodiscard]] std::size_t block_count() const noexcept override {
    return block_count_;
  }
  [[nodiscard]] std::size_t block_size() const noexcept override {
    return block_size_;
  }

  [[nodiscard]] Result<VersionedBlock> read(BlockId block) const override;
  [[nodiscard]] Status write(BlockId block, std::span<const std::byte> data,
               VersionNumber version) override;
  /// One pwritev per run of consecutive blocks (split at 64 records),
  /// straight from the callers' buffers.
  [[nodiscard]] Status write_batch(std::span<const BlockWrite> writes) override;
  /// One preadv per run of records, payloads straight into the result.
  [[nodiscard]] Result<RangeRead> read_range(BlockId first,
                                             std::size_t count) const override;
  [[nodiscard]] Result<VersionNumber> version_of(BlockId block) const override;
  [[nodiscard]] VersionVector version_vector() const override;

  [[nodiscard]] Status put_metadata(std::span<const std::byte> blob) override;
  [[nodiscard]] Result<std::vector<std::byte>> get_metadata() const override;

  /// fsync(2) the store file: everything written before this call is
  /// durable across power loss once it returns OK.
  [[nodiscard]] Status sync() override;

  [[nodiscard]] const std::string& path() const noexcept { return path_; }

  /// Blocks the opening scrub demoted to version 0 because their record
  /// was torn or corrupt (empty after create(), or when the file was
  /// clean). Exposed so recovery tooling can report what self-healed.
  [[nodiscard]] const std::vector<BlockId>& scrub_demoted() const noexcept {
    return scrub_demoted_;
  }

  /// Sequence number of the live metadata slot (advances on every
  /// successful put_metadata).
  [[nodiscard]] std::uint64_t metadata_sequence() const noexcept {
    return meta_sequence_;
  }
  /// Index (0 or 1) of the slot holding the live metadata blob.
  [[nodiscard]] unsigned active_metadata_slot() const noexcept {
    return static_cast<unsigned>(meta_sequence_ % 2);
  }

  // --- on-disk layout introspection ---------------------------------------
  // Published so the crash-point injector and the byte-level mutilation
  // tests can tear records exactly where a kernel crash would; not for
  // normal clients.

  /// Maximum metadata blob size each slot can hold.
  static constexpr std::size_t kMetadataCapacity = 4096;
  /// Per-record prefix: u64 version + u32 CRC-32C of the payload.
  static constexpr std::size_t kBlockRecordHeader = 12;
  /// Per-slot prefix: u64 sequence + u32 blob size + u32 CRC-32C of blob.
  static constexpr std::size_t kSlotHeader = 16;
  /// Store header size (magic, format, geometry, CRC).
  static constexpr std::size_t kHeaderSize = 40;

  /// Byte offset of metadata slot 0 or 1.
  [[nodiscard]] static std::uint64_t metadata_slot_offset(unsigned slot) noexcept;
  /// Byte offset of a block's record (version+CRC+payload).
  [[nodiscard]] std::uint64_t block_record_offset(BlockId block) const noexcept;

  /// Raw write bypassing all CRC/versioning discipline — the hook the
  /// crash-point injector uses to leave a realistically torn file. Unsafe
  /// by design; production code must never call it.
  [[nodiscard]] Status raw_write_at(std::uint64_t offset,
                                    std::span<const std::byte> bytes);

 private:
  FileBlockStore(std::string path, int fd, std::size_t block_count,
                 std::size_t block_size);

  /// The opening scrub: rebuild the version cache, demoting torn records.
  [[nodiscard]] Status scrub_records();
  [[nodiscard]] Status load_metadata_slots();

  std::string path_;
  int fd_;  // owned; closed in destructor
  std::size_t block_count_;
  std::size_t block_size_;
  // Version cache: avoids a disk seek for version_of/version_vector; kept
  // coherent because every write goes through this object.
  std::vector<VersionNumber> versions_;
  std::vector<BlockId> scrub_demoted_;
  // Live metadata slot state (slot index = meta_sequence_ % 2).
  std::uint64_t meta_sequence_ = 0;
};

}  // namespace reldev::storage

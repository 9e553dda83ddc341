#include "reldev/storage/crash_point_store.hpp"

#include <string>
#include <utility>

#include "reldev/util/assert.hpp"
#include "reldev/util/crc32.hpp"
#include "reldev/util/logging.hpp"
#include "reldev/util/serial.hpp"

namespace reldev::storage {

const char* crash_point_name(CrashPoint point) noexcept {
  switch (point) {
    case CrashPoint::kNone:
      return "none";
    case CrashPoint::kBeforeBlockWrite:
      return "before-block-write";
    case CrashPoint::kMidBlockWrite:
      return "mid-block-write";
    case CrashPoint::kAfterBlockWrite:
      return "after-block-write";
    case CrashPoint::kMidMetadataWrite:
      return "mid-metadata-write";
    case CrashPoint::kBeforeSync:
      return "before-sync";
    case CrashPoint::kMidJournalAppend:
      return "mid-journal-append";
    case CrashPoint::kBeforeJournalSync:
      return "before-journal-sync";
    case CrashPoint::kMidCheckpoint:
      return "mid-checkpoint";
    case CrashPoint::kBeforeCheckpointTruncate:
      return "before-checkpoint-truncate";
  }
  return "unknown";
}

CrashPoint crash_point_from_name(const std::string& name) noexcept {
  for (const CrashPoint point : kAllCrashPoints) {
    if (name == crash_point_name(point)) return point;
  }
  for (const CrashPoint point : kJournalCrashPoints) {
    if (name == crash_point_name(point)) return point;
  }
  return CrashPoint::kNone;
}

CrashPointBlockStore::CrashPointBlockStore(
    std::unique_ptr<FileBlockStore> inner)
    : file_(std::move(inner)) {
  RELDEV_EXPECTS(file_ != nullptr);
  block_count_ = file_->block_count();
  block_size_ = file_->block_size();
}

CrashPointBlockStore::CrashPointBlockStore(
    std::unique_ptr<JournaledBlockStore> inner)
    : wal_(std::move(inner)), journal_mode_(true) {
  RELDEV_EXPECTS(wal_ != nullptr);
  block_count_ = wal_->block_count();
  block_size_ = wal_->block_size();
  install_journal_hook();
}

void CrashPointBlockStore::install_journal_hook() {
  // The hook runs on the commit leader / checkpoint thread with the store
  // mutex released; the soak harness drives one operation at a time, so
  // the injector's counters need no further synchronisation.
  wal_->set_failpoint_hook([this](JournaledBlockStore::JournalEvent event) {
    switch (event) {
      case JournaledBlockStore::JournalEvent::kBatchAppend:
        return fire(CrashPoint::kMidJournalAppend, journal_appends_seen_);
      case JournaledBlockStore::JournalEvent::kBatchSync:
        return fire(CrashPoint::kBeforeJournalSync, journal_syncs_seen_);
      case JournaledBlockStore::JournalEvent::kCheckpointFlush:
        return fire(CrashPoint::kMidCheckpoint, checkpoint_flushes_seen_);
      case JournaledBlockStore::JournalEvent::kCheckpointTruncate:
        return fire(CrashPoint::kBeforeCheckpointTruncate,
                    checkpoint_truncates_seen_);
    }
    return false;
  });
}

void CrashPointBlockStore::arm(CrashSchedule schedule) {
  schedule_ = schedule;
  block_writes_seen_ = 0;
  metadata_writes_seen_ = 0;
  syncs_seen_ = 0;
  journal_appends_seen_ = 0;
  journal_syncs_seen_ = 0;
  checkpoint_flushes_seen_ = 0;
  checkpoint_truncates_seen_ = 0;
}

std::unique_ptr<FileBlockStore> CrashPointBlockStore::surrender() {
  RELDEV_EXPECTS(!journal_mode_);
  return std::move(file_);
}

void CrashPointBlockStore::drop_inner() noexcept {
  file_.reset();
  // Destroying the journaled store is the "dying process": the pending
  // batch and write-back table evaporate; only journaled bytes survive.
  wal_.reset();
}

void CrashPointBlockStore::adopt(std::unique_ptr<FileBlockStore> inner) {
  RELDEV_EXPECTS(!journal_mode_);
  RELDEV_EXPECTS(inner != nullptr);
  RELDEV_EXPECTS(inner->block_count() == block_count_);
  RELDEV_EXPECTS(inner->block_size() == block_size_);
  file_ = std::move(inner);
  crashed_ = false;
  fired_ = CrashPoint::kNone;
  schedule_ = CrashSchedule{};
}

void CrashPointBlockStore::adopt(std::unique_ptr<JournaledBlockStore> inner) {
  RELDEV_EXPECTS(journal_mode_);
  RELDEV_EXPECTS(inner != nullptr);
  RELDEV_EXPECTS(inner->block_count() == block_count_);
  RELDEV_EXPECTS(inner->block_size() == block_size_);
  wal_ = std::move(inner);
  crashed_ = false;
  fired_ = CrashPoint::kNone;
  schedule_ = CrashSchedule{};
  install_journal_hook();
}

FileBlockStore& CrashPointBlockStore::inner() {
  RELDEV_EXPECTS(file_ != nullptr);
  return *file_;
}

BlockStore* CrashPointBlockStore::active() const noexcept {
  if (journal_mode_) return wal_.get();
  return file_.get();
}

Status CrashPointBlockStore::checkpoint() {
  if (crashed_ || wal_ == nullptr) return crashed_error();
  return wal_->checkpoint();
}

bool CrashPointBlockStore::fire(CrashPoint point, std::uint64_t& counter) {
  if (crashed_ || schedule_.point != point) return false;
  const bool hit = counter == schedule_.nth;
  ++counter;
  if (!hit) return false;
  crashed_ = true;
  fired_ = point;
  RELDEV_DEBUG("crash-point")
      << "fired " << crash_point_name(point) << " (event #"
      << schedule_.nth << ")";
  return true;
}

Status CrashPointBlockStore::crashed_error() const {
  return errors::unavailable(std::string("store crashed at ") +
                             crash_point_name(fired_));
}

Result<VersionedBlock> CrashPointBlockStore::read(BlockId block) const {
  BlockStore* store = active();
  if (crashed_ || store == nullptr) return crashed_error();
  return store->read(block);
}

Status CrashPointBlockStore::write(BlockId block,
                                   std::span<const std::byte> data,
                                   VersionNumber version) {
  BlockStore* store = active();
  if (crashed_ || store == nullptr) return crashed_error();
  if (fire(CrashPoint::kBeforeBlockWrite, block_writes_seen_)) {
    // Nothing reached the file (journal mode: nothing entered the batch).
    return errors::io_error("crash injected before block write");
  }
  if (fire(CrashPoint::kMidBlockWrite, block_writes_seen_)) {
    // The torn write: new version + new CRC + the first half of the new
    // payload; the record's tail keeps its previous bytes. The CRC can no
    // longer match, so the opening scrub must demote this record. Only
    // meaningful on the bare file store — journal-mode block writes go
    // through the batch append, which tears at kMidJournalAppend instead.
    RELDEV_EXPECTS(!journal_mode_);
    if (auto status = check_write(block, data); !status.is_ok()) {
      return status;
    }
    BufferWriter torn(FileBlockStore::kBlockRecordHeader + data.size() / 2);
    torn.put_u64(version);
    torn.put_u32(crc32c(data));
    torn.put_raw(data.first(data.size() / 2));
    file_->raw_write_at(file_->block_record_offset(block), torn.bytes())
        .ignore_error();
    return errors::io_error("crash injected mid block write");
  }
  if (fire(CrashPoint::kAfterBlockWrite, block_writes_seen_)) {
    // The mutation lands (journal mode: enters the commit batch) but the
    // writer dies before returning.
    store->write(block, data, version).ignore_error();
    return errors::io_error("crash injected after block write");
  }
  return store->write(block, data, version);
}

Status CrashPointBlockStore::write_batch(std::span<const BlockWrite> writes) {
  BlockStore* store = active();
  if (crashed_ || store == nullptr) return crashed_error();
  switch (schedule_.point) {
    case CrashPoint::kBeforeBlockWrite:
    case CrashPoint::kMidBlockWrite:
    case CrashPoint::kAfterBlockWrite:
      // The base loop: validate every entry, then write() each, so the
      // armed point counts (and tears) single blocks.
      return BlockStore::write_batch(writes);
    default:
      return store->write_batch(writes);
  }
}

Result<RangeRead> CrashPointBlockStore::read_range(BlockId first,
                                                   std::size_t count) const {
  BlockStore* store = active();
  if (crashed_ || store == nullptr) return crashed_error();
  return store->read_range(first, count);
}

Result<VersionNumber> CrashPointBlockStore::version_of(BlockId block) const {
  BlockStore* store = active();
  if (crashed_ || store == nullptr) return crashed_error();
  return store->version_of(block);
}

VersionVector CrashPointBlockStore::version_vector() const {
  BlockStore* store = active();
  if (crashed_ || store == nullptr) return VersionVector(block_count_);
  return store->version_vector();
}

Status CrashPointBlockStore::put_metadata(std::span<const std::byte> blob) {
  BlockStore* store = active();
  if (crashed_ || store == nullptr) return crashed_error();
  if (fire(CrashPoint::kMidMetadataWrite, metadata_writes_seen_)) {
    // Tear the slot put_metadata would have targeted: full header (next
    // sequence + size + CRC of the complete blob) but only half the blob,
    // so the slot cannot validate and the election must fall back to the
    // live slot. File mode only — journal-mode metadata puts are journal
    // records and tear with the batch.
    RELDEV_EXPECTS(!journal_mode_);
    if (blob.size() > FileBlockStore::kMetadataCapacity) {
      return errors::invalid_argument("metadata blob exceeds capacity");
    }
    const std::uint64_t next = file_->metadata_sequence() + 1;
    BufferWriter torn(FileBlockStore::kSlotHeader + blob.size() / 2);
    torn.put_u64(next);
    torn.put_u32(static_cast<std::uint32_t>(blob.size()));
    torn.put_u32(crc32c(blob));
    torn.put_raw(blob.first(blob.size() / 2));
    file_->raw_write_at(
        FileBlockStore::metadata_slot_offset(static_cast<unsigned>(next % 2)),
        torn.bytes())
        .ignore_error();
    return errors::io_error("crash injected mid metadata write");
  }
  return store->put_metadata(blob);
}

Result<std::vector<std::byte>> CrashPointBlockStore::get_metadata() const {
  BlockStore* store = active();
  if (crashed_ || store == nullptr) return crashed_error();
  return store->get_metadata();
}

Status CrashPointBlockStore::sync() {
  BlockStore* store = active();
  if (crashed_ || store == nullptr) return crashed_error();
  if (fire(CrashPoint::kBeforeSync, syncs_seen_)) {
    return errors::io_error("crash injected before sync");
  }
  // Journal mode: the forwarded sync may itself fire kMidJournalAppend /
  // kBeforeJournalSync (or the checkpoint points) through the hook.
  return store->sync();
}

Status CrashPointBlockStore::demote(BlockId block) {
  BlockStore* store = active();
  if (crashed_ || store == nullptr) return crashed_error();
  return store->demote(block);
}

CommitSequence CrashPointBlockStore::last_sequence() const noexcept {
  BlockStore* store = active();
  if (crashed_ || store == nullptr) return 0;
  return store->last_sequence();
}

CommitSequence CrashPointBlockStore::durable_sequence() const noexcept {
  BlockStore* store = active();
  if (crashed_ || store == nullptr) return 0;
  return store->durable_sequence();
}

Status CrashPointBlockStore::wait_durable(CommitSequence sequence) {
  BlockStore* store = active();
  if (crashed_ || store == nullptr) return crashed_error();
  if (fire(CrashPoint::kBeforeSync, syncs_seen_)) {
    return errors::io_error("crash injected before sync");
  }
  return store->wait_durable(sequence);
}

}  // namespace reldev::storage

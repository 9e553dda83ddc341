// Deterministic crash-point injection for persistent stores, in the
// spirit of crash-enumeration testing (CrashMonkey / ALICE): a decorator
// over FileBlockStore — or, in journal mode, over JournaledBlockStore —
// that fail-stops the store at an enumerated point, leaving the file(s)
// in exactly the torn state a kernel crash at that instant could leave.
//
// File-mode points tear the v2 file directly (half-written block records
// and metadata slots). Journal-mode points hook the write-ahead journal's
// group-commit and checkpoint machinery instead: a batch append torn in
// half, a batch appended but never fsynced, a checkpoint that folded only
// half its blocks, a checkpoint that folded and fsynced but never
// truncated the journal.
//
// A schedule names one (point, nth) pair: the store crashes at the nth
// eligible event of that kind counted from arming. After firing, every
// operation returns kUnavailable (fail-stop) until the harness drops the
// torn file handle (surrender) and reopens through the full recovery path
// (adopt). The decorator caches the device geometry so a replica can keep
// referencing it across kill/restart cycles.
#pragma once

#include <memory>

#include "reldev/storage/file_block_store.hpp"
#include "reldev/storage/journaled_block_store.hpp"

namespace reldev::storage {

/// Where in the storage write path the simulated crash fires.
enum class CrashPoint : std::uint8_t {
  kNone = 0,
  /// The block write never reaches the file (crash before pwrite). In
  /// journal mode: the mutation never enters the commit batch.
  kBeforeBlockWrite,
  /// The record header (new version + new CRC) and the first half of the
  /// new payload land; the rest of the record keeps its old bytes — the
  /// classic torn write the opening scrub must demote. File mode only
  /// (journal-mode block writes tear at the batch append instead).
  kMidBlockWrite,
  /// The record lands completely, but the operation still dies before
  /// acknowledging (durable-but-unacked). In journal mode: the mutation
  /// is framed into the batch, then the writer dies unacknowledged.
  kAfterBlockWrite,
  /// The inactive metadata slot gets its new header and half the blob —
  /// a torn put_metadata the double-slot region must survive. File mode
  /// only (journal-mode metadata puts are journal records).
  kMidMetadataWrite,
  /// sync() dies without fsyncing anything.
  kBeforeSync,
  /// Journal mode: the group-commit append lands only the front half of
  /// the batch — the torn tail recovery must truncate.
  kMidJournalAppend,
  /// Journal mode: the batch is fully appended but the fsync never
  /// happens (crash between append and sync; durable-maybe-unacked).
  kBeforeJournalSync,
  /// Journal mode: the checkpoint folds only half the write-back table
  /// into the main file and dies before the store fsync — the journal is
  /// still authoritative and must replay.
  kMidCheckpoint,
  /// Journal mode: the checkpoint folds and fsyncs the main file but dies
  /// before truncating the journal — replay over already-applied records
  /// must be idempotent.
  kBeforeCheckpointTruncate,
};

/// Points injectable on a plain FileBlockStore, for harnesses that
/// enumerate exhaustively over file-mode groups.
inline constexpr CrashPoint kAllCrashPoints[] = {
    CrashPoint::kBeforeBlockWrite, CrashPoint::kMidBlockWrite,
    CrashPoint::kAfterBlockWrite, CrashPoint::kMidMetadataWrite,
    CrashPoint::kBeforeSync};

/// Points injectable on a JournaledBlockStore (journal-mode groups). The
/// file-mode torn-record points are not in this list: with a journal in
/// front, block and metadata writes tear at the batch/checkpoint instead.
inline constexpr CrashPoint kJournalCrashPoints[] = {
    CrashPoint::kBeforeBlockWrite,     CrashPoint::kAfterBlockWrite,
    CrashPoint::kBeforeSync,           CrashPoint::kMidJournalAppend,
    CrashPoint::kBeforeJournalSync,    CrashPoint::kMidCheckpoint,
    CrashPoint::kBeforeCheckpointTruncate};

[[nodiscard]] const char* crash_point_name(CrashPoint point) noexcept;

/// Parse a crash-point name ("mid-block-write", "mid-journal-append",
/// ...); kNone on no match.
[[nodiscard]] CrashPoint crash_point_from_name(const std::string& name) noexcept;

/// One armed crash: fire at the nth (0-based) eligible event of `point`,
/// counted from the moment arm() was called.
struct CrashSchedule {
  CrashPoint point = CrashPoint::kNone;
  std::uint64_t nth = 0;
};

class CrashPointBlockStore final : public BlockStore {
 public:
  explicit CrashPointBlockStore(std::unique_ptr<FileBlockStore> inner);
  /// Journal mode: wraps the journaled store and hooks its group-commit /
  /// checkpoint fail points.
  explicit CrashPointBlockStore(std::unique_ptr<JournaledBlockStore> inner);

  /// Arm one crash; resets the event counters. Replaces any armed one.
  void arm(CrashSchedule schedule);
  /// Remove the armed crash (does not clear an already-fired one).
  void disarm() noexcept { schedule_ = CrashSchedule{}; }

  /// True once the armed point fired; all operations fail until adopt().
  [[nodiscard]] bool crashed() const noexcept { return crashed_; }
  [[nodiscard]] CrashPoint fired() const noexcept { return fired_; }

  /// Drop the underlying store the way a dying process would: the handle
  /// closes, nothing extra is flushed (in journal mode the pending batch
  /// and write-back table evaporate with the process), the torn file(s)
  /// stay on disk. Returns the released store (usually discarded).
  std::unique_ptr<FileBlockStore> surrender();
  /// Mode-agnostic hard drop: discard whichever store is held.
  void drop_inner() noexcept;

  /// Install a freshly reopened store after a simulated restart; clears
  /// the crashed state and the armed schedule.
  void adopt(std::unique_ptr<FileBlockStore> inner);
  void adopt(std::unique_ptr<JournaledBlockStore> inner);

  [[nodiscard]] bool has_inner() const noexcept {
    return file_ != nullptr || wal_ != nullptr;
  }
  /// Whether this injector wraps a journaled store.
  [[nodiscard]] bool journaled() const noexcept { return journal_mode_; }
  [[nodiscard]] FileBlockStore& inner();

  /// Journal mode: force a checkpoint (its fail points stay armed).
  [[nodiscard]] Status checkpoint();

  // --- BlockStore -----------------------------------------------------------

  [[nodiscard]] std::size_t block_count() const noexcept override {
    return block_count_;
  }
  [[nodiscard]] std::size_t block_size() const noexcept override {
    return block_size_;
  }
  [[nodiscard]] Result<VersionedBlock> read(BlockId block) const override;
  [[nodiscard]] Status write(BlockId block, std::span<const std::byte> data,
               VersionNumber version) override;
  [[nodiscard]] Result<VersionNumber> version_of(BlockId block) const override;
  [[nodiscard]] VersionVector version_vector() const override;
  [[nodiscard]] Status put_metadata(std::span<const std::byte> blob) override;
  [[nodiscard]] Result<std::vector<std::byte>> get_metadata() const override;
  [[nodiscard]] Status sync() override;
  [[nodiscard]] Status demote(BlockId block) override;
  [[nodiscard]] CommitSequence last_sequence() const noexcept override;
  [[nodiscard]] CommitSequence durable_sequence() const noexcept override;
  [[nodiscard]] Status wait_durable(CommitSequence sequence) override;

 private:
  /// True when the armed point matches and this is its nth event; marks
  /// the store crashed.
  [[nodiscard]] bool fire(CrashPoint point, std::uint64_t& counter);
  [[nodiscard]] Status crashed_error() const;
  /// The store actually wrapped (file or journaled), or null after
  /// surrender.
  [[nodiscard]] BlockStore* active() const noexcept;
  /// Wire the journal fail points of wal_ into fire().
  void install_journal_hook();

  std::unique_ptr<FileBlockStore> file_;
  std::unique_ptr<JournaledBlockStore> wal_;
  bool journal_mode_ = false;
  std::size_t block_count_;
  std::size_t block_size_;
  CrashSchedule schedule_;
  bool crashed_ = false;
  CrashPoint fired_ = CrashPoint::kNone;
  std::uint64_t block_writes_seen_ = 0;
  std::uint64_t metadata_writes_seen_ = 0;
  std::uint64_t syncs_seen_ = 0;
  std::uint64_t journal_appends_seen_ = 0;
  std::uint64_t journal_syncs_seen_ = 0;
  std::uint64_t checkpoint_flushes_seen_ = 0;
  std::uint64_t checkpoint_truncates_seen_ = 0;
};

}  // namespace reldev::storage

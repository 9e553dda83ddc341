// JournaledBlockStore: the write-ahead-journal + group-commit mode of the
// persistent store. It layers a WalJournal (`<store>.wal`) over the v2
// FileBlockStore and turns the per-operation fsync regime into one fsync
// per commit *batch*:
//
//   * write()/put_metadata()/demote() are memory-speed: the mutation is
//     framed into the in-flight commit batch, applied to an in-memory
//     write-back table, and stamped with the next commit sequence number.
//   * sync() (and the finer-grained wait_durable()) is "wait until my
//     sequence is durable": the first waiter becomes the commit leader,
//     appends every framed record in flight in ONE journal append, and
//     issues ONE fsync; concurrent writers that arrived meanwhile ride the
//     same fsync (group commit, cf. slash2's MDS journal). Knobs bound the
//     batch (max_batch_bytes) and let the leader linger to accumulate a
//     fuller batch (max_delay).
//   * a checkpoint folds the write-back table into the main v2 file (fsync
//     the store, THEN truncate the journal), automatically once the
//     journal passes checkpoint_bytes, or explicitly via checkpoint().
//   * open() replays the journal over the freshly scrubbed main file: the
//     committed prefix is re-applied (idempotently — replaying twice
//     equals replaying once), a torn journal tail is truncated exactly
//     like a torn block record is demoted, and the result is checkpointed.
//
// Durability contract: unchanged from FileBlockStore — an operation is
// committed once a sync()/wait_durable() issued after it returned OK. The
// difference is cost (one fsync amortized over every record in flight)
// and that *uncommitted* mutations now live in memory, so a crash loses
// them outright instead of maybe leaving them on disk; the consistency
// engines already treat both outcomes identically (stale copy, lazily
// healed from peers).
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "reldev/storage/file_block_store.hpp"
#include "reldev/storage/wal_journal.hpp"
#include "reldev/util/thread_annotations.hpp"

namespace reldev::storage {

/// Group-commit and checkpoint knobs.
struct JournalOptions {
  /// A single journal append is split into chunks of at most this many
  /// bytes (the fsync still covers the whole batch).
  std::size_t max_batch_bytes = 1 << 20;
  /// How long the commit leader lingers for more writers to join the
  /// batch before fsyncing. Zero commits immediately (lowest latency);
  /// a few hundred microseconds trades latency for fuller batches.
  std::chrono::microseconds max_delay{0};
  /// How long a commit waiter spin-waits (yielding the CPU each round)
  /// for an in-flight leader's fsync before falling back to a blocking
  /// condvar wait. Zero always blocks. A spin in the order of the commit
  /// latency avoids two futex sleep/wake context switches per operation —
  /// the dominant per-op cost once group commit has amortized the fsync —
  /// at the price of burning CPU in the wait. Dedicated writer threads
  /// (the wal_iops bench, a busy replica) want this; mixed workloads
  /// should keep the blocking default.
  std::chrono::microseconds spin_wait{0};
  /// Fold the journal into the main file once it grows past this size.
  std::size_t checkpoint_bytes = 8u << 20;
  /// Checkpoint right after the opening replay (the normal mode). Tests
  /// turn this off to replay the same journal repeatedly and prove the
  /// replay idempotent.
  bool checkpoint_on_open = true;
};

class JournaledBlockStore final : public BlockStore {
 public:
  /// Where in the journal write path a crash-injection hook can fire.
  enum class JournalEvent : std::uint8_t {
    kBatchAppend,        // about to append a commit batch
    kBatchSync,          // batch fully appended, about to fsync it
    kCheckpointFlush,    // about to fold the write-back table into the store
    kCheckpointTruncate, // store folded + fsynced, about to cut the journal
  };

  /// Crash-injection hook, called at each JournalEvent with no locks held.
  /// Returning true fail-stops the store at that instant: the store
  /// performs the event's realistic torn behaviour (half-appended batch,
  /// half-flushed checkpoint, ...) and the in-flight operation returns an
  /// io error. Installed by CrashPointBlockStore; never used in production.
  using FailpointHook = std::function<bool(JournalEvent)>;

  /// Create `<path>` (the v2 store) plus `<path>.wal`, both fresh and
  /// fully synced before returning.
  static Result<std::unique_ptr<JournaledBlockStore>> create(
      const std::string& path, std::size_t block_count, std::size_t block_size,
      JournalOptions options = {});

  /// Open an existing journaled store: run the full FileBlockStore
  /// recovery (header check, slot election, torn-record scrub), then scan
  /// and replay the journal's committed prefix over it (see file comment).
  /// A missing journal file (a store created before journal mode, or a
  /// checkpointed clean shutdown under old tooling) is treated as empty;
  /// a missing main file is kNotFound.
  static Result<std::unique_ptr<JournaledBlockStore>> open(
      const std::string& path, JournalOptions options = {});

  /// `<path>.wal` — where the journal sidecar of a store lives.
  [[nodiscard]] static std::string journal_path(const std::string& path) {
    return path + ".wal";
  }

  ~JournaledBlockStore() override;
  JournaledBlockStore(const JournaledBlockStore&) = delete;
  JournaledBlockStore& operator=(const JournaledBlockStore&) = delete;

  // --- BlockStore -----------------------------------------------------------

  [[nodiscard]] std::size_t block_count() const noexcept override {
    return block_count_;
  }
  [[nodiscard]] std::size_t block_size() const noexcept override {
    return block_size_;
  }

  [[nodiscard]] Result<VersionedBlock> read(BlockId block) const override
      RELDEV_EXCLUDES(mutex_);
  [[nodiscard]] Status write(BlockId block, std::span<const std::byte> data,
                             VersionNumber version) override
      RELDEV_EXCLUDES(mutex_);
  [[nodiscard]] Result<VersionNumber> version_of(BlockId block) const override
      RELDEV_EXCLUDES(mutex_);
  [[nodiscard]] VersionVector version_vector() const override
      RELDEV_EXCLUDES(mutex_);
  [[nodiscard]] Status put_metadata(std::span<const std::byte> blob) override
      RELDEV_EXCLUDES(mutex_);
  [[nodiscard]] Result<std::vector<std::byte>> get_metadata() const override
      RELDEV_EXCLUDES(mutex_);
  [[nodiscard]] Status demote(BlockId block) override RELDEV_EXCLUDES(mutex_);

  /// Group commit: everything accepted so far is durable once this
  /// returns OK (one fsync shared with every concurrent caller).
  [[nodiscard]] Status sync() override RELDEV_EXCLUDES(mutex_);

  // --- commit/wait surface --------------------------------------------------

  [[nodiscard]] CommitSequence last_sequence() const noexcept override
      RELDEV_EXCLUDES(mutex_);
  [[nodiscard]] CommitSequence durable_sequence() const noexcept override
      RELDEV_EXCLUDES(mutex_);
  [[nodiscard]] Status wait_durable(CommitSequence sequence) override
      RELDEV_EXCLUDES(mutex_);

  // --- journal management ---------------------------------------------------

  /// Fold the write-back table into the main v2 file and truncate the
  /// journal. Safe to call any time; concurrent writes keep flowing.
  [[nodiscard]] Status checkpoint() RELDEV_EXCLUDES(mutex_);

  /// Current size of the journal file in bytes (header included).
  [[nodiscard]] std::uint64_t journal_bytes() const RELDEV_EXCLUDES(mutex_);

  /// How many committed records the opening replay applied.
  [[nodiscard]] std::size_t replayed_records() const noexcept {
    return replayed_records_;
  }
  /// Whether the opening scan found (and truncated) a torn journal tail.
  [[nodiscard]] bool replay_truncated_tail() const noexcept {
    return replay_truncated_tail_;
  }
  /// Journal fsyncs issued since open — with group commit this is the
  /// number of commit *batches*, not the number of synced operations.
  [[nodiscard]] std::uint64_t commit_batches() const RELDEV_EXCLUDES(mutex_);
  /// Checkpoints completed since open (automatic and explicit).
  [[nodiscard]] std::uint64_t checkpoints_taken() const
      RELDEV_EXCLUDES(mutex_);

  [[nodiscard]] const std::string& path() const noexcept {
    return inner_->path();
  }

  /// Install (or clear) the crash-injection hook. Not thread-safe against
  /// in-flight operations; arm before driving traffic.
  void set_failpoint_hook(FailpointHook hook) { hook_ = std::move(hook); }

 private:
  JournaledBlockStore(std::unique_ptr<FileBlockStore> inner,
                      std::unique_ptr<WalJournal> journal,
                      JournalOptions options);

  /// True when the hook is installed and elects to crash at `event`.
  [[nodiscard]] bool hook_fires(JournalEvent event) const {
    return hook_ && hook_(event);
  }

  /// The commit leader's critical section: swap out the pending batch,
  /// append + fsync it with the mutex RELEASED, then publish the new
  /// durable sequence. Returns with the mutex re-held.
  [[nodiscard]] Status commit_locked() RELDEV_REQUIRES(mutex_);

  /// Fold the write-back table into the main store, fsync it, then
  /// truncate the journal. Same unlock-around-I/O discipline.
  [[nodiscard]] Status checkpoint_locked() RELDEV_REQUIRES(mutex_);

  /// Dirty-table lookup across both the live and the being-flushed
  /// generation (reads must see a block mid-checkpoint consistently).
  [[nodiscard]] const VersionedBlock* dirty_lookup_locked(BlockId block) const
      RELDEV_REQUIRES(mutex_);

  const std::size_t block_count_;
  const std::size_t block_size_;
  const JournalOptions options_;
  std::unique_ptr<FileBlockStore> inner_;  // main v2 file; flushed at checkpoint
  // The journal fd is only touched by the current I/O leader (the thread
  // that set io_in_flight_, or a thread holding mutex_ while the flag is
  // clear) — WalJournal itself is single-threaded by that protocol.
  std::unique_ptr<WalJournal> journal_;
  FailpointHook hook_;  // set before traffic; called with mutex_ released
  std::size_t replayed_records_ = 0;
  bool replay_truncated_tail_ = false;

  mutable Mutex mutex_{"JournaledBlockStore.mutex"};
  mutable CondVar cv_;

  // Framed records waiting for the next commit batch, and the write-back
  // state they describe. `flushing_` holds the generation a checkpoint is
  // currently folding into the main file; reads consult both.
  BufferWriter pending_ RELDEV_GUARDED_BY(mutex_);
  std::unordered_map<BlockId, VersionedBlock> dirty_ RELDEV_GUARDED_BY(mutex_);
  std::unordered_map<BlockId, VersionedBlock> flushing_
      RELDEV_GUARDED_BY(mutex_);
  std::vector<VersionNumber> versions_ RELDEV_GUARDED_BY(mutex_);
  std::vector<std::byte> metadata_ RELDEV_GUARDED_BY(mutex_);
  bool metadata_dirty_ RELDEV_GUARDED_BY(mutex_) = false;

  CommitSequence next_sequence_ RELDEV_GUARDED_BY(mutex_) = 0;
  CommitSequence durable_sequence_ RELDEV_GUARDED_BY(mutex_) = 0;
  // One leader at a time owns the journal fd / main-store flush; everyone
  // else waits on cv_. Covers both commits and checkpoints.
  bool io_in_flight_ RELDEV_GUARDED_BY(mutex_) = false;
  // Sticky health: a failed journal append/fsync or checkpoint leaves the
  // on-disk state unknown, so the store fail-stops (like a real device).
  Status health_ RELDEV_GUARDED_BY(mutex_);
  // Shadow of journal_->size(), readable under mutex_ while a leader is
  // mid-I/O (the leader republishes it when it re-locks).
  std::uint64_t journal_size_ RELDEV_GUARDED_BY(mutex_) = 0;
  std::uint64_t commit_batches_ RELDEV_GUARDED_BY(mutex_) = 0;
  std::uint64_t checkpoints_taken_ RELDEV_GUARDED_BY(mutex_) = 0;
};

}  // namespace reldev::storage

// The anti-entropy scrub daemon: one per site, continuously walking the
// local version metadata in bounded batches, comparing CRC-32C digest
// vectors with peers (DigestRequest/DigestReply), and healing stale or
// latently corrupt blocks off the hot path through the engines' existing
// repair machinery. The paper's schemes repair a block only when it is
// accessed or when a site recovers; the scrubber closes the gap for cold
// blocks, restoring the redundancy the vote assignments assume.
//
// Robustness model:
//   * throttling — token buckets for bytes/s (local scan reads + healed
//     payloads) and ops/s (peer RPCs). The buckets always grant and report
//     debt; the background loop sleeps the debt off, synchronous callers
//     (tests, scenario verbs) only account it. Scrubbing never starves
//     foreground traffic.
//   * pacing — a pause between full cycles, jittered by a per-site seed so
//     a fleet of sites does not scrub in lockstep.
//   * degradation — an unreachable peer is skipped with exponential
//     backoff (1, 2, 4, then 8 cycles at most); a dead site never blocks
//     the batch.
//   * crash safety — the cursor is persisted through the store's metadata
//     blob after every batch, so a restarted site resumes mid-cycle.
//   * foreground safety — every heal re-checks the local version; a copy
//     that advanced past what the digest exchange observed is left alone.
#pragma once

#include <chrono>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "reldev/core/replica.hpp"
#include "reldev/util/rng.hpp"
#include "reldev/util/thread_annotations.hpp"
#include "reldev/util/token_bucket.hpp"

namespace reldev::core {

struct ScrubOptions {
  /// Blocks examined per batch (the granularity of throttling and cursor
  /// persistence).
  std::size_t batch_blocks = 64;
  /// Byte budget: local scan reads plus healed payload bytes. 0 = none.
  std::uint64_t bytes_per_sec = 0;
  /// RPC budget: digest rounds plus heal fetches. 0 = none.
  std::uint64_t ops_per_sec = 0;
  /// Pause between full cycles in background mode, +/-20% of seeded
  /// jitter (the seed is the site id).
  std::chrono::milliseconds cycle_interval{1000};
};

/// Observability counters, mirroring the transport pool's hit/miss pattern:
/// a plain snapshot struct read through ReplicaGroup or the daemon.
struct ScrubStats {
  std::uint64_t blocks_scanned = 0;
  std::uint64_t digests_exchanged = 0;  // digest replies processed
  std::uint64_t stale_healed = 0;
  std::uint64_t corrupt_healed = 0;
  std::uint64_t cycles_completed = 0;
  std::uint64_t throttle_stalls = 0;
  std::uint64_t peer_unreachable_skips = 0;
  /// Same-version digest splits with no majority (e.g. one peer reachable
  /// and it disagrees): left alone until more replicas can vote.
  std::uint64_t ambiguous_mismatches = 0;
  /// Heal attempts that failed (peer died mid-heal); retried next cycle.
  std::uint64_t heal_failures = 0;
};

/// One line for logs / the daemon's status output.
[[nodiscard]] std::string format_scrub_stats(const ScrubStats& stats);

/// What one batch (or one aggregated cycle) did.
struct ScrubReport {
  std::size_t scanned = 0;
  std::size_t stale_healed = 0;
  std::size_t corrupt_healed = 0;
  bool cycle_completed = false;
};

class ScrubDaemon {
 public:
  /// Attaches to a replica. The daemon reads the persisted cursor from the
  /// replica's store, so a restart resumes where the dead process stopped.
  explicit ScrubDaemon(ReplicaBase& replica, ScrubOptions options = {});
  ~ScrubDaemon();

  ScrubDaemon(const ScrubDaemon&) = delete;
  ScrubDaemon& operator=(const ScrubDaemon&) = delete;

  // --- synchronous driving (tests, scenario verbs) -------------------------
  // The replica is not internally synchronized: synchronous calls are
  // rejected while the background thread is running.

  /// Scrub one batch at the cursor: scan, exchange digests, heal, advance
  /// and persist the cursor. kUnavailable while the replica is not
  /// available (the cursor does not move). Throttle debt is accounted but
  /// not slept off.
  [[nodiscard]] Result<ScrubReport> step() RELDEV_EXCLUDES(mutex_);

  /// Batches until the cursor wraps: one full pass over the device.
  [[nodiscard]] Result<ScrubReport> run_cycle() RELDEV_EXCLUDES(mutex_);

  // --- background mode (the site daemon) -----------------------------------

  void start() RELDEV_EXCLUDES(mutex_);
  void stop() RELDEV_EXCLUDES(mutex_);
  [[nodiscard]] bool running() const RELDEV_EXCLUDES(mutex_);

  // --- observability and knobs ---------------------------------------------

  [[nodiscard]] ScrubStats stats() const RELDEV_EXCLUDES(mutex_);
  [[nodiscard]] ScrubOptions options() const RELDEV_EXCLUDES(mutex_);
  void set_options(const ScrubOptions& options) RELDEV_EXCLUDES(mutex_);
  [[nodiscard]] std::uint64_t cursor() const RELDEV_EXCLUDES(mutex_);

  // --- test hooks ----------------------------------------------------------

  /// Replace the throttle clock (deterministic budget tests).
  void set_clock(std::function<TokenBucket::Clock::time_point()> clock)
      RELDEV_EXCLUDES(mutex_);
  /// Called after the digest exchange, before any heal — the window a
  /// foreground write can race into (the never-demote-newer tests).
  void set_preheal_hook(std::function<void()> hook) RELDEV_EXCLUDES(mutex_);

 private:
  [[nodiscard]] Result<ScrubReport> do_step() RELDEV_EXCLUDES(mutex_);
  void worker_loop() RELDEV_EXCLUDES(mutex_);
  /// Account `tokens` against a bucket; returns the debt delay and counts
  /// a stall when it is non-zero.
  std::chrono::nanoseconds charge(TokenBucket& bucket, std::uint64_t tokens)
      RELDEV_REQUIRES(mutex_);

  ReplicaBase& replica_;

  mutable Mutex mutex_{"ScrubDaemon.mutex"};
  ScrubOptions options_ RELDEV_GUARDED_BY(mutex_);
  ScrubStats stats_ RELDEV_GUARDED_BY(mutex_);
  std::uint64_t cursor_ RELDEV_GUARDED_BY(mutex_);
  TokenBucket bytes_bucket_ RELDEV_GUARDED_BY(mutex_);
  TokenBucket ops_bucket_ RELDEV_GUARDED_BY(mutex_);
  /// Cycles left before an unreachable peer is probed again.
  std::map<SiteId, int> peer_backoff_ RELDEV_GUARDED_BY(mutex_);
  /// Consecutive failures per peer (drives the exponential backoff).
  std::map<SiteId, int> peer_failures_ RELDEV_GUARDED_BY(mutex_);
  /// Debt accumulated by the last step; the background loop sleeps it off.
  std::chrono::nanoseconds pending_delay_ RELDEV_GUARDED_BY(mutex_){0};
  Rng jitter_ RELDEV_GUARDED_BY(mutex_){1};
  std::function<TokenBucket::Clock::time_point()> clock_
      RELDEV_GUARDED_BY(mutex_);
  std::function<void()> preheal_hook_ RELDEV_GUARDED_BY(mutex_);
  bool running_ RELDEV_GUARDED_BY(mutex_) = false;
  bool stop_requested_ RELDEV_GUARDED_BY(mutex_) = false;
  CondVar wake_;
  std::thread worker_;  // joined by stop(); touched only in start()/stop()
};

}  // namespace reldev::core

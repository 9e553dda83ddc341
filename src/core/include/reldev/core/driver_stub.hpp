// The device-driver stub of Figures 1 and 2: the client half of the
// reliable device. It presents the ordinary BlockDevice interface and
// forwards every block request over the network to a site server, failing
// over to the next configured server when one is unreachable — which is
// how a diskless workstation uses the reliable device (§2).
//
// Resilience: every operation runs under a RetryPolicy — bounded rounds of
// sticky failover scans with exponential backoff + full jitter between
// rounds, all sharing one per-operation deadline budget. Transport-level
// retry decisions live here, NOT in the TCP channel: the channel is
// at-most-once per call, and the stub retries whole operations (block
// reads and full-block writes are safely replayable — a replayed write
// re-applies the same bytes).
#pragma once

#include <chrono>
#include <memory>
#include <vector>

#include "reldev/core/device.hpp"
#include "reldev/core/types.hpp"
#include "reldev/net/transport.hpp"
#include "reldev/util/rng.hpp"
#include "reldev/util/thread_annotations.hpp"

namespace reldev::core {

/// When and how the stub retries a failed operation. Backoff between
/// retry rounds is "full jitter": sleep uniform(0, min(max_backoff,
/// initial_backoff * multiplier^(round-1))), drawn from a seeded Rng so a
/// fixed seed replays the same schedule. The op deadline caps the whole
/// operation — every attempt, failover and backoff sleep shares it.
struct RetryPolicy {
  /// Sticky scans over the server list (1 = a single failover pass, the
  /// pre-policy behaviour; each scan tries every server once).
  std::size_t max_rounds = 3;
  std::chrono::milliseconds initial_backoff{2};
  std::chrono::milliseconds max_backoff{50};
  double backoff_multiplier = 2.0;
  /// Budget for the operation across all attempts and failovers.
  std::chrono::milliseconds op_deadline{2000};
  /// Seed for the jitter stream (reproducible chaos runs).
  std::uint64_t jitter_seed = 0x5eedull;

  /// Single pass, no backoff — for callers that do their own retrying.
  static RetryPolicy none() {
    RetryPolicy policy;
    policy.max_rounds = 1;
    policy.initial_backoff = std::chrono::milliseconds{0};
    return policy;
  }
};

/// Whether an error can be cured by retrying elsewhere or later.
/// kUnavailable (no quorum / unreachable / stale socket), kTimeout (lost
/// message or deadline) and kCorruption (a CRC-rejected frame — the
/// retransmission will almost surely survive) are transient; everything
/// else is terminal and retrying would only repeat it.
[[nodiscard]] bool is_retryable(ErrorCode code) noexcept;

class DriverStub final : public BlockDevice {
 public:
  /// `client_id` identifies this stub on the transport (distinct from any
  /// server site id). `servers` is tried in order on each operation.
  DriverStub(net::Transport& transport, SiteId client_id,
             std::vector<SiteId> servers, std::size_t block_count,
             std::size_t block_size, RetryPolicy policy = RetryPolicy{});

  /// Queries device geometry from the first reachable server (one scan, no
  /// retries: connect failures are configuration problems, and callers can
  /// simply call connect again).
  static Result<DriverStub> connect(net::Transport& transport,
                                    SiteId client_id,
                                    std::vector<SiteId> servers,
                                    RetryPolicy policy = RetryPolicy{});

  [[nodiscard]] std::size_t block_count() const noexcept override {
    return block_count_;
  }
  [[nodiscard]] std::size_t block_size() const noexcept override {
    return block_size_;
  }

  /// One MultiBlockRead/Write RPC for the whole range; a single block
  /// (read_block/write_block) is a range of one.
  [[nodiscard]] Result<storage::BlockData> read_blocks(BlockId first,
                                         std::size_t count) override;
  [[nodiscard]] Status write_blocks(BlockId first, std::span<const std::byte> data) override;

  /// The server that served the last successful request.
  [[nodiscard]] SiteId last_server() const RELDEV_EXCLUDES(state_->mutex) {
    const MutexLock lock(state_->mutex);
    return state_->last_server;
  }

  void set_retry_policy(RetryPolicy policy) RELDEV_EXCLUDES(state_->mutex) {
    const MutexLock lock(state_->mutex);
    state_->policy = policy;
  }
  [[nodiscard]] RetryPolicy retry_policy() const
      RELDEV_EXCLUDES(state_->mutex) {
    const MutexLock lock(state_->mutex);
    return state_->policy;
  }

  /// What happened on the last operation that exhausted every server: the
  /// final per-server error (full code + detail, not the summarized
  /// kUnavailable the operation returns), which server produced it, and
  /// how many attempts were burned. Reset by every operation.
  struct FailureDetail {
    Status last_error;        ///< last per-server error observed
    SiteId last_site = 0;     ///< the server that produced it
    std::size_t attempts = 0; ///< total call attempts across all rounds
    std::size_t rounds = 0;   ///< scans over the server list completed
  };
  /// Snapshot by value: with concurrent callers the detail belongs to
  /// whichever operation finished last.
  [[nodiscard]] FailureDetail last_failure() const
      RELDEV_EXCLUDES(state_->mutex) {
    const MutexLock lock(state_->mutex);
    return state_->failure;
  }

 private:
  /// Run one request under the retry policy: rounds of sticky failover
  /// scans with jittered backoff between rounds, stopping early on success,
  /// on a terminal error, or when the op deadline is exhausted. On
  /// exhaustion returns a structured kUnavailable naming the attempt count
  /// and the last per-server error (also kept in last_failure()).
  ///
  /// Thread safety: safe for concurrent callers. The mutex guards only the
  /// retry bookkeeping — transport calls and backoff sleeps run unlocked,
  /// so concurrent operations proceed in parallel.
  [[nodiscard]] Result<net::Message> call_any(const net::Message& request)
      RELDEV_EXCLUDES(state_->mutex);

  // Mutable retry bookkeeping, boxed so the stub stays movable (a Mutex is
  // not) — DriverStub travels through Result<DriverStub> in connect().
  struct RetryState {
    mutable Mutex mutex{"DriverStub.RetryState.mutex"};
    RetryPolicy policy RELDEV_GUARDED_BY(mutex);
    Rng jitter RELDEV_GUARDED_BY(mutex);
    FailureDetail failure RELDEV_GUARDED_BY(mutex);
    SiteId last_server RELDEV_GUARDED_BY(mutex) = 0;
    // Index into servers_ of last_server (the sticky-scan start).
    std::size_t last_index RELDEV_GUARDED_BY(mutex) = 0;

    RetryState(RetryPolicy p, std::uint64_t seed) : policy(p), jitter(seed) {}
  };

  net::Transport& transport_;
  SiteId client_id_;
  std::vector<SiteId> servers_;  // immutable after construction
  std::size_t block_count_;
  std::size_t block_size_;
  std::unique_ptr<RetryState> state_;
};

}  // namespace reldev::core

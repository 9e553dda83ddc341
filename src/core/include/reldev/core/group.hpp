// ReplicaGroup: an in-process replication group — n Sites of one scheme
// and the transport wiring between them. The examples, the tests, and the
// discrete-event experiments all build groups through this class;
// fail-stop crashes and recoveries are driven through it so the replica
// state and the transport reachability stay in step.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "reldev/core/available_copy_replica.hpp"
#include "reldev/core/naive_replica.hpp"
#include "reldev/core/scrub_daemon.hpp"
#include "reldev/core/site.hpp"
#include "reldev/core/voting_replica.hpp"
#include "reldev/net/fault_transport.hpp"
#include "reldev/net/inproc_transport.hpp"
#include "reldev/storage/crash_point_store.hpp"
#include "reldev/storage/mem_block_store.hpp"

namespace reldev::core {

/// Back every site with a FileBlockStore (wrapped in a crash-point
/// injector) instead of the in-memory store: one `site<N>.rdev` file per
/// site under `directory`, created when missing and otherwise reopened
/// through recovery (see Site). With `journal` set, each site instead runs
/// a JournaledBlockStore — write-ahead journal (`site<N>.rdev.wal`) with
/// group commit in front of the same v2 file — under the same injector.
/// An empty `directory` means in-memory stores.
struct PersistentOptions {
  std::string directory;
  bool journal = false;
  storage::JournalOptions journal_options;
};

class ReplicaGroup {
 public:
  ReplicaGroup(SchemeKind scheme, GroupConfig config,
               net::AddressingMode mode = net::AddressingMode::kMulticast,
               WasAvailablePolicy policy = WasAvailablePolicy::kEagerBroadcast);

  /// Persistent variant: file-backed stores with crash-point injection.
  ReplicaGroup(SchemeKind scheme, GroupConfig config,
               PersistentOptions persist,
               net::AddressingMode mode = net::AddressingMode::kMulticast,
               WasAvailablePolicy policy = WasAvailablePolicy::kEagerBroadcast);

  [[nodiscard]] SchemeKind scheme() const noexcept { return scheme_; }
  [[nodiscard]] const GroupConfig& config() const noexcept { return config_; }
  [[nodiscard]] std::size_t size() const noexcept { return sites_.size(); }

  [[nodiscard]] ReplicaBase& replica(SiteId site);
  [[nodiscard]] storage::BlockStore& store(SiteId site);

  /// Whether this group runs on file-backed stores.
  [[nodiscard]] bool persistent() const noexcept {
    return !persist_.directory.empty();
  }
  /// Whether the file-backed stores run in journal (write-ahead) mode.
  [[nodiscard]] bool journaled() const noexcept { return persist_.journal; }
  /// Path of a site's backing file (persistent groups only).
  [[nodiscard]] std::string store_path(SiteId site) const;
  /// The crash-point injector wrapping a site's file store (persistent
  /// groups only) — arm it, then drive writes until it fires.
  [[nodiscard]] storage::CrashPointBlockStore& crash_points(SiteId site);

  /// fsync a site's store: everything acknowledged before this call is
  /// crash-durable under the storage durability contract. In journal mode
  /// this is a group commit (one journal fsync), not a full-file flush.
  [[nodiscard]] Status sync_site(SiteId site);
  /// Journal mode: fold a site's journal into its main file and truncate
  /// it (the checkpoint crash points fire through here when armed).
  [[nodiscard]] Status checkpoint_site(SiteId site);
  [[nodiscard]] net::InProcTransport& transport() noexcept { return transport_; }
  /// The fault-injection layer every replica (and any client pointed at
  /// faults()) actually sends through. With no rules set it is a
  /// transparent pass-through over transport().
  [[nodiscard]] net::FaultInjectingTransport& faults() noexcept {
    return faults_;
  }
  [[nodiscard]] net::TrafficMeter& meter() noexcept { return meter_; }

  /// Fail-stop crash: the replica forgets volatile state and the site
  /// becomes unreachable.
  void crash_site(SiteId site);

  /// Bring the site back up and run its recovery procedure, then give
  /// every other comatose site a chance to finish recovering (a newly
  /// available or newly recovered site can unblock them). Returns the
  /// status of this site's own recovery attempt (kUnavailable = comatose).
  [[nodiscard]] Status recover_site(SiteId site);

  /// Hard-kill a persistent site the way a dying machine would
  /// (Site::kill) and cut the transport — whatever torn bytes an armed
  /// crash point left stay on disk.
  void kill_site(SiteId site);

  /// Restart a killed persistent site (Site::restart), then retry the
  /// other comatose sites. kUnavailable = alive but comatose (e.g. the
  /// available-copy closure has not fully recovered yet).
  [[nodiscard]] Status restart_site(SiteId site);

  /// One fixpoint pass: call recover() on every comatose, reachable
  /// replica until nothing changes. Returns how many became available.
  std::size_t retry_comatose();

  /// Whether the replicated block device is available under this scheme's
  /// rules: voting — a read and write quorum of up sites exists;
  /// available-copy schemes — at least one replica is `available`.
  [[nodiscard]] bool group_available() const;

  /// Convenience: device operations through a chosen coordinator site.
  [[nodiscard]] Result<storage::BlockData> read(SiteId via, BlockId block);
  [[nodiscard]] Status write(SiteId via, BlockId block, std::span<const std::byte> data);

  /// Vectored convenience: one batched operation through `via`.
  [[nodiscard]] Result<storage::BlockData> read_range(SiteId via, BlockId first,
                                        std::size_t count);
  [[nodiscard]] Status write_range(SiteId via, BlockId first,
                     std::span<const std::byte> data);

  /// Current state of every site (failed sites report kFailed).
  [[nodiscard]] std::vector<SiteState> states() const;

  /// Sites currently reachable (up), regardless of protocol state.
  [[nodiscard]] std::vector<bool> up() const;

  // --- anti-entropy scrubbing ----------------------------------------------
  // One ScrubDaemon per site, rebuilt alongside the replica on restart so
  // the persisted cursor carries across a kill/restart. The group drives
  // them synchronously (the in-process replicas are single-threaded).

  /// A site's scrub daemon (drive it with step()/run_cycle()).
  [[nodiscard]] ScrubDaemon& scrubber(SiteId site);

  /// Apply options to every site's daemon (and future rebuilds).
  void set_scrub_options(const ScrubOptions& options);

  /// One full scrub cycle at `site`.
  [[nodiscard]] Result<ScrubReport> scrub_site(SiteId site);

  /// A site's counters, and the sum over all sites.
  [[nodiscard]] ScrubStats scrub_stats(SiteId site);
  [[nodiscard]] ScrubStats total_scrub_stats();

  /// Convergence driver: run full cycles on every available site until a
  /// fully healthy round — nothing healed, no peer skipped under backoff,
  /// no ambiguous digest split, no heal failure — up to `max_rounds`
  /// rounds. Degraded no-op rounds (post-storm backoff still draining, a
  /// peer still down) keep cycling rather than counting as convergence.
  /// Returns the number of rounds used; kConflict if the group failed to
  /// converge within the bound.
  [[nodiscard]] Result<std::size_t> scrub_until_converged(
      std::size_t max_rounds);

 private:
  [[nodiscard]] Site& at(SiteId site) const;

  SchemeKind scheme_;
  GroupConfig config_;
  net::TrafficMeter meter_;
  net::InProcTransport transport_;
  // Decorates transport_; replicas are wired through it so scripted and
  // randomized faults apply to all inter-replica traffic.
  net::FaultInjectingTransport faults_;
  PersistentOptions persist_;
  // Each Site is bound to transport_ as its site's handler.
  std::vector<std::unique_ptr<Site>> sites_;
};

}  // namespace reldev::core

#include "reldev/core/scrub_daemon.hpp"

#include <algorithm>
#include <set>
#include <sstream>

#include "reldev/storage/scrubber.hpp"
#include "reldev/util/logging.hpp"

namespace reldev::core {

namespace {

/// Fraction of cycle_interval jittered onto each pause (+/-).
constexpr double kIntervalJitter = 0.2;
/// Cycles an unreachable peer is skipped before the first retry; doubles
/// per consecutive failure up to the max.
constexpr int kPeerBackoffCycles = 1;
constexpr int kPeerBackoffMaxCycles = 8;

}  // namespace

std::string format_scrub_stats(const ScrubStats& stats) {
  std::ostringstream out;
  out << "scanned=" << stats.blocks_scanned
      << " digests=" << stats.digests_exchanged
      << " stale-healed=" << stats.stale_healed
      << " corrupt-healed=" << stats.corrupt_healed
      << " cycles=" << stats.cycles_completed
      << " throttle-stalls=" << stats.throttle_stalls
      << " peer-skips=" << stats.peer_unreachable_skips
      << " ambiguous=" << stats.ambiguous_mismatches
      << " heal-failures=" << stats.heal_failures;
  return out.str();
}

ScrubDaemon::ScrubDaemon(ReplicaBase& replica, ScrubOptions options)
    : replica_(replica) {
  // Reading the persisted cursor is store I/O, so it happens before the
  // lock is taken (no blocking under a Mutex).
  std::uint64_t cursor = storage::load_scrub_cursor(replica.store());
  if (cursor >= replica.config().block_count) cursor = 0;
  MutexLock lock(mutex_);
  options_ = options;
  bytes_bucket_ = TokenBucket(options.bytes_per_sec, options.bytes_per_sec);
  ops_bucket_ = TokenBucket(options.ops_per_sec, options.ops_per_sec);
  jitter_ = Rng(0x5c20bb3dull + replica.id());  // desynchronizes the fleet
  cursor_ = cursor;
}

ScrubDaemon::~ScrubDaemon() { stop(); }

Result<ScrubReport> ScrubDaemon::step() {
  {
    MutexLock lock(mutex_);
    if (running_) {
      return errors::conflict(
          "background scrub thread is running; stop it before driving "
          "synchronously");
    }
  }
  return do_step();
}

Result<ScrubReport> ScrubDaemon::run_cycle() {
  ScrubReport total;
  // batch_blocks >= 1, so a cycle is at most block_count steps.
  const std::size_t max_steps = replica_.config().block_count + 1;
  for (std::size_t i = 0; i < max_steps; ++i) {
    auto report = step();
    if (!report) return report.status();
    total.scanned += report.value().scanned;
    total.stale_healed += report.value().stale_healed;
    total.corrupt_healed += report.value().corrupt_healed;
    if (report.value().cycle_completed) {
      total.cycle_completed = true;
      return total;
    }
  }
  return errors::internal("scrub cycle failed to wrap the device");
}

std::chrono::nanoseconds ScrubDaemon::charge(TokenBucket& bucket,
                                             std::uint64_t tokens) {
  if (bucket.unlimited() || tokens == 0) {
    return std::chrono::nanoseconds::zero();
  }
  const auto now = clock_ ? clock_() : TokenBucket::Clock::now();
  const auto delay = bucket.acquire(tokens, now);
  if (delay.count() > 0) ++stats_.throttle_stalls;
  return delay;
}

Result<ScrubReport> ScrubDaemon::do_step() {
  if (replica_.state() != SiteState::kAvailable) {
    return errors::unavailable("replica is not available; scrub deferred");
  }
  const std::size_t block_count = replica_.config().block_count;
  const std::size_t block_size = replica_.config().block_size;
  const SiteId self = replica_.id();
  if (block_count == 0) return ScrubReport{0, 0, 0, true};

  // Snapshot the batch plan under the lock; no lock is held across store,
  // replica, or transport calls.
  std::uint64_t first = 0;
  std::size_t batch = 0;
  SiteSet targets;
  std::chrono::nanoseconds delay{0};
  std::function<void()> preheal;
  {
    MutexLock lock(mutex_);
    if (cursor_ >= block_count) cursor_ = 0;
    first = cursor_;
    batch = std::min(std::max<std::size_t>(options_.batch_blocks, 1),
                     block_count - first);
    // Local scan reads are the scrub's disk bandwidth; charge them first.
    delay = std::max(delay, charge(bytes_bucket_, batch * block_size));
    delay = std::max(delay, charge(ops_bucket_, 1));
    for (SiteId site = 0; site < replica_.config().site_count(); ++site) {
      if (site == self) continue;
      const auto it = peer_backoff_.find(site);
      if (it != peer_backoff_.end() && it->second > 0) {
        ++stats_.peer_unreachable_skips;
        continue;
      }
      targets.insert(site);
    }
    preheal = preheal_hook_;
  }

  auto scan = storage::scan_digests(replica_.store(), first, batch);
  if (!scan) return scan.status();
  const std::size_t scanned = scan.value().versions.size();

  // Digest exchange: one batched request to every peer not in backoff.
  std::vector<net::GatherReply> replies;
  if (!targets.empty() && scanned > 0) {
    replies = replica_.transport().multicast_call(
        self, targets,
        net::Message{self,
                     net::DigestRequest{
                         first, static_cast<std::uint32_t>(scanned)}});
  }
  struct PeerDigest {
    SiteId site;
    storage::VersionNumber version;
    std::uint32_t digest;
  };
  std::vector<std::vector<PeerDigest>> by_block(scanned);
  std::set<SiteId> replied;
  for (const auto& [site, reply] : replies) {
    if (!reply.holds<net::DigestReply>()) continue;
    const auto& digest = reply.as<net::DigestReply>();
    if (digest.first != first || digest.versions.size() != scanned ||
        digest.digests.size() != scanned) {
      continue;  // malformed; treat like no reply
    }
    replied.insert(site);
    for (std::size_t i = 0; i < scanned; ++i) {
      by_block[i].push_back(
          PeerDigest{site, digest.versions[i], digest.digests[i]});
    }
  }

  // Classify each block: stale (a peer holds a newer version), corrupt
  // (same version, our digest is in the strict minority), or ambiguous
  // (mismatch with no majority — left for a cycle with more voters; a
  // wrong adoption could destroy the only good copy).
  const std::set<BlockId> demoted(scan.value().demoted.begin(),
                                  scan.value().demoted.end());
  std::map<SiteId, std::vector<BlockId>> fetch_by_site;
  std::vector<std::pair<BlockId, storage::VersionNumber>> corrupt;
  std::size_t ambiguous = 0;
  for (std::size_t i = 0; i < scanned; ++i) {
    const BlockId block = first + i;
    const storage::VersionNumber local_version = scan.value().versions[i];
    const std::uint32_t local_digest = scan.value().digests[i];
    storage::VersionNumber max_version = local_version;
    SiteId max_site = self;
    for (const auto& peer : by_block[i]) {
      if (peer.version > max_version) {
        max_version = peer.version;
        max_site = peer.site;
      }
    }
    if (max_version > local_version) {
      fetch_by_site[max_site].push_back(block);
      continue;
    }
    std::map<std::uint32_t, int> votes;
    votes[local_digest] = 1;
    for (const auto& peer : by_block[i]) {
      if (peer.version == local_version) ++votes[peer.digest];
    }
    if (votes.size() <= 1) continue;  // full agreement
    const int local_votes = votes[local_digest];
    int best_other = 0;
    for (const auto& [digest, count] : votes) {
      if (digest != local_digest) best_other = std::max(best_other, count);
    }
    if (best_other > local_votes) {
      corrupt.emplace_back(block, local_version);
    } else if (best_other == local_votes) {
      ++ambiguous;  // tie — adopting could destroy the only good copy
    }
    // Local strict majority: the damage is at a peer; its own scrub (of
    // the same digest set) classifies it as corrupt and heals it there.
  }

  if (preheal) preheal();

  // Heal off the hot path. A peer failing mid-heal costs this batch
  // nothing but a counter; the blocks stay flagged by the next cycle.
  std::size_t stale_healed = 0;
  std::size_t corrupt_healed = 0;
  std::size_t heal_failures = 0;
  for (const auto& [source, blocks] : fetch_by_site) {
    {
      MutexLock lock(mutex_);
      delay = std::max(delay, charge(ops_bucket_, 1));
      delay = std::max(
          delay, charge(bytes_bucket_, blocks.size() * block_size));
    }
    auto healed = replica_.scrub_heal_stale(blocks, source);
    if (!healed) {
      ++heal_failures;
      continue;
    }
    for (const BlockId block : healed.value()) {
      if (demoted.contains(block)) {
        ++corrupt_healed;  // latent local corruption found by the scan
      } else {
        ++stale_healed;
      }
    }
  }
  for (const auto& [block, seen_version] : corrupt) {
    // Foreground-safety: a version that moved since the digest exchange
    // means a fresh foreground write — never demote it.
    auto current = replica_.store().version_of(block);
    if (!current || current.value() != seen_version) continue;
    {
      MutexLock lock(mutex_);
      delay = std::max(delay, charge(ops_bucket_, 1));
      delay = std::max(delay, charge(bytes_bucket_, block_size));
    }
    if (auto status = replica_.scrub_heal_corrupt(block); !status.is_ok()) {
      RELDEV_WARN("scrub") << "site " << self << ": corrupt-heal of block "
                           << block << " failed (" << status.to_string()
                           << "); retrying next cycle";
      ++heal_failures;
      continue;
    }
    ++corrupt_healed;
  }

  const std::uint64_t next =
      (first + scanned >= block_count) ? 0 : first + scanned;
  const bool wrapped = next == 0;
  {
    MutexLock lock(mutex_);
    cursor_ = next;
    stats_.blocks_scanned += scanned;
    stats_.digests_exchanged += replied.size();
    stats_.stale_healed += stale_healed;
    stats_.corrupt_healed += corrupt_healed;
    stats_.ambiguous_mismatches += ambiguous;
    stats_.heal_failures += heal_failures;
    if (wrapped) {
      ++stats_.cycles_completed;
      for (auto& [site, cycles] : peer_backoff_) {
        if (cycles > 0) --cycles;
      }
    }
    for (const SiteId site : targets) {
      if (replied.contains(site)) {
        peer_failures_.erase(site);
        peer_backoff_.erase(site);
      } else {
        const int failures = ++peer_failures_[site];
        const int backoff = kPeerBackoffCycles << std::min(failures - 1, 8);
        peer_backoff_[site] = std::min(backoff, kPeerBackoffMaxCycles);
      }
    }
    pending_delay_ = delay;
  }
  // Persist the cursor so a restarted site resumes mid-cycle. Best-effort:
  // a failed persist costs a partial rescan after the next restart.
  if (auto status = storage::save_scrub_cursor(replica_.store(), next);
      !status.is_ok()) {
    RELDEV_WARN("scrub") << "site " << self << ": persisting scrub cursor "
                         << "failed (" << status.to_string() << ")";
  }
  return ScrubReport{scanned, stale_healed, corrupt_healed, wrapped};
}

void ScrubDaemon::worker_loop() {
  for (;;) {
    {
      MutexLock lock(mutex_);
      if (stop_requested_) return;
    }
    auto report = do_step();
    MutexLock lock(mutex_);
    if (stop_requested_) return;
    std::chrono::nanoseconds sleep_for{0};
    if (!report) {
      // Replica comatose/failed or store trouble: retry after a pause.
      sleep_for = options_.cycle_interval;
    } else {
      sleep_for = pending_delay_;  // repay throttle debt
      pending_delay_ = std::chrono::nanoseconds::zero();
      if (report.value().cycle_completed) {
        const auto base = std::chrono::nanoseconds(options_.cycle_interval);
        if (base.count() > 0) {
          const double factor =
              1.0 + kIntervalJitter * (2.0 * jitter_.next_double() - 1.0);
          sleep_for += std::chrono::nanoseconds(
              static_cast<std::int64_t>(static_cast<double>(base.count()) *
                                        factor));
        }
      }
    }
    if (sleep_for.count() > 0) {
      (void)wake_.wait_for(mutex_, sleep_for);
    }
    if (stop_requested_) return;
  }
}

void ScrubDaemon::start() {
  MutexLock lock(mutex_);
  if (running_) return;
  stop_requested_ = false;
  running_ = true;
  worker_ = std::thread([this] { worker_loop(); });
}

void ScrubDaemon::stop() {
  {
    MutexLock lock(mutex_);
    if (!running_) return;
    stop_requested_ = true;
  }
  wake_.notify_all();
  worker_.join();
  MutexLock lock(mutex_);
  running_ = false;
  stop_requested_ = false;
}

bool ScrubDaemon::running() const {
  MutexLock lock(mutex_);
  return running_;
}

ScrubStats ScrubDaemon::stats() const {
  MutexLock lock(mutex_);
  return stats_;
}

ScrubOptions ScrubDaemon::options() const {
  MutexLock lock(mutex_);
  return options_;
}

void ScrubDaemon::set_options(const ScrubOptions& options) {
  MutexLock lock(mutex_);
  options_ = options;
  bytes_bucket_ = TokenBucket(options.bytes_per_sec, options.bytes_per_sec);
  ops_bucket_ = TokenBucket(options.ops_per_sec, options.ops_per_sec);
}

std::uint64_t ScrubDaemon::cursor() const {
  MutexLock lock(mutex_);
  return cursor_;
}

void ScrubDaemon::set_clock(
    std::function<TokenBucket::Clock::time_point()> clock) {
  MutexLock lock(mutex_);
  clock_ = std::move(clock);
}

void ScrubDaemon::set_preheal_hook(std::function<void()> hook) {
  MutexLock lock(mutex_);
  preheal_hook_ = std::move(hook);
}

}  // namespace reldev::core

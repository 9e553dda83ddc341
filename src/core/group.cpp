#include "reldev/core/group.hpp"

namespace reldev::core {

ReplicaGroup::ReplicaGroup(SchemeKind scheme, GroupConfig config,
                           net::AddressingMode mode, WasAvailablePolicy policy)
    : ReplicaGroup(scheme, std::move(config), PersistentOptions{}, mode,
                   policy) {}

ReplicaGroup::ReplicaGroup(SchemeKind scheme, GroupConfig config,
                           PersistentOptions persist, net::AddressingMode mode,
                           WasAvailablePolicy policy)
    : scheme_(scheme),
      config_(std::move(config)),
      transport_(mode),
      faults_(transport_),
      persist_(std::move(persist)) {
  config_.validate();
  transport_.set_traffic_meter(&meter_);
  const std::size_t n = config_.site_count();
  sites_.reserve(n);
  for (SiteId site = 0; site < n; ++site) {
    SiteOptions options;
    options.scheme = scheme_;
    options.policy = policy;
    if (persistent()) options.store_path = store_path(site);
    options.journal = persist_.journal;
    options.journal_options = persist_.journal_options;
    auto opened = Site::open(site, config_, faults_, std::move(options));
    RELDEV_EXPECTS(opened.is_ok());
    sites_.push_back(std::move(opened).value());
    transport_.bind(site, sites_.back().get());
  }
}

Site& ReplicaGroup::at(SiteId site) const {
  RELDEV_EXPECTS(site < sites_.size());
  return *sites_[site];
}

ScrubDaemon& ReplicaGroup::scrubber(SiteId site) {
  return at(site).scrubber();
}

void ReplicaGroup::set_scrub_options(const ScrubOptions& options) {
  for (auto& site : sites_) site->set_scrub_options(options);
}

Result<ScrubReport> ReplicaGroup::scrub_site(SiteId site) {
  return scrubber(site).run_cycle();
}

ScrubStats ReplicaGroup::scrub_stats(SiteId site) {
  return scrubber(site).stats();
}

ScrubStats ReplicaGroup::total_scrub_stats() {
  ScrubStats total;
  for (auto& site : sites_) {
    const ScrubStats stats = site->scrubber().stats();
    total.blocks_scanned += stats.blocks_scanned;
    total.digests_exchanged += stats.digests_exchanged;
    total.stale_healed += stats.stale_healed;
    total.corrupt_healed += stats.corrupt_healed;
    total.cycles_completed += stats.cycles_completed;
    total.throttle_stalls += stats.throttle_stalls;
    total.peer_unreachable_skips += stats.peer_unreachable_skips;
    total.ambiguous_mismatches += stats.ambiguous_mismatches;
    total.heal_failures += stats.heal_failures;
  }
  return total;
}

Result<std::size_t> ReplicaGroup::scrub_until_converged(
    std::size_t max_rounds) {
  for (std::size_t round = 1; round <= max_rounds; ++round) {
    const ScrubStats before = total_scrub_stats();
    std::size_t healed = 0;
    bool any_scrubbed = false;
    for (auto& site : sites_) {
      if (site->replica().state() != SiteState::kAvailable) continue;
      auto report = site->scrubber().run_cycle();
      if (!report) continue;  // lost availability mid-cycle; next round
      any_scrubbed = true;
      healed += report.value().stale_healed + report.value().corrupt_healed;
    }
    // Converged means a fully healthy round: nothing healed, no peer
    // skipped under backoff, no exchange left ambiguous, no heal failed.
    // A round that heals nothing because half the exchanges degraded
    // (post-storm backoff, a dead peer) is NOT convergence — keep cycling
    // so backoffs drain and every split gets a full quorum of digests.
    const ScrubStats after = total_scrub_stats();
    const bool degraded =
        after.peer_unreachable_skips != before.peer_unreachable_skips ||
        after.ambiguous_mismatches != before.ambiguous_mismatches ||
        after.heal_failures != before.heal_failures;
    if (any_scrubbed && healed == 0 && !degraded) return round;
  }
  return errors::conflict("scrub did not converge within " +
                          std::to_string(max_rounds) + " round(s)");
}

ReplicaBase& ReplicaGroup::replica(SiteId site) { return at(site).replica(); }

storage::BlockStore& ReplicaGroup::store(SiteId site) {
  return at(site).store();
}

std::string ReplicaGroup::store_path(SiteId site) const {
  RELDEV_EXPECTS(persistent());
  return persist_.directory + "/site" + std::to_string(site) + ".rdev";
}

storage::CrashPointBlockStore& ReplicaGroup::crash_points(SiteId site) {
  return at(site).crash_points();
}

Status ReplicaGroup::sync_site(SiteId site) { return store(site).sync(); }

Status ReplicaGroup::checkpoint_site(SiteId site) {
  RELDEV_EXPECTS(journaled());
  return crash_points(site).checkpoint();
}

void ReplicaGroup::kill_site(SiteId site) {
  at(site).kill();
  transport_.set_up(site, false);
}

Status ReplicaGroup::restart_site(SiteId site) {
  // Up before the restart's recovery round: peers answering it may call
  // back into the recovering site.
  transport_.set_up(site, true);
  const Status status = at(site).restart();
  if (!crash_points(site).has_inner()) {  // the reopen itself failed
    transport_.set_up(site, false);
    return status;
  }
  retry_comatose();
  return status;
}

void ReplicaGroup::crash_site(SiteId site) {
  replica(site).crash();
  transport_.set_up(site, false);
}

Status ReplicaGroup::recover_site(SiteId site) {
  transport_.set_up(site, true);
  const Status status = replica(site).recover();
  retry_comatose();
  return status;
}

std::size_t ReplicaGroup::retry_comatose() {
  std::size_t recovered = 0;
  bool progress = true;
  while (progress) {
    progress = false;
    for (auto& site : sites_) {
      ReplicaBase& replica = site->replica();
      if (replica.state() != SiteState::kComatose) continue;
      if (!transport_.is_up(replica.id())) continue;
      if (replica.recover().is_ok()) {
        ++recovered;
        progress = true;
      }
    }
  }
  return recovered;
}

bool ReplicaGroup::group_available() const {
  if (scheme_ == SchemeKind::kVoting) {
    std::uint64_t up_weight = 0;
    for (const auto& site : sites_) {
      if (transport_.is_up(site->id())) {
        up_weight += config_.weight_of(site->id());
      }
    }
    return up_weight >= config_.read_quorum_millivotes &&
           up_weight >= config_.write_quorum_millivotes;
  }
  for (const auto& site : sites_) {
    if (transport_.is_up(site->id()) &&
        site->replica().state() == SiteState::kAvailable) {
      return true;
    }
  }
  return false;
}

Result<storage::BlockData> ReplicaGroup::read(SiteId via, BlockId block) {
  return replica(via).read(block);
}

Status ReplicaGroup::write(SiteId via, BlockId block,
                           std::span<const std::byte> data) {
  return replica(via).write(block, data);
}

Result<storage::BlockData> ReplicaGroup::read_range(SiteId via, BlockId first,
                                                    std::size_t count) {
  return replica(via).read_range(first, count);
}

Status ReplicaGroup::write_range(SiteId via, BlockId first,
                                 std::span<const std::byte> data) {
  return replica(via).write_range(first, data);
}

std::vector<SiteState> ReplicaGroup::states() const {
  std::vector<SiteState> result;
  result.reserve(sites_.size());
  for (const auto& site : sites_) result.push_back(site->replica().state());
  return result;
}

std::vector<bool> ReplicaGroup::up() const {
  std::vector<bool> result;
  result.reserve(sites_.size());
  for (const auto& site : sites_) result.push_back(transport_.is_up(site->id()));
  return result;
}

}  // namespace reldev::core

#include "reldev/core/naive_replica.hpp"

#include "reldev/util/logging.hpp"

namespace reldev::core {

NaiveAvailableCopyReplica::NaiveAvailableCopyReplica(
    SiteId self, GroupConfig config, storage::BlockStore& store,
    net::Transport& transport)
    : ReplicaBase(self, std::move(config), store, transport) {}

Status NaiveAvailableCopyReplica::write_range(BlockId first,
                                              std::span<const std::byte> data) {
  if (state_ != SiteState::kAvailable) {
    return errors::unavailable(std::string("site is ") +
                               net::site_state_name(state_));
  }
  auto count = check_write_range(first, data);
  if (!count) return count.status();
  net::BatchWriteRequest push;
  push.updates.reserve(count.value());
  for (std::size_t i = 0; i < count.value(); ++i) {
    auto current = store_.version_of(first + i);
    if (!current) return current.status();
    const auto slice = data.subspan(i * config_.block_size, config_.block_size);
    push.updates.push_back(
        net::BlockUpdate{first + i, current.value() + 1,
                         storage::BlockData(slice.begin(), slice.end())});
  }
  if (auto status = store_.write_batch(batch_of(push.updates));
      !status.is_ok()) {
    return status;
  }
  // The naive write: one unacknowledged grouped push to everybody. Reliable
  // delivery between live sites is assumed (§5.1); no was-available
  // bookkeeping exists to update.
  return transport_.multicast(self_, peers(),
                              net::Message{self_, std::move(push)});
}

Status NaiveAvailableCopyReplica::adopt_group_copy(SiteId source) {
  // Two repair rounds: the naive write commits locally before the push, so
  // a coordinator crash can leave this site durably AHEAD of the group on a
  // write nobody acknowledged. The copy held by the running group is
  // authoritative — demote such blocks and pull the current record on the
  // second round.
  for (int pass = 0; pass < 2; ++pass) {
    auto theirs = repair_from(source);
    if (!theirs) return theirs.status();
    const auto ahead = theirs.value().stale_against(local_versions());
    if (ahead.empty()) return Status::ok();
    for (const BlockId block : ahead) {
      RELDEV_WARN("naive-ac")
          << "site " << self_ << " discards unpushed write of block " << block
          << " (never acknowledged); adopting the group's copy";
      if (auto status = store_.demote(block); !status.is_ok()) return status;
    }
  }
  return Status::ok();
}

Status NaiveAvailableCopyReplica::recover() {
  // Figure 6: identical to Figure 5 with W_s fixed to the full site set —
  // so after a total failure *every* site must recover before anyone can
  // tell who holds the most recent version.
  set_state(SiteState::kComatose);

  const auto replies = transport_.multicast_call(
      self_, peers(), net::Message{self_, net::StateInquiry{}});

  for (const auto& [site, reply] : replies) {
    if (!reply.holds<net::StateInfo>()) continue;
    if (reply.as<net::StateInfo>().state != SiteState::kAvailable) continue;
    if (auto status = adopt_group_copy(site); !status.is_ok()) return status;
    set_state(SiteState::kAvailable);
    return Status::ok();
  }

  // Nobody is available: wait for the whole group.
  std::size_t recovered = 1;  // self
  SiteId best = self_;
  std::uint64_t best_total = local_versions().total();
  for (const auto& [site, reply] : replies) {
    if (!reply.holds<net::StateInfo>()) continue;
    ++recovered;
    const auto& info = reply.as<net::StateInfo>();
    if (info.version_total > best_total) {
      best_total = info.version_total;
      best = site;
    }
  }
  if (recovered < config_.site_count()) {
    RELDEV_DEBUG("naive-ac") << "site " << self_
                             << " stays comatose: " << recovered << " of "
                             << config_.site_count() << " sites recovered";
    return errors::unavailable("waiting for all sites to recover");
  }
  if (best != self_) {
    if (auto status = adopt_group_copy(best); !status.is_ok()) return status;
  }
  set_state(SiteState::kAvailable);
  return Status::ok();
}

net::Message NaiveAvailableCopyReplica::handle_peer(
    const net::Message& request) {
  if (request.holds<net::StateInquiry>()) {
    return net::Message{
        self_, net::StateInfo{state_, local_versions().total(), SiteSet{}}};
  }
  return net::make_error(
      self_,
      errors::protocol(std::string("unexpected request ") + request.name()));
}

}  // namespace reldev::core

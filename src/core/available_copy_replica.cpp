#include "reldev/core/available_copy_replica.hpp"

#include "reldev/util/logging.hpp"

namespace reldev::core {

AvailableCopyReplica::AvailableCopyReplica(SiteId self, GroupConfig config,
                                           storage::BlockStore& store,
                                           net::Transport& transport,
                                           WasAvailablePolicy policy)
    : ReplicaBase(self, std::move(config), store, transport),
      policy_(policy) {
  if (policy_ == WasAvailablePolicy::kFixed) {
    was_available_ = config_.all_sites();
  } else {
    load_metadata();
  }
}

void AvailableCopyReplica::load_metadata() {
  auto blob = store_.get_metadata();
  if (blob && !blob.value().empty()) {
    auto meta = storage::SiteMetadata::decode(blob.value());
    if (meta && meta.value().was_available.has_value()) {
      was_available_ = *meta.value().was_available;
      return;
    }
  }
  // Fresh store: every copy starts available (§4's initial state), so the
  // most conservative correct W is the full site set.
  was_available_ = config_.all_sites();
  persist_metadata();
}

void AvailableCopyReplica::persist_metadata() {
  // Read-modify-write: the metadata blob is shared with the scrubber's
  // cursor, which must survive every was-available update.
  storage::SiteMetadata meta;
  if (auto existing = store_.get_metadata();
      existing && !existing.value().empty()) {
    if (auto decoded = storage::SiteMetadata::decode(existing.value());
        decoded) {
      meta.scrub_cursor = decoded.value().scrub_cursor;
    }
  }
  meta.site = self_;
  meta.clean_shutdown = false;
  meta.was_available = was_available_;
  const auto blob = meta.encode();
  // A store dying mid-operation must not take the server down with it:
  // the in-memory W-set stays correct, the double-slot region keeps the
  // previous durable set, and the recovery closure computed from the older
  // (superset-safe) set is still correct — just more conservative.
  if (const Status status = store_.put_metadata(blob); !status.is_ok()) {
    RELDEV_WARN("available-copy")
        << "site " << self_ << ": persisting was-available set failed ("
        << status.to_string() << ")";
    return;
  }
  if (const Status status = store_.sync(); !status.is_ok()) {
    RELDEV_WARN("available-copy")
        << "site " << self_ << ": metadata sync failed ("
        << status.to_string() << ")";
  }
}

Status AvailableCopyReplica::write_range(BlockId first,
                                         std::span<const std::byte> data) {
  if (state_ != SiteState::kAvailable) {
    return errors::unavailable(std::string("site is ") +
                               net::site_state_name(state_));
  }
  auto count = check_write_range(first, data);
  if (!count) return count.status();

  // Write to all available copies: every update in one grouped push.
  // Recipients apply the whole batch in one handler invocation; peers that
  // are up and available acknowledge, and the ack set *is* the new
  // was-available set. The push goes out before the local write, so this
  // site is never durably ahead of the group on a write it never sent.
  net::BatchWriteRequest push;
  push.updates.reserve(count.value());
  for (std::size_t i = 0; i < count.value(); ++i) {
    auto current = store_.version_of(first + i);
    if (!current) return current.status();
    const auto slice = data.subspan(i * config_.block_size, config_.block_size);
    push.updates.push_back(net::BlockUpdate{
        first + i, current.value() + 1,
        storage::BlockData(slice.begin(), slice.end())});
  }
  if (policy_ == WasAvailablePolicy::kFixed) {
    // Figure 6's write: one unacknowledged push. Reliable delivery between
    // live sites is assumed (§5.1), and a fixed W has nothing to learn.
    const net::Message message{self_, std::move(push)};
    if (auto status = transport_.multicast(self_, peers(), message);
        !status.is_ok()) {
      return status;
    }
    return store_.write_batch(
        batch_of(message.as<net::BatchWriteRequest>().updates));
  }
  push.was_available = was_available_;
  const net::Message message{self_, std::move(push)};
  const auto replies = transport_.multicast_call(self_, peers(), message);
  if (auto status = store_.write_batch(
          batch_of(message.as<net::BatchWriteRequest>().updates));
      !status.is_ok()) {
    return status;
  }

  SiteSet ack_set{self_};
  for (const auto& [site, reply] : replies) {
    if (reply.holds<net::WriteAllAck>()) ack_set.insert(site);
  }
  const bool changed = ack_set != was_available_;
  was_available_ = ack_set;
  if (changed) persist_metadata();

  if (policy_ == WasAvailablePolicy::kEagerBroadcast && changed) {
    // Push the exact ack set so every recipient's failure-order knowledge
    // is current (the atomic-broadcast variant of §3.2).
    SiteSet recipients = ack_set;
    recipients.erase(self_);
    transport_
        .multicast(self_, recipients,
                   net::Message{self_, net::WasAvailableUpdate{ack_set, true}})
        .ignore_error();
  }
  return Status::ok();
}

Status AvailableCopyReplica::join_from(SiteId source, SiteSet source_w) {
  if (auto repaired = repair_from(source); !repaired) {
    return repaired.status();
  }
  if (policy_ == WasAvailablePolicy::kFixed) return Status::ok();
  // W becomes the source's set plus this site, and the source learns that
  // this site now holds its copy.
  was_available_ = std::move(source_w);
  was_available_.insert(self_);
  persist_metadata();
  transport_
      .call(self_, source,
            net::Message{self_, net::WasAvailableUpdate{was_available_, false}})
      .ignore_error();
  return Status::ok();
}

Status AvailableCopyReplica::recover() {
  // Figure 5. We are back up but our data may be stale: comatose.
  set_state(SiteState::kComatose);

  const auto replies = transport_.multicast_call(
      self_, peers(), net::Message{self_, net::StateInquiry{}});

  // Arm 2 of the select: somebody stayed (or became) available — they hold
  // the most recent version of everything; repair from them directly.
  for (const auto& [site, reply] : replies) {
    if (!reply.holds<net::StateInfo>()) continue;
    const auto& info = reply.as<net::StateInfo>();
    if (info.state != SiteState::kAvailable) continue;
    if (auto status = join_from(site, info.was_available); !status.is_ok()) {
      return status;
    }
    set_state(SiteState::kAvailable);
    return Status::ok();
  }

  // Arm 1: total failure. Wait until every site that could have failed
  // last — the closure of our was-available set — has recovered, then take
  // the highest version among them. Under kFixed the closure is every site.
  WasAvailableMap known;
  std::map<SiteId, std::uint64_t> totals;
  known[self_] = was_available_;
  totals[self_] = local_versions().total();
  for (const auto& [site, reply] : replies) {
    if (!reply.holds<net::StateInfo>()) continue;
    const auto& info = reply.as<net::StateInfo>();
    known[site] = info.was_available;
    totals[site] = info.version_total;
  }
  SiteSet seed = was_available_;
  seed.insert(self_);
  if (!closure_recovered(seed, known)) {
    RELDEV_DEBUG("available-copy")
        << "site " << self_ << " stays comatose: closure not yet recovered";
    return errors::unavailable(policy_ == WasAvailablePolicy::kFixed
                                   ? "waiting for all sites to recover"
                                   : "closure of was-available set not "
                                     "recovered");
  }

  SiteId best = self_;
  for (const SiteId member : closure(seed, known)) {
    if (totals.at(member) > totals.at(best)) best = member;
  }
  if (best != self_) {
    if (auto status = join_from(best, known.at(best)); !status.is_ok()) {
      return status;
    }
  }
  set_state(SiteState::kAvailable);
  RELDEV_DEBUG("available-copy")
      << "site " << self_ << " recovered (source "
      << (best == self_ ? std::string("self") : std::to_string(best)) << ")";
  return Status::ok();
}

void AvailableCopyReplica::on_push_applied(
    SiteId from, const net::BatchWriteRequest& push) {
  if (policy_ != WasAvailablePolicy::kPiggybacked) return;
  // Adopt the writer's (previous-write) set, extended with the two sites
  // known to hold this write. Lag makes it a superset — safe.
  SiteSet adopted = push.was_available;
  adopted.insert(self_);
  adopted.insert(from);
  if (adopted != was_available_) {
    was_available_ = std::move(adopted);
    persist_metadata();
  }
}

void AvailableCopyReplica::merge_was_available(
    const net::WasAvailableUpdate& update) {
  if (policy_ == WasAvailablePolicy::kFixed) return;
  SiteSet next = update.was_available;
  if (update.replace) {
    next.insert(self_);
  } else {
    next.insert(was_available_.begin(), was_available_.end());
  }
  if (next != was_available_) {
    was_available_ = std::move(next);
    persist_metadata();
  }
}

net::Message AvailableCopyReplica::handle_peer(const net::Message& request) {
  if (request.holds<net::StateInquiry>()) {
    return net::Message{self_, net::StateInfo{state_, local_versions().total(),
                                              was_available_}};
  }
  if (request.holds<net::WasAvailableUpdate>()) {
    merge_was_available(request.as<net::WasAvailableUpdate>());
    return net::Message{self_, net::WasAvailableAck{}};
  }
  return net::make_error(
      self_,
      errors::protocol(std::string("unexpected request ") + request.name()));
}

void AvailableCopyReplica::handle_peer_oneway(const net::Message& message) {
  if (message.holds<net::WasAvailableUpdate>()) {
    if (state_ != SiteState::kAvailable) return;  // stale knowledge is safer
    merge_was_available(message.as<net::WasAvailableUpdate>());
    return;
  }
  ReplicaBase::handle_peer_oneway(message);
}

}  // namespace reldev::core

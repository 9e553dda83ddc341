#include "reldev/core/available_copy_replica.hpp"

#include "reldev/util/logging.hpp"

namespace reldev::core {

AvailableCopyReplica::AvailableCopyReplica(SiteId self, GroupConfig config,
                                           storage::BlockStore& store,
                                           net::Transport& transport,
                                           WasAvailablePolicy policy)
    : ReplicaBase(self, std::move(config), store, transport),
      policy_(policy) {
  load_metadata();
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
  // was-available set.
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
  push.was_available = was_available_;
  const net::Message message{self_, std::move(push)};
  const auto replies = transport_.multicast_call(self_, peers(), message);
  for (const auto& update : message.as<net::BatchWriteRequest>().updates) {
    if (auto status = store_.write(update.block, update.data, update.version);
        !status.is_ok()) {
      return status;
    }
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

Status AvailableCopyReplica::repair_from(SiteId source) {
  auto reply = transport_.call(
      self_, source, net::Message{self_, net::RepairRequest{local_versions()}});
  if (!reply) return reply.status();
  if (reply.value().holds<net::ErrorReply>()) {
    const auto& error = reply.value().as<net::ErrorReply>();
    return Status(static_cast<ErrorCode>(error.error_code), error.message);
  }
  if (!reply.value().holds<net::RepairReply>()) {
    return errors::protocol("unexpected reply to repair request");
  }
  return apply_repair(reply.value().as<net::RepairReply>());
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
    if (auto status = repair_from(site); !status.is_ok()) return status;
    was_available_ = info.was_available;
    was_available_.insert(self_);
    persist_metadata();
    transport_
        .call(self_, site,
              net::Message{self_,
                           net::WasAvailableUpdate{was_available_, false}})
        .ignore_error();
    set_state(SiteState::kAvailable);
    return Status::ok();
  }

  // Arm 1: total failure. Wait until every site that could have failed
  // last — the closure of our was-available set — has recovered, then take
  // the highest version among them.
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
    return errors::unavailable("closure of was-available set not recovered");
  }

  SiteId best = self_;
  for (const SiteId member : closure(seed, known)) {
    if (totals.at(member) > totals.at(best)) best = member;
  }
  if (best != self_) {
    if (auto status = repair_from(best); !status.is_ok()) return status;
    const auto it = known.find(best);
    RELDEV_ASSERT(it != known.end());
    was_available_ = it->second;
    was_available_.insert(self_);
    persist_metadata();
    transport_
        .call(self_, best,
              net::Message{self_,
                           net::WasAvailableUpdate{was_available_, false}})
        .ignore_error();
  }
  set_state(SiteState::kAvailable);
  RELDEV_DEBUG("available-copy")
      << "site " << self_ << " recovered (source "
      << (best == self_ ? std::string("self") : std::to_string(best)) << ")";
  return Status::ok();
}

net::Message AvailableCopyReplica::handle_peer(const net::Message& request) {
  if (request.holds<net::StateInquiry>()) {
    return net::Message{self_, net::StateInfo{state_, local_versions().total(),
                                              was_available_}};
  }
  if (request.holds<net::BatchWriteRequest>()) {
    // Only available copies take writes; a comatose copy must finish
    // repairing first or it would mix stale and fresh blocks.
    if (state_ != SiteState::kAvailable) {
      return net::make_error(self_, errors::unavailable("copy not available"));
    }
    const auto& push = request.as<net::BatchWriteRequest>();
    // One message, one handler invocation: the whole batch lands or the
    // error reply covers the whole batch — no torn multi-block write.
    for (const auto& update : push.updates) {
      auto current = store_.version_of(update.block);
      if (!current) return net::make_error(self_, current.status());
      if (update.version > current.value()) {
        if (auto status =
                store_.write(update.block, update.data, update.version);
            !status.is_ok()) {
          return net::make_error(self_, status);
        }
      }
    }
    if (policy_ == WasAvailablePolicy::kPiggybacked) {
      // Adopt the writer's (previous-write) set, extended with the two
      // sites known to hold this write. Lag makes it a superset — safe.
      SiteSet adopted = push.was_available;
      adopted.insert(self_);
      adopted.insert(request.from);
      if (adopted != was_available_) {
        was_available_ = std::move(adopted);
        persist_metadata();
      }
    }
    return net::Message{self_, net::WriteAllAck{}};
  }
  if (request.holds<net::RepairRequest>()) {
    // Served in any non-failed state: after a total failure the highest-
    // version member of the closure is still comatose when its peers
    // repair from it.
    return net::Message{
        self_, build_repair_reply(request.as<net::RepairRequest>().versions)};
  }
  if (request.holds<net::WasAvailableUpdate>()) {
    const auto& update = request.as<net::WasAvailableUpdate>();
    SiteSet next = update.was_available;
    if (!update.replace) {
      next.insert(was_available_.begin(), was_available_.end());
    } else {
      next.insert(self_);
    }
    if (next != was_available_) {
      was_available_ = std::move(next);
      persist_metadata();
    }
    return net::Message{self_, net::WasAvailableAck{}};
  }
  return net::make_error(
      self_,
      errors::protocol(std::string("unexpected request ") + request.name()));
}

void AvailableCopyReplica::handle_peer_oneway(const net::Message& message) {
  if (message.holds<net::WasAvailableUpdate>()) {
    const auto& update = message.as<net::WasAvailableUpdate>();
    if (state_ != SiteState::kAvailable) return;  // stale knowledge is safer
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
    return;
  }
  RELDEV_WARN("available-copy") << "ignoring one-way " << message.name();
}

}  // namespace reldev::core

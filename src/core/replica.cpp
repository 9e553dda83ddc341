#include "reldev/core/replica.hpp"

#include "reldev/storage/scrubber.hpp"
#include "reldev/util/logging.hpp"

namespace reldev::core {

ReplicaBase::ReplicaBase(SiteId self, GroupConfig config,
                         storage::BlockStore& store, net::Transport& transport)
    : self_(self),
      config_(std::move(config)),
      store_(store),
      transport_(transport) {
  config_.validate();
  RELDEV_EXPECTS(self < config_.site_count());
  RELDEV_EXPECTS(store.block_count() == config_.block_count);
  RELDEV_EXPECTS(store.block_size() == config_.block_size);
}

Status ReplicaBase::write(BlockId block, std::span<const std::byte> data) {
  if (data.size() != config_.block_size) {
    return errors::invalid_argument("payload size != block size");
  }
  return write_range(block, data);
}

Result<storage::BlockData> ReplicaBase::read_local(BlockId first,
                                                   std::size_t count) {
  // Reads are purely local (§3.2): every available copy holds the most
  // recent version of every block, so no network traffic at all.
  if (state_ != SiteState::kAvailable) {
    return errors::unavailable(std::string("site is ") +
                               net::site_state_name(state_));
  }
  if (auto status = check_range(first, count); !status.is_ok()) return status;
  // A media fault is treated like an out-of-date copy: demote the torn
  // record and refill it from any peer.
  return serve_local(first, count, [this](BlockId block) {
    return heal_corrupt_block(block);
  });
}

SiteSet ReplicaBase::peers() const {
  SiteSet all = config_.all_sites();
  all.erase(self_);
  return all;
}

net::Message ReplicaBase::handle(const net::Message& request) {
  if (state_ == SiteState::kFailed) {
    // Defense in depth: a fail-stopped site answers nothing. Transports
    // should never deliver here, but a racing TCP client might.
    return net::make_error(self_, errors::unavailable("site is failed"));
  }
  // Client I/O: a single block is a range of one, so every client write
  // runs the scheme's range write (under voting, the acknowledged push).
  if (request.holds<net::MultiBlockReadRequest>()) {
    const auto& payload = request.as<net::MultiBlockReadRequest>();
    auto data = read_range(payload.first, payload.count);
    net::MultiBlockReadReply reply;
    reply.error_code = static_cast<std::uint8_t>(data.status().code());
    if (data) reply.data = std::move(data).value();
    return net::Message{self_, std::move(reply)};
  }
  if (request.holds<net::MultiBlockWriteRequest>()) {
    const auto& payload = request.as<net::MultiBlockWriteRequest>();
    const Status status = write_range(payload.first, payload.data);
    return net::Message{
        self_,
        net::MultiBlockWriteAck{static_cast<std::uint8_t>(status.code())}};
  }
  if (request.holds<net::DeviceInfoRequest>()) {
    return net::Message{self_,
                        net::DeviceInfoReply{config_.block_count,
                                             config_.block_size}};
  }
  // Scheme-independent anti-entropy serving: digests and payload fetches
  // work the same for every engine, so a scrubbing peer can compare against
  // any scheme. A comatose site still answers — its data is exactly what
  // the requester wants to compare against, and the version guard on the
  // requesting side discards anything stale.
  if (request.holds<net::DigestRequest>()) {
    const auto& digest = request.as<net::DigestRequest>();
    if (auto status = check_range(digest.first, digest.count);
        !status.is_ok()) {
      return net::make_error(self_, status);
    }
    auto scan = storage::scan_digests(store_, digest.first, digest.count);
    if (!scan) return net::make_error(self_, scan.status());
    return net::Message{self_,
                        net::DigestReply{digest.first,
                                         std::move(scan.value().versions),
                                         std::move(scan.value().digests)}};
  }
  if (request.holds<net::BatchFetchRequest>()) {
    net::BatchFetchReply reply;
    const auto& fetch = request.as<net::BatchFetchRequest>();
    reply.updates.reserve(fetch.blocks.size());
    for (const BlockId block : fetch.blocks) {
      auto stored = store_.read(block);
      if (!stored) {
        // A torn record must not be shipped; demote it so our next vote or
        // digest offers version 0 and the fetcher goes elsewhere.
        if (stored.status().code() == ErrorCode::kCorruption) {
          store_.demote(block).ignore_error();
        }
        return net::make_error(self_, stored.status());
      }
      reply.updates.push_back(net::BlockUpdate{
          block, stored.value().version, std::move(stored).value().data});
    }
    return net::Message{self_, std::move(reply)};
  }
  if (request.holds<net::RepairRequest>()) {
    // Served in any non-failed state: after a total failure the highest-
    // version member of the available-copy closure is still comatose when
    // its peers repair from it.
    return net::Message{
        self_, build_repair_reply(request.as<net::RepairRequest>().versions)};
  }
  if (request.holds<net::BatchWriteRequest>()) {
    if (const Status status = take_push(request); !status.is_ok()) {
      return net::make_error(self_, status);
    }
    return net::Message{self_, net::WriteAllAck{}};
  }
  return handle_peer(request);
}

void ReplicaBase::handle_oneway(const net::Message& message) {
  if (state_ == SiteState::kFailed) return;
  if (message.holds<net::BatchWriteRequest>()) {
    if (const Status status = take_push(message); !status.is_ok()) {
      RELDEV_DEBUG("replica") << "site " << self_ << " dropped a one-way push ("
                              << status.to_string() << ")";
    }
    return;
  }
  handle_peer_oneway(message);
}

void ReplicaBase::handle_peer_oneway(const net::Message& message) {
  RELDEV_WARN("replica") << scheme_name() << " site " << self_
                         << ": ignoring one-way " << message.name();
}

Status ReplicaBase::take_push(const net::Message& message) {
  // A comatose copy must finish repairing first or it would mix stale and
  // fresh blocks. The whole batch is one message and one handler call, so
  // it lands whole, or the error covers the whole batch.
  if (state_ != SiteState::kAvailable) {
    return errors::unavailable("copy not available");
  }
  const auto& push = message.as<net::BatchWriteRequest>();
  if (auto applied = apply_newer(push.updates); !applied) {
    return applied.status();
  }
  on_push_applied(message.from, push);
  return Status::ok();
}

net::RepairReply ReplicaBase::build_repair_reply(
    const storage::VersionVector& theirs) const {
  net::RepairReply reply;
  reply.versions = local_versions();
  bool demoted_any = false;
  for (const BlockId block : theirs.stale_against(reply.versions)) {
    auto stored = store_.read(block);
    if (!stored) {
      // Never ship a torn record to a repairing peer: demote it locally to
      // needs-repair and withhold it from the reply.
      RELDEV_WARN("replica") << "site " << self_ << ": block " << block
                             << " unreadable while serving repair ("
                             << stored.status().to_string() << "); demoting";
      store_.demote(block).ignore_error();
      demoted_any = true;
      continue;
    }
    reply.blocks.push_back(net::BlockUpdate{block,
                                            stored.value().version,
                                            std::move(stored).value().data});
  }
  if (demoted_any) reply.versions = local_versions();
  return reply;
}

std::vector<storage::BlockWrite> ReplicaBase::batch_of(
    std::span<const net::BlockUpdate> updates) {
  std::vector<storage::BlockWrite> batch;
  batch.reserve(updates.size());
  for (const auto& update : updates) {
    batch.push_back(
        storage::BlockWrite{update.block, update.data, update.version});
  }
  return batch;
}

Result<std::vector<BlockId>> ReplicaBase::apply_newer(
    std::span<const net::BlockUpdate> updates) {
  std::vector<storage::BlockWrite> batch;
  std::vector<BlockId> replaced;
  for (const auto& update : updates) {
    auto current = store_.version_of(update.block);
    if (!current) return current.status();
    if (update.version <= current.value()) continue;  // ours is as new
    batch.push_back(
        storage::BlockWrite{update.block, update.data, update.version});
    replaced.push_back(update.block);
  }
  if (auto status = store_.write_batch(batch); !status.is_ok()) return status;
  return replaced;
}

Result<std::vector<BlockId>> ReplicaBase::fetch_newer(
    std::vector<BlockId> blocks, SiteId source) {
  auto reply = transport_.call(
      self_, source,
      net::Message{self_, net::BatchFetchRequest{std::move(blocks)}});
  if (!reply) return reply.status();
  if (!reply.value().holds<net::BatchFetchReply>()) {
    return errors::protocol("unexpected reply to batch fetch");
  }
  return apply_newer(reply.value().as<net::BatchFetchReply>().updates);
}

Result<storage::VersionVector> ReplicaBase::repair_from(SiteId source) {
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
  const auto& repair = reply.value().as<net::RepairReply>();
  if (auto applied = apply_newer(repair.blocks); !applied) {
    return applied.status();
  }
  return repair.versions;
}

Status ReplicaBase::heal_corrupt_block(BlockId block) {
  RELDEV_WARN("replica") << "site " << self_ << ": block " << block
                         << " corrupt locally; healing from peers";
  if (auto status = store_.demote(block); !status.is_ok()) return status;
  const auto replies = transport_.multicast_call(
      self_, peers(),
      net::Message{self_, net::RepairRequest{local_versions()}});
  bool healed = false;
  for (const auto& [site, reply] : replies) {
    if (!reply.holds<net::RepairReply>()) continue;
    if (auto applied = apply_newer(reply.as<net::RepairReply>().blocks);
        !applied) {
      return applied.status();
    }
    healed = true;
  }
  if (!healed) {
    return errors::corruption(
        "block " + std::to_string(block) +
        " corrupt locally and no peer reachable to heal it");
  }
  return Status::ok();
}

}  // namespace reldev::core

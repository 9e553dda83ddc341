#include "reldev/core/voting_replica.hpp"

#include <map>

#include "reldev/util/logging.hpp"

namespace reldev::core {

VotingReplica::VotingReplica(SiteId self, GroupConfig config,
                             storage::BlockStore& store,
                             net::Transport& transport)
    : ReplicaBase(self, std::move(config), store, transport) {}

VotingReplica::RangeVotes VotingReplica::collect_range_votes(
    net::AccessKind access, BlockId first, std::size_t count) {
  RangeVotes votes;
  votes.weight_millivotes = config_.weight_of(self_);
  votes.max_versions.resize(count);
  votes.max_sites.assign(count, self_);
  for (std::size_t i = 0; i < count; ++i) {
    // The local site always votes for itself. A store that died under us
    // mid-operation votes version 0 — the peers' copies then dominate.
    auto local = store_.version_of(first + i);
    votes.max_versions[i] = local ? local.value() : 0;
  }

  const net::Message request{
      self_, net::RangeVoteRequest{access, first,
                                   static_cast<std::uint32_t>(count)}};
  // Reads stop gathering as soon as the read quorum is assembled: any read
  // quorum intersects every write quorum, so the newest committed version
  // of every block in the range is already among the early replies and
  // stragglers add nothing but latency. Writes keep the full gather — the
  // push that follows repairs every stale voter it reaches, and shrinking
  // that set would change the repair propagation the paper's traffic
  // analysis counts.
  net::EarlyStop early_stop;
  if (access == net::AccessKind::kRead) {
    const std::uint64_t self_weight = votes.weight_millivotes;
    const std::uint64_t quorum = config_.read_quorum_millivotes;
    early_stop = [self_weight,
                  quorum](const std::vector<net::GatherReply>& replies) {
      std::uint64_t weight = self_weight;
      for (const auto& [site, reply] : replies) {
        if (!reply.holds<net::RangeVoteReply>()) continue;
        weight += reply.as<net::RangeVoteReply>().weight_millivotes;
      }
      return weight >= quorum;
    };
  }
  votes.replies = transport_.multicast_call(self_, peers(), request,
                                            early_stop);
  for (const auto& [site, reply] : votes.replies) {
    if (!reply.holds<net::RangeVoteReply>()) continue;
    const auto& vote = reply.as<net::RangeVoteReply>();
    if (vote.versions.size() != count) continue;  // malformed; ignore vote
    votes.weight_millivotes += vote.weight_millivotes;
    for (std::size_t i = 0; i < count; ++i) {
      if (vote.versions[i] > votes.max_versions[i]) {
        votes.max_versions[i] = vote.versions[i];
        votes.max_sites[i] = site;
      }
    }
  }
  return votes;
}

Result<storage::BlockData> VotingReplica::read_range(BlockId first,
                                                     std::size_t count) {
  if (state_ == SiteState::kFailed) {
    return errors::unavailable("site is failed");
  }
  if (auto status = check_range(first, count); !status.is_ok()) return status;
  // Figure 3, batched: ONE vote round for the whole range, check the read
  // quorum, refresh every stale local copy, then serve locally.
  RangeVotes votes = collect_range_votes(net::AccessKind::kRead, first, count);
  if (votes.weight_millivotes < config_.read_quorum_millivotes) {
    return errors::unavailable(
        "no read quorum (" + std::to_string(votes.weight_millivotes) + " of " +
        std::to_string(config_.read_quorum_millivotes) + " millivotes)");
  }
  // Group the stale blocks by the site holding their newest version so the
  // refresh costs one round trip per source site, not one per block.
  std::map<SiteId, std::vector<BlockId>> stale_by_site;
  for (std::size_t i = 0; i < count; ++i) {
    const auto local = store_.version_of(first + i);
    if (!local) return local.status();
    if (local.value() < votes.max_versions[i]) {
      stale_by_site[votes.max_sites[i]].push_back(first + i);
    }
  }
  for (auto& [site, blocks] : stale_by_site) {
    if (auto fetched = fetch_newer(std::move(blocks), site); !fetched) {
      return fetched.status();
    }
  }
  // A record found torn or corrupt under its cached version number is
  // demoted and refreshed from the best peer voter of this same round,
  // exactly as if our copy had merely been out of date. If no peer holds a
  // copy the block legitimately reads back as version 0 zeros — the media
  // fault destroyed the only copy we could reach.
  return serve_local(first, count, [&](BlockId block) {
    RELDEV_WARN("voting") << "site " << self_ << ": block " << block
                          << " corrupt locally; healing from quorum";
    if (auto status = store_.demote(block); !status.is_ok()) return status;
    const std::size_t i = block - first;
    storage::VersionNumber best = 0;
    SiteId source = self_;
    for (const auto& [site, reply] : votes.replies) {
      if (!reply.holds<net::RangeVoteReply>()) continue;
      const auto& versions = reply.as<net::RangeVoteReply>().versions;
      if (versions.size() == count && versions[i] > best) {
        best = versions[i];
        source = site;
      }
    }
    return source == self_ ? Status::ok()
                           : fetch_newer({block}, source).status();
  });
}

Result<VotingReplica::Push> VotingReplica::vote_and_write_locally(
    BlockId first, std::span<const std::byte> data) {
  if (state_ == SiteState::kFailed) {
    return errors::unavailable("site is failed");
  }
  auto count = check_write_range(first, data);
  if (!count) return count.status();
  // Figure 4, batched: one vote round for the whole range. The quorum is
  // checked BEFORE any local mutation, so losing it fails the write cleanly
  // with no block written anywhere (atomic-none).
  RangeVotes votes =
      collect_range_votes(net::AccessKind::kWrite, first, count.value());
  if (votes.weight_millivotes < config_.write_quorum_millivotes) {
    return errors::unavailable(
        "no write quorum (" + std::to_string(votes.weight_millivotes) +
        " of " + std::to_string(config_.write_quorum_millivotes) +
        " millivotes)");
  }
  // Every block goes to version max+1 locally and into one grouped push
  // for every site in the quorum — repairing any stale operational copy as
  // a side effect.
  net::BatchWriteRequest request;
  request.updates.reserve(count.value());
  for (std::size_t i = 0; i < count.value(); ++i) {
    const storage::VersionNumber next = votes.max_versions[i] + 1;
    const auto slice = data.subspan(i * config_.block_size, config_.block_size);
    if (auto status = store_.write(first + i, slice, next); !status.is_ok()) {
      return status;
    }
    request.updates.push_back(net::BlockUpdate{
        first + i, next, storage::BlockData(slice.begin(), slice.end())});
  }
  Push push{SiteSet{}, net::Message{self_, std::move(request)}};
  for (const auto& [site, reply] : votes.replies) {
    if (reply.holds<net::RangeVoteReply>()) push.quorum.insert(site);
  }
  return push;
}

Status VotingReplica::write(BlockId block, std::span<const std::byte> data) {
  if (data.size() != config_.block_size) {
    return errors::invalid_argument("payload size != block size");
  }
  auto push = vote_and_write_locally(block, data);
  if (!push) return push.status();
  // Figure 4's push: one unacknowledged multicast to the quorum, so a
  // write costs exactly the n + 1 transmissions §5 counts.
  return transport_.multicast(self_, push.value().quorum,
                              push.value().message);
}

Status VotingReplica::write_range(BlockId first,
                                  std::span<const std::byte> data) {
  auto push = vote_and_write_locally(first, data);
  if (!push) return push.status();
  // The grouped push is acknowledged so a site crashing between the vote
  // round and the push is detected: if the surviving acks no longer cover
  // a write quorum, the caller gets kUnavailable and retries instead of an
  // ack for a batch few sites hold. A recipient applies the whole batch in
  // one message, so no reader on any site can observe a torn range.
  auto acks = transport_.multicast_call(self_, push.value().quorum,
                                        push.value().message,
                                        net::EarlyStop{});
  std::uint64_t acked_weight = config_.weight_of(self_);
  for (const auto& [site, reply] : acks) {
    if (reply.holds<net::WriteAllAck>()) {
      acked_weight += config_.weight_of(site);
    }
  }
  if (acked_weight < config_.write_quorum_millivotes) {
    return errors::unavailable(
        "batch push lost write quorum (" + std::to_string(acked_weight) +
        " of " + std::to_string(config_.write_quorum_millivotes) +
        " millivotes acked); retry");
  }
  return Status::ok();
}

Status VotingReplica::recover() {
  // Block-level voting needs no recovery work at repair time (§3.1): any
  // stale block is detected by its version number at the next access and
  // refreshed then. This is the scheme's "zero recovery traffic" property.
  set_state(SiteState::kAvailable);
  return Status::ok();
}

net::Message VotingReplica::handle_peer(const net::Message& request) {
  // Fetches, repairs and pushes are served scheme-independently by
  // ReplicaBase::handle.
  if (request.holds<net::RangeVoteRequest>()) {
    const auto& vote = request.as<net::RangeVoteRequest>();
    if (auto status = check_range(vote.first, vote.count); !status.is_ok()) {
      return net::make_error(self_, status);
    }
    net::RangeVoteReply reply;
    reply.weight_millivotes = config_.weight_of(self_);
    reply.versions.reserve(vote.count);
    for (std::uint32_t i = 0; i < vote.count; ++i) {
      auto version = store_.version_of(vote.first + i);
      if (!version) return net::make_error(self_, version.status());
      reply.versions.push_back(version.value());
    }
    return net::Message{self_, std::move(reply)};
  }
  if (request.holds<net::StateInquiry>()) {
    return net::Message{
        self_, net::StateInfo{state_, local_versions().total(), SiteSet{}}};
  }
  return net::make_error(
      self_, errors::protocol(std::string("unexpected request ") +
                              request.name()));
}

}  // namespace reldev::core

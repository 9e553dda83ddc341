#include "reldev/core/driver_stub.hpp"

#include <algorithm>
#include <thread>

#include "reldev/util/lockdep.hpp"

namespace reldev::core {

bool is_retryable(ErrorCode code) noexcept {
  switch (code) {
    case ErrorCode::kUnavailable:
    case ErrorCode::kTimeout:
    case ErrorCode::kCorruption:
      return true;
    default:
      return false;
  }
}

DriverStub::DriverStub(net::Transport& transport, SiteId client_id,
                       std::vector<SiteId> servers, std::size_t block_count,
                       std::size_t block_size, RetryPolicy policy)
    : transport_(transport),
      client_id_(client_id),
      servers_(std::move(servers)),
      block_count_(block_count),
      block_size_(block_size),
      state_(std::make_unique<RetryState>(policy, policy.jitter_seed)) {
  RELDEV_EXPECTS(!servers_.empty());
  RELDEV_EXPECTS(block_count_ > 0);
  RELDEV_EXPECTS(block_size_ > 0);
  RELDEV_EXPECTS(policy.max_rounds > 0);
}

Result<DriverStub> DriverStub::connect(net::Transport& transport,
                                       SiteId client_id,
                                       std::vector<SiteId> servers,
                                       RetryPolicy policy) {
  if (servers.empty()) {
    return errors::invalid_argument("no servers configured");
  }
  for (const SiteId server : servers) {
    auto reply = transport.call(client_id, server,
                                net::Message{client_id,
                                             net::DeviceInfoRequest{}});
    if (!reply) continue;
    if (!reply.value().holds<net::DeviceInfoReply>()) continue;
    const auto& info = reply.value().as<net::DeviceInfoReply>();
    return DriverStub(transport, client_id, std::move(servers),
                      info.block_count, info.block_size, policy);
  }
  return errors::unavailable("no server reachable for device info");
}

namespace {

/// True when the server answered but could not serve (no quorum / no
/// available copy): another server might still serve the same request.
bool replied_unavailable(const net::Message& reply) {
  constexpr auto kUnavailable =
      static_cast<std::uint8_t>(ErrorCode::kUnavailable);
  if (reply.holds<net::MultiBlockReadReply>()) {
    return reply.as<net::MultiBlockReadReply>().error_code == kUnavailable;
  }
  if (reply.holds<net::MultiBlockWriteAck>()) {
    return reply.as<net::MultiBlockWriteAck>().error_code == kUnavailable;
  }
  return false;
}

}  // namespace

Result<net::Message> DriverStub::call_any(const net::Message& request) {
  using Clock = std::chrono::steady_clock;
  // Snapshot the policy and the sticky-scan start once; accumulate the
  // failure detail in a local and publish it at every exit so the lock is
  // never held across a transport call or a backoff sleep.
  RetryPolicy policy;
  std::size_t start = 0;
  {
    const MutexLock lock(state_->mutex);
    policy = state_->policy;
    start = state_->last_index < servers_.size() ? state_->last_index : 0;
  }
  const auto deadline = Clock::now() + policy.op_deadline;
  FailureDetail failure;
  failure.last_error = errors::unavailable("no server reachable");

  for (std::size_t round = 0; round < policy.max_rounds; ++round) {
    if (round > 0) {
      // Full jitter: uniform in (0, cap], where the cap doubles (by the
      // multiplier) each round. Never sleep past the op deadline.
      double cap = static_cast<double>(policy.initial_backoff.count());
      for (std::size_t r = 1; r < round; ++r) cap *= policy.backoff_multiplier;
      cap = std::min(cap, static_cast<double>(policy.max_backoff.count()));
      const auto budget = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - Clock::now());
      std::int64_t sleep_ms = 0;
      {
        const MutexLock lock(state_->mutex);
        sleep_ms = static_cast<std::int64_t>(
            state_->jitter.uniform(0.0, std::max(cap, 1.0)));
      }
      const auto backoff = std::min<std::int64_t>(sleep_ms, budget.count());
      if (backoff > 0) {
        lockdep::check_blocking("sleep(retry-backoff)");
        std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
      }
    }
    // Sticky scan: start at the last server that answered. After a failover
    // the stub keeps talking to the server that worked instead of
    // re-probing the dead head of the list on every operation.
    for (std::size_t i = 0; i < servers_.size(); ++i) {
      if (Clock::now() >= deadline) {
        failure.last_error =
            errors::timeout("op deadline (" +
                            std::to_string(policy.op_deadline.count()) +
                            "ms) exhausted");
        break;
      }
      const std::size_t index = (start + i) % servers_.size();
      const SiteId server = servers_[index];
      ++failure.attempts;
      auto reply = transport_.call(client_id_, server, request);
      if (!reply) {
        failure.last_error = reply.status();
        failure.last_site = server;
        if (!is_retryable(reply.status().code())) {
          const MutexLock lock(state_->mutex);
          state_->failure = failure;
          return reply.status();
        }
        continue;
      }
      if (replied_unavailable(reply.value())) {
        failure.last_error =
            errors::unavailable("no available copy/quorum");
        failure.last_site = server;
        continue;
      }
      const MutexLock lock(state_->mutex);
      state_->last_server = server;
      state_->last_index = index;
      state_->failure = failure;
      return reply;
    }
    ++failure.rounds;
    if (Clock::now() >= deadline) break;
  }
  // Exhausted: summarize as kUnavailable (the device-level meaning) but
  // carry the structured detail — and keep the raw last error, with its
  // original code, in last_failure() for callers that want to classify.
  {
    const MutexLock lock(state_->mutex);
    state_->failure = failure;
  }
  return errors::unavailable(
      "all " + std::to_string(servers_.size()) + " server(s) exhausted after " +
      std::to_string(failure.attempts) + " attempt(s) over " +
      std::to_string(failure.rounds) + " round(s); last error from site " +
      std::to_string(failure.last_site) + ": " +
      failure.last_error.to_string());
}

Result<storage::BlockData> DriverStub::read_blocks(BlockId first,
                                                   std::size_t count) {
  if (auto status = check_range(first, count, block_count_); !status.is_ok()) {
    return status;
  }
  auto reply = call_any(net::Message{
      client_id_,
      net::MultiBlockReadRequest{first, static_cast<std::uint32_t>(count)}});
  if (!reply) return reply.status();
  if (!reply.value().holds<net::MultiBlockReadReply>()) {
    return errors::protocol("unexpected reply to client read");
  }
  auto& payload = reply.value();
  const auto& read_reply = payload.as<net::MultiBlockReadReply>();
  if (read_reply.error_code != 0) {
    return Status(static_cast<ErrorCode>(read_reply.error_code),
                  "server-side read failed");
  }
  if (read_reply.data.size() != count * block_size_) {
    return errors::protocol("read returned wrong payload size");
  }
  return read_reply.data;
}

Status DriverStub::write_blocks(BlockId first,
                                std::span<const std::byte> data) {
  if (auto count = check_write_range(first, data, block_count_, block_size_);
      !count) {
    return count.status();
  }
  net::MultiBlockWriteRequest request{
      first, storage::BlockData(data.begin(), data.end())};
  auto reply = call_any(net::Message{client_id_, std::move(request)});
  if (!reply) return reply.status();
  if (!reply.value().holds<net::MultiBlockWriteAck>()) {
    return errors::protocol("unexpected reply to client write");
  }
  const auto code = reply.value().as<net::MultiBlockWriteAck>().error_code;
  if (code != 0) {
    return Status(static_cast<ErrorCode>(code),
                  "server-side write failed");
  }
  return Status::ok();
}

}  // namespace reldev::core

#include "reldev/net/tcp/tcp_client.hpp"

#include <algorithm>
#include <charconv>
#include <utility>

namespace reldev::net::tcp {

namespace {

using Clock = std::chrono::steady_clock;

std::chrono::milliseconds remaining_until(Clock::time_point deadline) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(deadline -
                                                               Clock::now());
}

}  // namespace

Result<std::vector<Endpoint>> parse_endpoints(const std::string& text) {
  std::vector<Endpoint> endpoints;
  std::size_t start = 0;
  while (true) {
    const auto comma = text.find(',', start);
    const std::string item = text.substr(
        start, comma == std::string::npos ? std::string::npos : comma - start);
    const auto colon = item.rfind(':');
    if (colon == std::string::npos || colon == 0) {
      return errors::invalid_argument("'" + item + "' is not host:port");
    }
    const char* first = item.data() + colon + 1;
    const char* last = item.data() + item.size();
    unsigned port = 0;
    const auto [end, error] = std::from_chars(first, last, port);
    if (first == last || error != std::errc{} || end != last || port == 0 ||
        port > 65535) {
      return errors::invalid_argument("bad port in '" + item + "'");
    }
    endpoints.push_back(
        Endpoint{item.substr(0, colon), static_cast<std::uint16_t>(port)});
    if (comma == std::string::npos) return endpoints;
    start = comma + 1;
  }
}

TcpChannel::TcpChannel(std::string host, std::uint16_t port,
                       std::chrono::milliseconds timeout,
                       const PoolOptions& pool)
    : host_(std::move(host)), port_(port), timeout_(timeout), pool_(pool) {}

void TcpChannel::set_timeout(std::chrono::milliseconds timeout) {
  const MutexLock lock(mutex_);
  timeout_ = timeout;
}

std::chrono::milliseconds TcpChannel::timeout() const {
  const MutexLock lock(mutex_);
  return timeout_;
}

void TcpChannel::disconnect() {
  const MutexLock lock(mutex_);
  idle_.clear();
}

void TcpChannel::set_pool_options(const PoolOptions& pool) {
  const MutexLock lock(mutex_);
  pool_ = pool;
  evict_locked();
}

std::size_t TcpChannel::idle_connections() const {
  const MutexLock lock(mutex_);
  return idle_.size();
}

void TcpChannel::evict_locked() {
  // Age first: entries are LIFO, so the stalest live at the front.
  if (pool_.max_idle_age.count() > 0) {
    const auto cutoff = Clock::now() - pool_.max_idle_age;
    std::size_t expired = 0;
    while (expired < idle_.size() && idle_[expired].since < cutoff) ++expired;
    idle_.erase(idle_.begin(),
                idle_.begin() + static_cast<std::ptrdiff_t>(expired));
  }
  if (idle_.size() > pool_.max_idle) {
    idle_.erase(idle_.begin(),
                idle_.begin() +
                    static_cast<std::ptrdiff_t>(idle_.size() - pool_.max_idle));
  }
}

Result<Socket> TcpChannel::acquire(bool& pooled,
                                   std::chrono::milliseconds remaining) {
  {
    const MutexLock lock(mutex_);
    evict_locked();
    if (!idle_.empty()) {
      Socket socket = std::move(idle_.back().socket);
      idle_.pop_back();
      pooled = true;
      pool_hits_.fetch_add(1);
      return socket;
    }
  }
  pooled = false;
  pool_misses_.fetch_add(1);
  return Socket::connect(host_, port_, remaining);
}

void TcpChannel::release(Socket socket) {
  if (!socket.valid()) return;
  const MutexLock lock(mutex_);
  if (idle_.size() < pool_.max_idle) {
    idle_.push_back(IdleSocket{std::move(socket), Clock::now()});
  }
}

Result<Message> TcpChannel::call(const Message& request) {
  const auto encoded = request.encode();
  const auto deadline = Clock::now() + timeout();
  // Retry-after-reconnect is only safe while the request cannot have been
  // (even partially) executed: the server decodes nothing until a complete
  // frame has arrived, so a failed write_frame is always replayable. Once
  // the frame is fully written the server may be executing it, and a reply
  // failure must surface as an error — blind replay would double-execute.
  // Each pooled socket that turns out stale (server restart) is discarded
  // and the next one tried; the pool is bounded, so this terminates.
  for (;;) {
    auto remaining = remaining_until(deadline);
    if (remaining.count() <= 0) {
      return errors::unavailable("call to " + host_ + ":" +
                                 std::to_string(port_) + " timed out");
    }
    bool pooled = false;
    auto acquired = acquire(pooled, remaining);
    if (!acquired) return acquired.status();
    Socket socket = std::move(acquired).value();
    remaining = std::max(remaining_until(deadline),
                         std::chrono::milliseconds{1});
    socket.set_send_timeout(remaining);
    socket.set_recv_timeout(remaining);
    if (auto status = write_frame(socket, encoded); !status.is_ok()) {
      // Not delivered. A stale pooled connection fails here immediately;
      // retry on the next (possibly fresh) socket while the deadline
      // allows. A fresh connection failing to send is a real error.
      if (pooled && remaining_until(deadline).count() > 0) continue;
      return errors::unavailable("send to " + host_ + ":" +
                                 std::to_string(port_) +
                                 " failed: " + status.to_string());
    }
    auto frame = read_frame(socket);
    if (!frame) {
      // Delivered but unanswered: the server may have executed the
      // request. Preserve the underlying error — a CRC reject stays the
      // typed kCorruption — and let the caller's retry policy decide.
      if (frame.status().code() == ErrorCode::kCorruption) {
        return frame.status();
      }
      return errors::unavailable("reply from " + host_ + ":" +
                                 std::to_string(port_) +
                                 " failed: " + frame.status().to_string());
    }
    release(std::move(socket));
    return Message::decode(frame.value());
  }
}

TcpPeerTransport::~TcpPeerTransport() {
  const MutexLock lock(outstanding_mutex_);
  while (outstanding_ != 0) outstanding_cv_.wait(outstanding_mutex_);
}

void TcpPeerTransport::set_endpoint(SiteId site, const std::string& host,
                                    std::uint16_t port) {
  const MutexLock lock(mutex_);
  channels_[site] =
      std::make_shared<TcpChannel>(host, port, call_timeout_, pool_options_);
}

void TcpPeerTransport::set_call_timeout(std::chrono::milliseconds timeout) {
  const MutexLock lock(mutex_);
  call_timeout_ = timeout;
  for (auto& [site, channel] : channels_) channel->set_timeout(timeout);
}

void TcpPeerTransport::set_pool_options(const PoolOptions& pool) {
  const MutexLock lock(mutex_);
  pool_options_ = pool;
  for (auto& [site, channel] : channels_) channel->set_pool_options(pool);
}

std::uint64_t TcpPeerTransport::pool_hits() const {
  const MutexLock lock(mutex_);
  std::uint64_t total = 0;
  for (const auto& [site, channel] : channels_) total += channel->pool_hits();
  return total;
}

std::uint64_t TcpPeerTransport::pool_misses() const {
  const MutexLock lock(mutex_);
  std::uint64_t total = 0;
  for (const auto& [site, channel] : channels_) {
    total += channel->pool_misses();
  }
  return total;
}

std::shared_ptr<TcpChannel> TcpPeerTransport::channel(SiteId site) {
  const MutexLock lock(mutex_);
  auto it = channels_.find(site);
  return it == channels_.end() ? nullptr : it->second;
}

std::vector<std::pair<SiteId, std::shared_ptr<TcpChannel>>>
TcpPeerTransport::channels_for(SiteId from, const SiteSet& to) {
  std::vector<std::pair<SiteId, std::shared_ptr<TcpChannel>>> targets;
  const MutexLock lock(mutex_);
  for (const SiteId dest : to) {
    if (dest == from) continue;
    auto it = channels_.find(dest);
    if (it == channels_.end()) continue;
    targets.emplace_back(dest, it->second);
  }
  return targets;
}

void TcpPeerTransport::count(std::uint64_t transmissions) const {
  TrafficMeter* const meter = meter_.load(std::memory_order_acquire);
  if (meter != nullptr) meter->add(transmissions);
}

Result<Message> TcpPeerTransport::call(SiteId /*from*/, SiteId to,
                                       const Message& request) {
  auto ch = channel(to);
  if (ch == nullptr) {
    return errors::unavailable("no endpoint for site " + std::to_string(to));
  }
  count(1);
  auto reply = ch->call(request);
  if (reply) count(1);
  return reply;
}

Status TcpPeerTransport::send(SiteId from, SiteId to, const Message& message) {
  // TCP servers always reply; one-way semantics are "call and discard".
  // Unreachable peers are fine: fail-stop peers simply miss the message.
  auto reply = call(from, to, message);
  reply.ignore_error();
  return Status::ok();
}

Status TcpPeerTransport::multicast(SiteId from, const SiteSet& to,
                                   const Message& message) {
  // Concurrent call-and-discard to every peer: the round costs the slowest
  // peer's round trip, not the sum, and the acks are in before we return
  // (the engines rely on pushed writes being applied when multicast ends).
  (void)multicast_call(from, to, message, EarlyStop{});
  return Status::ok();
}

std::vector<GatherReply> TcpPeerTransport::multicast_call(
    SiteId from, const SiteSet& to, const Message& request,
    const EarlyStop& early_stop) {
  struct GatherState {
    Mutex mutex{"TcpPeerTransport.GatherState.mutex"};
    CondVar cv;
    std::vector<GatherReply> replies RELDEV_GUARDED_BY(mutex);
    std::size_t pending RELDEV_GUARDED_BY(mutex) = 0;
    bool stopped RELDEV_GUARDED_BY(mutex) = false;
  };

  auto targets = channels_for(from, to);
  if (targets.empty()) return {};

  // Tasks may run past this call's return (early stop): everything they
  // touch is either shared (state, request) or guaranteed to outlive the
  // transport (the meter), and the destructor drains `outstanding_`.
  auto state = std::make_shared<GatherState>();
  state->pending = targets.size();
  auto shared_request = std::make_shared<const Message>(request);
  TrafficMeter* const meter = meter_.load(std::memory_order_acquire);
  const OpKind kind = meter != nullptr ? meter->current_op() : OpKind::kOther;

  {
    const MutexLock lock(outstanding_mutex_);
    outstanding_ += targets.size();
  }
  count(targets.size());  // one request transmission per addressed peer

  for (auto& [site, ch] : targets) {
    FanOut::shared().submit(
        [this, site = site, ch = ch, shared_request, state, meter, kind] {
          auto reply = ch->call(*shared_request);
          // Meter the reply even if the gather already returned: the
          // straggler's answer crossed the network either way.
          if (reply.is_ok() && meter != nullptr) meter->add_for(kind, 1);
          {
            const MutexLock lock(state->mutex);
            if (reply.is_ok() && !state->stopped) {
              state->replies.emplace_back(site, std::move(reply).value());
            }
            --state->pending;
          }
          state->cv.notify_all();
          // Last action: release the outstanding slot. The notify happens
          // under the lock so ~TcpPeerTransport cannot resume (and free
          // `this`) before this task is fully done with it.
          const MutexLock lock(outstanding_mutex_);
          --outstanding_;
          outstanding_cv_.notify_all();
        });
  }

  std::vector<GatherReply> gathered;
  {
    const MutexLock lock(state->mutex);
    while (state->pending != 0 &&
           !(early_stop && early_stop(state->replies))) {
      state->cv.wait(state->mutex);
    }
    state->stopped = true;
    gathered = std::move(state->replies);
  }
  return gathered;
}

}  // namespace reldev::net::tcp

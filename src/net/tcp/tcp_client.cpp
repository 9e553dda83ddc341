#include "reldev/net/tcp/tcp_client.hpp"

#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <thread>
#include <utility>

namespace reldev::net::tcp {

namespace {

using Clock = TcpChannel::Clock;

std::chrono::milliseconds remaining_until(Clock::time_point deadline) {
  return std::chrono::ceil<std::chrono::milliseconds>(deadline - Clock::now());
}

Status write_request(Socket& socket, std::span<const std::byte> frame,
                     Clock::time_point deadline) {
  socket.set_send_timeout(
      std::max(remaining_until(deadline), std::chrono::milliseconds{1}));
  return write_frame(socket, frame);
}

/// What to poll a pending request for: the handshake's end, then the reply.
short wanted_events(const TcpChannel::Pending& pending) {
  return pending.connecting ? POLLOUT : POLLIN;
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
                       std::chrono::milliseconds timeout)
    : host_(std::move(host)), port_(port), timeout_(timeout) {}

void TcpChannel::disconnect() {
  const MutexLock lock(mutex_);
  idle_.clear();
}

std::size_t TcpChannel::idle_connections() const {
  const MutexLock lock(mutex_);
  return idle_.size();
}

std::string TcpChannel::address() const {
  return host_ + ":" + std::to_string(port_);
}

std::optional<Socket> TcpChannel::take_idle() {
  const MutexLock lock(mutex_);
  if (idle_.empty()) return std::nullopt;
  Socket socket = std::move(idle_.back());
  idle_.pop_back();
  return socket;
}

void TcpChannel::release(Socket socket) {
  if (!socket.valid()) return;
  const MutexLock lock(mutex_);
  if (idle_.size() < kMaxIdleSockets) idle_.push_back(std::move(socket));
}

Result<TcpChannel::Pending> TcpChannel::send(std::span<const std::byte> frame,
                                             Clock::time_point deadline) {
  for (;;) {
    if (remaining_until(deadline).count() <= 0) {
      return errors::unavailable("call to " + address() + " timed out");
    }
    auto socket = take_idle();
    if (!socket) break;
    // The server never speaks unasked, so anything to read on an idle
    // socket is EOF or a reset (its server stopped, or a new process owns
    // the port): a write would succeed and the reply would never come.
    pollfd probe{socket->fd(), POLLIN, 0};
    if (::poll(&probe, 1, 0) != 0) continue;
    pool_hits_.fetch_add(1);
    if (write_request(*socket, frame, deadline).is_ok()) {
      return Pending{std::move(*socket), false};
    }
  }
  pool_misses_.fetch_add(1);
  auto socket = Socket::start_connect(host_, port_);
  if (!socket) {
    return errors::unavailable("connect to " + address() + ": " +
                               socket.status().message());
  }
  return Pending{std::move(socket).value(), true};
}

std::optional<Result<Message>> TcpChannel::advance(
    Pending& pending, std::span<const std::byte> frame,
    Clock::time_point deadline) {
  if (!pending.connecting) return receive(std::move(pending.socket), deadline);
  if (auto status = pending.socket.finish_connect(deadline); !status.is_ok()) {
    return Result<Message>(errors::unavailable(
        "connect to " + address() + ": " + status.message()));
  }
  pending.connecting = false;
  // A fresh connection that cannot take the request is a real error.
  if (auto status = write_request(pending.socket, frame, deadline);
      !status.is_ok()) {
    return Result<Message>(errors::unavailable(
        "send to " + address() + " failed: " + status.to_string()));
  }
  return std::nullopt;
}

Result<Message> TcpChannel::receive(Socket socket, Clock::time_point deadline) {
  socket.set_recv_timeout(
      std::max(remaining_until(deadline), std::chrono::milliseconds{1}));
  auto frame = read_frame(socket);
  if (!frame) {
    // Delivered but unanswered: the server may have executed the request.
    // Preserve the underlying error — a CRC reject stays the typed
    // kCorruption — and let the caller's retry policy decide.
    if (frame.status().code() == ErrorCode::kCorruption) return frame.status();
    return errors::unavailable("reply from " + address() +
                               " failed: " + frame.status().to_string());
  }
  release(std::move(socket));
  return Message::decode(frame.value());
}

Result<Message> TcpChannel::call(const Message& request) {
  return call(request, Clock::now() + timeout_);
}

Result<Message> TcpChannel::call(const Message& request,
                                 Clock::time_point deadline) {
  const auto frame = request.encode();
  auto pending = send(frame, deadline);
  if (!pending) return pending.status();
  auto done = advance(pending.value(), frame, deadline);
  if (!done) done = advance(pending.value(), frame, deadline);  // the reply
  return std::move(*done);
}

namespace {

/// One peer's share of a multicast round.
struct Leg {
  SiteId site = 0;
  std::shared_ptr<TcpChannel> channel;  // null once the leg is done
  TcpChannel::Pending pending;
};

/// Advance `legs` as their sockets turn ready, until every leg has its
/// reply or failed, `deadline` passes (the rest are dropped: a timed-out
/// call), or `on_reply(site, reply)` returns true (the rest stay in
/// `legs`, still in flight).
template <class OnReply>
void gather(std::vector<Leg>& legs,
            std::span<const std::byte> frame,
            Clock::time_point deadline, OnReply on_reply) {
  std::vector<pollfd> fds;
  bool stopped = false;
  while (!stopped && !legs.empty()) {
    fds.clear();
    for (const auto& leg : legs) {
      fds.push_back(
          pollfd{leg.pending.socket.fd(), wanted_events(leg.pending), 0});
    }
    if (poll_until(fds, deadline) <= 0) {
      legs.clear();
      return;
    }
    for (std::size_t i = 0; i < legs.size() && !stopped; ++i) {
      if (fds[i].revents == 0) continue;
      auto& leg = legs[i];
      auto done = leg.channel->advance(leg.pending, frame, deadline);
      if (!done) continue;  // connected and written: the reply is next
      if (done->is_ok()) stopped = on_reply(leg.site, std::move(*done).value());
      leg.channel = nullptr;
    }
    std::erase_if(legs, [](const auto& leg) { return leg.channel == nullptr; });
  }
}

}  // namespace

/// Reads the late replies of early-stopped rounds on one thread: meters
/// each under the operation its round was sent for and returns its socket
/// to the pool. A straggler that misses its round's deadline is dropped.
class TcpPeerTransport::Reaper {
 public:
  /// Null if no wake-up descriptor is left.
  static std::unique_ptr<Reaper> start() {
    const int wake_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (wake_fd < 0) return nullptr;
    return std::unique_ptr<Reaper>(new Reaper(wake_fd));
  }

  /// Drains: returns once every adopted straggler is done.
  ~Reaper() {
    {
      const MutexLock lock(mutex_);
      stopping_ = true;
    }
    wake();
    thread_.join();
    ::close(wake_fd_);
  }

  Reaper(const Reaper&) = delete;
  Reaper& operator=(const Reaper&) = delete;

  void adopt(std::vector<Leg> legs,
             const std::shared_ptr<const std::vector<std::byte>>& frame,
             Clock::time_point deadline, TrafficMeter* meter,
             OpKind kind) RELDEV_EXCLUDES(mutex_) {
    {
      const MutexLock lock(mutex_);
      for (auto& leg : legs) {
        adopted_.push_back(
            Straggler{std::move(leg), frame, deadline, meter, kind});
      }
    }
    wake();
  }

 private:
  struct Straggler {
    Leg leg;
    std::shared_ptr<const std::vector<std::byte>> frame;
    Clock::time_point deadline;
    TrafficMeter* meter;
    OpKind kind;
  };

  explicit Reaper(int wake_fd)
      : wake_fd_(wake_fd), thread_([this] { run(); }) {}

  void wake() {
    const std::uint64_t one = 1;
    (void)::write(wake_fd_, &one, sizeof(one));
  }

  void run() RELDEV_EXCLUDES(mutex_) {
    std::vector<Straggler> live;
    std::vector<pollfd> fds;
    for (;;) {
      {
        const MutexLock lock(mutex_);
        for (auto& straggler : adopted_) live.push_back(std::move(straggler));
        adopted_.clear();
        if (stopping_ && live.empty()) return;
      }
      fds.assign(1, pollfd{wake_fd_, POLLIN, 0});
      std::optional<Clock::time_point> next_deadline;
      for (const auto& straggler : live) {
        fds.push_back(pollfd{straggler.leg.pending.socket.fd(),
                             wanted_events(straggler.leg.pending), 0});
        next_deadline = std::min(next_deadline.value_or(straggler.deadline),
                                 straggler.deadline);
      }
      if (poll_until(fds, next_deadline) < 0) live.clear();
      if (fds[0].revents != 0) {
        std::uint64_t drained = 0;
        (void)::read(wake_fd_, &drained, sizeof(drained));
      }
      const auto now = Clock::now();
      for (std::size_t i = 0; i < live.size(); ++i) {
        auto& [leg, frame, deadline, meter, kind] = live[i];
        if (fds[i + 1].revents == 0) {
          if (now >= deadline) leg.channel = nullptr;
          continue;
        }
        auto done = leg.channel->advance(leg.pending, *frame, deadline);
        if (!done) continue;
        // The reply crossed the network whether or not anyone waits for it.
        if (done->is_ok() && meter != nullptr) meter->add_for(kind, 1);
        leg.channel = nullptr;
      }
      std::erase_if(live, [](const Straggler& straggler) {
        return straggler.leg.channel == nullptr;
      });
    }
  }

  const int wake_fd_;
  Mutex mutex_{"TcpPeerTransport.Reaper.mutex"};
  std::vector<Straggler> adopted_ RELDEV_GUARDED_BY(mutex_);
  bool stopping_ RELDEV_GUARDED_BY(mutex_) = false;
  std::thread thread_;
};

TcpPeerTransport::TcpPeerTransport() = default;

// reaper_ goes first (last declared): it drains the stragglers while the
// channels and the meter are still alive.
TcpPeerTransport::~TcpPeerTransport() = default;

void TcpPeerTransport::set_endpoint(SiteId site, const std::string& host,
                                    std::uint16_t port) {
  const MutexLock lock(mutex_);
  channels_[site] = std::make_shared<TcpChannel>(host, port);
}

void TcpPeerTransport::set_call_timeout(std::chrono::milliseconds timeout) {
  const MutexLock lock(mutex_);
  call_timeout_ = timeout;
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

void TcpPeerTransport::count(std::uint64_t transmissions) const {
  TrafficMeter* const meter = meter_.load(std::memory_order_acquire);
  if (meter != nullptr) meter->add(transmissions);
}

Result<Message> TcpPeerTransport::call(SiteId /*from*/, SiteId to,
                                       const Message& request) {
  std::shared_ptr<TcpChannel> ch;
  Clock::time_point deadline;
  {
    const MutexLock lock(mutex_);
    auto it = channels_.find(to);
    if (it != channels_.end()) ch = it->second;
    deadline = Clock::now() + call_timeout_;
  }
  if (ch == nullptr) {
    return errors::unavailable("no endpoint for site " + std::to_string(to));
  }
  count(1);
  auto reply = ch->call(request, deadline);
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
  // Call-and-discard to every peer at once: the round costs the slowest
  // peer's round trip, not the sum, and the acks are in before we return
  // (the engines rely on pushed writes being applied when multicast ends).
  (void)multicast_call(from, to, message, EarlyStop{});
  return Status::ok();
}

std::vector<GatherReply> TcpPeerTransport::multicast_call(
    SiteId from, const SiteSet& to, const Message& request,
    const EarlyStop& early_stop) {
  std::vector<Leg> legs;
  Clock::time_point deadline;
  {
    const MutexLock lock(mutex_);
    for (const SiteId dest : to) {
      if (dest == from) continue;
      auto it = channels_.find(dest);
      if (it != channels_.end()) legs.push_back(Leg{dest, it->second, {}});
    }
    deadline = Clock::now() + call_timeout_;
  }
  if (legs.empty()) return {};
  TrafficMeter* const meter = meter_.load(std::memory_order_acquire);
  const OpKind kind = meter != nullptr ? meter->current_op() : OpKind::kOther;
  count(legs.size());  // one request transmission per addressed peer

  // Scatter: the request goes to every peer before any reply is awaited.
  auto frame = request.encode();
  std::erase_if(legs, [&](Leg& leg) {
    auto pending = leg.channel->send(frame, deadline);
    if (!pending) return true;  // unreachable: absent from the result
    leg.pending = std::move(pending).value();
    return false;
  });

  std::vector<GatherReply> replies;
  const auto meter_reply = [meter, kind] {
    if (meter != nullptr) meter->add_for(kind, 1);
  };
  if (!(early_stop && early_stop(replies))) {
    gather(legs, frame, deadline, [&](SiteId site, Message reply) {
      meter_reply();
      replies.emplace_back(site, std::move(reply));
      return early_stop && early_stop(replies);
    });
  }
  if (legs.empty()) return replies;

  // Early stop with requests still in flight: their replies are still
  // transmitted, so someone must read and meter them.
  std::call_once(reaper_once_, [this] { reaper_ = Reaper::start(); });
  if (reaper_ != nullptr) {
    auto shared_frame =
        std::make_shared<const std::vector<std::byte>>(std::move(frame));
    reaper_->adopt(std::move(legs), shared_frame, deadline, meter, kind);
  } else {
    gather(legs, frame, deadline, [&](SiteId, const Message&) {
      meter_reply();
      return false;
    });
  }
  return replies;
}

}  // namespace reldev::net::tcp

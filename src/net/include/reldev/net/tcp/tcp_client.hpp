// Client side of the TCP message protocol: a channel that sends one framed
// Message and waits for the framed reply, reconnecting on demand; and a
// Transport implementation that routes per-site over such channels so the
// same protocol engines that run in-process can run across real processes.
//
// Concurrency: a channel keeps a small pool of connections per endpoint, so
// concurrent calls to the same peer each get their own socket instead of
// serializing on one mutex. Every peer round trip runs on the calling
// thread: a multicast writes the request to every peer first, then waits
// on all their sockets with one poll() and one deadline, gathering replies
// as they land. An EarlyStop predicate lets a quorum return before the
// stragglers; those go to the transport's one reaper thread, which reads
// and meters their late replies.
#pragma once

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "reldev/net/tcp/framing.hpp"
#include "reldev/net/transport.hpp"
#include "reldev/util/thread_annotations.hpp"

namespace reldev::net::tcp {

/// Default per-call deadline: covers connect + request + reply. Generous
/// for a LAN round trip, small enough that a dead peer costs one bounded
/// hiccup rather than an indefinite hang.
inline constexpr std::chrono::milliseconds kDefaultCallTimeout{5000};

/// One `host:port` address of a site server.
struct Endpoint {
  std::string host;
  std::uint16_t port = 0;
};

/// Parse a comma-separated `host:port` list (entry i = site i). Each entry
/// needs a non-empty host and a decimal port in 1..65535; kInvalidArgument
/// names the first entry that is not.
[[nodiscard]] Result<std::vector<Endpoint>> parse_endpoints(
    const std::string& text);

/// Idle sockets a channel keeps parked; a release beyond the cap closes
/// the socket. Enough for the concurrency a small replica group generates.
inline constexpr std::size_t kMaxIdleSockets = 8;

/// One logical connection to a server, backed by a pool of sockets so
/// concurrent calls proceed in parallel.
class TcpChannel {
 public:
  using Clock = std::chrono::steady_clock;

  TcpChannel(std::string host, std::uint16_t port,
             std::chrono::milliseconds timeout = kDefaultCallTimeout);

  /// Send `request` and wait for the reply, bounded by the channel timeout
  /// (or by `deadline`): send(), then advance() until the reply is in. At
  /// most once: a request is retried on another socket only while it
  /// provably was not delivered, and a reply failure is surfaced instead
  /// of replayed. Retrying a possibly-executed request is the caller's
  /// decision (see core::RetryPolicy). Deadline overruns are kUnavailable;
  /// a CRC-rejected reply is the typed kCorruption.
  [[nodiscard]] Result<Message> call(const Message& request);
  [[nodiscard]] Result<Message> call(const Message& request,
                                     Clock::time_point deadline);

  /// A request between send() and its reply. While `connecting`, a new
  /// connection is in its handshake and the request is not written yet
  /// (the socket polls POLLOUT when that ends); otherwise the request is
  /// out (the socket polls POLLIN when the reply comes).
  struct Pending {
    Socket socket;
    bool connecting = false;
  };

  /// Step one of a call: write `frame` (an encoded Message) on an idle
  /// pooled socket that is still open, or begin a new connection for it
  /// without waiting for the handshake. An idle socket that polls readable
  /// has seen EOF or a reset and is closed unused. A pooled socket whose
  /// write fails is dropped and the next one tried: the server decodes
  /// nothing until a whole frame is in, so the request cannot have run.
  [[nodiscard]] Result<Pending> send(std::span<const std::byte> frame,
                                     Clock::time_point deadline)
      RELDEV_EXCLUDES(mutex_);

  /// Step two, best called once `pending`'s socket polls ready; it blocks
  /// until `deadline` at most. A connecting request finishes its connect
  /// and is written: nullopt, the reply is next. A written one reads its
  /// reply and returns the socket to the pool.
  [[nodiscard]] std::optional<Result<Message>> advance(
      Pending& pending, std::span<const std::byte> frame,
      Clock::time_point deadline) RELDEV_EXCLUDES(mutex_);

  /// Drop all idle pooled connections (next calls reconnect). Calls in
  /// flight keep their sockets.
  void disconnect() RELDEV_EXCLUDES(mutex_);

  /// Calls served by a pooled socket vs. a fresh connect. A pooled socket
  /// whose write fails and forces a reconnect counts as both a hit (it was
  /// tried) and a miss (the connect that replaced it).
  [[nodiscard]] std::uint64_t pool_hits() const noexcept {
    return pool_hits_.load();
  }
  [[nodiscard]] std::uint64_t pool_misses() const noexcept {
    return pool_misses_.load();
  }
  /// Idle sockets currently parked.
  [[nodiscard]] std::size_t idle_connections() const RELDEV_EXCLUDES(mutex_);

 private:
  /// Pop the newest idle socket, if any.
  [[nodiscard]] std::optional<Socket> take_idle() RELDEV_EXCLUDES(mutex_);
  void release(Socket socket) RELDEV_EXCLUDES(mutex_);
  [[nodiscard]] Result<Message> receive(Socket socket,
                                        Clock::time_point deadline);
  [[nodiscard]] std::string address() const;

  std::string host_;
  std::uint16_t port_;
  const std::chrono::milliseconds timeout_;
  mutable Mutex mutex_{"TcpChannel.pool"};
  std::vector<Socket> idle_ RELDEV_GUARDED_BY(mutex_);
  std::atomic<std::uint64_t> pool_hits_{0};
  std::atomic<std::uint64_t> pool_misses_{0};
};

/// Transport over per-site TCP channels. Always unique addressing: real
/// point-to-point links have no broadcast medium, which is exactly §5.2's
/// setting. One-way sends are implemented as calls whose reply is
/// discarded, preserving the engines' semantics (TCP servers always reply).
class TcpPeerTransport final : public Transport {
 public:
  TcpPeerTransport();

  /// Waits for every straggler handed to the reaper (each bounded by its
  /// round's deadline) before the channels and the meter may go.
  ~TcpPeerTransport() override;

  void set_endpoint(SiteId site, const std::string& host, std::uint16_t port)
      RELDEV_EXCLUDES(mutex_);

  /// Deadline of every call, and the one deadline of every multicast
  /// round.
  void set_call_timeout(std::chrono::milliseconds timeout)
      RELDEV_EXCLUDES(mutex_);

  /// Pool hit/miss totals aggregated across all per-site channels.
  [[nodiscard]] std::uint64_t pool_hits() const RELDEV_EXCLUDES(mutex_);
  [[nodiscard]] std::uint64_t pool_misses() const RELDEV_EXCLUDES(mutex_);

  /// The meter must outlive this transport: straggler replies are counted
  /// on the reaper thread until the destructor has drained it. Atomic —
  /// concurrent calls read it while this setter runs.
  void set_traffic_meter(TrafficMeter* meter) noexcept {
    meter_.store(meter, std::memory_order_release);
  }

  using Transport::multicast_call;

  [[nodiscard]] Result<Message> call(SiteId from, SiteId to, const Message& request) override;
  [[nodiscard]] Status send(SiteId from, SiteId to, const Message& message) override;
  [[nodiscard]] Status multicast(SiteId from, const SiteSet& to,
                   const Message& message) override;
  std::vector<GatherReply> multicast_call(SiteId from, const SiteSet& to,
                                          const Message& request,
                                          const EarlyStop& early_stop) override;

 private:
  class Reaper;

  void count(std::uint64_t transmissions) const;

  mutable Mutex mutex_{"TcpPeerTransport.mutex"};
  std::map<SiteId, std::shared_ptr<TcpChannel>> channels_
      RELDEV_GUARDED_BY(mutex_);
  std::chrono::milliseconds call_timeout_ RELDEV_GUARDED_BY(mutex_){
      kDefaultCallTimeout};
  std::atomic<TrafficMeter*> meter_{nullptr};

  // Started by the first early stop; null after that only if it could not
  // start, in which case rounds finish their stragglers themselves.
  std::once_flag reaper_once_;
  std::unique_ptr<Reaper> reaper_;
};

}  // namespace reldev::net::tcp

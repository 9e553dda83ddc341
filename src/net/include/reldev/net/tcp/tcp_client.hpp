// Client side of the TCP message protocol: a channel that sends one framed
// Message and blocks for the framed reply, reconnecting on demand; and a
// Transport implementation that routes per-site over such channels so the
// same protocol engines that run in-process can run across real processes.
//
// Concurrency: a channel keeps a small pool of connections per endpoint, so
// concurrent calls to the same peer each get their own socket instead of
// serializing on one mutex. The transport fans multicasts out over the
// shared FanOut pool and gathers replies as they land; an EarlyStop
// predicate lets a quorum return before the stragglers, whose late replies
// are still metered.
#pragma once

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "reldev/net/fanout.hpp"
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

/// Bounds on the per-endpoint idle-connection pool.
struct PoolOptions {
  /// Idle sockets kept per endpoint; releases beyond the cap close the
  /// socket. Enough for the fan-out concurrency a small replica group
  /// generates.
  std::size_t max_idle = 8;
  /// Idle sockets older than this are evicted instead of reused — a
  /// connection parked across a server restart or NAT timeout fails its
  /// first write anyway, so don't let them pile up. Zero disables age
  /// eviction.
  std::chrono::milliseconds max_idle_age{30000};
};

/// One logical connection to a server, backed by a pool of sockets so
/// concurrent calls proceed in parallel.
class TcpChannel {
 public:
  TcpChannel(std::string host, std::uint16_t port,
             std::chrono::milliseconds timeout = kDefaultCallTimeout,
             const PoolOptions& pool = PoolOptions{});

  /// Send `request`, wait for the reply, bounded by the channel timeout.
  /// Reconnects and retries ONLY while the request was provably not
  /// delivered (the frame write failed on a stale pooled socket); once the
  /// frame is fully written the request may be executing, so a reply
  /// failure is surfaced instead of replayed — at-most-once per call.
  /// Retrying a possibly-executed request is the caller's decision (see
  /// core::RetryPolicy). Deadline overruns are kUnavailable; a CRC-
  /// rejected reply is the typed kCorruption.
  [[nodiscard]] Result<Message> call(const Message& request);

  /// Drop all idle pooled connections (next calls reconnect). Calls in
  /// flight keep their sockets.
  void disconnect() RELDEV_EXCLUDES(mutex_);

  void set_timeout(std::chrono::milliseconds timeout) RELDEV_EXCLUDES(mutex_);
  [[nodiscard]] std::chrono::milliseconds timeout() const
      RELDEV_EXCLUDES(mutex_);

  /// Replace the pool bounds. Applies to future acquire/release decisions;
  /// surplus idle sockets are trimmed immediately.
  void set_pool_options(const PoolOptions& pool) RELDEV_EXCLUDES(mutex_);

  /// Calls served by a pooled socket vs. a fresh connect. A stale pooled
  /// socket that fails and forces a reconnect counts as both a hit (it was
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
  /// Pop an idle pooled socket, or connect a fresh one within `remaining`.
  /// `pooled` reports which happened (pooled sockets may be stale). The
  /// connect itself runs outside the lock — only the pool is guarded.
  [[nodiscard]] Result<Socket> acquire(bool& pooled, std::chrono::milliseconds remaining)
      RELDEV_EXCLUDES(mutex_);
  void release(Socket socket) RELDEV_EXCLUDES(mutex_);

  /// An idle pooled socket and when it was parked (for age eviction).
  struct IdleSocket {
    Socket socket;
    std::chrono::steady_clock::time_point since;
  };

  /// Drop idle entries older than the age bound or beyond the size cap.
  void evict_locked() RELDEV_REQUIRES(mutex_);

  std::string host_;
  std::uint16_t port_;
  mutable Mutex mutex_{"TcpChannel.pool"};
  std::chrono::milliseconds timeout_ RELDEV_GUARDED_BY(mutex_);
  PoolOptions pool_ RELDEV_GUARDED_BY(mutex_);
  std::vector<IdleSocket> idle_ RELDEV_GUARDED_BY(mutex_);
  std::atomic<std::uint64_t> pool_hits_{0};
  std::atomic<std::uint64_t> pool_misses_{0};
};

/// Transport over per-site TCP channels. Always unique addressing: real
/// point-to-point links have no broadcast medium, which is exactly §5.2's
/// setting. One-way sends are implemented as calls whose reply is
/// discarded, preserving the engines' semantics (TCP servers always reply).
class TcpPeerTransport final : public Transport {
 public:
  TcpPeerTransport() = default;

  /// Waits for every in-flight fan-out task (including early-stop
  /// stragglers) before destroying the channels they use.
  ~TcpPeerTransport() override;

  void set_endpoint(SiteId site, const std::string& host, std::uint16_t port)
      RELDEV_EXCLUDES(mutex_);

  /// Per-call deadline applied to every channel (existing and future).
  void set_call_timeout(std::chrono::milliseconds timeout)
      RELDEV_EXCLUDES(mutex_);

  /// Pool bounds applied to every channel (existing and future).
  void set_pool_options(const PoolOptions& pool) RELDEV_EXCLUDES(mutex_);

  /// Pool hit/miss totals aggregated across all per-site channels.
  [[nodiscard]] std::uint64_t pool_hits() const RELDEV_EXCLUDES(mutex_);
  [[nodiscard]] std::uint64_t pool_misses() const RELDEV_EXCLUDES(mutex_);

  /// The meter must outlive this transport: straggler replies are counted
  /// from worker threads until the destructor has drained them. Atomic —
  /// fan-out workers read it concurrently with this setter.
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
  std::shared_ptr<TcpChannel> channel(SiteId site) RELDEV_EXCLUDES(mutex_);
  void count(std::uint64_t transmissions) const;
  /// Channels for every member of `to` except `from` that has an endpoint.
  std::vector<std::pair<SiteId, std::shared_ptr<TcpChannel>>> channels_for(
      SiteId from, const SiteSet& to) RELDEV_EXCLUDES(mutex_);

  mutable Mutex mutex_{"TcpPeerTransport.mutex"};
  std::map<SiteId, std::shared_ptr<TcpChannel>> channels_
      RELDEV_GUARDED_BY(mutex_);
  std::chrono::milliseconds call_timeout_ RELDEV_GUARDED_BY(mutex_){
      kDefaultCallTimeout};
  PoolOptions pool_options_ RELDEV_GUARDED_BY(mutex_);
  std::atomic<TrafficMeter*> meter_{nullptr};

  // Outstanding fan-out tasks; the destructor blocks until zero so no task
  // can touch a dead channel or meter.
  Mutex outstanding_mutex_ RELDEV_ACQUIRED_AFTER(mutex_){"TcpPeerTransport.outstanding"};
  CondVar outstanding_cv_;
  std::size_t outstanding_ RELDEV_GUARDED_BY(outstanding_mutex_) = 0;
};

}  // namespace reldev::net::tcp

// The transport abstraction the consistency engines are written against.
// Request/reply is synchronous — matching the paper's pseudocode, which
// collects votes or acknowledgements before proceeding — and the same
// engine code runs over the in-process transport (tests, simulation) and
// TCP (real deployment).
#pragma once

#include <functional>
#include <utility>
#include <vector>

#include "reldev/net/message.hpp"
#include "reldev/net/traffic.hpp"
#include "reldev/util/result.hpp"

namespace reldev::net {

/// Server-side dispatch: a bound site receives requests here.
class MessageHandler {
 public:
  virtual ~MessageHandler() = default;
  /// Handle a request and produce the reply.
  virtual Message handle(const Message& request) = 0;
  /// Handle a message that expects no reply (e.g. NAC write push).
  virtual void handle_oneway(const Message& message) = 0;
};

/// A (site, reply) pair from a scatter-gather call.
using GatherReply = std::pair<SiteId, Message>;

/// Optional predicate over the replies gathered so far: return true once
/// enough have arrived (e.g. a read quorum by weight) and the gather
/// returns immediately. Stragglers still complete in the background — the
/// request already went out to everyone, so their replies are still
/// transmitted and must still be metered — but they are not appended to
/// the returned vector. The predicate runs on the caller's thread, after
/// each reply, with no transport lock held; it should be cheap, since the
/// gather waits on it.
using EarlyStop = std::function<bool(const std::vector<GatherReply>&)>;

class Transport {
 public:
  virtual ~Transport() = default;

  /// Request/reply to one site. kUnavailable if it cannot be reached.
  [[nodiscard]] virtual Result<Message> call(SiteId from, SiteId to,
                               const Message& request) = 0;

  /// Fire-and-forget to one site. Delivery to a down site is silently
  /// dropped (reliable delivery is assumed only between live sites).
  [[nodiscard]] virtual Status send(SiteId from, SiteId to, const Message& message) = 0;

  /// Fire-and-forget to a set of sites (the coordinator excluded by the
  /// caller). One transmission in multicast mode; |to| in unique mode.
  [[nodiscard]] virtual Status multicast(SiteId from, const SiteSet& to,
                           const Message& message) = 0;

  /// Scatter the request to `to`, gather replies until `early_stop` is
  /// satisfied (or from every reachable member when it is null).
  /// Unreachable members are simply absent from the result.
  virtual std::vector<GatherReply> multicast_call(
      SiteId from, const SiteSet& to, const Message& request,
      const EarlyStop& early_stop) = 0;

  /// Full gather: every reachable member's reply.
  std::vector<GatherReply> multicast_call(SiteId from, const SiteSet& to,
                                          const Message& request) {
    return multicast_call(from, to, request, EarlyStop{});
  }
};

}  // namespace reldev::net

// A TCP message server: accepts connections, reads framed Messages, passes
// them to a MessageHandler, writes the framed reply. This is the process
// boundary of the paper's Figure 1/2 — the "user-state server".
//
// One execution model: a fixed set of max(8, hardware_concurrency) worker
// threads waits on one epoll set. Every connection is registered
// EPOLLONESHOT, so a ready connection belongs to exactly one worker, which
// reads the frame, runs the handler and writes the reply on its own thread.
// Handlers block (storage I/O, rounds to peers), so a slow request holds
// one worker and the others serve every other connection. A reply the
// socket cannot take at once is finished on EPOLLOUT readiness, so a client
// that does not read holds no worker. Connection count does not imply
// thread count.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

#include "reldev/net/tcp/framing.hpp"
#include "reldev/net/transport.hpp"

namespace reldev::net::tcp {

/// Frame counters. All monotonic except active_connections.
struct ServerCounters {
  /// Frames whose CRC trailer (or magic) failed verification: the request
  /// was rejected before decoding and the connection torn down.
  std::atomic<std::uint64_t> corrupted_frames{0};
  /// Frames rejected for framing-protocol violations (oversized declared
  /// length). Like corrupt frames, these cost the sender its connection.
  std::atomic<std::uint64_t> rejected_frames{0};
  /// Well-formed frames served (decoded and dispatched to the handler).
  std::atomic<std::uint64_t> served_frames{0};
  /// Currently-open connections.
  std::atomic<std::size_t> active_connections{0};
};

class TcpServer {
 public:
  /// Binds 127.0.0.1:`port` (0 = ephemeral) and dispatches every inbound
  /// request to `handler`. The handler must be thread-safe or internally
  /// serialized; it must outlive the server.
  static Result<std::unique_ptr<TcpServer>> start(std::uint16_t port,
                                                  MessageHandler* handler);

  ~TcpServer();
  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  [[nodiscard]] std::uint16_t port() const noexcept;

  [[nodiscard]] std::uint64_t corrupted_frames() const noexcept {
    return counters_.corrupted_frames.load();
  }
  [[nodiscard]] std::uint64_t rejected_frames() const noexcept {
    return counters_.rejected_frames.load();
  }
  [[nodiscard]] std::uint64_t served_frames() const noexcept {
    return counters_.served_frames.load();
  }
  [[nodiscard]] std::size_t active_connections() const noexcept {
    return counters_.active_connections.load();
  }

  /// Wake the workers, shut down every connection — including ones
  /// mid-request — join the workers (each finishes at most the handler it
  /// is running) and close the fds. Prompt: does not wait for idle peers to
  /// go away.
  void stop();

 private:
  class Impl;

  TcpServer() = default;

  ServerCounters counters_;
  std::unique_ptr<Impl> impl_;
};

}  // namespace reldev::net::tcp

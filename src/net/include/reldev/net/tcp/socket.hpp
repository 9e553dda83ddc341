// Thin RAII wrappers over POSIX TCP sockets: a connected stream socket and
// a listening acceptor. Blocking I/O with EINTR handling (a connect can
// also run non-blocking); all failures are reported as Status values.
#pragma once

#include <poll.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>

#include "reldev/util/result.hpp"

namespace reldev::net::tcp {

/// poll() `fds` until one is ready (the count) or `deadline` passes (0);
/// -1 on a poll error. Without a deadline, waits indefinitely.
[[nodiscard]] int poll_until(
    std::span<pollfd> fds,
    std::optional<std::chrono::steady_clock::time_point> deadline);

/// A connected stream socket. Move-only; closes on destruction.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket();
  Socket(Socket&& other) noexcept;
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  /// Connect to host:port (IPv4 dotted quad or "localhost"). With a
  /// timeout, a peer that neither accepts nor refuses (dead host, dropped
  /// packets) costs one bounded wait reported as kUnavailable — the same
  /// code as a refused connection, preserving fail-stop semantics.
  static Result<Socket> connect(
      const std::string& host, std::uint16_t port,
      std::optional<std::chrono::milliseconds> timeout = std::nullopt);

  /// Begin a non-blocking connect and return at once, so one thread can
  /// connect to many peers under one deadline. The socket polls writable
  /// (POLLOUT) once the handshake has ended either way. A refused connect
  /// may fail here already, as kUnavailable.
  static Result<Socket> start_connect(const std::string& host,
                                      std::uint16_t port);

  /// Wait until the handshake of a start_connect() has ended, or until
  /// `deadline` (kUnavailable "timed out"). Ok leaves the socket blocking;
  /// a failed handshake is kUnavailable naming the error.
  [[nodiscard]] Status finish_connect(
      std::optional<std::chrono::steady_clock::time_point> deadline);

  /// Bound every subsequent recv/send. A recv that exceeds the bound fails
  /// with kUnavailable ("timed out") instead of hanging; zero or negative
  /// durations clear the bound.
  void set_recv_timeout(std::chrono::milliseconds timeout) noexcept;
  void set_send_timeout(std::chrono::milliseconds timeout) noexcept;

  /// Switch O_NONBLOCK on or off. A socket driven by readiness runs
  /// non-blocking (all waiting happens in poll/epoll, never in a syscall);
  /// the blocking read/write helpers below must not be used while
  /// non-blocking is set.
  [[nodiscard]] Status set_nonblocking(bool enabled);

  [[nodiscard]] bool valid() const noexcept { return fd_ >= 0; }
  [[nodiscard]] int fd() const noexcept { return fd_; }

  /// Write the whole buffer or fail.
  [[nodiscard]] Status write_all(std::span<const std::byte> data);

  /// Read exactly `data.size()` bytes or fail (EOF mid-read is an error;
  /// EOF before the first byte is reported as kUnavailable so callers can
  /// treat orderly peer shutdown distinctly).
  [[nodiscard]] Status read_exact(std::span<std::byte> data);

  /// Shut down both directions (wakes a peer blocked in read) and close.
  void close();

 private:
  int fd_ = -1;
};

/// A listening socket. Move-only; closes on destruction.
class Acceptor {
 public:
  Acceptor() = default;
  ~Acceptor();
  Acceptor(Acceptor&& other) noexcept;
  Acceptor& operator=(Acceptor&& other) noexcept;
  Acceptor(const Acceptor&) = delete;
  Acceptor& operator=(const Acceptor&) = delete;

  /// Listen on 127.0.0.1:`port`; port 0 picks an ephemeral port, readable
  /// via port() afterwards.
  static Result<Acceptor> listen(std::uint16_t port);

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
  [[nodiscard]] bool valid() const noexcept { return fd_ >= 0; }
  [[nodiscard]] int fd() const noexcept { return fd_; }

  /// Switch O_NONBLOCK on the listening descriptor (the server's workers
  /// accept on readiness instead of blocking in accept()).
  [[nodiscard]] Status set_nonblocking(bool enabled);

  void close();

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

}  // namespace reldev::net::tcp

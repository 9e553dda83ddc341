#include "reldev/net/tcp/socket.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "reldev/util/lockdep.hpp"

namespace reldev::net::tcp {

namespace {

Status errno_status(const std::string& what) {
  return errors::io_error(what + ": " + std::strerror(errno));
}

Result<sockaddr_in> make_address(const std::string& host, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  const std::string resolved = host == "localhost" ? "127.0.0.1" : host;
  if (inet_pton(AF_INET, resolved.c_str(), &addr.sin_addr) != 1) {
    return errors::invalid_argument("cannot parse address '" + host + "'");
  }
  return addr;
}

}  // namespace

int poll_until(std::span<pollfd> fds,
               std::optional<std::chrono::steady_clock::time_point> deadline) {
  lockdep::check_blocking("poll");
  for (;;) {
    int timeout_ms = -1;
    if (deadline.has_value()) {
      const auto remaining = std::chrono::ceil<std::chrono::milliseconds>(
          *deadline - std::chrono::steady_clock::now());
      if (remaining.count() <= 0) return 0;
      timeout_ms = static_cast<int>(remaining.count());
    }
    const int ready = ::poll(fds.data(), fds.size(), timeout_ms);
    if (ready >= 0 || errno != EINTR) return ready;
  }
}

Socket::~Socket() { close(); }

Socket::Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

Result<Socket> Socket::start_connect(const std::string& host,
                                     std::uint16_t port) {
  auto addr = make_address(host, port);
  if (!addr) return addr.status();
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (fd < 0) return errno_status("socket");
  Socket socket(fd);
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  int rc;
  do {
    rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr.value()),
                   sizeof(sockaddr_in));
  } while (rc < 0 && errno == EINTR);
  if (rc < 0 && errno != EINPROGRESS) {
    return errors::unavailable(std::strerror(errno));
  }
  return socket;
}

Status Socket::finish_connect(
    std::optional<std::chrono::steady_clock::time_point> deadline) {
  RELDEV_EXPECTS(valid());
  pollfd waiter{fd_, POLLOUT, 0};
  const int ready = poll_until(std::span<pollfd>(&waiter, 1), deadline);
  if (ready == 0) return errors::unavailable("timed out");
  if (ready < 0) return errno_status("poll");
  int error = 0;
  socklen_t len = sizeof(error);
  if (::getsockopt(fd_, SOL_SOCKET, SO_ERROR, &error, &len) < 0) {
    return errno_status("getsockopt");
  }
  if (error != 0) return errors::unavailable(std::strerror(error));
  return set_nonblocking(false);
}

Result<Socket> Socket::connect(const std::string& host, std::uint16_t port,
                               std::optional<std::chrono::milliseconds> timeout) {
  lockdep::check_blocking("connect");
  std::optional<std::chrono::steady_clock::time_point> deadline;
  if (timeout.has_value()) {
    deadline = std::chrono::steady_clock::now() + *timeout;
  }
  auto socket = start_connect(host, port);
  Status status = socket ? socket.value().finish_connect(deadline)
                         : socket.status();
  if (status.code() == ErrorCode::kUnavailable) {
    return errors::unavailable("connect to " + host + ":" +
                               std::to_string(port) + ": " + status.message());
  }
  if (!status.is_ok()) return status;
  return socket;
}

namespace {
timeval to_timeval(std::chrono::milliseconds timeout) {
  if (timeout.count() < 0) timeout = std::chrono::milliseconds{0};
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(timeout.count() / 1000);
  tv.tv_usec = static_cast<suseconds_t>((timeout.count() % 1000) * 1000);
  return tv;
}
}  // namespace

namespace {
Status fd_set_nonblocking(int fd, bool enabled) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return errno_status("fcntl(F_GETFL)");
  const int wanted = enabled ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  if (wanted != flags && ::fcntl(fd, F_SETFL, wanted) < 0) {
    return errno_status("fcntl(F_SETFL)");
  }
  return Status::ok();
}
}  // namespace

Status Socket::set_nonblocking(bool enabled) {
  RELDEV_EXPECTS(valid());
  return fd_set_nonblocking(fd_, enabled);
}

Status Acceptor::set_nonblocking(bool enabled) {
  RELDEV_EXPECTS(valid());
  return fd_set_nonblocking(fd_, enabled);
}

void Socket::set_recv_timeout(std::chrono::milliseconds timeout) noexcept {
  if (fd_ < 0) return;
  const timeval tv = to_timeval(timeout);
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

void Socket::set_send_timeout(std::chrono::milliseconds timeout) noexcept {
  if (fd_ < 0) return;
  const timeval tv = to_timeval(timeout);
  ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

Status Socket::write_all(std::span<const std::byte> data) {
  RELDEV_EXPECTS(valid());
  lockdep::check_blocking("send");
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        ::send(fd_, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return errors::unavailable("send timed out");
      }
      return errno_status("send");
    }
    sent += static_cast<std::size_t>(n);
  }
  return Status::ok();
}

Status Socket::read_exact(std::span<std::byte> data) {
  RELDEV_EXPECTS(valid());
  lockdep::check_blocking("recv");
  std::size_t got = 0;
  while (got < data.size()) {
    const ssize_t n = ::recv(fd_, data.data() + got, data.size() - got, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // SO_RCVTIMEO expired: the peer is unresponsive. kUnavailable is
        // what the replicas' fail-stop handling expects of a dead peer.
        return errors::unavailable("recv timed out");
      }
      return errno_status("recv");
    }
    if (n == 0) {
      if (got == 0) return errors::unavailable("peer closed the connection");
      return errors::io_error("connection closed mid-message");
    }
    got += static_cast<std::size_t>(n);
  }
  return Status::ok();
}

void Socket::close() {
  if (fd_ >= 0) {
    ::shutdown(fd_, SHUT_RDWR);
    ::close(fd_);
    fd_ = -1;
  }
}

Acceptor::~Acceptor() { close(); }

Acceptor::Acceptor(Acceptor&& other) noexcept
    : fd_(other.fd_), port_(other.port_) {
  other.fd_ = -1;
}

Acceptor& Acceptor::operator=(Acceptor&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    port_ = other.port_;
    other.fd_ = -1;
  }
  return *this;
}

Result<Acceptor> Acceptor::listen(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return errno_status("socket");
  Acceptor acceptor;
  acceptor.fd_ = fd;
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
    return errno_status("bind");
  }
  if (::listen(fd, SOMAXCONN) < 0) return errno_status("listen");
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    return errno_status("getsockname");
  }
  acceptor.port_ = ntohs(addr.sin_port);
  return acceptor;
}

void Acceptor::close() {
  if (fd_ >= 0) {
    ::shutdown(fd_, SHUT_RDWR);
    ::close(fd_);
    fd_ = -1;
  }
}

}  // namespace reldev::net::tcp

#include "reldev/net/tcp/tcp_server.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "reldev/util/buffer_arena.hpp"
#include "reldev/util/lockdep.hpp"
#include "reldev/util/logging.hpp"
#include "reldev/util/thread_annotations.hpp"

namespace reldev::net::tcp {

namespace {

/// Count a rejected frame in the server's counters: corruption (bad magic
/// or CRC) or a protocol violation (oversized declared length).
void count_bad_frame(const Status& status, ServerCounters& counters) {
  if (status.code() == ErrorCode::kCorruption) {
    counters.corrupted_frames.fetch_add(1);
    RELDEV_WARN("tcp-server") << "corrupt frame rejected: "
                              << status.to_string();
    return;
  }
  if (status.code() == ErrorCode::kProtocol) {
    counters.rejected_frames.fetch_add(1);
    RELDEV_WARN("tcp-server") << "frame rejected: " << status.to_string();
    return;
  }
  RELDEV_DEBUG("tcp-server") << "connection error: " << status.to_string();
}

Status errno_status(const char* what) {
  return errors::io_error(std::string(what) + ": " + std::strerror(errno));
}

}  // namespace

/// The server proper: one epoll set and the workers that wait on it.
class TcpServer::Impl {
 public:
  Impl(Acceptor acceptor, MessageHandler* handler, ServerCounters* counters)
      : acceptor_(std::move(acceptor)), handler_(handler),
        counters_(counters) {}

  ~Impl() { stop(); }

  /// Build the epoll set — the listener, the stop eventfd — and start the
  /// workers. On failure stop() releases whatever was opened.
  Status open() {
    epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
    if (epoll_fd_ < 0) return errno_status("epoll_create1");
    wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (wake_fd_ < 0) return errno_status("eventfd");
    // Level-triggered and never read: once stop() writes it, every
    // epoll_wait returns it, so one write wakes all the workers.
    if (!watch(EPOLL_CTL_ADD, wake_fd_, nullptr, EPOLLIN)) {
      return errno_status("epoll_ctl(eventfd)");
    }
    if (!watch(EPOLL_CTL_ADD, acceptor_.fd(), &acceptor_,
               EPOLLIN | EPOLLONESHOT)) {
      return errno_status("epoll_ctl(listener)");
    }
    const std::size_t count =
        std::max<std::size_t>(8, std::thread::hardware_concurrency());
    workers_.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      workers_.emplace_back([this] { run_worker(); });
    }
    return Status::ok();
  }

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  void stop() {
    if (stopping_.exchange(true)) return;
    // 1. Wake every worker. A worker inside a handler finishes it first.
    if (wake_fd_ >= 0) {
      const std::uint64_t one = 1;
      (void)::write(wake_fd_, &one, sizeof(one));
    }
    // 2. Shut down every live connection, so in-flight clients see EOF at
    //    once. adopt() refuses new ones from here on.
    {
      const MutexLock lock(conns_mutex_);
      for (const auto& entry : conns_) ::shutdown(entry.first, SHUT_RDWR);
    }
    // 3. Join the workers.
    for (auto& worker : workers_) worker.join();
    workers_.clear();
    // 4. Close the fds. No worker is left to own a connection.
    {
      const MutexLock lock(conns_mutex_);
      for (const auto& entry : conns_) {
        ::close(entry.first);
        counters_->active_connections.fetch_sub(1);
      }
      conns_.clear();
    }
    acceptor_.close();
    if (wake_fd_ >= 0) ::close(wake_fd_);
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
    wake_fd_ = epoll_fd_ = -1;
  }

 private:
  /// One connection's frame state. It belongs to the worker epoll handed
  /// its last event to: each registration is EPOLLONESHOT, so after one
  /// event the connection stays disarmed until its owner re-arms it, and
  /// the owner touches it alone. Strict cycle — read a frame, run the
  /// handler, write the reply, read again — so replies keep request order
  /// without sequence numbers.
  struct Conn {
    /// The hand-off edge between owners. The owner holds it around the
    /// epoll_ctl that re-arms the connection; the next owner takes and
    /// drops it before touching anything. Never held across I/O or the
    /// handler.
    Mutex handoff{"TcpServer.conn"};
    int fd = -1;
    // Read state: the fixed prefix lands in `prefix`; payload + CRC
    // trailer land in one arena buffer the payload is decoded from, so
    // payload bytes are written exactly once between recv() and decode.
    std::array<std::byte, kFramePrefixSize> prefix{};
    bool reading_body = false;
    std::uint32_t body_len = 0;
    util::ArenaBuffer body;
    std::size_t read_off = 0;
    // Write state: prefix / payload / trailer go out as one gather write,
    // never concatenated into a single buffer.
    bool replying = false;
    std::array<std::byte, kFramePrefixSize> write_prefix{};
    std::vector<std::byte> write_payload;
    std::array<std::byte, kFrameTrailerSize> write_trailer{};
    std::size_t write_off = 0;
  };

  /// What a connection waits for next.
  enum class Next { kRead, kWrite, kClose };

  /// Leader/followers: every worker waits on the one epoll set and takes
  /// one event at a time, so no worker holds a ready connection it is not
  /// serving.
  void run_worker() {
    for (;;) {
      epoll_event event{};
      lockdep::check_blocking("epoll_wait");
      const int n = ::epoll_wait(epoll_fd_, &event, 1, -1);
      if (n < 0) {
        if (errno == EINTR) continue;
        RELDEV_WARN("tcp-server") << "epoll_wait: " << std::strerror(errno);
        return;
      }
      if (n == 0) continue;
      if (event.data.ptr == nullptr) return;  // the stop eventfd
      if (event.data.ptr == &acceptor_) {
        accept_ready();
      } else {
        serve(*static_cast<Conn*>(event.data.ptr));
      }
    }
  }

  bool watch(int op, int fd, void* tag, std::uint32_t events) {
    epoll_event event{};
    event.events = events;
    event.data.ptr = tag;
    return ::epoll_ctl(epoll_fd_, op, fd, &event) == 0;
  }

  /// Hand `conn` back to the epoll set for one event. On success the
  /// caller no longer owns it; on failure it still does.
  bool rearm(Conn& conn, int op, std::uint32_t events) {
    int error = 0;
    {
      const MutexLock lock(conn.handoff);
      if (watch(op, conn.fd, &conn, events | EPOLLONESHOT)) return true;
      error = errno;
    }
    RELDEV_WARN("tcp-server")
        << "epoll_ctl(" << conn.fd << "): " << std::strerror(error);
    return false;
  }

  void accept_ready() {
    for (;;) {
      const int fd = ::accept4(acceptor_.fd(), nullptr, nullptr,
                               SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd >= 0) {
        adopt(fd);
        continue;
      }
      if (errno == EINTR || errno == ECONNABORTED) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (!stopping_.load()) {
        RELDEV_WARN("tcp-server") << "accept failed: " << std::strerror(errno);
      }
      return;  // accepting ends; stop() owns teardown
    }
    (void)watch(EPOLL_CTL_MOD, acceptor_.fd(), &acceptor_,
                EPOLLIN | EPOLLONESHOT);
  }

  void adopt(int fd) {
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto owned = std::make_unique<Conn>();
    Conn& conn = *owned;
    conn.fd = fd;
    {
      const MutexLock lock(conns_mutex_);
      if (stopping_.load()) {
        ::close(fd);
        return;
      }
      conns_.emplace(fd, std::move(owned));
    }
    counters_->active_connections.fetch_add(1);
    if (!rearm(conn, EPOLL_CTL_ADD, EPOLLIN)) close(conn);
  }

  void serve(Conn& conn) {
    // Take and drop the hand-off edge: this makes everything the previous
    // owner wrote before re-arming visible here.
    { const MutexLock take_over(conn.handoff); }
    const Next next = conn.replying ? write_reply(conn) : read_request(conn);
    if (next == Next::kClose ||
        !rearm(conn, EPOLL_CTL_MOD,
               next == Next::kRead ? EPOLLIN : EPOLLOUT)) {
      close(conn);
    }
  }

  /// Read what has arrived. A partial frame stays in `conn` for the next
  /// readiness event; a whole one is handled and its reply written.
  Next read_request(Conn& conn) {
    for (;;) {
      std::byte* dest = conn.prefix.data() + conn.read_off;
      std::size_t want = kFramePrefixSize - conn.read_off;
      if (conn.reading_body) {
        dest = conn.body.data() + conn.read_off;
        want = conn.body_len + kFrameTrailerSize - conn.read_off;
      }
      const ssize_t n = ::recv(conn.fd, dest, want, 0);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) return Next::kRead;
        RELDEV_DEBUG("tcp-server")
            << "connection error: recv: " << std::strerror(errno);
        return Next::kClose;
      }
      if (n == 0) {  // EOF
        if (conn.reading_body || conn.read_off != 0) {
          RELDEV_DEBUG("tcp-server") << "connection closed mid-frame";
        }
        return Next::kClose;
      }
      conn.read_off += static_cast<std::size_t>(n);
      if (!conn.reading_body) {
        if (conn.read_off < kFramePrefixSize) continue;
        const auto length = parse_frame_prefix(conn.prefix);
        if (!length) {
          count_bad_frame(length.status(), *counters_);
          return Next::kClose;
        }
        conn.body_len = length.value();
        conn.body = util::BufferArena::shared().acquire(conn.body_len +
                                                        kFrameTrailerSize);
        conn.reading_body = true;
        conn.read_off = 0;
        continue;
      }
      if (conn.read_off < conn.body_len + kFrameTrailerSize) continue;
      return handle_frame(conn);
    }
  }

  /// Verify the CRC, decode the payload in place from the arena buffer,
  /// run the handler on this thread and start writing its reply.
  Next handle_frame(Conn& conn) {
    const std::span<const std::byte> payload(conn.body.data(), conn.body_len);
    const std::uint32_t crc = decode_frame_trailer(std::span<const std::byte>(
        conn.body.data() + conn.body_len, kFrameTrailerSize));
    conn.reading_body = false;
    conn.read_off = 0;
    if (frame_crc(conn.prefix, payload) != crc) {
      count_bad_frame(errors::corruption("frame CRC mismatch"), *counters_);
      return Next::kClose;
    }
    counters_->served_frames.fetch_add(1);
    auto request = Message::decode(payload);
    const Message reply = request ? handler_->handle(request.value())
                                  : make_error(0, request.status());
    conn.body = util::ArenaBuffer();  // back to the arena
    std::vector<std::byte> encoded = reply.encode();
    if (encoded.size() > kMaxFramePayload) {
      RELDEV_WARN("tcp-server") << "reply too large; dropping connection";
      return Next::kClose;
    }
    conn.write_prefix = encode_frame_prefix(encoded.size());
    const std::uint32_t reply_crc = frame_crc(conn.write_prefix, encoded);
    BufferWriter trailer(kFrameTrailerSize);
    trailer.put_u32(reply_crc);
    std::copy(trailer.bytes().begin(), trailer.bytes().end(),
              conn.write_trailer.begin());
    conn.write_payload = std::move(encoded);
    conn.write_off = 0;
    conn.replying = true;
    return write_reply(conn);
  }

  /// Write the rest of the reply. What the socket cannot take now waits
  /// for EPOLLOUT, so a client that does not read pins no worker.
  Next write_reply(Conn& conn) {
    const std::size_t total = conn.write_prefix.size() +
                              conn.write_payload.size() +
                              conn.write_trailer.size();
    while (conn.write_off < total) {
      // Gather the un-sent suffix of prefix|payload|trailer into at most
      // three iovecs; the payload is never copied into a frame buffer.
      std::array<iovec, 3> iov{};
      std::size_t count = 0;
      std::size_t skip = conn.write_off;
      const auto add = [&](const std::byte* data, std::size_t size) {
        if (size <= skip) {
          skip -= size;
          return;
        }
        iov[count++] = {const_cast<std::byte*>(data + skip), size - skip};
        skip = 0;
      };
      add(conn.write_prefix.data(), conn.write_prefix.size());
      add(conn.write_payload.data(), conn.write_payload.size());
      add(conn.write_trailer.data(), conn.write_trailer.size());
      msghdr msg{};
      msg.msg_iov = iov.data();
      msg.msg_iovlen = count;
      const ssize_t n = ::sendmsg(conn.fd, &msg, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) return Next::kWrite;
        RELDEV_DEBUG("tcp-server")
            << "reply failed: sendmsg: " << std::strerror(errno);
        return Next::kClose;
      }
      conn.write_off += static_cast<std::size_t>(n);
    }
    conn.write_payload = {};
    conn.replying = false;
    return Next::kRead;  // next request
  }

  /// Drop a connection its caller owns.
  void close(Conn& conn) {
    const int fd = conn.fd;
    std::unique_ptr<Conn> owned;
    {
      const MutexLock lock(conns_mutex_);
      const auto it = conns_.find(fd);
      owned = std::move(it->second);
      conns_.erase(it);
    }
    ::close(fd);
    counters_->active_connections.fetch_sub(1);
  }

  Acceptor acceptor_;
  const std::uint16_t port_ = acceptor_.port();
  MessageHandler* handler_;
  ServerCounters* counters_;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  std::atomic<bool> stopping_{false};
  std::vector<std::thread> workers_;
  Mutex conns_mutex_{"TcpServer.conns"};
  // Every live connection by fd: stop() shuts them down and closes them.
  std::unordered_map<int, std::unique_ptr<Conn>> conns_
      RELDEV_GUARDED_BY(conns_mutex_);
};

Result<std::unique_ptr<TcpServer>> TcpServer::start(std::uint16_t port,
                                                    MessageHandler* handler) {
  RELDEV_EXPECTS(handler != nullptr);
  auto acceptor = Acceptor::listen(port);
  if (!acceptor) return acceptor.status();
  if (auto status = acceptor.value().set_nonblocking(true); !status.is_ok()) {
    return status;
  }
  auto server = std::unique_ptr<TcpServer>(new TcpServer());
  server->impl_ = std::make_unique<Impl>(std::move(acceptor).value(), handler,
                                         &server->counters_);
  if (auto status = server->impl_->open(); !status.is_ok()) return status;
  return server;
}

TcpServer::~TcpServer() {
  if (impl_ != nullptr) impl_->stop();
}

std::uint16_t TcpServer::port() const noexcept { return impl_->port(); }

void TcpServer::stop() { impl_->stop(); }

}  // namespace reldev::net::tcp

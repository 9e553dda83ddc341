#include "reldev/net/tcp/tcp_server.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <future>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "reldev/net/fanout.hpp"
#include "reldev/net/tcp/event_loop.hpp"
#include "reldev/util/buffer_arena.hpp"
#include "reldev/util/logging.hpp"

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

}  // namespace

/// The server proper: event-loop shards plus the handler pool.
class TcpServer::Impl {
 public:
  Impl(Acceptor acceptor, MessageHandler* handler, ServerCounters* counters,
       std::vector<std::unique_ptr<EventLoop>> loops)
      : acceptor_(std::move(acceptor)), handler_(handler),
        counters_(counters) {
    shards_.reserve(loops.size());
    for (auto& loop : loops) {
      shards_.push_back(std::make_unique<Shard>());
      shards_.back()->loop = std::move(loop);
    }
    for (auto& shard : shards_) {
      shard->thread = std::thread([&shard] { shard->loop->run(); });
    }
    run_on_shard(0, [this] { arm_accept(); });
  }

  ~Impl() { stop(); }

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  void stop() {
    if (stopping_.exchange(true)) return;
    // 1. Stop accepting: drop the pending accept op, close the listener.
    run_on_shard(0, [this] { shards_[0]->loop->cancel(acceptor_.fd()); });
    acceptor_.close();
    // 2. Close every connection — including ones mid-request — on its own
    //    shard. In-flight handler results find conn->closed and are dropped.
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      run_on_shard(i, [this, i] {
        auto conns = std::move(shards_[i]->conns);
        for (auto& [fd, conn] : conns) conn->close();
      });
    }
    // 3. Drain the handler pool. Completions posted to the still-running
    //    loops see closed connections and do nothing.
    pool_.reset();
    // 4. Now the loops can go.
    for (auto& shard : shards_) {
      shard->loop->stop();
      if (shard->thread.joinable()) shard->thread.join();
    }
  }

 private:
  struct Conn;

  /// One event loop plus its thread and the connections it owns. `conns`
  /// is touched only from the shard's loop thread (registration happens in
  /// posted tasks), so it needs no lock.
  struct Shard {
    std::unique_ptr<EventLoop> loop;
    std::thread thread;
    std::unordered_map<int, std::shared_ptr<Conn>> conns;
  };

  /// Per-connection frame state machine. Owned by exactly one shard and
  /// mutated only on that shard's loop thread; the handler pool touches a
  /// Conn only to post completions back to its loop. Strict cycle per
  /// connection — read frame, dispatch, write reply, read again — so
  /// replies keep request order without sequence numbers.
  struct Conn : std::enable_shared_from_this<Conn> {
    Impl* server = nullptr;
    Shard* shard = nullptr;
    int fd = -1;
    bool closed = false;
    // Read state: the fixed prefix lands in `prefix`; payload + CRC
    // trailer land in one arena buffer that travels to the pool, so
    // payload bytes are written exactly once between recv() and decode.
    std::array<std::byte, kFramePrefixSize> prefix{};
    bool reading_body = false;
    std::uint32_t body_len = 0;
    util::ArenaBuffer body;
    std::size_t read_off = 0;
    // Write state: prefix / payload / trailer go out as one gather write,
    // never concatenated into a single buffer.
    std::array<std::byte, kFramePrefixSize> write_prefix{};
    std::vector<std::byte> write_payload;
    std::array<std::byte, kFrameTrailerSize> write_trailer{};
    std::size_t write_off = 0;

    void close() {
      if (closed) return;
      closed = true;
      shard->loop->cancel(fd);
      ::close(fd);
      server->counters_->active_connections.fetch_sub(1);
      shard->conns.erase(fd);  // may already be gone during stop()
    }

    void arm_read() {
      auto self = shared_from_this();
      iovec iov{};
      if (!reading_body) {
        iov = {prefix.data() + read_off, kFramePrefixSize - read_off};
      } else {
        iov = {body.data() + read_off,
               body_len + kFrameTrailerSize - read_off};
      }
      shard->loop->async_readv(
          fd, std::span<const iovec>(&iov, 1),
          [self](Result<std::size_t> n) { self->on_read(std::move(n)); });
    }

    void on_read(Result<std::size_t> n) {
      if (!n.is_ok()) {
        RELDEV_DEBUG("tcp-server")
            << "connection error: " << n.status().to_string();
        close();
        return;
      }
      if (n.value() == 0) {  // EOF
        if (reading_body || read_off != 0) {
          RELDEV_DEBUG("tcp-server") << "connection closed mid-frame";
        }
        close();
        return;
      }
      read_off += n.value();
      if (!reading_body) {
        if (read_off < kFramePrefixSize) {
          arm_read();
          return;
        }
        const auto length = parse_frame_prefix(prefix);
        if (!length) {
          count_bad_frame(length.status(), *server->counters_);
          close();
          return;
        }
        body_len = length.value();
        body = util::BufferArena::shared().acquire(body_len + kFrameTrailerSize);
        reading_body = true;
        read_off = 0;
        arm_read();
        return;
      }
      if (read_off < body_len + kFrameTrailerSize) {
        arm_read();
        return;
      }
      finish_frame();
    }

    void finish_frame() {
      const std::span<const std::byte> payload(body.data(), body_len);
      const std::uint32_t crc = decode_frame_trailer(std::span<const std::byte>(
          body.data() + body_len, kFrameTrailerSize));
      if (frame_crc(prefix, payload) != crc) {
        count_bad_frame(errors::corruption("frame CRC mismatch"),
                        *server->counters_);
        close();
        return;
      }
      server->counters_->served_frames.fetch_add(1);
      const std::uint32_t length = body_len;
      reading_body = false;
      read_off = 0;
      // Hand the payload — still in the arena buffer, zero copies since
      // recv — to the handler pool; the reply comes back via the loop.
      auto self = shared_from_this();
      // std::function requires copyable targets; the move-only arena
      // buffer rides in a shared_ptr.
      auto frame = std::make_shared<util::ArenaBuffer>(std::move(body));
      server->pool_->submit([self, frame, length] {
        std::vector<std::byte> encoded =
            run_handler(self->server->handler_, *frame, length);
        EventLoop* loop = self->shard->loop.get();
        loop->post([self, encoded = std::move(encoded)]() mutable {
          if (self->closed) return;  // connection died while we worked
          self->start_write(std::move(encoded));
        });
      });
    }

    /// Decode, dispatch, encode: the per-request work that runs on a pool
    /// thread.
    static std::vector<std::byte> run_handler(MessageHandler* handler,
                                              const util::ArenaBuffer& frame,
                                              std::uint32_t length) {
      const std::span<const std::byte> request_bytes(frame.data(), length);
      auto request = Message::decode(request_bytes);
      Message reply = request ? handler->handle(request.value())
                              : make_error(0, request.status());
      return reply.encode();
    }

    void start_write(std::vector<std::byte> payload) {
      if (payload.size() > kMaxFramePayload) {
        RELDEV_WARN("tcp-server") << "reply too large; dropping connection";
        close();
        return;
      }
      write_prefix = encode_frame_prefix(payload.size());
      write_payload = std::move(payload);
      const std::uint32_t crc = frame_crc(write_prefix, write_payload);
      BufferWriter trailer(kFrameTrailerSize);
      trailer.put_u32(crc);
      std::copy(trailer.bytes().begin(), trailer.bytes().end(),
                write_trailer.begin());
      write_off = 0;
      arm_write();
    }

    void arm_write() {
      // Gather the un-sent suffix of prefix|payload|trailer into at most
      // three iovecs; the payload is never copied into a frame buffer.
      std::array<iovec, 3> iov{};
      std::size_t count = 0;
      std::size_t skip = write_off;
      const auto add = [&](const std::byte* data, std::size_t size) {
        if (size <= skip) {
          skip -= size;
          return;
        }
        iov[count++] = {const_cast<std::byte*>(data + skip), size - skip};
        skip = 0;
      };
      add(write_prefix.data(), write_prefix.size());
      add(write_payload.data(), write_payload.size());
      add(write_trailer.data(), write_trailer.size());
      auto self = shared_from_this();
      shard->loop->async_writev(
          fd, std::span<const iovec>(iov.data(), count),
          [self](Result<std::size_t> n) { self->on_write(std::move(n)); });
    }

    void on_write(Result<std::size_t> n) {
      if (!n.is_ok()) {
        RELDEV_DEBUG("tcp-server")
            << "reply failed: " << n.status().to_string();
        close();
        return;
      }
      write_off += n.value();
      const std::size_t total = write_prefix.size() + write_payload.size() +
                                write_trailer.size();
      if (write_off < total) {
        arm_write();
        return;
      }
      write_payload.clear();
      write_payload.shrink_to_fit();
      arm_read();  // next request
    }
  };

  /// Run `task` on shard `index`'s loop thread and wait for it.
  void run_on_shard(std::size_t index, EventLoop::Task task) {
    std::promise<void> done;
    auto fut = done.get_future();
    shards_[index]->loop->post([&task, &done] {
      task();
      done.set_value();
    });
    fut.wait();
  }

  void arm_accept() {
    shards_[0]->loop->async_accept(
        acceptor_.fd(), [this](Result<int> accepted) {
          if (!accepted.is_ok()) {
            if (!stopping_.load()) {
              RELDEV_WARN("tcp-server")
                  << "accept failed: " << accepted.status().to_string();
            }
            return;  // accept chain ends; stop() owns teardown
          }
          adopt(accepted.value());
          arm_accept();
        });
  }

  /// Assign a freshly-accepted fd to a shard round-robin and start its
  /// frame state machine there.
  void adopt(int fd) {
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    const std::size_t index =
        next_shard_.fetch_add(1, std::memory_order_relaxed) % shards_.size();
    counters_->active_connections.fetch_add(1);
    Shard* shard = shards_[index].get();
    shard->loop->post([this, shard, fd] {
      auto conn = std::make_shared<Conn>();
      conn->server = this;
      conn->shard = shard;
      conn->fd = fd;
      shard->conns.emplace(fd, conn);
      conn->arm_read();
    });
  }

  Acceptor acceptor_;
  const std::uint16_t port_ = acceptor_.port();
  MessageHandler* handler_;
  ServerCounters* counters_;
  std::atomic<bool> stopping_{false};
  std::atomic<std::size_t> next_shard_{0};
  std::vector<std::unique_ptr<Shard>> shards_;
  // Handlers run here, never on a loop shard: they block on storage and on
  // peer round trips. Default size; destroyed (drained) by stop().
  std::unique_ptr<FanOut> pool_ = std::make_unique<FanOut>();
};

Result<std::unique_ptr<TcpServer>> TcpServer::start(std::uint16_t port,
                                                    MessageHandler* handler) {
  RELDEV_EXPECTS(handler != nullptr);
  auto acceptor = Acceptor::listen(port);
  if (!acceptor) return acceptor.status();
  auto server = std::unique_ptr<TcpServer>(new TcpServer());
  if (auto status = acceptor.value().set_nonblocking(true); !status.is_ok()) {
    return status;
  }
  const std::size_t shard_count =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  std::vector<std::unique_ptr<EventLoop>> loops;
  loops.reserve(shard_count);
  for (std::size_t i = 0; i < shard_count; ++i) {
    auto loop = EventLoop::create();
    if (!loop) return loop.status();
    loops.push_back(std::move(loop).value());
  }
  server->impl_ = std::make_unique<Impl>(std::move(acceptor).value(), handler,
                                         &server->counters_,
                                         std::move(loops));
  return server;
}

TcpServer::~TcpServer() {
  if (impl_ != nullptr) impl_->stop();
}

std::uint16_t TcpServer::port() const noexcept { return impl_->port(); }

void TcpServer::stop() { impl_->stop(); }

}  // namespace reldev::net::tcp

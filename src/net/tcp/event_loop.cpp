// EventLoop over edge-triggered epoll with persistent registration: an fd
// is registered for EPOLLIN|EPOLLOUT|EPOLLET once, the first time an op has
// to park, and stays registered until cancel(fd). Readiness is tracked in userspace
// flags that a returned EAGAIN clears and an epoll edge sets, so the
// steady-state request cycle costs zero epoll_ctl calls — arming attempts
// the syscall immediately (sockets are usually writable, and a pipelined
// peer's next frame is often already buffered) and only a not-ready fd
// ever touches the interest list. Immediate completions are queued and
// dispatched from the loop body, never recursively from inside the arming
// call, and only after the loop is done touching the fd.
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <deque>
#include <unordered_map>
#include <utility>
#include <vector>

#include "reldev/net/tcp/event_loop.hpp"
#include "reldev/util/logging.hpp"
#include "reldev/util/thread_annotations.hpp"

namespace reldev::net::tcp {

namespace {

/// One armed I/O operation. Owned by the loop until its completion handler
/// has been invoked (or the op was cancelled).
struct PendingOp {
  enum class Kind : std::uint8_t { kAccept, kRead, kWrite };

  Kind kind = Kind::kRead;
  int fd = -1;
  // The iovec array is copied at arm time (the caller's span may die), but
  // the buffers it points into must outlive the operation.
  std::array<iovec, EventLoop::kMaxIov> iov{};
  unsigned iov_count = 0;
  EventLoop::IoHandler io_handler;
  EventLoop::AcceptHandler accept_handler;
};

Status errno_status(const char* what) {
  return errors::io_error(std::string(what) + ": " + std::strerror(errno));
}

/// Perform the syscall behind `op` once. Returns false when the fd is not
/// ready (EAGAIN — re-arm and wait); on true, `io_result`/`accept_fd` carry
/// the completion value for the op's kind.
bool perform(PendingOp& op, Result<std::size_t>& io_result,
             Result<int>& accept_fd) {
  if (op.kind == PendingOp::Kind::kAccept) {
    const int fd = ::accept4(op.fd, nullptr, nullptr, SOCK_NONBLOCK);
    if (fd >= 0) {
      accept_fd = fd;
      return true;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return false;
    if (errno == EINTR || errno == ECONNABORTED) return false;  // retry
    accept_fd = errno_status("accept4");
    return true;
  }
  for (;;) {
    const ssize_t n =
        op.kind == PendingOp::Kind::kRead
            ? ::readv(op.fd, op.iov.data(), static_cast<int>(op.iov_count))
            : ::writev(op.fd, op.iov.data(), static_cast<int>(op.iov_count));
    if (n >= 0) {
      io_result = static_cast<std::size_t>(n);
      return true;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return false;
    io_result = errno_status(op.kind == PendingOp::Kind::kRead ? "readv"
                                                               : "writev");
    return true;
  }
}

}  // namespace

class EventLoop::Impl {
 public:
  static Result<std::unique_ptr<Impl>> make() {
    const int epoll_fd = ::epoll_create1(0);
    if (epoll_fd < 0) return errno_status("epoll_create1");
    const int event_fd = ::eventfd(0, EFD_NONBLOCK);
    if (event_fd < 0) {
      const Status status = errno_status("eventfd");
      ::close(epoll_fd);
      return status;
    }
    auto loop = std::unique_ptr<Impl>(new Impl(epoll_fd, event_fd));
    epoll_event ev{};
    ev.events = EPOLLIN;  // level-triggered: wake-ups must never be missed
    ev.data.fd = event_fd;
    if (::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, event_fd, &ev) < 0) {
      return errno_status("epoll_ctl(eventfd)");
    }
    return {std::move(loop)};
  }

  ~Impl() {
    ::close(event_fd_);
    ::close(epoll_fd_);
  }

  void run() {
    while (!stopping_.load(std::memory_order_acquire)) {
      drain_posted();
      dispatch_ready();
      if (stopping_.load(std::memory_order_acquire)) break;

      std::array<epoll_event, 128> events;
      const int n = ::epoll_wait(epoll_fd_, events.data(),
                                 static_cast<int>(events.size()), -1);
      if (n < 0) {
        if (errno == EINTR) continue;
        RELDEV_WARN("event-loop") << "epoll_wait: " << std::strerror(errno);
        break;
      }
      for (int i = 0; i < n; ++i) {
        const epoll_event& ev = events[static_cast<std::size_t>(i)];
        if (ev.data.fd == event_fd_) {
          std::uint64_t drained = 0;
          while (::read(event_fd_, &drained, sizeof(drained)) > 0) {
          }
          continue;  // posted tasks run at the top of the loop
        }
        handle_event(ev.data.fd, ev.events);
      }
    }
  }

  void stop() {
    stopping_.store(true, std::memory_order_release);
    wake();
  }

  void post(Task task) {
    {
      const MutexLock lock(mutex_);
      if (stopping_.load(std::memory_order_acquire)) return;  // dropped
      posted_.push_back(std::move(task));
    }
    wake();
  }

  void async_accept(int listen_fd, AcceptHandler on_accept) {
    auto op = alloc_op();
    op->kind = PendingOp::Kind::kAccept;
    op->fd = listen_fd;
    op->accept_handler = std::move(on_accept);
    arm(std::move(op));
  }

  void async_readv(int fd, std::span<const iovec> iov,
                   IoHandler on_done) {
    arm(make_io_op(PendingOp::Kind::kRead, fd, iov, std::move(on_done)));
  }

  void async_writev(int fd, std::span<const iovec> iov,
                    IoHandler on_done) {
    arm(make_io_op(PendingOp::Kind::kWrite, fd, iov, std::move(on_done)));
  }

  void cancel(int fd) {
    auto it = fds_.find(fd);
    if (it != fds_.end()) {
      if (it->second.registered) {
        (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
      }
      fds_.erase(it);
    }
    // Drop not-yet-dispatched immediate completions for this fd too:
    // cancel() promises the handler never fires.
    for (auto& ready : ready_) {
      if (ready.op != nullptr && ready.op->fd == fd) ready.op.reset();
    }
  }

 private:
  /// Per-fd reactor state. `read_ready`/`write_ready` are the userspace
  /// shadow of edge-triggered readiness: set by an epoll edge (or
  /// optimistically before the first registration), cleared only when a
  /// syscall returns EAGAIN. The entry persists until cancel(fd) so the
  /// steady state never touches the interest list.
  struct FdState {
    std::unique_ptr<PendingOp> read_op;   // also holds accept ops
    std::unique_ptr<PendingOp> write_op;
    bool registered = false;
    bool read_ready = true;
    bool write_ready = true;
  };
  struct ReadyCompletion {
    std::unique_ptr<PendingOp> op;  // null = cancelled after completing
    Result<std::size_t> io_result{std::size_t{0}};
    Result<int> accept_fd{-1};
  };
  using FdMap = std::unordered_map<int, FdState>;

  Impl(int epoll_fd, int event_fd)
      : epoll_fd_(epoll_fd), event_fd_(event_fd) {}

  std::unique_ptr<PendingOp> alloc_op() {
    if (op_pool_.empty()) return std::make_unique<PendingOp>();
    auto op = std::move(op_pool_.back());
    op_pool_.pop_back();
    return op;
  }

  void recycle(std::unique_ptr<PendingOp> op) {
    if (op_pool_.size() >= kOpPoolCap) return;
    op->io_handler = nullptr;
    op->accept_handler = nullptr;
    op_pool_.push_back(std::move(op));
  }

  std::unique_ptr<PendingOp> make_io_op(PendingOp::Kind kind, int fd,
                                        std::span<const iovec> iov,
                                        IoHandler on_done) {
    RELDEV_EXPECTS(iov.size() <= kMaxIov && !iov.empty());
    auto op = alloc_op();
    op->kind = kind;
    op->fd = fd;
    op->iov_count = static_cast<unsigned>(iov.size());
    std::copy(iov.begin(), iov.end(), op->iov.begin());
    op->io_handler = std::move(on_done);
    return op;
  }

  void wake() {
    const std::uint64_t one = 1;
    // A full eventfd counter still wakes the reader; ignore EAGAIN.
    (void)::write(event_fd_, &one, sizeof(one));
  }

  void drain_posted() {
    std::vector<Task> tasks;
    {
      const MutexLock lock(mutex_);
      tasks.swap(posted_);
    }
    for (auto& task : tasks) task();
  }

  /// Try the op now if its readiness shadow allows; queue its completion
  /// or park it in the fd state (registering the fd on first park).
  void arm(std::unique_ptr<PendingOp> op) {
    const int fd = op->fd;
    FdState& state = fds_[fd];
    const bool write_class = op->kind == PendingOp::Kind::kWrite;
    bool& ready_flag = write_class ? state.write_ready : state.read_ready;
    if (ready_flag) {
      ReadyCompletion ready;
      if (perform(*op, ready.io_result, ready.accept_fd)) {
        ready.op = std::move(op);
        ready_.push_back(std::move(ready));
        // A fresh fd that never parks never registers; but don't erase the
        // entry — the flags carry readiness knowledge to the next arm.
        return;
      }
      ready_flag = false;  // EAGAIN: the edge is consumed
    }
    auto& slot = write_class ? state.write_op : state.read_op;
    RELDEV_EXPECTS(slot == nullptr);  // one op per class per fd
    slot = std::move(op);
    if (!state.registered) {
      epoll_event ev{};
      ev.events = EPOLLIN | EPOLLOUT | EPOLLET;
      ev.data.fd = fd;
      if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
        RELDEV_WARN("event-loop")
            << "epoll_ctl(" << fd << "): " << std::strerror(errno);
        fail_fd_ops(fds_.find(fd), errno_status("epoll_ctl"));
        return;
      }
      state.registered = true;
    }
  }

  void fail_fd_ops(FdMap::iterator it, const Status& status) {
    FdState& state = it->second;
    auto read_op = std::move(state.read_op);
    auto write_op = std::move(state.write_op);
    if (state.registered) {
      (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, it->first, nullptr);
    }
    fds_.erase(it);
    if (read_op != nullptr) {
      ReadyCompletion ready;
      ready.op = std::move(read_op);
      ready.io_result = status;
      ready.accept_fd = status;
      ready_.push_back(std::move(ready));
    }
    if (write_op != nullptr) {
      ReadyCompletion ready;
      ready.op = std::move(write_op);
      ready.io_result = status;
      ready_.push_back(std::move(ready));
    }
  }

  void handle_event(int fd, std::uint32_t events) {
    auto it = fds_.find(fd);
    if (it == fds_.end()) return;  // stale event raced a cancel
    // An error/hangup surfaces through the armed syscalls.
    const bool error = (events & (EPOLLERR | EPOLLHUP)) != 0;
    FdState& state = it->second;
    if ((events & EPOLLIN) != 0 || error) state.read_ready = true;
    if ((events & EPOLLOUT) != 0 || error) state.write_ready = true;
    try_complete(state, /*write=*/false);
    try_complete(state, /*write=*/true);
  }

  void try_complete(FdState& state, bool write) {
    auto& slot = write ? state.write_op : state.read_op;
    bool& ready_flag = write ? state.write_ready : state.read_ready;
    if (slot == nullptr || !ready_flag) return;
    ReadyCompletion ready;
    if (!perform(*slot, ready.io_result, ready.accept_fd)) {
      ready_flag = false;  // spurious or retriable: stay parked
      return;
    }
    // Queue rather than dispatch inline: once the handler runs another
    // thread may observe the completion, and the dispatch path must not
    // assume the fd state entry is still alive.
    ready.op = std::move(slot);
    ready_.push_back(std::move(ready));
  }

  void dispatch_ready() {
    while (!ready_.empty()) {
      ReadyCompletion ready = std::move(ready_.front());
      ready_.pop_front();
      if (ready.op == nullptr) continue;  // cancelled
      auto op = std::move(ready.op);
      // Move the handler out and recycle the op first, so handlers that
      // arm new I/O reuse the allocation instead of growing the pool.
      if (op->kind == PendingOp::Kind::kAccept) {
        AcceptHandler handler = std::move(op->accept_handler);
        recycle(std::move(op));
        handler(std::move(ready.accept_fd));
      } else {
        IoHandler handler = std::move(op->io_handler);
        recycle(std::move(op));
        handler(std::move(ready.io_result));
      }
    }
  }

  static constexpr std::size_t kOpPoolCap = 256;

  const int epoll_fd_;
  const int event_fd_;
  std::atomic<bool> stopping_{false};
  Mutex mutex_{"EventLoop.posted"};
  std::vector<Task> posted_ RELDEV_GUARDED_BY(mutex_);
  // Everything below is loop-thread-only.
  FdMap fds_;
  std::deque<ReadyCompletion> ready_;
  std::vector<std::unique_ptr<PendingOp>> op_pool_;
};

Result<std::unique_ptr<EventLoop>> EventLoop::create() {
  auto impl = Impl::make();
  if (!impl) return impl.status();
  return std::unique_ptr<EventLoop>(new EventLoop(std::move(impl).value()));
}

EventLoop::EventLoop(std::unique_ptr<Impl> impl) : impl_(std::move(impl)) {}
EventLoop::~EventLoop() = default;

void EventLoop::run() { impl_->run(); }
void EventLoop::stop() { impl_->stop(); }
void EventLoop::post(Task task) { impl_->post(std::move(task)); }
void EventLoop::async_accept(int listen_fd, AcceptHandler on_accept) {
  impl_->async_accept(listen_fd, std::move(on_accept));
}
void EventLoop::async_readv(int fd, std::span<const iovec> iov,
                            IoHandler on_done) {
  impl_->async_readv(fd, iov, std::move(on_done));
}
void EventLoop::async_writev(int fd, std::span<const iovec> iov,
                             IoHandler on_done) {
  impl_->async_writev(fd, iov, std::move(on_done));
}
void EventLoop::cancel(int fd) { impl_->cancel(fd); }

}  // namespace reldev::net::tcp

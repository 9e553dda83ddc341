// EventLoop: the non-blocking I/O core under the TCP server. One loop owns
// one epoll instance and runs on exactly one thread; the server shards
// connections across N loops so the hot path scales with cores instead of
// with connection count.
//
// Threading contract:
//   * run() is called once, on the thread that will own the loop;
//   * stop() and post() are safe from any thread;
//   * every other method — the async_* operations and cancel() — is
//     loop-thread-only (call them from a posted task or a completion
//     handler). This keeps all per-fd state unsynchronized by construction;
//     the only locks in a loop guard the cross-thread task queue.
//
// Operation contract: at most ONE outstanding read-class operation (readv
// or accept) and ONE outstanding write-class operation per fd. Operations
// are one-shot: the handler fires exactly once with the syscall result
// (bytes transferred, 0 for EOF, or an errno-derived Status) and must be
// re-armed for more I/O. Short reads/writes are the caller's to continue —
// exactly the state-machine shape the framing layer drives. cancel(fd)
// drops pending operations WITHOUT invoking their handlers; the caller
// closes the fd itself afterwards. Every fd that ever had an operation
// armed MUST be cancel()ed (on the loop thread) before it is closed, even
// when no operation is pending: the loop keeps a persistent edge-triggered
// epoll registration per fd that only cancel() releases, and a
// closed-then-reused fd number would inherit it.
#pragma once

#include <sys/uio.h>

#include <functional>
#include <memory>
#include <span>

#include "reldev/util/result.hpp"

namespace reldev::net::tcp {

class EventLoop {
 public:
  /// Completion of a read/write: bytes transferred (0 = EOF on reads) or
  /// the errno-derived Status. Handlers run on the loop thread.
  using IoHandler = std::function<void(Result<std::size_t>)>;
  /// Completion of an accept: the new connection's fd (already
  /// non-blocking) or the errno-derived Status.
  using AcceptHandler = std::function<void(Result<int>)>;
  using Task = std::function<void()>;

  /// Builds a loop: an epoll instance plus the eventfd post() wakes it by.
  [[nodiscard]] static Result<std::unique_ptr<EventLoop>> create();

  ~EventLoop();
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Process events until stop(). Call once, on the owning thread.
  void run();

  /// Make run() return soon. Safe from any thread, and idempotent. Pending
  /// operations and posted tasks are dropped (their handlers never fire);
  /// the server cancels I/O explicitly before stopping its loops.
  void stop();

  /// Run `task` on the loop thread, soon. Safe from any thread. Tasks
  /// posted after stop() are silently dropped.
  void post(Task task);

  // --- loop-thread-only from here on ---------------------------------------

  /// Arm a one-shot accept on a non-blocking listening fd.
  void async_accept(int listen_fd, AcceptHandler on_accept);

  /// Arm a one-shot scatter read / gather write. At most 4 iovecs; the
  /// buffers must stay alive until the handler fires (the iovec array
  /// itself is copied). A handler may re-arm from within its own callback.
  void async_readv(int fd, std::span<const iovec> iov, IoHandler on_done);
  void async_writev(int fd, std::span<const iovec> iov, IoHandler on_done);

  /// Drop any pending operations on `fd` — their handlers never fire —
  /// and release the loop's per-fd readiness state. The fd itself is
  /// untouched (close it after cancelling). Required before closing any
  /// fd this loop has ever armed an operation on, pending or not.
  void cancel(int fd);

  /// Largest iovec count an async_readv/async_writev accepts.
  static constexpr std::size_t kMaxIov = 4;

 private:
  class Impl;
  explicit EventLoop(std::unique_ptr<Impl> impl);

  std::unique_ptr<Impl> impl_;
};

}  // namespace reldev::net::tcp

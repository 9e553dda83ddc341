// FanOut: a small shared worker pool for concurrent RPC fan-out. A group
// operation submits one task per peer; the tasks run in parallel so the
// latency of a multicast round is the *maximum* per-peer round trip, not
// the sum. Tasks may outlive the operation that launched them (stragglers
// past an early-stop quorum keep running so their replies can still be
// metered); anything a task touches must therefore be owned by the task
// itself or by a shared_ptr it captures.
//
// TcpServer owns a separate instance as its handler pool. It must never
// use shared(): a handler blocks on the fan-out tasks it queued there.
#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "reldev/util/thread_annotations.hpp"

namespace reldev::net {

class FanOut {
 public:
  /// A pool sized for small replica groups: enough threads that one full
  /// fan-out (group sizes of 3..9) plus a concurrent operation's stragglers
  /// never queue behind each other on typical hardware.
  static std::size_t default_thread_count();

  explicit FanOut(std::size_t threads = default_thread_count());

  /// Drains the queue and joins the workers. Every submitted task runs to
  /// completion before the destructor returns; submitters that need their
  /// tasks finished earlier must track completion themselves (see
  /// TcpPeerTransport's outstanding-task latch).
  ~FanOut();

  FanOut(const FanOut&) = delete;
  FanOut& operator=(const FanOut&) = delete;

  /// Process-wide pool shared by every transport. Constructed on first use;
  /// lives until process exit.
  static FanOut& shared();

  /// Enqueue a task. Never blocks; tasks run in submission order as workers
  /// free up.
  void submit(std::function<void()> task) RELDEV_EXCLUDES(mutex_);

  [[nodiscard]] std::size_t thread_count() const noexcept {
    return workers_.size();
  }

 private:
  void worker_loop() RELDEV_EXCLUDES(mutex_);

  Mutex mutex_{"FanOut.mutex"};
  CondVar cv_;
  std::deque<std::function<void()>> queue_ RELDEV_GUARDED_BY(mutex_);
  bool stopping_ RELDEV_GUARDED_BY(mutex_) = false;
  // Written only by the constructor; joined by the destructor after the
  // workers have been told to stop — no guard needed.
  std::vector<std::thread> workers_;
};

}  // namespace reldev::net

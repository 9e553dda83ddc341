// FanOut: a fixed pool of worker threads running submitted tasks in order.
// Its one user is TcpServer, whose handlers run here because they block
// (storage I/O, peer round trips on the handler's own thread). Peer calls
// never use it: the TCP transport waits on peers on the calling thread.
#pragma once

#include <algorithm>
#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "reldev/util/thread_annotations.hpp"

namespace reldev::net {

class FanOut {
 public:
  /// By default max(8, hardware_concurrency) threads: enough that a few
  /// handlers blocked on storage or peers do not stall the rest.
  explicit FanOut(std::size_t threads = std::max<std::size_t>(
                      8, std::thread::hardware_concurrency()));

  /// Drains the queue and joins the workers. Every submitted task runs to
  /// completion before the destructor returns.
  ~FanOut();

  FanOut(const FanOut&) = delete;
  FanOut& operator=(const FanOut&) = delete;

  /// Enqueue a task. Never blocks; tasks run in submission order as workers
  /// free up.
  void submit(std::function<void()> task) RELDEV_EXCLUDES(mutex_);

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

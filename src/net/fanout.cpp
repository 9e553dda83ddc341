#include "reldev/net/fanout.hpp"

#include <algorithm>
#include <memory>
#include <utility>

namespace reldev::net {

namespace {

// Guards the process-wide pool slot. Namespace-scope (not function-local)
// statics so the GUARDED_BY relation is expressible; both are only touched
// after main() starts, so dynamic-initialization order is irrelevant.
Mutex g_shared_pool_mutex{"FanOut.shared-pool"};
std::unique_ptr<FanOut> g_shared_pool RELDEV_GUARDED_BY(g_shared_pool_mutex);

}  // namespace

std::size_t FanOut::default_thread_count() {
  const std::size_t hw = std::thread::hardware_concurrency();
  return std::max<std::size_t>(8, hw);
}

FanOut::FanOut(std::size_t threads) {
  workers_.reserve(std::max<std::size_t>(1, threads));
  for (std::size_t i = 0; i < std::max<std::size_t>(1, threads); ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

FanOut::~FanOut() {
  {
    const MutexLock lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

FanOut& FanOut::shared() {
  const MutexLock lock(g_shared_pool_mutex);
  if (!g_shared_pool) g_shared_pool = std::make_unique<FanOut>();
  return *g_shared_pool;
}

void FanOut::submit(std::function<void()> task) {
  {
    const MutexLock lock(mutex_);
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
}

void FanOut::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      const MutexLock lock(mutex_);
      while (!stopping_ && queue_.empty()) cv_.wait(mutex_);
      if (queue_.empty()) return;  // stopping and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

}  // namespace reldev::net

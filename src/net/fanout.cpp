#include "reldev/net/fanout.hpp"

#include <algorithm>
#include <utility>

namespace reldev::net {

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

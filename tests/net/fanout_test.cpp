#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "reldev/net/fanout.hpp"
#include "reldev/net/traffic.hpp"

namespace reldev::net {
namespace {

using namespace std::chrono_literals;
using Clock = std::chrono::steady_clock;

TEST(FanOutTest, RunsEverySubmittedTask) {
  FanOut pool(4);
  std::atomic<int> ran{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&ran] { ran.fetch_add(1); });
  }
  // The destructor drains the queue; construct/destruct in a scope.
  const auto deadline = Clock::now() + 5s;
  while (ran.load() < 100 && Clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_EQ(ran.load(), 100);
}

TEST(FanOutTest, DestructorDrainsQueue) {
  std::atomic<int> ran{0};
  {
    FanOut pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.submit([&ran] { ran.fetch_add(1); });
    }
  }
  EXPECT_EQ(ran.load(), 50);
}

TEST(FanOutTest, TasksRunConcurrently) {
  FanOut pool(4);
  // Four tasks that each block until all four have started can only finish
  // if they run at the same time.
  std::atomic<int> started{0};
  std::atomic<int> finished{0};
  for (int i = 0; i < 4; ++i) {
    pool.submit([&started, &finished] {
      started.fetch_add(1);
      const auto deadline = Clock::now() + 5s;
      while (started.load() < 4 && Clock::now() < deadline) {
        std::this_thread::sleep_for(1ms);
      }
      if (started.load() >= 4) finished.fetch_add(1);
    });
  }
  const auto deadline = Clock::now() + 5s;
  while (finished.load() < 4 && Clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_EQ(finished.load(), 4);
}

TEST(TrafficMeterConcurrencyTest, ConcurrentAddForIsLossless) {
  TrafficMeter meter;
  constexpr int kThreads = 8;
  constexpr int kAddsPerThread = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&meter] {
      for (int i = 0; i < kAddsPerThread; ++i) {
        meter.add_for(OpKind::kRead, 1);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(meter.count(OpKind::kRead),
            static_cast<std::uint64_t>(kThreads) * kAddsPerThread);
}

TEST(TrafficMeterConcurrencyTest, AddForLandsInTheCapturedBucket) {
  TrafficMeter meter;
  meter.set_current_op(OpKind::kWrite);
  // A straggler reporting under the kind captured at dispatch must not be
  // affected by what the engine thread switched to since.
  const OpKind captured = meter.current_op();
  meter.set_current_op(OpKind::kRecovery);
  meter.add_for(captured, 3);
  EXPECT_EQ(meter.count(OpKind::kWrite), 3u);
  EXPECT_EQ(meter.count(OpKind::kRecovery), 0u);
}

}  // namespace
}  // namespace reldev::net

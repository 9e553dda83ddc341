#include "reldev/net/traffic.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace reldev::net {
namespace {

TEST(TrafficMeterTest, StartsEmpty) {
  TrafficMeter meter;
  EXPECT_EQ(meter.total(), 0u);
  EXPECT_EQ(meter.count(OpKind::kRead), 0u);
  EXPECT_EQ(meter.current_op(), OpKind::kOther);
}

TEST(TrafficMeterTest, CountsIntoCurrentOp) {
  TrafficMeter meter;
  meter.set_current_op(OpKind::kWrite);
  meter.add(3);
  meter.set_current_op(OpKind::kRead);
  meter.add(1);
  EXPECT_EQ(meter.count(OpKind::kWrite), 3u);
  EXPECT_EQ(meter.count(OpKind::kRead), 1u);
  EXPECT_EQ(meter.total(), 4u);
}

TEST(TrafficMeterTest, ResetClearsCounts) {
  TrafficMeter meter;
  meter.add(5);
  meter.reset();
  EXPECT_EQ(meter.total(), 0u);
}

TEST(OpScopeTest, RestoresPreviousOp) {
  TrafficMeter meter;
  meter.set_current_op(OpKind::kRecovery);
  {
    OpScope scope(meter, OpKind::kWrite);
    EXPECT_EQ(meter.current_op(), OpKind::kWrite);
    meter.add(2);
  }
  EXPECT_EQ(meter.current_op(), OpKind::kRecovery);
  EXPECT_EQ(meter.count(OpKind::kWrite), 2u);
  EXPECT_EQ(meter.count(OpKind::kRecovery), 0u);
}

TEST(OpScopeTest, Nests) {
  TrafficMeter meter;
  OpScope outer(meter, OpKind::kRead);
  {
    OpScope inner(meter, OpKind::kWrite);
    meter.add(1);
  }
  meter.add(1);
  EXPECT_EQ(meter.count(OpKind::kRead), 1u);
  EXPECT_EQ(meter.count(OpKind::kWrite), 1u);
}

TEST(TrafficTest, OpKindNames) {
  EXPECT_STREQ(op_kind_name(OpKind::kRead), "read");
  EXPECT_STREQ(op_kind_name(OpKind::kWrite), "write");
  EXPECT_STREQ(op_kind_name(OpKind::kRecovery), "recovery");
  EXPECT_STREQ(op_kind_name(OpKind::kOther), "other");
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

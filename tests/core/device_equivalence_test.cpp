// The paper's headline property as a literal test: whatever sits above the
// block device needs no change to gain replication. One seeded script runs
// on a plain local disk (LocalBlockDevice over a MemBlockStore) and on the
// replicated device — a ReplicaDevice on each scheme, and a DriverStub
// over the group's transport — and every status code and every byte read
// must match, also across a site crash, a coordinator crash and a
// recovery.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <ostream>
#include <string>
#include <tuple>
#include <vector>

#include "reldev/core/driver_stub.hpp"
#include "reldev/core/group.hpp"
#include "reldev/storage/mem_block_store.hpp"
#include "reldev/util/rng.hpp"

namespace reldev::core {
namespace {

constexpr std::size_t kBlocks = 32;
constexpr std::size_t kBlockSize = 64;
constexpr SiteId kClientId = 100;

enum class OpKind { kWriteBlock, kReadBlock, kWriteBlocks, kReadBlocks };

struct Op {
  OpKind kind;
  BlockId first;
  std::size_t count;        // blocks to read; writes use data.size()
  storage::BlockData data;  // write payload
};

/// All a client of the device can observe of one operation.
struct Outcome {
  ErrorCode code;
  storage::BlockData bytes;
  bool operator==(const Outcome&) const = default;
};

void PrintTo(const Outcome& outcome, std::ostream* os) {
  *os << error_code_name(outcome.code) << " with " << outcome.bytes.size()
      << " bytes";
}

Outcome outcome_of(Result<storage::BlockData> read) {
  if (!read) return {read.status().code(), {}};
  return {ErrorCode::kOk, std::move(read).value()};
}

Outcome apply(BlockDevice& device, const Op& op) {
  switch (op.kind) {
    case OpKind::kWriteBlock:
      return {device.write_block(op.first, op.data).code(), {}};
    case OpKind::kWriteBlocks:
      return {device.write_blocks(op.first, op.data).code(), {}};
    case OpKind::kReadBlock:
      return outcome_of(device.read_block(op.first));
    case OpKind::kReadBlocks:
      return outcome_of(device.read_blocks(op.first, op.count));
  }
  return {ErrorCode::kInternal, {}};
}

/// Overlapping writes, every error case of the interface, then random
/// single-block and ranged operations whose ranges cross earlier writes.
std::vector<Op> make_script(std::uint64_t seed) {
  Rng rng(seed);
  const auto bytes = [&rng](std::size_t size) {
    storage::BlockData out(size);
    for (auto& b : out) b = static_cast<std::byte>(rng.next_u64());
    return out;
  };
  std::vector<Op> ops{
      {OpKind::kWriteBlocks, 2, 0, bytes(4 * kBlockSize)},
      {OpKind::kWriteBlock, 4, 0, bytes(kBlockSize)},
      {OpKind::kReadBlocks, 0, 8, {}},
      {OpKind::kReadBlock, kBlocks, 0, {}},                  // out of range
      {OpKind::kWriteBlock, kBlocks, 0, bytes(kBlockSize)},  // out of range
      {OpKind::kReadBlocks, kBlocks - 2, 4, {}},             // past the end
      {OpKind::kWriteBlocks, kBlocks - 2, 0, bytes(4 * kBlockSize)},
      {OpKind::kReadBlocks, 4, 0, {}},                       // empty range
      {OpKind::kWriteBlocks, 4, 0, {}},                      // empty payload
      {OpKind::kWriteBlocks, 4, 0, bytes(kBlockSize + 1)},   // not a multiple
      {OpKind::kWriteBlock, 4, 0, bytes(kBlockSize - 1)},    // short block
  };
  for (int i = 0; i < 120; ++i) {
    const auto kind = static_cast<OpKind>(rng.uniform_u64(0, 3));
    const BlockId first = rng.uniform_u64(0, kBlocks - 1);
    const std::size_t count =
        rng.uniform_u64(1, std::min<std::uint64_t>(8, kBlocks - first));
    storage::BlockData data;
    if (kind == OpKind::kWriteBlock) data = bytes(kBlockSize);
    if (kind == OpKind::kWriteBlocks) data = bytes(count * kBlockSize);
    ops.push_back({kind, first, count, std::move(data)});
  }
  return ops;
}

enum class Via { kReplica, kStub };

class DeviceEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<SchemeKind, Via>> {
 protected:
  DeviceEquivalenceTest()
      : local_store_(kBlocks, kBlockSize),
        local_(local_store_),
        group_(std::get<0>(GetParam()),
               GroupConfig::majority(3, kBlocks, kBlockSize)),
        script_(make_script(0x5eed)) {
    if (std::get<1>(GetParam()) == Via::kStub) {
      device_ = std::make_unique<DriverStub>(
          DriverStub::connect(group_.transport(), kClientId, {0, 1, 2})
              .value());
    } else {
      device_ = std::make_unique<ReplicaDevice>(group_.replica(0));
    }
  }

  /// Script steps [from, to) on the local disk and on the device under
  /// test; every outcome must match.
  void run(std::size_t from, std::size_t to) {
    for (std::size_t i = from; i < to; ++i) {
      EXPECT_EQ(apply(*device_, script_[i]), apply(local_, script_[i]))
          << "script step " << i;
    }
  }
  void run_all() { run(0, script_.size()); }

  /// The whole device, read through `device`, equals the local disk.
  void expect_same_bits(BlockDevice& device) {
    auto got = device.read_blocks(0, kBlocks);
    ASSERT_TRUE(got.is_ok()) << got.status().to_string();
    EXPECT_EQ(got.value(), local_.read_blocks(0, kBlocks).value());
  }

  storage::MemBlockStore local_store_;
  LocalBlockDevice local_;
  ReplicaGroup group_;
  std::unique_ptr<BlockDevice> device_;
  std::vector<Op> script_;
};

TEST_P(DeviceEquivalenceTest, ScriptMatchesLocalDisk) {
  run_all();
  expect_same_bits(*device_);
}

TEST_P(DeviceEquivalenceTest, SiteCrashMidScript) {
  run(0, script_.size() / 2);
  group_.crash_site(2);
  run(script_.size() / 2, script_.size());
  expect_same_bits(*device_);
}

TEST_P(DeviceEquivalenceTest, CoordinatorCrashThenReadViaAnotherSite) {
  run_all();
  group_.crash_site(0);
  ReplicaDevice site1(group_.replica(1));
  expect_same_bits(site1);
  // The stub fails over past its dead first server.
  if (std::get<1>(GetParam()) == Via::kStub) expect_same_bits(*device_);
}

TEST_P(DeviceEquivalenceTest, RecoveredSiteServesTheSameBits) {
  group_.crash_site(1);
  run_all();
  ASSERT_TRUE(group_.recover_site(1).is_ok());
  ReplicaDevice site1(group_.replica(1));
  expect_same_bits(site1);
}

TEST_P(DeviceEquivalenceTest, StubAndOtherReplicaSeeTheSameBits) {
  run_all();
  ReplicaDevice site2(group_.replica(2));
  expect_same_bits(site2);
  auto stub =
      DriverStub::connect(group_.transport(), kClientId + 1, {2, 1, 0});
  ASSERT_TRUE(stub.is_ok());
  expect_same_bits(stub.value());
}

INSTANTIATE_TEST_SUITE_P(
    AllDevices, DeviceEquivalenceTest,
    ::testing::Combine(::testing::Values(SchemeKind::kVoting,
                                         SchemeKind::kAvailableCopy,
                                         SchemeKind::kNaiveAvailableCopy),
                       ::testing::Values(Via::kReplica, Via::kStub)),
    [](const auto& param_info) {
      std::string name = scheme_kind_name(std::get<0>(param_info.param));
      for (auto& c : name) {
        if (c == '-') c = '_';
      }
      return name + (std::get<1>(param_info.param) == Via::kStub ? "_stub"
                                                                 : "_replica");
    });

}  // namespace
}  // namespace reldev::core

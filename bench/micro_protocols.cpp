// MICRO: google-benchmark timings of the device path itself — per-scheme
// read/write latency over the in-process transport, the cost of the
// eager vs piggybacked was-available policy (the §3.2 ablation), version-
// vector operations, and block-store backends.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "reldev/core/group.hpp"
#include "reldev/core/site.hpp"
#include "reldev/net/tcp/tcp_client.hpp"
#include "reldev/storage/file_block_store.hpp"
#include "reldev/storage/mem_block_store.hpp"

using namespace reldev;

namespace {

constexpr std::size_t kBlocks = 64;
constexpr std::size_t kBlockSize = 512;

core::SchemeKind scheme_of(std::int64_t index) {
  switch (index) {
    case 0:
      return core::SchemeKind::kVoting;
    case 1:
      return core::SchemeKind::kAvailableCopy;
    default:
      return core::SchemeKind::kNaiveAvailableCopy;
  }
}

void BM_DeviceWrite(benchmark::State& state) {
  core::ReplicaGroup group(
      scheme_of(state.range(0)),
      core::GroupConfig::majority(static_cast<std::size_t>(state.range(1)),
                                  kBlocks, kBlockSize));
  const storage::BlockData payload(kBlockSize, std::byte{0x5a});
  storage::BlockId block = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(group.write(0, block, payload));
    block = (block + 1) % kBlocks;
  }
  state.SetLabel(core::scheme_kind_name(group.scheme()));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kBlockSize));
}
BENCHMARK(BM_DeviceWrite)
    ->ArgsProduct({{0, 1, 2}, {3, 5, 7}})
    ->ArgNames({"scheme", "sites"});

void BM_DeviceRead(benchmark::State& state) {
  core::ReplicaGroup group(
      scheme_of(state.range(0)),
      core::GroupConfig::majority(static_cast<std::size_t>(state.range(1)),
                                  kBlocks, kBlockSize));
  const storage::BlockData payload(kBlockSize, std::byte{0x5a});
  for (storage::BlockId b = 0; b < kBlocks; ++b) {
    (void)group.write(0, b, payload);
  }
  storage::BlockId block = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(group.read(0, block));
    block = (block + 1) % kBlocks;
  }
  state.SetLabel(core::scheme_kind_name(group.scheme()));
}
BENCHMARK(BM_DeviceRead)
    ->ArgsProduct({{0, 1, 2}, {3, 5, 7}})
    ->ArgNames({"scheme", "sites"});

// Ablation: eager was-available broadcast vs piggybacked (§3.2). The
// steady-state cost difference only appears when membership changes, so
// alternate a crash/recover cycle into the write stream.
void BM_AcWritePolicy(benchmark::State& state) {
  const auto policy = state.range(0) == 0
                          ? core::WasAvailablePolicy::kEagerBroadcast
                          : core::WasAvailablePolicy::kPiggybacked;
  core::ReplicaGroup group(core::SchemeKind::kAvailableCopy,
                           core::GroupConfig::majority(5, kBlocks, kBlockSize),
                           net::AddressingMode::kMulticast, policy);
  const storage::BlockData payload(kBlockSize, std::byte{0x11});
  int i = 0;
  for (auto _ : state) {
    if (i % 64 == 0) group.crash_site(4);
    if (i % 64 == 32) (void)group.recover_site(4);
    benchmark::DoNotOptimize(
        group.write(0, static_cast<storage::BlockId>(i) % kBlocks, payload));
    ++i;
  }
  state.SetLabel(policy == core::WasAvailablePolicy::kEagerBroadcast
                     ? "eager-broadcast"
                     : "piggybacked");
  state.counters["transmissions/op"] = benchmark::Counter(
      static_cast<double>(group.meter().total()),
      benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_AcWritePolicy)->Arg(0)->Arg(1)->ArgName("policy");

// Lazy (per-block, on access) vs eager (whole device, at repair) recovery:
// the design choice that lets block-level voting skip recovery entirely.
void BM_VotingLazyRepairRead(benchmark::State& state) {
  core::ReplicaGroup group(core::SchemeKind::kVoting,
                           core::GroupConfig::majority(5, kBlocks, kBlockSize));
  const storage::BlockData payload(kBlockSize, std::byte{0x22});
  for (auto _ : state) {
    state.PauseTiming();
    group.crash_site(4);
    for (storage::BlockId b = 0; b < kBlocks; ++b) {
      (void)group.write(0, b, payload);  // site 4 misses everything
    }
    (void)group.recover_site(4);
    state.ResumeTiming();
    // The measured region: first post-repair read of one stale block.
    benchmark::DoNotOptimize(group.read(4, 0));
  }
  state.SetLabel("refresh 1 of 64 stale blocks");
}
BENCHMARK(BM_VotingLazyRepairRead);

void BM_AcFullRecovery(benchmark::State& state) {
  core::ReplicaGroup group(core::SchemeKind::kAvailableCopy,
                           core::GroupConfig::majority(5, kBlocks, kBlockSize));
  const storage::BlockData payload(kBlockSize, std::byte{0x33});
  for (auto _ : state) {
    state.PauseTiming();
    group.crash_site(4);
    for (storage::BlockId b = 0; b < kBlocks; ++b) {
      (void)group.write(0, b, payload);
    }
    state.ResumeTiming();
    // The measured region: repairing all 64 stale blocks at recovery.
    benchmark::DoNotOptimize(group.recover_site(4));
  }
  state.SetLabel("repair 64 of 64 stale blocks");
}
BENCHMARK(BM_AcFullRecovery);

// The device path over real sockets: a voting group of `sites` replicas,
// each behind its own TCP server on loopback, the coordinator's quorum
// rounds scattered and gathered on its own thread by TcpPeerTransport.
// The in-process numbers above measure the protocol engines; this
// measures what a deployment pays — and what the parallel fan-out saves
// (the round costs the slowest peer's RTT, not the sum of all of them).
class TcpVotingGroup {
 public:
  explicit TcpVotingGroup(std::size_t sites) {
    const auto config = core::GroupConfig::majority(sites, kBlocks, kBlockSize);
    for (storage::SiteId site = 0; site < sites; ++site) {
      core::SiteOptions options;
      options.scheme = core::SchemeKind::kVoting;
      options.listen_port = 0;
      sites_.push_back(
          core::Site::open(site, config, transport_, options).value());
      transport_.set_endpoint(site, "127.0.0.1", sites_.back()->port());
    }
  }

  core::ReplicaBase& coordinator() { return sites_[0]->replica(); }

 private:
  net::tcp::TcpPeerTransport transport_;
  std::vector<std::unique_ptr<core::Site>> sites_;
};

void BM_TcpDeviceWrite(benchmark::State& state) {
  TcpVotingGroup group(static_cast<std::size_t>(state.range(0)));
  const storage::BlockData payload(kBlockSize, std::byte{0x77});
  storage::BlockId block = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(group.coordinator().write(block, payload));
    block = (block + 1) % kBlocks;
  }
  state.SetLabel("voting over TCP loopback");
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kBlockSize));
}
BENCHMARK(BM_TcpDeviceWrite)->Arg(3)->Arg(5)->Arg(7)->ArgName("sites");

void BM_TcpDeviceRead(benchmark::State& state) {
  TcpVotingGroup group(static_cast<std::size_t>(state.range(0)));
  const storage::BlockData payload(kBlockSize, std::byte{0x77});
  for (storage::BlockId b = 0; b < kBlocks; ++b) {
    (void)group.coordinator().write(b, payload);
  }
  storage::BlockId block = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(group.coordinator().read(block));
    block = (block + 1) % kBlocks;
  }
  state.SetLabel("voting over TCP loopback");
}
BENCHMARK(BM_TcpDeviceRead)->Arg(3)->Arg(5)->Arg(7)->ArgName("sites");

void BM_VersionVectorDiff(benchmark::State& state) {
  const auto size = static_cast<std::size_t>(state.range(0));
  storage::VersionVector mine(size);
  storage::VersionVector theirs(size);
  for (std::size_t i = 0; i < size; i += 7) theirs.set(i, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mine.stale_against(theirs));
  }
}
BENCHMARK(BM_VersionVectorDiff)->Arg(64)->Arg(1024)->Arg(16384);

void BM_MemStoreWrite(benchmark::State& state) {
  storage::MemBlockStore store(kBlocks, kBlockSize);
  const storage::BlockData payload(kBlockSize, std::byte{0x44});
  storage::BlockId block = 0;
  storage::VersionNumber version = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.write(block, payload, version++));
    block = (block + 1) % kBlocks;
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kBlockSize));
}
BENCHMARK(BM_MemStoreWrite);

void BM_FileStoreWrite(benchmark::State& state) {
  const std::string path = "/tmp/reldev_bench_store.rdev";
  auto store = storage::FileBlockStore::create(path, kBlocks, kBlockSize);
  const storage::BlockData payload(kBlockSize, std::byte{0x55});
  storage::BlockId block = 0;
  storage::VersionNumber version = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.value()->write(block, payload, version++));
    block = (block + 1) % kBlocks;
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kBlockSize));
  std::remove(path.c_str());
}
BENCHMARK(BM_FileStoreWrite);

}  // namespace

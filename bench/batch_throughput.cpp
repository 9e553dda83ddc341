// BATCH: scalar-loop vs vectored multi-block I/O, end to end through the
// driver stub. A k-block file operation used to cost k sequential round
// trips (stub -> server -> quorum round each); the vectored path costs one
// round trip and ONE quorum round for the whole range. Measured over the
// in-process loopback transport and over real TCP at batch sizes
// {1, 4, 16, 64}; the acceptance bar is >= 4x throughput for 16-block
// vectored reads vs 16 scalar reads on TCP. Traffic is also counted at the
// paper's high-level-transmission granularity: batching must strictly
// reduce it for every multi-block operation.
#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "reldev/core/driver_stub.hpp"
#include "reldev/core/group.hpp"
#include "reldev/core/site.hpp"
#include "reldev/net/tcp/tcp_client.hpp"
#include "reldev/util/flags.hpp"
#include "reldev/util/table.hpp"

using namespace reldev;
using Clock = std::chrono::steady_clock;

namespace {

constexpr std::size_t kBlocks = 128;
constexpr std::size_t kBlockSize = 512;
constexpr std::size_t kSites = 3;

double ns_since(Clock::time_point start) {
  return std::chrono::duration<double, std::nano>(Clock::now() - start)
      .count();
}

double percentile(std::vector<double> samples, double p) {
  std::sort(samples.begin(), samples.end());
  const auto rank = static_cast<std::size_t>(
      p * static_cast<double>(samples.size() - 1) + 0.5);
  return samples[std::min(rank, samples.size() - 1)];
}

struct Measurement {
  double p50_ns = 0;
  double p95_ns = 0;
  std::uint64_t transmissions = 0;  // per single k-block operation
};

/// One bench row: scalar loop vs vectored form of the same k-block op.
struct RowResult {
  std::string transport;
  std::string op;
  std::size_t batch;
  Measurement scalar;
  Measurement vectored;

  [[nodiscard]] double speedup() const { return scalar.p50_ns / vectored.p50_ns; }
};

/// Waits until the meter's total has not moved for 20 ms — the straggler
/// replies of early-stopped reads are still being metered after the op
/// returns — giving up after 5 s.
void settle(const net::TrafficMeter& meter) {
  const auto deadline = Clock::now() + std::chrono::seconds(5);
  std::uint64_t last = meter.total();
  auto quiet_since = Clock::now();
  for (;;) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    const std::uint64_t now = meter.total();
    const auto t = Clock::now();
    if (now != last) {
      last = now;
      quiet_since = t;
    } else if (t - quiet_since >= std::chrono::milliseconds(20)) {
      return;
    }
    if (t >= deadline) return;
  }
}

template <typename Fn>
Measurement measure(net::TrafficMeter& meter, std::int64_t iters, Fn&& op) {
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(iters));
  op();  // warm-up (connection pools, caches) — not measured
  settle(meter);
  meter.reset();
  op();  // metered once: transmissions per op are deterministic
  settle(meter);
  const std::uint64_t transmissions = meter.total();
  for (std::int64_t i = 0; i < iters; ++i) {
    const auto start = Clock::now();
    op();
    samples.push_back(ns_since(start));
  }
  return Measurement{percentile(samples, 0.50), percentile(samples, 0.95),
                     transmissions};
}

storage::BlockData pattern(std::size_t bytes, std::uint8_t seed) {
  storage::BlockData data(bytes);
  for (std::size_t i = 0; i < bytes; ++i) {
    data[i] = static_cast<std::byte>((seed + i) & 0xff);
  }
  return data;
}

/// Runs the four {read, write} x {scalar, vectored} measurements for every
/// batch size against one device, appending rows to `rows`.
void bench_device(const std::string& transport_name, core::BlockDevice& device,
                  net::TrafficMeter& meter,
                  const std::vector<std::size_t>& batches, std::int64_t iters,
                  std::vector<RowResult>& rows) {
  for (const std::size_t k : batches) {
    const auto payload = pattern(k * kBlockSize, static_cast<std::uint8_t>(k));

    RowResult read_row{transport_name, "read", k, {}, {}};
    read_row.scalar = measure(meter, iters, [&] {
      for (std::size_t b = 0; b < k; ++b) {
        if (!device.read_block(b).is_ok()) std::abort();
      }
    });
    read_row.vectored = measure(meter, iters, [&] {
      if (!device.read_blocks(0, k).is_ok()) std::abort();
    });
    rows.push_back(read_row);

    RowResult write_row{transport_name, "write", k, {}, {}};
    write_row.scalar = measure(meter, iters, [&] {
      for (std::size_t b = 0; b < k; ++b) {
        if (!device
                 .write_block(b, std::span<const std::byte>(payload).subspan(
                                     b * kBlockSize, kBlockSize))
                 .is_ok()) {
          std::abort();
        }
      }
    });
    write_row.vectored = measure(meter, iters, [&] {
      if (!device.write_blocks(0, payload).is_ok()) std::abort();
    });
    rows.push_back(write_row);
  }
}

/// Three voting sites behind real TCP servers plus a driver stub client
/// on the same wire — the full Figure 1/2 deployment shape.
struct TcpFixture {
  TcpFixture() {
    transport.set_traffic_meter(&meter);
    const auto config = core::GroupConfig::majority(kSites, kBlocks, kBlockSize);
    for (storage::SiteId site = 0; site < kSites; ++site) {
      core::SiteOptions options;
      options.scheme = core::SchemeKind::kVoting;
      options.listen_port = 0;
      sites.push_back(
          core::Site::open(site, config, transport, options).value());
      transport.set_endpoint(site, "127.0.0.1", sites.back()->port());
    }
  }

  net::TrafficMeter meter;
  net::tcp::TcpPeerTransport transport;
  std::vector<std::unique_ptr<core::Site>> sites;
};

}  // namespace

int main(int argc, char** argv) {
  FlagSet flags;
  flags.add_int("iters", 30, "measured iterations per configuration");
  flags.add_bool("smoke", false, "few iterations (CI smoke run)");
  flags.add_bool("csv", false, "emit CSV");
  flags.add_string("json", "", "write a machine-readable summary to this path");
  if (auto status = flags.parse(argc, argv); !status.is_ok()) {
    std::cerr << status.to_string() << '\n';
    return 1;
  }
  if (flags.help_requested()) {
    std::cout << flags.usage("batch_throughput");
    return 0;
  }
  const std::int64_t iters = flags.get_bool("smoke") ? 5 : flags.get_int("iters");
  const std::vector<std::size_t> batches{1, 4, 16, 64};
  std::vector<RowResult> rows;

  // Loopback: an in-process voting group driven through the driver stub.
  {
    core::ReplicaGroup group(
        core::SchemeKind::kVoting,
        core::GroupConfig::majority(kSites, kBlocks, kBlockSize));
    core::DriverStub stub(group.transport(), 100, {0, 1, 2}, kBlocks,
                          kBlockSize);
    bench_device("loopback", stub, group.meter(), batches, iters, rows);
  }

  // TCP: the same group shape behind real sockets.
  {
    TcpFixture tcp;
    core::DriverStub stub(tcp.transport, 100, {0, 1, 2}, kBlocks, kBlockSize);
    bench_device("tcp", stub, tcp.meter, batches, iters, rows);
  }

  TextTable table({"transport", "op", "batch", "scalar p50 (us)",
                   "vectored p50 (us)", "speedup", "scalar tx", "vectored tx"});
  table.set_title(
      "BATCH: k-block operation as k scalar round trips vs one vectored "
      "round trip (tx = high-level transmissions per operation)");
  for (const auto& row : rows) {
    table.add_row({row.transport, row.op, std::to_string(row.batch),
                   TextTable::fmt(row.scalar.p50_ns / 1000.0, 1),
                   TextTable::fmt(row.vectored.p50_ns / 1000.0, 1),
                   TextTable::fmt(row.speedup(), 2),
                   std::to_string(row.scalar.transmissions),
                   std::to_string(row.vectored.transmissions)});
  }
  if (flags.get_bool("csv")) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }

  if (const std::string path = flags.get_string("json"); !path.empty()) {
    std::ofstream out(path);
    if (!out) {
      std::cerr << "cannot write " << path << '\n';
      return 1;
    }
    out << "{\n  \"bench\": \"batch_throughput\",\n  \"block_size\": "
        << kBlockSize << ",\n  \"results\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const auto& row = rows[i];
      out << "    {\"transport\": \"" << row.transport << "\", \"op\": \""
          << row.op << "\", \"batch\": " << row.batch
          << ", \"scalar_p50_ns\": " << row.scalar.p50_ns
          << ", \"scalar_p95_ns\": " << row.scalar.p95_ns
          << ", \"vectored_p50_ns\": " << row.vectored.p50_ns
          << ", \"vectored_p95_ns\": " << row.vectored.p95_ns
          << ", \"scalar_transmissions\": " << row.scalar.transmissions
          << ", \"vectored_transmissions\": " << row.vectored.transmissions
          << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
  }

  // Acceptance: >= 4x for 16-block vectored reads over TCP, and strictly
  // less counted traffic for every vectored multi-block operation.
  bool speed_ok = false;
  bool traffic_ok = true;
  for (const auto& row : rows) {
    if (row.transport == "tcp" && row.op == "read" && row.batch == 16 &&
        row.speedup() >= 4.0) {
      speed_ok = true;
    }
    if (row.batch > 1 &&
        row.vectored.transmissions >= row.scalar.transmissions) {
      traffic_ok = false;
      std::cerr << "traffic regression: " << row.transport << " " << row.op
                << " batch " << row.batch << " vectored "
                << row.vectored.transmissions << " tx >= scalar "
                << row.scalar.transmissions << " tx\n";
    }
  }
  std::cout << (speed_ok ? "PASS" : "FAIL")
            << ": 16-block vectored read >= 4x scalar loop over TCP\n";
  std::cout << (traffic_ok ? "PASS" : "FAIL")
            << ": vectored ops cost strictly fewer transmissions than scalar "
               "loops\n";
  return speed_ok && traffic_ok ? 0 : 1;
}

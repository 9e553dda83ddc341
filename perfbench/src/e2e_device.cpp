// End-to-end replicated block I/O benchmark.
//
// Assembles a 3- or 5-site group in this process, each site put together
// the way examples/reliable_device_daemon.cpp builds one (a FileBlockStore,
// a TcpPeerTransport, TcpServer::start with default options, one replica),
// and drives it with closed-loop DriverStub clients over loopback TCP.
// Every read is checked against the last acknowledged write to its block,
// and the transmissions every transport metered are checked against the
// paper's §5 model. --trace 0 prints the end-to-end metrics; --trace 1 the
// per-layer split measured by the decorators in trace.hpp. The last line of
// standard output is one JSON object, and the exit code is 0 only for a
// correct run. perfbench/README.md explains the workloads and metrics.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "host_probe.hpp"
#include "load.hpp"
#include "reldev/analysis/traffic.hpp"
#include "reldev/core/available_copy_replica.hpp"
#include "reldev/core/driver_stub.hpp"
#include "reldev/core/voting_replica.hpp"
#include "reldev/net/tcp/tcp_client.hpp"
#include "reldev/net/tcp/tcp_server.hpp"
#include "reldev/storage/file_block_store.hpp"
#include "reldev/util/flags.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

namespace analysis = reldev::analysis;
namespace core = reldev::core;
namespace net = reldev::net;
namespace storage = reldev::storage;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kBlockSize = 4096;
constexpr int kSetups = 11;  // per timed run; setup_s is their median
constexpr double kWarmupSeconds = 1.0;
// The measured phase is cut into equal windows; each timing metric is the
// median of its per-window values, so one stall moves it less.
constexpr std::size_t kWindows = 20;
// After each window of a timed run, and after each set-up, the host probe
// runs this long.
constexpr double kProbeSeconds = 0.2;
// The probe on the reference host, a quiet 4-vCPU Xeon VM.
constexpr HostProbe::Sample kReferenceHost{120000.0, 16.0};
// A traced run alternates this many untraced and traced phases of each kind.
constexpr std::size_t kTracePairs = 5;
constexpr storage::SiteId kFirstClientId = 1000;
constexpr std::uint64_t kWarmupPhase = 1;
constexpr std::uint64_t kMeasuredPhase = 2;

struct Workload {
  const char* name;
  analysis::Scheme scheme;
  std::size_t sites;
  std::size_t clients;  ///< capped at the CPUs this process may use
  double read_fraction;
  std::size_t blocks_per_client;
  std::size_t range_blocks;  ///< 1 = scalar ops, else vectored ranges
};

// Why each workload exists and what it should show: README.md.
constexpr Workload kWorkloads[] = {
    {"voting3-rw", analysis::Scheme::kVoting, 3, 4, 0.70, 256, 1},
    {"ac3-read1c", analysis::Scheme::kAvailableCopy, 3, 1, 0.95, 256, 1},
    {"voting5-range64k", analysis::Scheme::kVoting, 5, 4, 0.50, 512, 16},
};

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::int64_t ns_since(Clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              start)
      .count();
}

/// Transmissions one operation must cost over TCP: the §5 unique-addressing
/// model, plus the stub's request and reply, plus under voting an answer to
/// each of the n - 1 update pushes the model counts as one-way (a TCP
/// server always replies).
struct TxModel {
  std::uint64_t read = 0;
  std::uint64_t write = 0;

  explicit TxModel(const Workload& w) {
    const auto costs = analysis::operation_costs(
        w.scheme, net::AddressingMode::kUnique, w.sites, 0.0);
    const std::uint64_t stub = 2;
    const std::uint64_t push_acks =
        w.scheme == analysis::Scheme::kVoting ? w.sites - 1 : 0;
    read = static_cast<std::uint64_t>(std::llround(costs.read)) + stub;
    write = static_cast<std::uint64_t>(std::llround(costs.write)) + stub +
            push_acks;
  }

  [[nodiscard]] std::uint64_t expected(std::uint64_t reads,
                                       std::uint64_t writes) const {
    return reads * read + writes * write;
  }
};

/// Monotonic counters summed over a whole group.
struct Counters {
  std::uint64_t tx = 0;        ///< §5 transmissions, every transport's meter
  std::uint64_t frames = 0;    ///< frames every site's server dispatched
  std::uint64_t connects = 0;  ///< connection-pool misses, every transport
  friend bool operator==(const Counters&, const Counters&) = default;
};

template <typename T>
T* keep(std::vector<std::unique_ptr<T>>& owner, std::unique_ptr<T> object) {
  owner.push_back(std::move(object));
  return owner.back().get();
}

/// The sites and clients of one run. With `traced`, every store, peer
/// transport, server handler and client transport is wrapped in its
/// decorator from trace.hpp.
class Group {
 public:
  Group(const Workload& w, std::size_t clients, const fs::path& dir,
        bool traced) {
    const std::size_t n = w.sites;
    const std::size_t blocks = clients * w.blocks_per_client;
    const auto config = core::GroupConfig::majority(n, blocks, kBlockSize);
    for (storage::SiteId site = 0; site < n; ++site) {
      paths_.push_back(dir / ("site" + std::to_string(site) + ".rdev"));
      auto created = storage::FileBlockStore::create(paths_.back().string(),
                                                     blocks, kBlockSize);
      if (!created) {
        throw std::runtime_error("store: " + created.status().to_string());
      }
      storage::BlockStore* store = keep(stores_, std::move(created).value());
      if (traced) store = keep(traced_stores_, std::make_unique<TracedStore>(*store));

      auto* link = keep(peer_links_,
                        std::make_unique<net::tcp::TcpPeerTransport>());
      link->set_traffic_meter(
          keep(meters_, std::make_unique<net::TrafficMeter>()));
      net::Transport* transport = link;
      if (traced) {
        transport = keep(traced_links_, std::make_unique<TracedTransport>(
                                            *link, SpanKind::kPeerRound));
      }

      std::unique_ptr<core::ReplicaBase> replica;
      if (w.scheme == analysis::Scheme::kVoting) {
        replica = std::make_unique<core::VotingReplica>(site, config, *store,
                                                        *transport);
      } else {
        replica = std::make_unique<core::AvailableCopyReplica>(
            site, config, *store, *transport);
      }
      net::MessageHandler* handler = keep(replicas_, std::move(replica));
      if (traced) handler = keep(handlers_, std::make_unique<TracedHandler>(*handler));

      auto server = net::tcp::TcpServer::start(0, handler);
      if (!server) {
        throw std::runtime_error("server: " + server.status().to_string());
      }
      servers_.push_back(std::move(server).value());
    }
    for (storage::SiteId site = 0; site < n; ++site) {
      for (storage::SiteId peer = 0; peer < n; ++peer) {
        if (peer == site) continue;
        peer_links_[site]->set_endpoint(peer, "127.0.0.1",
                                        servers_[peer]->port());
      }
    }
    // Client i lists site i mod n first, spreading the coordinator work.
    for (std::size_t i = 0; i < clients; ++i) {
      auto* link = keep(client_links_,
                        std::make_unique<net::tcp::TcpPeerTransport>());
      link->set_traffic_meter(
          keep(meters_, std::make_unique<net::TrafficMeter>()));
      std::vector<storage::SiteId> order;
      for (std::size_t k = 0; k < n; ++k) {
        const auto site = static_cast<storage::SiteId>((i + k) % n);
        link->set_endpoint(site, "127.0.0.1", servers_[site]->port());
        order.push_back(site);
      }
      net::Transport* transport = link;
      if (traced) {
        transport = keep(traced_links_, std::make_unique<TracedTransport>(
                                            *link, SpanKind::kClientCall));
      }
      auto stub = core::DriverStub::connect(
          *transport, kFirstClientId + static_cast<storage::SiteId>(i),
          std::move(order));
      if (!stub) throw std::runtime_error("connect: " + stub.status().to_string());
      stubs_.push_back(std::make_unique<core::DriverStub>(std::move(stub).value()));
    }
  }

  ~Group() {
    std::error_code ignored;
    for (const auto& path : paths_) fs::remove(path, ignored);
  }
  Group(const Group&) = delete;
  Group& operator=(const Group&) = delete;

  [[nodiscard]] core::DriverStub& stub(std::size_t i) { return *stubs_[i]; }

  [[nodiscard]] Counters counters() const {
    Counters c;
    for (const auto& meter : meters_) c.tx += meter->total();
    for (const auto& server : servers_) c.frames += server->served_frames();
    for (const auto& link : peer_links_) c.connects += link->pool_misses();
    for (const auto& link : client_links_) c.connects += link->pool_misses();
    return c;
  }

 private:
  // Declared in dependency order, so members are destroyed from the
  // clients down to the stores: servers stop before the replicas they
  // dispatch to go, and every transport drains its in-flight fan-out
  // before the meters it reports to.
  std::vector<fs::path> paths_;
  std::vector<std::unique_ptr<net::TrafficMeter>> meters_;
  std::vector<std::unique_ptr<storage::FileBlockStore>> stores_;
  std::vector<std::unique_ptr<TracedStore>> traced_stores_;
  std::vector<std::unique_ptr<net::tcp::TcpPeerTransport>> peer_links_;
  std::vector<std::unique_ptr<net::tcp::TcpPeerTransport>> client_links_;
  std::vector<std::unique_ptr<TracedTransport>> traced_links_;
  std::vector<std::unique_ptr<core::ReplicaBase>> replicas_;
  std::vector<std::unique_ptr<TracedHandler>> handlers_;
  std::vector<std::unique_ptr<net::tcp::TcpServer>> servers_;
  std::vector<std::unique_ptr<core::DriverStub>> stubs_;
};

/// Waits until no counter has moved for 20 ms — straggler replies of
/// early-stopped reads included — and, when given, the transmission count
/// has reached `expected_tx`. Gives up after 5 s and returns what it saw.
Counters settle(const Group& group,
                std::optional<std::uint64_t> expected_tx = std::nullopt) {
  const auto deadline = Clock::now() + std::chrono::seconds(5);
  Counters last = group.counters();
  auto quiet_since = Clock::now();
  for (;;) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    const Counters now = group.counters();
    const auto t = Clock::now();
    if (now != last) {
      last = now;
      quiet_since = t;
    } else if (t - quiet_since >= std::chrono::milliseconds(20) &&
               (!expected_tx || now.tx >= *expected_tx)) {
      return now;
    }
    if (t >= deadline) return now;
  }
}

// Latency samples are 4-byte nanosecond counts (ops never take 4 s) and are
// never merged into one copy, so the benchmark's own memory adds little to
// peak_rss_mb and barely moves with throughput.
using Sample = std::uint32_t;

Sample sample_since(Clock::time_point start) {
  return static_cast<Sample>(
      std::min<std::int64_t>(ns_since(start), UINT32_MAX));
}

struct Latencies {
  std::vector<Sample> read_ns;
  std::vector<Sample> write_ns;
};

struct Tally {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t failed = 0;      ///< operations the group refused
  std::uint64_t mismatched = 0;  ///< reads that returned the wrong content
  std::uint64_t blocks_written = 0;
  std::vector<Latencies> windows = std::vector<Latencies>(kWindows);
  std::size_t window = 0;  ///< the window the next operation starts in

  [[nodiscard]] std::uint64_t ops() const { return reads + writes; }
  [[nodiscard]] std::uint64_t bad() const { return failed + mismatched; }

  /// Adds the other tally's counts; latency samples stay where they are.
  void add_counts(const Tally& other) {
    reads += other.reads;
    writes += other.writes;
    failed += other.failed;
    mismatched += other.mismatched;
    blocks_written += other.blocks_written;
  }
};

/// One client operation through its stub: timed, then checked.
void run_op(core::DriverStub& stub, ClientLoad& load, const Op& op,
            std::size_t range, std::vector<std::byte>& payload, Tally& tally) {
  Latencies& latencies = tally.windows[tally.window];
  if (op.read) {
    const auto start = Clock::now();
    auto data = [&] {
      const SpanScope span(SpanKind::kOp, 0);
      return range == 1 ? stub.read_block(op.first)
                        : stub.read_blocks(op.first, range);
    }();
    latencies.read_ns.push_back(sample_since(start));
    ++tally.reads;
    if (!data) {
      ++tally.failed;
    } else if (!load.check(op, data.value())) {
      ++tally.mismatched;
    }
    return;
  }
  load.stamp(op, payload);
  const auto start = Clock::now();
  const reldev::Status status = [&] {
    const SpanScope span(SpanKind::kOp, 1);
    return range == 1 ? stub.write_block(op.first, payload)
                      : stub.write_blocks(op.first, payload);
  }();
  latencies.write_ns.push_back(sample_since(start));
  ++tally.writes;
  tally.blocks_written += range;
  if (status.is_ok()) {
    load.acknowledge(op);
  } else {
    ++tally.failed;
    load.forget(op);
  }
}

/// The last step of set-up: every client writes each of its blocks once,
/// then reads each back and checks it.
Tally prefill(Group& group, std::vector<ClientLoad>& loads, std::size_t range) {
  std::vector<Tally> tallies(loads.size());
  std::vector<std::thread> clients;
  for (std::size_t i = 0; i < loads.size(); ++i) {
    clients.emplace_back([&, i] {
      std::vector<std::byte> payload(range * kBlockSize);
      for (const bool read : {false, true}) {
        for (std::size_t slot = 0; slot < loads[i].slots(); ++slot) {
          run_op(group.stub(i), loads[i], loads[i].slot_op(read, slot), range,
                 payload, tallies[i]);
        }
      }
    });
  }
  for (auto& client : clients) client.join();
  Tally total;
  for (const auto& tally : tallies) total.add_counts(tally);
  return total;
}

struct Usage {
  double cpu_us = 0;
  double voluntary_switches = 0;
};

Usage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto us = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) * 1e6 + static_cast<double>(t.tv_usec);
  };
  return {us(ru.ru_utime) + us(ru.ru_stime), static_cast<double>(ru.ru_nvcsw)};
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::size_t thread_count() {
  std::size_t threads = 0;
  std::error_code ec;
  for (fs::directory_iterator it("/proc/self/task", ec), end;
       !ec && it != end; it.increment(ec)) {
    ++threads;
  }
  return threads;
}

std::size_t usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) {
    return std::max(1u, std::thread::hardware_concurrency());
  }
  return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
}

struct Phase {
  Tally tally;                ///< counts of all clients together
  std::vector<Tally> clients;  ///< each client's latency samples
  double seconds = 0;          ///< the windows together
  std::vector<double> window_seconds;
  std::vector<double> window_cpu_us;  ///< process CPU time per window
  std::vector<HostProbe::Sample> probes;  ///< one after each window
  double voluntary_switches = 0;      ///< while the clients ran
  std::size_t threads = 0;  ///< process threads while the clients ran
  Counters before;
  Counters after;
  bool tx_exact = false;  ///< metered transmissions == the model's count
};

/// All clients run their op streams for `seconds`, in kWindows windows;
/// between two windows the clients stop and, when given, the probe runs.
/// Counters are read with the group quiet before and after.
Phase run_phase(Group& group, std::vector<ClientLoad>& loads, std::size_t range,
                double seconds, const TxModel& model,
                HostProbe* probe = nullptr) {
  Phase phase;
  phase.before = settle(group);
  std::vector<Tally> tallies(loads.size());
  const auto window = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds / kWindows));
  for (std::size_t w = 0; w < kWindows; ++w) {
    std::atomic<bool> stop{false};
    std::vector<std::thread> clients;
    const Usage start_usage = usage_now();
    const auto start = Clock::now();
    for (std::size_t i = 0; i < loads.size(); ++i) {
      clients.emplace_back([&, i, w] {
        std::vector<std::byte> payload(range * kBlockSize);
        tallies[i].window = w;
        while (!stop.load(std::memory_order_relaxed)) {
          run_op(group.stub(i), loads[i], loads[i].next(), range, payload,
                 tallies[i]);
        }
      });
    }
    std::this_thread::sleep_until(start + window);
    if (w + 1 == kWindows) phase.threads = thread_count();
    stop.store(true, std::memory_order_relaxed);
    for (auto& client : clients) client.join();
    phase.window_seconds.push_back(seconds_since(start));
    const Usage end_usage = usage_now();
    phase.window_cpu_us.push_back(end_usage.cpu_us - start_usage.cpu_us);
    phase.voluntary_switches +=
        end_usage.voluntary_switches - start_usage.voluntary_switches;
    if (probe != nullptr) phase.probes.push_back(probe->run(kProbeSeconds));
  }
  for (const double s : phase.window_seconds) phase.seconds += s;
  for (const auto& tally : tallies) phase.tally.add_counts(tally);
  phase.clients = std::move(tallies);
  const std::uint64_t expected =
      phase.before.tx + model.expected(phase.tally.reads, phase.tally.writes);
  phase.after = settle(group, expected);
  phase.tx_exact = phase.after.tx == expected;
  return phase;
}

std::vector<ClientLoad> make_loads(const Workload& w, std::size_t clients) {
  std::vector<ClientLoad> loads;
  for (std::size_t i = 0; i < clients; ++i) {
    loads.emplace_back(static_cast<std::uint32_t>(i), i * w.blocks_per_client,
                       w.blocks_per_client, w.range_blocks, w.read_fraction,
                       kBlockSize);
  }
  return loads;
}

void start_streams(std::vector<ClientLoad>& loads, const Workload& w,
                   std::uint64_t seed, std::uint64_t phase) {
  for (std::size_t i = 0; i < loads.size(); ++i) {
    loads[i].start_stream(stream_seed(w.name, seed, i, phase));
  }
}

/// Nearest-rank percentile, in microseconds.
double percentile_us(std::vector<Sample>& ns, double q) {
  if (ns.empty()) return 0.0;
  const auto rank = std::min(
      ns.size() - 1,
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(ns.size()))) -
          1);
  std::nth_element(ns.begin(), ns.begin() + static_cast<std::ptrdiff_t>(rank),
                   ns.end());
  return static_cast<double>(ns[rank]) / 1e3;
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2;
}

/// How much slower than the reference host the probe ran, as the median
/// over `samples`: in wall time, which wall-clock timings are divided by,
/// and in CPU time, which CPU time per op is divided by.
struct Slowdown {
  double wall = 1;
  double cpu = 1;
};

Slowdown slowdown_of(const std::vector<HostProbe::Sample>& samples) {
  std::vector<double> rate, cpu;
  for (const auto& sample : samples) {
    rate.push_back(sample.trips_per_s);
    cpu.push_back(sample.cpu_us_per_trip);
  }
  return {kReferenceHost.trips_per_s / median(rate),
          median(cpu) / kReferenceHost.cpu_us_per_trip};
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  /// Every operation the benchmark issued counts, set-up and warm-up too.
  void account(const Tally& tally, const char* what) {
    attempted += tally.ops();
    failed += tally.bad();
    if (tally.bad() != 0) {
      correct = false;
      std::cout << "# FAILED " << what << ": " << tally.failed
                << " refused, " << tally.mismatched << " wrong reads of "
                << tally.ops() << " ops\n";
    }
  }
  void require(bool ok, const std::string& what) {
    if (ok) return;
    correct = false;
    std::cout << "# FAILED " << what << '\n';
  }
  void require_exact_tx(const Phase& phase, const TxModel& model,
                        const char* what) {
    require(phase.tx_exact,
            std::string(what) + ": metered " +
                std::to_string(phase.after.tx - phase.before.tx) +
                " transmissions, model " +
                std::to_string(model.expected(phase.tally.reads,
                                              phase.tally.writes)));
  }
};

/// Per-window sample counts; a p99 needs at least ten samples beyond it.
void print_samples(const char* what, const std::vector<std::size_t>& counts) {
  std::cout << "# " << what << " latency samples per window:";
  std::size_t fewest_beyond_p99 = SIZE_MAX;
  for (const std::size_t n : counts) {
    std::cout << ' ' << n;
    fewest_beyond_p99 = std::min(
        fewest_beyond_p99,
        n - static_cast<std::size_t>(std::ceil(0.99 * static_cast<double>(n))));
  }
  std::cout << "; at least " << fewest_beyond_p99 << " beyond p99"
            << (fewest_beyond_p99 < 10 ? " (fewer than 10: p99 unreliable)"
                                       : "")
            << '\n';
}

Report run_timed(const Workload& w, std::size_t clients, std::uint64_t seed,
                 double seconds, const fs::path& dir, bool inject_mismatch) {
  Report report;
  const TxModel model(w);
  HostProbe probe(std::max<std::size_t>(1, usable_cpus() / 2));
  // Each set-up is scaled by the host slowdown the probe sees right after it.
  std::vector<double> setups;
  std::vector<HostProbe::Sample> setup_probes;
  std::unique_ptr<Group> group;
  std::vector<ClientLoad> loads;
  for (int k = 0; k < kSetups; ++k) {
    group.reset();  // tearing down is not part of set-up
    loads = make_loads(w, clients);
    const auto start = Clock::now();
    group = std::make_unique<Group>(w, clients, dir, false);
    report.account(prefill(*group, loads, w.range_blocks), "prefill");
    setups.push_back(seconds_since(start));
    setup_probes.push_back(probe.run(kProbeSeconds));
  }
  start_streams(loads, w, seed, kWarmupPhase);
  const Phase warmup =
      run_phase(*group, loads, w.range_blocks, kWarmupSeconds, model);
  report.account(warmup.tally, "warm-up");
  report.require_exact_tx(warmup, model, "warm-up");

  start_streams(loads, w, seed, kMeasuredPhase);
  if (inject_mismatch) loads.front().expect_wrong_stamp_once();
  const Phase m =
      run_phase(*group, loads, w.range_blocks, seconds, model, &probe);
  report.account(m.tally, "measured phase");
  report.require_exact_tx(m, model, "measured phase");
  group.reset();

  const auto ops = static_cast<double>(m.tally.ops());
  std::vector<std::size_t> read_counts, write_counts;
  std::vector<double> rate, read_p50, read_p99, write_p50, write_p99, cpu;
  std::vector<Sample> reads, writes;  // one window of all clients
  for (std::size_t i = 0; i < kWindows; ++i) {
    reads.clear();
    writes.clear();
    for (const Tally& client : m.clients) {
      const Latencies& window = client.windows[i];
      reads.insert(reads.end(), window.read_ns.begin(), window.read_ns.end());
      writes.insert(writes.end(), window.write_ns.begin(),
                    window.write_ns.end());
    }
    const auto window_ops = static_cast<double>(reads.size() + writes.size());
    read_counts.push_back(reads.size());
    write_counts.push_back(writes.size());
    rate.push_back(window_ops / m.window_seconds[i]);
    read_p50.push_back(percentile_us(reads, 0.50));
    read_p99.push_back(percentile_us(reads, 0.99));
    write_p50.push_back(percentile_us(writes, 0.50));
    write_p99.push_back(percentile_us(writes, 0.99));
    cpu.push_back(m.window_cpu_us[i] / window_ops);
  }
  print_samples("read", read_counts);
  print_samples("write", write_counts);
  const Slowdown host = slowdown_of(m.probes);
  std::vector<double> setup_wall, scaled_setups;
  for (int k = 0; k < kSetups; ++k) {
    setup_wall.push_back(slowdown_of({setup_probes[k]}).wall);
    scaled_setups.push_back(setups[k] / setup_wall.back());
  }
  std::cout << "# ops/s per window:";
  for (const double r : rate) std::cout << ' ' << r;
  std::cout << "\n# probe round trips/s, CPU us per round trip:";
  for (const auto& p : m.probes) {
    std::cout << ' ' << p.trips_per_s << ", " << p.cpu_us_per_trip << ';';
  }
  std::cout << "\n# " << m.tally.reads << " reads, " << m.tally.writes
            << " writes in " << m.seconds << " s; fail_frac "
            << (ops > 0 ? static_cast<double>(m.tally.bad()) / ops : 0.0)
            << "; setups";
  for (const double s : setups) std::cout << ' ' << s;
  std::cout << " s\nas_measured {\"setup_wall_slowdown\": " << median(setup_wall)
            << ", \"wall_slowdown\": " << host.wall
            << ", \"cpu_slowdown\": " << host.cpu
            << ", \"setup_s\": " << median(setups)
            << ", \"ops_per_s\": " << median(rate)
            << ", \"read_p50_us\": " << median(read_p50)
            << ", \"read_p99_us\": " << median(read_p99)
            << ", \"write_p50_us\": " << median(write_p50)
            << ", \"write_p99_us\": " << median(write_p99)
            << ", \"cpu_us_per_op\": " << median(cpu) << "}\n";
  // Each timing as it would read on the reference host; counts as they are.
  report.metrics = {
      {"setup_s", median(scaled_setups), "s"},
      {"ops_per_s", median(rate) * host.wall, "1/s"},
      {"read_p50_us", median(read_p50) / host.wall, "us"},
      {"read_p99_us", median(read_p99) / host.wall, "us"},
      {"write_p50_us", median(write_p50) / host.wall, "us"},
      {"write_p99_us", median(write_p99) / host.wall, "us"},
      {"cpu_us_per_op", median(cpu) / host.cpu, "us"},
      {"cswitch_per_op", m.voluntary_switches / ops, "count"},
      {"tx_per_op", static_cast<double>(m.after.tx - m.before.tx) / ops,
       "count"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
  return report;
}

/// Mean time of a set of spans.
struct SpanSum {
  double ns = 0;
  double count = 0;
  void add(std::int64_t duration) {
    ns += static_cast<double>(duration);
    count += 1;
  }
  [[nodiscard]] double mean_us() const { return count == 0 ? 0 : ns / count / 1e3; }
};

bool is_read_request(std::uint8_t detail) {
  const std::string name = message_name(detail);
  return name == "client-read-request" || name == "multi-block-read-request";
}

/// The per-layer split of the traced phases. Spans that cross a thread or a
/// socket are matched per layer as sums per operation.
std::vector<Metric> layer_metrics(const Phase& phase, const TraceSnapshot& trace,
                                  const TxModel& model, double overhead_pct) {
  const auto ops = static_cast<double>(phase.tally.ops());
  const auto reads = static_cast<double>(phase.tally.reads);
  SpanSum op, call, coord, peer_handler, round;
  double coord_store_ns = 0;
  double rounds_under_reads = 0;
  std::map<std::string, SpanSum> peer_by_type, round_by_type;
  std::unordered_map<std::uint64_t, bool> coordinator_reads;  // span id -> read?
  for (const Span& s : trace.spans) {
    if (s.kind == SpanKind::kHandler && s.client_request) {
      coordinator_reads[s.id] = is_read_request(s.detail);
    }
  }
  for (const Span& s : trace.spans) {
    switch (s.kind) {
      case SpanKind::kOp:
        op.add(s.duration_ns());
        break;
      case SpanKind::kClientCall:
        call.add(s.duration_ns());
        break;
      case SpanKind::kHandler:
        if (s.client_request) {
          coord.add(s.duration_ns());
          coord_store_ns += static_cast<double>(s.store_ns);
        } else {
          peer_handler.add(s.duration_ns());
          peer_by_type[message_name(s.detail)].add(s.duration_ns());
        }
        break;
      case SpanKind::kPeerRound: {
        const auto parent = coordinator_reads.find(s.parent);
        if (parent == coordinator_reads.end()) break;  // not under a client op
        round.add(s.duration_ns());
        round_by_type[message_name(s.detail)].add(s.duration_ns());
        if (parent->second) rounds_under_reads += 1;
        break;
      }
    }
  }
  for (const auto& [name, sum] : peer_by_type) {
    std::cout << "# engine.peer_us[" << name << "] " << sum.mean_us()
              << " us over " << sum.count << " messages\n";
  }
  for (const auto& [name, sum] : round_by_type) {
    std::cout << "# peer.round_us[" << name << "] " << sum.mean_us()
              << " us over " << sum.count << " rounds\n";
  }

  const auto per_op_us = [&](double ns) { return ns / ops / 1e3; };
  const auto& st = trace.store;
  const auto mean_store_us = [&](StoreCall kind) {
    const auto k = static_cast<std::size_t>(kind);
    return st.calls[k] == 0 ? 0.0
                            : static_cast<double>(st.ns[k]) /
                                  static_cast<double>(st.calls[k]) / 1e3;
  };
  double store_calls = 0;
  for (const auto calls : st.calls) store_calls += static_cast<double>(calls);
  const auto blocks_written = static_cast<double>(phase.tally.blocks_written);
  const double call_us = per_op_us(call.ns);
  const double coord_us = per_op_us(coord.ns);
  const double round_us = per_op_us(round.ns);
  const double rounds_per_op = round.count / ops;
  const double coord_store_us = per_op_us(coord_store_ns);
  const double tx_per_op =
      static_cast<double>(phase.after.tx - phase.before.tx) / ops;
  const double model_per_op =
      static_cast<double>(model.expected(phase.tally.reads, phase.tally.writes)) /
      ops;
  return {
      {"stub.self_us", per_op_us(op.ns - call.ns), "us"},
      {"stub.calls_per_op", call.count / ops, "count"},
      {"rpc.call_us", call_us, "us"},
      {"rpc.wire_us", call_us - coord_us, "us"},
      {"rpc.connects",
       static_cast<double>(phase.after.connects - phase.before.connects),
       "count"},
      {"server.frames_per_op",
       static_cast<double>(phase.after.frames - phase.before.frames) / ops,
       "count"},
      {"process.threads", static_cast<double>(phase.threads), "count"},
      {"engine.coord_us", coord_us, "us"},
      {"engine.self_us", coord_us - round_us - coord_store_us, "us"},
      {"engine.peer_us", peer_handler.mean_us(), "us"},
      {"peer.round_us", round_us, "us"},
      {"peer.rounds_per_op", rounds_per_op, "count"},
      {"peer.rounds_per_read", reads == 0 ? 0.0 : rounds_under_reads / reads,
       "count"},
      {"peer.wait_us", round_us - rounds_per_op * peer_handler.mean_us(), "us"},
      {"store.coord_us", coord_store_us, "us"},
      {"store.read_us", mean_store_us(StoreCall::kRead), "us"},
      {"store.write_us", mean_store_us(StoreCall::kWrite), "us"},
      {"store.version_us", mean_store_us(StoreCall::kVersion), "us"},
      {"store.calls_per_op", store_calls / ops, "count"},
      {"store.flushes_per_write",
       static_cast<double>(st.calls[static_cast<std::size_t>(StoreCall::kFlush)]) /
           blocks_written,
       "count"},
      {"store.write_amp",
       static_cast<double>(st.bytes_written) /
           (blocks_written * static_cast<double>(kBlockSize)),
       "ratio"},
      {"traffic.model_delta", tx_per_op - model_per_op, "count"},
      {"trace.overhead_pct", overhead_pct, "%"},
  };
}

void write_spans(const std::string& path, const std::vector<Span>& spans) {
  static constexpr const char* kKinds[] = {"op", "client-call", "handler",
                                           "peer-round"};
  std::ofstream out(path);
  out << "kind\tname\tid\tparent\tstart_ns\tduration_ns\tstore_ns\t"
         "store_calls\tclient_request\n";
  for (const Span& s : spans) {
    const char* name = s.kind == SpanKind::kOp
                           ? (s.detail == 0 ? "read" : "write")
                           : message_name(s.detail);
    out << kKinds[static_cast<std::size_t>(s.kind)] << '\t' << name << '\t'
        << s.id << '\t' << s.parent << '\t' << s.start_ns << '\t'
        << s.duration_ns() << '\t' << s.store_ns << '\t' << s.store_calls
        << '\t' << (s.client_request ? 1 : 0) << '\n';
  }
}

/// Adds one phase's counts and counter deltas to `total`, whose `before`
/// stays zero.
void absorb(Phase& total, const Phase& phase) {
  total.tally.add_counts(phase.tally);
  total.threads = std::max(total.threads, phase.threads);
  total.after.tx += phase.after.tx - phase.before.tx;
  total.after.frames += phase.after.frames - phase.before.frames;
  total.after.connects += phase.after.connects - phase.before.connects;
}

/// One group built with the decorators, measured in equal phases with span
/// recording off and on in the order off, on, on, off, off, on, ... so that
/// a steady drift of the host hits both kinds alike. Recording is switched
/// only while the group is quiet. The per-layer split comes from the
/// recording phases; trace.overhead_pct compares the median ops/s of the two
/// kinds.
Report run_traced(const Workload& w, std::size_t clients, std::uint64_t seed,
                  double seconds, const fs::path& dir,
                  const std::string& spans_path, bool inject_mismatch) {
  Report report;
  const TxModel model(w);
  auto loads = make_loads(w, clients);
  auto group = std::make_unique<Group>(w, clients, dir, true);
  report.account(prefill(*group, loads, w.range_blocks), "prefill");
  start_streams(loads, w, seed, kWarmupPhase);
  const Phase warmup =
      run_phase(*group, loads, w.range_blocks, kWarmupSeconds, model);
  report.account(warmup.tally, "warm-up");
  report.require_exact_tx(warmup, model, "warm-up");

  start_streams(loads, w, seed, kMeasuredPhase);
  if (inject_mismatch) loads.front().expect_wrong_stamp_once();
  const double each = seconds / (2 * kTracePairs);
  Phase traced;
  std::vector<double> plain_rate, traced_rate;
  for (std::size_t k = 0; k < 2 * kTracePairs; ++k) {
    const bool recording = k % 4 == 1 || k % 4 == 2;
    const char* what = recording ? "traced phase" : "untraced phase";
    set_recording(recording);
    const Phase phase = run_phase(*group, loads, w.range_blocks, each, model);
    set_recording(false);
    report.account(phase.tally, what);
    report.require_exact_tx(phase, model, what);
    (recording ? traced_rate : plain_rate)
        .push_back(static_cast<double>(phase.tally.ops()) / phase.seconds);
    if (recording) absorb(traced, phase);
  }
  const TraceSnapshot trace = collect_trace();
  group.reset();

  const double plain_ops_per_s = median(plain_rate);
  const double traced_ops_per_s = median(traced_rate);
  std::cout << "# traced phases: " << traced.tally.ops() << " ops, "
            << trace.spans.size() << " spans; median ops/s untraced "
            << plain_ops_per_s << ", traced " << traced_ops_per_s << '\n';
  report.metrics =
      layer_metrics(traced, trace, model,
                    100.0 * (plain_ops_per_s - traced_ops_per_s) /
                        plain_ops_per_s);
  if (!spans_path.empty()) write_spans(spans_path, trace.spans);
  return report;
}

void print_context(const Workload& w, std::size_t clients) {
  std::cout << "context {\"store_class\": \"FileBlockStore\", "
               "\"flush_policy\": \"no flush on the op path; store creation "
               "fsyncs, inside setup_s\", "
               "\"build_type\": \"" PERFBENCH_BUILD_TYPE "\", "
               "\"compiler\": \"" PERFBENCH_COMPILER "\", \"scheme\": \""
            << analysis::scheme_name(w.scheme) << "\", \"sites\": " << w.sites
            << ", \"clients\": " << clients
            << ", \"block_size\": " << kBlockSize
            << ", \"range_blocks\": " << w.range_blocks
            << ", \"read_fraction\": " << w.read_fraction << "}\n";
}

/// Prints the result line. A metric that is not a finite number fails the
/// run and prints as null.
void print_result(Report& report) {
  for (const Metric& m : report.metrics) {
    report.require(std::isfinite(m.value), m.name + " is not a finite number");
  }
  std::ostringstream out;
  out.precision(17);
  out << "{\"correct\": " << (report.correct ? "true" : "false")
      << ", \"attempted\": " << report.attempted
      << ", \"failed\": " << report.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    out << (i == 0 ? "" : ", ") << '"' << m.name << "\": {\"value\": ";
    if (std::isfinite(m.value)) {
      out << m.value;
    } else {
      out << "null";
    }
    out << ", \"unit\": \"" << m.unit << "\"}";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

int run(int argc, char** argv) {
  reldev::FlagSet flags;
  flags.add_string("workload", "",
                   "voting3-rw | ac3-read1c | voting5-range64k");
  flags.add_int("seed", 1, "seed of the generated op streams");
  flags.add_double("seconds", 10.0, "length of the measured phase");
  flags.add_int("trace", 0, "0: end-to-end metrics, 1: per-layer split");
  flags.add_string("dir", "", "directory for the site stores (required)");
  flags.add_string("spans", "", "--trace 1: write every span here as TSV");
  flags.add_bool("inject-mismatch", false,
                 "self-test: expect a wrong stamp on one read, so the run "
                 "must fail");
  if (auto status = flags.parse(argc, argv); !status.is_ok()) {
    std::cerr << status.to_string() << '\n' << flags.usage(argv[0]);
    return 2;
  }
  if (flags.help_requested()) {
    std::cout << flags.usage(argv[0]);
    return 0;
  }
  const Workload* workload = nullptr;
  for (const auto& w : kWorkloads) {
    if (flags.get_string("workload") == w.name) workload = &w;
  }
  const double seconds = flags.get_double("seconds");
  const std::int64_t trace = flags.get_int("trace");
  if (workload == nullptr || !(seconds > 0) || (trace != 0 && trace != 1) ||
      flags.get_string("dir").empty()) {
    std::cerr << "need a known --workload, --seconds > 0, --trace 0|1 and "
                 "--dir\n"
              << flags.usage(argv[0]);
    return 2;
  }
  const fs::path dir = flags.get_string("dir");
  fs::create_directories(dir);
  const std::size_t clients = std::min(workload->clients, usable_cpus());
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  print_context(*workload, clients);
  Report report =
      trace == 0
          ? run_timed(*workload, clients, seed, seconds, dir,
                      flags.get_bool("inject-mismatch"))
          : run_traced(*workload, clients, seed, seconds, dir,
                       flags.get_string("spans"),
                       flags.get_bool("inject-mismatch"));
  print_result(report);
  return report.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "e2e_device: " << e.what() << '\n';
    return 1;
  }
}

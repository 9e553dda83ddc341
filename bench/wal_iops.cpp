// WAL: per-operation fsync vs write-ahead journal with group commit, on
// real storage. The baseline regime is the v2 FileBlockStore where every
// durable small write costs its own fsync; the journal regime frames the
// write into a commit batch and shares one append + one fsync with every
// writer in flight. Measured as sustained small-write IOPS and per-commit
// latency at 1 and 16 concurrent writers; the acceptance bar is >= 3x
// IOPS for the journal at 16 writers, where group commit amortizes the
// fsync across the whole contending set.
//
// Each round is a pair — one run of each mode, back to back, the order
// alternating from round to round — so both sides of a ratio see the same
// moment of a noisy host. The gate takes the median of the per-pair
// ratios; the table shows the median pair.
//
// Run it on a real filesystem (--dir defaults to the working directory,
// NOT /tmp, which is commonly tmpfs and would fake the fsync cost).
#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "reldev/storage/file_block_store.hpp"
#include "reldev/storage/journaled_block_store.hpp"
#include "reldev/util/flags.hpp"
#include "reldev/util/lockdep.hpp"
#include "reldev/util/table.hpp"
#include "reldev/util/thread_annotations.hpp"

using namespace reldev;
using Clock = std::chrono::steady_clock;

namespace {

constexpr std::size_t kBlocks = 256;
constexpr std::size_t kBlockSize = 4096;

double percentile(std::vector<double> samples, double p) {
  std::sort(samples.begin(), samples.end());
  const auto rank = static_cast<std::size_t>(
      p * static_cast<double>(samples.size() - 1) + 0.5);
  return samples[std::min(rank, samples.size() - 1)];
}

struct RowResult {
  std::string mode;        // "per-op-fsync" | "journal"
  std::size_t writers = 0;
  std::size_t total_ops = 0;
  double seconds = 0;
  double p50_us = 0;
  double p95_us = 0;
  std::uint64_t fsyncs = 0;  // commit batches (journal) or ops (file)

  [[nodiscard]] double iops() const {
    return static_cast<double>(total_ops) / seconds;
  }
};

std::vector<std::byte> pattern(std::uint8_t seed) {
  std::vector<std::byte> data(kBlockSize);
  for (std::size_t i = 0; i < kBlockSize; ++i) {
    data[i] = static_cast<std::byte>((seed * 31 + i) & 0xff);
  }
  return data;
}

/// Drive `writers` threads, each performing `ops` durable small writes
/// through `op(writer, i)`; returns wall seconds and per-op latencies.
template <typename Fn>
std::pair<double, std::vector<double>> drive(std::size_t writers,
                                             std::size_t ops, Fn&& op) {
  std::vector<std::vector<double>> latencies(writers);
  std::vector<std::thread> threads;
  threads.reserve(writers);
  const auto begin = Clock::now();
  for (std::size_t w = 0; w < writers; ++w) {
    threads.emplace_back([&, w] {
      latencies[w].reserve(ops);
      for (std::size_t i = 0; i < ops; ++i) {
        const auto start = Clock::now();
        op(w, i);
        latencies[w].push_back(
            std::chrono::duration<double, std::micro>(Clock::now() - start)
                .count());
      }
    });
  }
  for (auto& thread : threads) thread.join();
  const double seconds =
      std::chrono::duration<double>(Clock::now() - begin).count();
  std::vector<double> merged;
  merged.reserve(writers * ops);
  for (auto& samples : latencies) {
    merged.insert(merged.end(), samples.begin(), samples.end());
  }
  return {seconds, std::move(merged)};
}

/// Baseline: every durable write is write + sync on the bare v2 store.
/// FileBlockStore is unsynchronized, so concurrent writers serialize on a
/// mutex — which is exactly the per-op-fsync regime's best case (the
/// device still sees one fsync per operation).
RowResult bench_file(const std::string& path, std::size_t writers,
                     std::size_t ops) {
  auto store = storage::FileBlockStore::create(path, kBlocks, kBlockSize);
  if (!store.is_ok()) {
    std::cerr << "create failed: " << store.status().to_string() << '\n';
    std::exit(1);
  }
  const auto payload = pattern(0x5A);
  Mutex serial("bench.wal-iops.serial");
  auto [seconds, latencies] =
      drive(writers, ops, [&](std::size_t w, std::size_t i) {
        const MutexLock lock(serial);
        const lockdep::AllowBlocking allow(
            "per-op-fsync baseline: writers serialize on the unsynchronized "
            "store, write + fsync included");
        const auto block = static_cast<storage::BlockId>(
            (w * 17 + i) % kBlocks);
        if (!store.value()->write(block, payload, i + 1).is_ok()) std::abort();
        if (!store.value()->sync().is_ok()) std::abort();
      });
  RowResult row{"per-op-fsync", writers, writers * ops, seconds,
                percentile(latencies, 0.50), percentile(latencies, 0.95),
                writers * ops};
  return row;
}

/// Journal: write + wait_durable(own sequence); concurrent writers share
/// group-commit fsyncs.
RowResult bench_journal(const std::string& path, std::size_t writers,
                        std::size_t ops, std::chrono::microseconds linger,
                        std::chrono::microseconds spin) {
  storage::JournalOptions options;
  options.max_delay = linger;
  options.spin_wait = spin;
  auto store =
      storage::JournaledBlockStore::create(path, kBlocks, kBlockSize, options);
  if (!store.is_ok()) {
    std::cerr << "create failed: " << store.status().to_string() << '\n';
    std::exit(1);
  }
  const auto payload = pattern(0xA5);
  auto [seconds, latencies] =
      drive(writers, ops, [&](std::size_t w, std::size_t i) {
        const auto block = static_cast<storage::BlockId>(
            (w * 17 + i) % kBlocks);
        if (!store.value()->write(block, payload, i + 1).is_ok()) std::abort();
        if (!store.value()
                 ->wait_durable(store.value()->last_sequence())
                 .is_ok()) {
          std::abort();
        }
      });
  RowResult row{"journal", writers, writers * ops, seconds,
                percentile(latencies, 0.50), percentile(latencies, 0.95),
                store.value()->commit_batches()};
  return row;
}

void cleanup(const std::string& path) {
  std::error_code ignored;
  std::filesystem::remove(path, ignored);
  std::filesystem::remove(storage::JournaledBlockStore::journal_path(path),
                          ignored);
}

}  // namespace

int main(int argc, char** argv) {
  FlagSet flags;
  flags.add_int("iters", 256, "durable writes per writer per configuration");
  flags.add_int("rounds", 9,
                "timed pairs (per-op fsync + journal) per writer count; the "
                "gate takes the median per-pair ratio");
  flags.add_bool("smoke", false,
                 "128 writes per writer, enough for a 16-writer pair to take "
                 "about 100 ms (CI smoke run)");
  flags.add_bool("csv", false, "emit CSV");
  flags.add_string("json", "", "write a machine-readable summary to this path");
  flags.add_string("dir", ".",
                   "directory for the bench stores (use a real filesystem; "
                   "/tmp is often tmpfs and fakes the fsync cost)");
  flags.add_int("linger-us", 100,
                "group-commit leader linger before flushing (microseconds); "
                "lets a commit batch collect the whole contending writer set");
  flags.add_int("spin-us", 1000,
                "commit waiter spin before blocking (microseconds); dedicated "
                "writer threads pick up the leader's publication without a "
                "futex wake per operation");
  if (auto status = flags.parse(argc, argv); !status.is_ok()) {
    std::cerr << status.to_string() << '\n';
    return 1;
  }
  if (flags.help_requested()) {
    std::cout << flags.usage("wal_iops");
    return 0;
  }
  const auto ops = static_cast<std::size_t>(
      flags.get_bool("smoke") ? 128 : flags.get_int("iters"));
  const std::string dir = flags.get_string("dir");
  const std::string path =
      (std::filesystem::path(dir) / "wal_iops_bench.rdev").string();

  const std::chrono::microseconds linger{flags.get_int("linger-us")};
  const std::chrono::microseconds spin{flags.get_int("spin-us")};
  const auto rounds =
      static_cast<std::size_t>(std::max<std::int64_t>(flags.get_int("rounds"), 1));

  std::vector<RowResult> rows;
  std::vector<double> ratios16;  // per-pair ratios at 16 writers, run order
  double speedup = 0;            // their median
  for (const std::size_t writers : {std::size_t{1}, std::size_t{16}}) {
    const auto run_file = [&] {
      cleanup(path);
      return bench_file(path, writers, ops);
    };
    // A lone writer gains nothing from lingering (there is nobody to
    // share the fsync with), so the 1-writer journal row runs without it.
    const auto run_journal = [&] {
      cleanup(path);
      return bench_journal(
          path, writers, ops,
          writers > 1 ? linger : std::chrono::microseconds{0}, spin);
    };
    std::vector<std::pair<RowResult, RowResult>> pairs;  // {file, journal}
    for (std::size_t round = 0; round < rounds; ++round) {
      if (round % 2 == 0) {
        RowResult file = run_file();
        pairs.emplace_back(file, run_journal());
      } else {
        RowResult journal = run_journal();
        pairs.emplace_back(run_file(), journal);
      }
    }
    const auto ratio = [](const std::pair<RowResult, RowResult>& pair) {
      return pair.second.iops() / pair.first.iops();
    };
    if (writers == 16) {
      for (const auto& pair : pairs) ratios16.push_back(ratio(pair));
    }
    // Lower median: with an even round count the gate takes the worse of
    // the two middle pairs.
    std::sort(pairs.begin(), pairs.end(), [&](const auto& a, const auto& b) {
      return ratio(a) < ratio(b);
    });
    const auto& median = pairs[(pairs.size() - 1) / 2];
    rows.push_back(median.first);
    rows.push_back(median.second);
    if (writers == 16) speedup = ratio(median);
  }
  cleanup(path);

  TextTable table({"mode", "writers", "ops", "IOPS", "p50 (us)", "p95 (us)",
                   "fsyncs", "ops/fsync"});
  table.set_title(
      "WAL: durable 4K writes, per-operation fsync vs write-ahead journal "
      "with group commit");
  for (const auto& row : rows) {
    table.add_row(
        {row.mode, std::to_string(row.writers), std::to_string(row.total_ops),
         TextTable::fmt(row.iops(), 0), TextTable::fmt(row.p50_us, 1),
         TextTable::fmt(row.p95_us, 1), std::to_string(row.fsyncs),
         TextTable::fmt(static_cast<double>(row.total_ops) /
                            static_cast<double>(std::max<std::uint64_t>(
                                row.fsyncs, 1)),
                        1)});
  }
  if (flags.get_bool("csv")) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }

  const RowResult& file16 = rows[2];
  const RowResult& wal16 = rows[3];

  if (const std::string json = flags.get_string("json"); !json.empty()) {
    std::ofstream out(json);
    if (!out) {
      std::cerr << "cannot write " << json << '\n';
      return 1;
    }
    out << "{\n  \"bench\": \"wal_iops\",\n  \"block_size\": " << kBlockSize
        << ",\n  \"ops_per_writer\": " << ops
        << ",\n  \"rounds\": " << rounds
        << ",\n  \"speedup_16_writers\": " << speedup
        << ",\n  \"pair_ratios_16_writers\": [";
    for (std::size_t i = 0; i < ratios16.size(); ++i) {
      out << (i > 0 ? ", " : "") << ratios16[i];
    }
    out << "],\n  \"results\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const auto& row = rows[i];
      out << "    {\"mode\": \"" << row.mode
          << "\", \"writers\": " << row.writers
          << ", \"ops\": " << row.total_ops << ", \"iops\": " << row.iops()
          << ", \"p50_us\": " << row.p50_us << ", \"p95_us\": " << row.p95_us
          << ", \"fsyncs\": " << row.fsyncs << "}"
          << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
  }

  std::cout << "journal / per-op-fsync IOPS per pair at 16 writers:";
  for (const double r : ratios16) std::cout << ' ' << TextTable::fmt(r, 2);
  std::cout << '\n';

  // Acceptance: group commit must amortize the fsync across the contending
  // writer set — >= 3x sustained IOPS at 16 writers, median pair.
  const bool speed_ok = speedup >= 3.0;
  std::cout << (speed_ok ? "PASS" : "FAIL") << ": journal IOPS at 16 writers ("
            << TextTable::fmt(wal16.iops(), 0) << ") >= 3x per-op fsync ("
            << TextTable::fmt(file16.iops(), 0) << "), median pair speedup "
            << TextTable::fmt(speedup, 2) << "x over " << rounds
            << " pairs\n";
  return speed_ok ? 0 : 1;
}

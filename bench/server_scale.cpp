// SCALE: concurrent-connection scaling of the production TCP server.
// A non-blocking load generator (two threads, each with a private epoll
// set, so 4k client connections don't need 4k threads) drives closed-loop
// StateInquiry round trips over C concurrent connections against
// TcpServer — the configuration the daemon runs — and reports ops/sec
// and p50/p99 latency per rung. The handler replies at once, so this is a
// close-up of the server's framing, epoll hand-off between workers and
// reply path, not of replica work. Gate: every rung completes without a
// connection error.
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <atomic>
#include <chrono>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "reldev/net/tcp/tcp_client.hpp"
#include "reldev/net/tcp/tcp_server.hpp"
#include "reldev/util/flags.hpp"
#include "reldev/util/serial.hpp"
#include "reldev/util/table.hpp"

using namespace reldev;
using namespace std::chrono_literals;
using Clock = std::chrono::steady_clock;

namespace {

/// Replies StateInfo immediately — the server-side cost under test is
/// framing + dispatch, not handler work.
class InquiryHandler : public net::MessageHandler {
 public:
  net::Message handle(const net::Message&) override {
    return net::Message{0, net::StateInfo{net::SiteState::kAvailable, 1, {}}};
  }
  void handle_oneway(const net::Message&) override {}
};

/// The serialized request frame every connection replays.
std::vector<std::byte> build_request_frame() {
  const std::vector<std::byte> payload =
      net::Message{0, net::StateInquiry{}}.encode();
  const auto prefix = net::tcp::encode_frame_prefix(payload.size());
  BufferWriter writer(net::tcp::kFramePrefixSize + payload.size() +
                      net::tcp::kFrameTrailerSize);
  writer.put_raw(prefix);
  writer.put_raw(payload);
  writer.put_u32(net::tcp::frame_crc(prefix, payload));
  return {writer.bytes().begin(), writer.bytes().end()};
}

struct Summary {
  double ops_per_sec = 0;
  double p50_us = 0;
  double p99_us = 0;
  std::uint64_t ops = 0;
  std::uint64_t errors = 0;
};

/// Closed-loop load generator: C connections spread over a few generator
/// threads, each with a private edge-triggered epoll set, each connection
/// running write-request → read-reply → repeat. Latencies are recorded
/// only while `recording_` is set, so warmup rounds (connection
/// establishment, server-side buffer pools filling) stay out of the
/// percentiles.
class LoadGen {
 public:
  LoadGen(std::uint16_t port, std::size_t connections, std::size_t shard_count)
      : port_(port), connections_(connections), frame_(build_request_frame()) {
    for (std::size_t i = 0; i < shard_count; ++i) {
      shards_.push_back(std::make_unique<Shard>());
    }
  }

  [[nodiscard]] Status connect_all() {
    for (std::size_t i = 0; i < connections_; ++i) {
      auto socket = net::tcp::Socket::connect("127.0.0.1", port_, 5000ms);
      if (!socket.is_ok()) return socket.status();
      if (auto status = socket.value().set_nonblocking(true); !status.is_ok()) {
        return status;
      }
      auto conn = std::make_unique<Conn>();
      conn->socket = std::move(socket.value());
      shards_[i % shards_.size()]->conns.push_back(std::move(conn));
    }
    return Status::ok();
  }

  void start() {
    for (auto& shard : shards_) {
      shard->thread = std::thread([this, raw = shard.get()] { run(*raw); });
    }
  }

  void set_recording(bool on) { recording_.store(on); }

  /// Stop issuing new requests, join the generator threads (each closes its
  /// connections), and aggregate the samples taken over `measured_seconds`.
  [[nodiscard]] Summary finish(double measured_seconds) {
    stop_.store(true);
    for (auto& shard : shards_) shard->thread.join();

    Summary summary;
    std::vector<double> latencies;
    for (auto& shard : shards_) {
      summary.errors += shard->errors;
      for (auto& conn : shard->conns) {
        latencies.insert(latencies.end(), conn->latencies.begin(),
                         conn->latencies.end());
      }
    }
    summary.ops = latencies.size();
    summary.ops_per_sec =
        measured_seconds > 0 ? static_cast<double>(summary.ops) / measured_seconds : 0;
    if (!latencies.empty()) {
      std::sort(latencies.begin(), latencies.end());
      const auto at = [&](double q) {
        const auto idx = static_cast<std::size_t>(
            q * static_cast<double>(latencies.size() - 1));
        return latencies[idx];
      };
      summary.p50_us = at(0.50);
      summary.p99_us = at(0.99);
    }
    return summary;
  }

 private:
  struct Conn {
    net::tcp::Socket socket;
    std::size_t write_off = 0;
    std::vector<std::byte> got;           // reply bytes accumulated so far
    std::array<std::byte, 4096> scratch;  // recv landing zone
    Clock::time_point op_start;
    std::vector<double> latencies;  // µs, recorded while recording_ is set
    bool closed = false;
  };
  struct Shard {
    std::thread thread;
    std::vector<std::unique_ptr<Conn>> conns;  // generator-thread-only
    std::uint64_t errors = 0;
  };

  /// One generator thread: register every connection once (edge-triggered,
  /// both directions), start its first request, then drive whichever
  /// connection has an edge until stop_ is set. The 50 ms wait bound is how
  /// the thread notices stop_.
  void run(Shard& shard) {
    const int epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    if (epoll_fd < 0) {
      shard.errors += shard.conns.size();
      return;
    }
    for (auto& conn : shard.conns) {
      epoll_event ev{};
      ev.events = EPOLLIN | EPOLLOUT | EPOLLET;
      ev.data.ptr = conn.get();
      if (::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, conn->socket.fd(), &ev) < 0) {
        fail(shard, *conn);
        continue;
      }
      conn->op_start = Clock::now();
      drive(shard, *conn);
    }
    std::array<epoll_event, 128> events;
    while (!stop_.load(std::memory_order_relaxed)) {
      const int n = ::epoll_wait(epoll_fd, events.data(),
                                 static_cast<int>(events.size()), 50);
      for (int i = 0; i < n; ++i) {
        drive(shard, *static_cast<Conn*>(events[static_cast<std::size_t>(i)]
                                             .data.ptr));
      }
    }
    for (auto& conn : shard.conns) close_conn(*conn);
    ::close(epoll_fd);
  }

  /// Push one connection as far as it goes without blocking: write the
  /// request, read the reply, record it, start the next. Returns at EAGAIN
  /// (the next edge resumes it) or when the connection fails.
  void drive(Shard& shard, Conn& conn) {
    while (!conn.closed) {
      const int fd = conn.socket.fd();
      if (conn.write_off < frame_.size()) {
        const ssize_t n = ::send(fd, frame_.data() + conn.write_off,
                                 frame_.size() - conn.write_off, MSG_NOSIGNAL);
        if (n < 0 && errno == EINTR) continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
        if (n < 0) {
          fail(shard, conn);
          return;
        }
        conn.write_off += static_cast<std::size_t>(n);
        continue;
      }
      const ssize_t n = ::recv(fd, conn.scratch.data(), conn.scratch.size(), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      if (n <= 0) {
        fail(shard, conn);
        return;
      }
      conn.got.insert(conn.got.end(), conn.scratch.begin(),
                      conn.scratch.begin() + n);
      if (!reply_complete(shard, conn)) continue;
      if (recording_.load(std::memory_order_relaxed)) {
        conn.latencies.push_back(
            std::chrono::duration<double, std::micro>(Clock::now() -
                                                      conn.op_start)
                .count());
      }
      if (stop_.load(std::memory_order_relaxed)) return;
      conn.op_start = Clock::now();
      conn.write_off = 0;
      conn.got.clear();
    }
  }

  /// Whether `conn.got` holds a whole reply frame; a bad prefix fails the
  /// connection.
  bool reply_complete(Shard& shard, Conn& conn) {
    if (conn.got.size() < net::tcp::kFramePrefixSize) return false;
    const auto length = net::tcp::parse_frame_prefix(
        std::span<const std::byte>(conn.got.data(),
                                   net::tcp::kFramePrefixSize));
    if (!length.is_ok()) {
      fail(shard, conn);
      return false;
    }
    return conn.got.size() >= net::tcp::kFramePrefixSize + length.value() +
                                  net::tcp::kFrameTrailerSize;
  }

  void fail(Shard& shard, Conn& conn) {
    if (!conn.closed && !stop_.load(std::memory_order_relaxed)) {
      ++shard.errors;
    }
    close_conn(conn);
  }

  static void close_conn(Conn& conn) {
    if (conn.closed) return;
    conn.closed = true;
    conn.socket.close();
  }

  const std::uint16_t port_;
  const std::size_t connections_;
  const std::vector<std::byte> frame_;
  std::atomic<bool> recording_{false};
  std::atomic<bool> stop_{false};
  std::vector<std::unique_ptr<Shard>> shards_;
};

/// One rung: start a server, drive `clients` connections for the
/// configured interval, return the aggregated summary.
Result<Summary> run_rung(std::size_t clients, std::chrono::milliseconds warmup,
                         std::chrono::milliseconds duration) {
  InquiryHandler handler;
  auto server = net::tcp::TcpServer::start(0, &handler);
  if (!server.is_ok()) return server.status();

  // Two generator shards: enough to keep the loopback busy without the
  // generator itself becoming a thread-scaling experiment.
  LoadGen gen(server.value()->port(), clients, 2);
  if (auto status = gen.connect_all(); !status.is_ok()) return status;
  gen.start();
  std::this_thread::sleep_for(warmup);
  gen.set_recording(true);
  std::this_thread::sleep_for(duration);
  gen.set_recording(false);
  Summary summary = gen.finish(
      std::chrono::duration<double>(duration).count());
  server.value()->stop();
  return summary;
}

}  // namespace

int main(int argc, char** argv) {
  FlagSet flags;
  flags.add_int("duration-ms", 2000, "measured interval per rung");
  flags.add_int("warmup-ms", 400, "unrecorded warmup per rung");
  flags.add_int("clients", 0, "run only this rung (0 = the standard ladder)");
  flags.add_bool("smoke", false, "small ladder and short intervals (CI)");
  flags.add_bool("csv", false, "emit CSV");
  flags.add_string("json", "", "write a machine-readable summary to this path");
  if (auto status = flags.parse(argc, argv); !status.is_ok()) {
    std::cerr << status.to_string() << '\n';
    return 1;
  }
  if (flags.help_requested()) {
    std::cout << flags.usage("server_scale");
    return 0;
  }
  const bool smoke = flags.get_bool("smoke");
  const auto duration =
      std::chrono::milliseconds(smoke ? 600 : flags.get_int("duration-ms"));
  const auto warmup =
      std::chrono::milliseconds(smoke ? 200 : flags.get_int("warmup-ms"));
  std::vector<std::size_t> ladder{16, 256, 1000, 4000};
  if (smoke) ladder = {16, 256};
  if (const auto only = flags.get_int("clients"); only > 0) {
    ladder = {static_cast<std::size_t>(only)};
  }

  TextTable table(
      {"clients", "ops/sec", "p50 (us)", "p99 (us)", "ops", "errors"});
  table.set_title(
      "SCALE: closed-loop StateInquiry round trips at C concurrent "
      "connections against the production server");

  struct Row {
    std::size_t clients;
    Summary summary;
  };
  std::vector<Row> rows;
  for (const std::size_t clients : ladder) {
    auto summary = run_rung(clients, warmup, duration);
    if (!summary.is_ok()) {
      std::cerr << "rung " << clients
                << " failed: " << summary.status().to_string() << '\n';
      return 1;
    }
    rows.push_back(Row{clients, summary.value()});
    const Summary& s = summary.value();
    table.add_row({std::to_string(clients), TextTable::fmt(s.ops_per_sec, 0),
                   TextTable::fmt(s.p50_us, 0), TextTable::fmt(s.p99_us, 0),
                   std::to_string(s.ops), std::to_string(s.errors)});
  }

  if (const std::string path = flags.get_string("json"); !path.empty()) {
    std::ofstream out(path);
    if (!out) {
      std::cerr << "cannot write " << path << '\n';
      return 1;
    }
    out << "{\n  \"bench\": \"server_scale\",\n  \"duration_ms\": "
        << duration.count() << ",\n  \"results\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& row = rows[i];
      out << "    {\"clients\": " << row.clients << ", \"ops_per_sec\": "
          << row.summary.ops_per_sec << ", \"p50_us\": " << row.summary.p50_us
          << ", \"p99_us\": " << row.summary.p99_us
          << ", \"ops\": " << row.summary.ops
          << ", \"errors\": " << row.summary.errors << "}"
          << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
  }

  if (flags.get_bool("csv")) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }

  // Gate: every rung completes without a connection error. Throughput is
  // reported, not gated — an absolute bar would depend on the machine.
  bool ok = true;
  for (const Row& row : rows) {
    const bool pass = row.summary.errors == 0;
    ok = ok && pass;
    std::cout << (pass ? "PASS" : "FAIL") << ": " << row.clients
              << " clients, " << row.summary.errors << " errors\n";
  }
  return ok ? 0 : 1;
}

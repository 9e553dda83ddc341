// A reference load that measures how fast the host runs right now.
//
// On a shared machine the speed of the CPUs a run gets moves by 10-50% in
// steps that last from seconds to minutes, and every timing of the group
// moves with it. The probe is the benchmark's own code and never calls the
// library, so a change to the library cannot move it: thread pairs bounce a
// 4 KiB message over loopback TCP with blocking sockets, the same mix of
// socket calls, copies and thread wake-ups that dominates a replicated
// operation. Its round trips per second and its process CPU time per round
// trip are the host-speed indices. Run between measurement windows, with
// the clients stopped, it tracks the host as the group sees it.
#pragma once

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

namespace perfbench {

class HostProbe {
 public:
  /// Connects `pairs` loopback TCP connections, one per thread pair.
  explicit HostProbe(std::size_t pairs) {
    const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listener < 0) throw std::runtime_error("probe: socket");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof addr;
    const bool listening =
        ::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0 &&
        ::listen(listener, static_cast<int>(pairs)) == 0 &&
        ::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len) == 0;
    for (std::size_t i = 0; listening && i < pairs; ++i) {
      const int client = ::socket(AF_INET, SOCK_STREAM, 0);
      if (client < 0) break;
      if (::connect(client, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
        ::close(client);
        break;
      }
      const int server = ::accept(listener, nullptr, nullptr);
      if (server < 0) {
        ::close(client);
        break;
      }
      const int one = 1;
      for (const int fd : {client, server}) {
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      }
      links_.push_back({client, server});
    }
    ::close(listener);
    if (links_.size() != pairs) {
      close_all();
      throw std::runtime_error("probe: cannot connect over loopback");
    }
  }
  ~HostProbe() { close_all(); }
  HostProbe(const HostProbe&) = delete;
  HostProbe& operator=(const HostProbe&) = delete;

  struct Sample {
    double trips_per_s = 0;      ///< round trips of all pairs together
    double cpu_us_per_trip = 0;  ///< process CPU time per round trip
  };

  /// Bounces messages for about `seconds`. The process CPU time is charged
  /// to the probe, so run it only while everything else is quiet.
  Sample run(double seconds) {
    const double cpu_before = process_cpu_us();
    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> trips{0};
    std::atomic<bool> broken{false};
    std::vector<std::thread> threads;
    for (const auto& link : links_) {
      threads.emplace_back([&, fd = link[0]] {
        std::array<std::byte, kMessage> buf{};
        std::uint64_t mine = 0;
        for (;;) {
          const bool last = stop.load(std::memory_order_relaxed);
          buf[0] = std::byte{last ? std::uint8_t{1} : std::uint8_t{0}};
          if (!write_all(fd, buf) || !read_all(fd, buf)) {
            broken = true;
            break;
          }
          if (last) break;
          ++mine;
        }
        trips += mine;
      });
      threads.emplace_back([&, fd = link[1]] {
        std::array<std::byte, kMessage> buf{};
        for (;;) {
          if (!read_all(fd, buf) || !write_all(fd, buf)) {
            broken = true;
            break;
          }
          if (buf[0] != std::byte{0}) break;
        }
      });
    }
    const auto start = std::chrono::steady_clock::now();
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(seconds)));
    stop = true;
    const double elapsed = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    for (auto& thread : threads) thread.join();
    if (broken) throw std::runtime_error("probe: loopback connection failed");
    const auto n = static_cast<double>(trips.load());
    return {n / elapsed, (process_cpu_us() - cpu_before) / n};
  }

 private:
  static constexpr std::size_t kMessage = 4096;

  static double process_cpu_us() {
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    const auto us = [](const timeval& t) {
      return static_cast<double>(t.tv_sec) * 1e6 + static_cast<double>(t.tv_usec);
    };
    return us(ru.ru_utime) + us(ru.ru_stime);
  }

  static bool write_all(int fd, const std::array<std::byte, kMessage>& buf) {
    for (std::size_t done = 0; done < buf.size();) {
      const ssize_t n = ::send(fd, buf.data() + done, buf.size() - done, MSG_NOSIGNAL);
      if (n <= 0) return false;
      done += static_cast<std::size_t>(n);
    }
    return true;
  }
  static bool read_all(int fd, std::array<std::byte, kMessage>& buf) {
    for (std::size_t done = 0; done < buf.size();) {
      const ssize_t n = ::recv(fd, buf.data() + done, buf.size() - done, 0);
      if (n <= 0) return false;
      done += static_cast<std::size_t>(n);
    }
    return true;
  }
  void close_all() {
    for (const auto& link : links_) {
      ::close(link[0]);
      ::close(link[1]);
    }
    links_.clear();
  }

  std::vector<std::array<int, 2>> links_;
};

}  // namespace perfbench

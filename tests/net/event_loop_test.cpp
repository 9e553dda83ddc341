// EventLoop contract tests: one-shot ops, loop-thread arming,
// cancel-means-never-fires, cross-thread post/stop.
#include "reldev/net/tcp/event_loop.hpp"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <future>
#include <thread>
#include <vector>

#include "reldev/net/tcp/socket.hpp"

namespace reldev::net::tcp {
namespace {

using namespace std::chrono_literals;

class EventLoopTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto loop = EventLoop::create();
    ASSERT_TRUE(loop.is_ok()) << loop.status().to_string();
    loop_ = std::move(loop).value();
    thread_ = std::thread([this] { loop_->run(); });
  }

  void TearDown() override {
    if (loop_ != nullptr) loop_->stop();
    if (thread_.joinable()) thread_.join();
  }

  /// Run `fn` on the loop thread and wait for it to finish.
  void on_loop(EventLoop::Task fn) {
    std::promise<void> done;
    auto fut = done.get_future();
    loop_->post([&] {
      fn();
      done.set_value();
    });
    ASSERT_EQ(fut.wait_for(5s), std::future_status::ready);
  }

  std::unique_ptr<EventLoop> loop_;
  std::thread thread_;
};

TEST_F(EventLoopTest, PostRunsTaskOnLoopThread) {
  std::atomic<bool> ran{false};
  std::thread::id loop_tid;
  on_loop([&] {
    loop_tid = std::this_thread::get_id();
    ran = true;
  });
  EXPECT_TRUE(ran.load());
  EXPECT_EQ(loop_tid, thread_.get_id());
  EXPECT_NE(loop_tid, std::this_thread::get_id());
}

TEST_F(EventLoopTest, AcceptReadWriteRoundTrip) {
  auto acceptor = Acceptor::listen(0);
  ASSERT_TRUE(acceptor.is_ok());
  ASSERT_TRUE(acceptor.value().set_nonblocking(true).is_ok());

  std::promise<int> accepted;
  auto accepted_fut = accepted.get_future();
  on_loop([&] {
    loop_->async_accept(acceptor.value().fd(), [&](Result<int> fd) {
      ASSERT_TRUE(fd.is_ok()) << fd.status().to_string();
      accepted.set_value(fd.value());
    });
  });

  auto client = Socket::connect("127.0.0.1", acceptor.value().port(), 1s);
  ASSERT_TRUE(client.is_ok());
  ASSERT_EQ(accepted_fut.wait_for(5s), std::future_status::ready);
  const int server_fd = accepted_fut.get();

  // Echo one buffer through the loop: async_readv then async_writev.
  std::array<std::byte, 64> inbox{};
  std::promise<std::size_t> echoed;
  auto echoed_fut = echoed.get_future();
  on_loop([&] {
    iovec iov{inbox.data(), inbox.size()};
    loop_->async_readv(server_fd, std::span<const iovec>(&iov, 1),
                       [&, server_fd](Result<std::size_t> n) {
                         ASSERT_TRUE(n.is_ok()) << n.status().to_string();
                         iovec out{inbox.data(), n.value()};
                         loop_->async_writev(
                             server_fd, std::span<const iovec>(&out, 1),
                             [&](Result<std::size_t> wrote) {
                               ASSERT_TRUE(wrote.is_ok());
                               echoed.set_value(wrote.value());
                             });
                       });
  });

  const std::string message = "hello, reactor";
  ASSERT_TRUE(client.value()
                  .write_all(std::as_bytes(std::span(message.data(),
                                                     message.size())))
                  .is_ok());
  ASSERT_EQ(echoed_fut.wait_for(5s), std::future_status::ready);
  EXPECT_EQ(echoed_fut.get(), message.size());

  std::vector<std::byte> reply(message.size());
  ASSERT_TRUE(client.value().read_exact(reply).is_ok());
  EXPECT_EQ(std::memcmp(reply.data(), message.data(), message.size()), 0);
  on_loop([&] {
    loop_->cancel(server_fd);
    loop_->cancel(acceptor.value().fd());
  });
  ::close(server_fd);
}

TEST_F(EventLoopTest, ReadSeesEofAsZero) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0, fds), 0);
  std::promise<std::size_t> got;
  auto fut = got.get_future();
  std::array<std::byte, 16> buf{};
  on_loop([&] {
    iovec iov{buf.data(), buf.size()};
    loop_->async_readv(fds[0], std::span<const iovec>(&iov, 1),
                       [&](Result<std::size_t> n) {
                         ASSERT_TRUE(n.is_ok());
                         got.set_value(n.value());
                       });
  });
  ::close(fds[1]);
  ASSERT_EQ(fut.wait_for(5s), std::future_status::ready);
  EXPECT_EQ(fut.get(), 0u);
  on_loop([&] { loop_->cancel(fds[0]); });
  ::close(fds[0]);
}

TEST_F(EventLoopTest, ScatterGatherCoversAllIovecs) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0, fds), 0);
  const std::string a = "alpha";
  const std::string b = "beta";
  std::promise<std::size_t> wrote;
  auto wrote_fut = wrote.get_future();
  on_loop([&] {
    std::array<iovec, 2> iov{
        iovec{const_cast<char*>(a.data()), a.size()},
        iovec{const_cast<char*>(b.data()), b.size()},
    };
    loop_->async_writev(fds[0], iov, [&](Result<std::size_t> n) {
      ASSERT_TRUE(n.is_ok());
      wrote.set_value(n.value());
    });
  });
  ASSERT_EQ(wrote_fut.wait_for(5s), std::future_status::ready);
  EXPECT_EQ(wrote_fut.get(), a.size() + b.size());

  std::array<char, 16> half1{};
  std::array<char, 16> half2{};
  std::promise<std::size_t> read_back;
  auto read_fut = read_back.get_future();
  on_loop([&] {
    std::array<iovec, 2> iov{
        iovec{half1.data(), a.size()},
        iovec{half2.data(), b.size()},
    };
    loop_->async_readv(fds[1], iov, [&](Result<std::size_t> n) {
      ASSERT_TRUE(n.is_ok());
      read_back.set_value(n.value());
    });
  });
  ASSERT_EQ(read_fut.wait_for(5s), std::future_status::ready);
  EXPECT_EQ(read_fut.get(), a.size() + b.size());
  EXPECT_EQ(std::string(half1.data(), a.size()), a);
  EXPECT_EQ(std::string(half2.data(), b.size()), b);
  on_loop([&] {
    loop_->cancel(fds[0]);
    loop_->cancel(fds[1]);
  });
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST_F(EventLoopTest, CancelledOpNeverFiresItsHandler) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0, fds), 0);
  std::atomic<bool> fired{false};
  std::array<std::byte, 16> buf{};
  on_loop([&] {
    iovec iov{buf.data(), buf.size()};
    // Nothing is written to fds[1], so this read stays pending until the
    // cancel drops it.
    loop_->async_readv(fds[0], std::span<const iovec>(&iov, 1),
                       [&](Result<std::size_t>) { fired = true; });
    loop_->cancel(fds[0]);
  });
  // Write after cancelling; a surviving op would now complete. The pause
  // gives a cancelled-but-still-armed op time to misfire, and the loop
  // round trip after it brackets any such completion.
  const char byte = 'x';
  ASSERT_EQ(::write(fds[1], &byte, 1), 1);
  std::this_thread::sleep_for(50ms);
  on_loop([] {});
  EXPECT_FALSE(fired.load());
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST_F(EventLoopTest, StopFromAnotherThreadUnblocksRun) {
  // SetUp started run(); stopping here must make the thread joinable fast.
  loop_->stop();
  thread_.join();
  SUCCEED();
}

TEST_F(EventLoopTest, PartialWriteContinuation) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0, fds), 0);
  // Shrink the send buffer so a large write cannot complete in one syscall.
  const int small = 4096;
  ASSERT_EQ(::setsockopt(fds[0], SOL_SOCKET, SO_SNDBUF, &small, sizeof(small)),
            0);
  const std::vector<std::byte> blob(512 * 1024, std::byte{0xAB});
  std::atomic<std::size_t> sent{0};
  std::promise<void> all_sent;
  auto sent_fut = all_sent.get_future();

  // Writer state machine: re-arm with the remaining suffix on every
  // completion, exactly as the server's reply path does.
  std::function<void()> send_more = [&] {
    const std::size_t offset = sent.load();
    if (offset == blob.size()) {
      all_sent.set_value();
      return;
    }
    iovec iov{const_cast<std::byte*>(blob.data() + offset),
              blob.size() - offset};
    loop_->async_writev(fds[0], std::span<const iovec>(&iov, 1),
                        [&](Result<std::size_t> n) {
                          ASSERT_TRUE(n.is_ok()) << n.status().to_string();
                          sent += n.value();
                          send_more();
                        });
  };
  on_loop([&] { send_more(); });

  // Drain from a plain blocking thread.
  std::thread drainer([&] {
    std::vector<std::byte> sink(64 * 1024);
    std::size_t total = 0;
    while (total < blob.size()) {
      const ssize_t n = ::recv(fds[1], sink.data(), sink.size(), MSG_WAITALL);
      if (n <= 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) continue;
        break;
      }
      total += static_cast<std::size_t>(n);
    }
  });
  ASSERT_EQ(sent_fut.wait_for(10s), std::future_status::ready);
  EXPECT_EQ(sent.load(), blob.size());
  drainer.join();
  on_loop([&] { loop_->cancel(fds[0]); });
  ::close(fds[0]);
  ::close(fds[1]);
}

}  // namespace
}  // namespace reldev::net::tcp

// Positive + negative cases for reldev-no-blocking-under-lock: blocking
// syscalls / sleeps lexically after a live
// reldev::MutexLock in an enclosing scope. `// expect-warning` marks the
// lines that must fire; all others must stay clean.
#include <chrono>
#include <cstddef>
#include <thread>

using ssize_t_ = long;
extern "C" {
ssize_t_ pread(int, void*, unsigned long, long);
ssize_t_ pwrite(int, const void*, unsigned long, long);
int fsync(int);
ssize_t_ send(int, const void*, unsigned long, int);
ssize_t_ recv(int, void*, unsigned long, int);
struct iovec;
struct epoll_event;
struct sockaddr;
ssize_t_ readv(int, const iovec*, int);
ssize_t_ writev(int, const iovec*, int);
int epoll_wait(int, epoll_event*, int, int);
int epoll_pwait(int, epoll_event*, int, int, const void*);
int accept4(int, sockaddr*, unsigned*, int);
}

namespace reldev {
class Mutex {};
class MutexLock {
 public:
  explicit MutexLock(Mutex&) {}
};
namespace lockdep {
class AllowBlocking {
 public:
  explicit AllowBlocking(const char*) {}
};
}  // namespace lockdep
}  // namespace reldev

reldev::Mutex g_mutex;
char g_buffer[16];

// ---- positive: blocking while the lock is live ----------------------------

void io_under_lock(int fd) {
  const reldev::MutexLock lock(g_mutex);
  pread(fd, g_buffer, sizeof(g_buffer), 0);                // expect-warning
  pwrite(fd, g_buffer, sizeof(g_buffer), 0);               // expect-warning
  fsync(fd);                                               // expect-warning
}

void socket_under_lock(int fd) {
  const reldev::MutexLock lock(g_mutex);
  send(fd, g_buffer, sizeof(g_buffer), 0);                 // expect-warning
  recv(fd, g_buffer, sizeof(g_buffer), 0);                 // expect-warning
}

void sleep_under_lock() {
  const reldev::MutexLock lock(g_mutex);
  std::this_thread::sleep_for(std::chrono::seconds(1));    // expect-warning
}

void vectored_io_under_lock(int fd) {
  const reldev::MutexLock lock(g_mutex);
  readv(fd, nullptr, 0);                                   // expect-warning
  writev(fd, nullptr, 0);                                  // expect-warning
}

void readiness_wait_under_lock(int epoll_fd, int listen_fd) {
  const reldev::MutexLock lock(g_mutex);
  epoll_wait(epoll_fd, nullptr, 1, -1);                    // expect-warning
  epoll_pwait(epoll_fd, nullptr, 1, -1, nullptr);          // expect-warning
  accept4(listen_fd, nullptr, nullptr, 0);                 // expect-warning
}

void lock_in_outer_scope(int fd) {
  const reldev::MutexLock lock(g_mutex);
  if (fd > 0) {
    fsync(fd);                                             // expect-warning
  }
}

// ---- negative: blocking outside the critical section ----------------------

void io_after_unlock(int fd) {
  {
    const reldev::MutexLock lock(g_mutex);
  }
  fsync(fd);
}

void io_before_lock(int fd) {
  fsync(fd);
  const reldev::MutexLock lock(g_mutex);
}

void io_without_lock(int fd) {
  pread(fd, g_buffer, sizeof(g_buffer), 0);
  std::this_thread::sleep_for(std::chrono::seconds(1));
}

void sanctioned_blocking(int fd) {
  const reldev::MutexLock lock(g_mutex);
  const reldev::lockdep::AllowBlocking allow("test: deliberate");
  fsync(fd);
}

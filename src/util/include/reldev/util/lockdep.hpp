// The blocking-under-lock rule: no pread/pwrite/fsync/send/recv/poll/sleep
// runs while the calling thread holds a reldev::Mutex (DESIGN.md §10
// convention 4). The raw-I/O and socket paths (storage/fd_io.hpp,
// net/tcp/socket.cpp, ...) call check_blocking() before they block; it
// reads the held-lock count every Mutex keeps for its thread
// (thread_annotations.hpp) and throws ContractViolation when the count is
// non-zero. Like every RELDEV_EXPECTS, the check runs in every build.
#pragma once

#include <string>

#include "reldev/util/assert.hpp"
#include "reldev/util/thread_annotations.hpp"

namespace reldev::lockdep {

/// Throws ContractViolation, naming the operation `what` ("fsync",
/// "recv", ...), if the calling thread holds any reldev::Mutex outside an
/// AllowBlocking scope.
inline void check_blocking(const char* what) {
  const ThreadLocks& locks = this_thread_locks;
  if (locks.held == 0 || locks.allow_blocking != 0) return;
  throw ContractViolation(std::string("blocking call under lock: ") + what +
                          " with " + std::to_string(locks.held) +
                          " reldev::Mutex held");
}

/// RAII: lets this thread block while holding a lock, for a region that
/// does so by design. Scopes nest. State the justification in `reason` at
/// the call site, so every exception is found by grepping for it.
class AllowBlocking {
 public:
  explicit AllowBlocking(const char* /*reason*/) noexcept {
    ++this_thread_locks.allow_blocking;
  }
  ~AllowBlocking() { --this_thread_locks.allow_blocking; }
  AllowBlocking(const AllowBlocking&) = delete;
  AllowBlocking& operator=(const AllowBlocking&) = delete;
};

}  // namespace reldev::lockdep

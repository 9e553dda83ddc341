// Clang Thread Safety Analysis support: capability attribute macros that
// compile to nothing on other compilers, plus annotated synchronization
// primitives (Mutex, MutexLock, CondVar) the whole library uses instead of
// raw std::mutex. With clang and -Wthread-safety the lock discipline —
// which mutex guards which field, which helpers require a lock already
// held — becomes a compile-time proof instead of something TSan has to
// catch dynamically (and only on the schedules a test happens to run).
//
// Conventions (see DESIGN.md §10):
//   * every shared mutable field carries RELDEV_GUARDED_BY(mutex_);
//   * private helpers that assume the lock is held are named *_locked()
//     and annotated RELDEV_REQUIRES(mutex_);
//   * public entry points that take the lock themselves are annotated
//     RELDEV_EXCLUDES(mutex_) so calling them with the lock held is a
//     compile error (self-deadlock caught statically);
//   * long-running work (network calls, sleeps, user callbacks) is never
//     performed while holding a Mutex.
//
// Two lock rules are also checked at run time, in every build (each Mutex
// counts the locks its thread holds; see lockdep.hpp): no blocking syscall
// while a Mutex is held, and no CondVar wait while a lock other than the
// waited one is held. Nesting is legal; lock order is TSan's to check.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "reldev/util/assert.hpp"

// ---------------------------------------------------------------------------
// Attribute macros. Real attributes under clang; no-ops everywhere else, so
// GCC builds are untouched and annotation mistakes cannot break tier-1.
// ---------------------------------------------------------------------------

#if defined(__clang__)
#define RELDEV_THREAD_ANNOTATION__(x) __attribute__((x))
#else
#define RELDEV_THREAD_ANNOTATION__(x)
#endif

/// Marks a type as a capability (a lock, in this library).
#define RELDEV_CAPABILITY(x) RELDEV_THREAD_ANNOTATION__(capability(x))

/// Marks an RAII type that acquires a capability in its constructor and
/// releases it in its destructor.
#define RELDEV_SCOPED_CAPABILITY RELDEV_THREAD_ANNOTATION__(scoped_lockable)

/// The field is only read or written while holding the given mutex.
#define RELDEV_GUARDED_BY(x) RELDEV_THREAD_ANNOTATION__(guarded_by(x))

/// The pointee is only dereferenced while holding the given mutex.
#define RELDEV_PT_GUARDED_BY(x) RELDEV_THREAD_ANNOTATION__(pt_guarded_by(x))

/// The function must be called with the given capabilities held.
#define RELDEV_REQUIRES(...) \
  RELDEV_THREAD_ANNOTATION__(requires_capability(__VA_ARGS__))
#define RELDEV_REQUIRES_SHARED(...) \
  RELDEV_THREAD_ANNOTATION__(requires_shared_capability(__VA_ARGS__))

/// The function acquires / releases the given capabilities itself.
#define RELDEV_ACQUIRE(...) \
  RELDEV_THREAD_ANNOTATION__(acquire_capability(__VA_ARGS__))
#define RELDEV_RELEASE(...) \
  RELDEV_THREAD_ANNOTATION__(release_capability(__VA_ARGS__))

/// The function must be called with the given capabilities NOT held.
#define RELDEV_EXCLUDES(...) \
  RELDEV_THREAD_ANNOTATION__(locks_excluded(__VA_ARGS__))

/// Runtime claim that the capability is held; the analysis trusts it from
/// here on. Our Mutex::assert_held() backs the claim with a real check.
#define RELDEV_ASSERT_CAPABILITY(x) \
  RELDEV_THREAD_ANNOTATION__(assert_capability(x))

/// The function returns a reference to the given capability.
#define RELDEV_RETURN_CAPABILITY(x) RELDEV_THREAD_ANNOTATION__(lock_returned(x))

/// Escape hatch: the function's lock discipline is intentionally outside
/// what the analysis can follow. Use sparingly and say why at the site.
#define RELDEV_NO_THREAD_SAFETY_ANALYSIS \
  RELDEV_THREAD_ANNOTATION__(no_thread_safety_analysis)

namespace reldev {

namespace lockdep {

/// The calling thread's lock bookkeeping behind the run-time lock rules.
struct ThreadLocks {
  int held = 0;            // reldev::Mutex-es this thread holds
  int allow_blocking = 0;  // open lockdep::AllowBlocking scopes
};
inline thread_local ThreadLocks this_thread_locks;

/// Number of reldev::Mutex-es the calling thread currently holds.
[[nodiscard]] inline int held_count() noexcept {
  return this_thread_locks.held;
}

}  // namespace lockdep

// ---------------------------------------------------------------------------
// Annotated primitives.
// ---------------------------------------------------------------------------

/// std::mutex with the capability attribute and a real assert_held(). The
/// holder is tracked with one relaxed atomic store per lock/unlock, and the
/// thread's held-lock count with one thread_local add — cheap enough to
/// keep in every build. assert_held() turns RELDEV_ASSERT_CAPABILITY from
/// a pure compile-time claim into a runtime contract check
/// (ContractViolation on failure, like every other contract in this
/// library).
class RELDEV_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  /// Names the mutex at its declaration ("ScrubDaemon.mutex"), for the
  /// reader; the name is not stored.
  explicit Mutex(const char* /*name*/) {}
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() RELDEV_ACQUIRE() {
    mutex_.lock();
    holder_.store(std::this_thread::get_id(), std::memory_order_relaxed);
    ++lockdep::this_thread_locks.held;
  }

  void unlock() RELDEV_RELEASE() {
    --lockdep::this_thread_locks.held;
    holder_.store(std::thread::id{}, std::memory_order_relaxed);
    mutex_.unlock();
  }

  /// True iff the calling thread currently holds this mutex.
  [[nodiscard]] bool held_by_caller() const noexcept {
    return holder_.load(std::memory_order_relaxed) ==
           std::this_thread::get_id();
  }

  /// Contract check: the calling thread holds the lock. Under clang this
  /// also tells the analysis the capability is held from here on.
  void assert_held() const RELDEV_ASSERT_CAPABILITY(this) {
    RELDEV_ASSERT(held_by_caller());
  }

 private:
  friend class CondVar;

  std::mutex mutex_;
  std::atomic<std::thread::id> holder_{};
};

/// RAII lock over a Mutex (the annotated lock_guard). The scoped-capability
/// attribute lets the analysis treat the guard's lifetime as the span the
/// mutex is held.
class RELDEV_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mutex) RELDEV_ACQUIRE(mutex) : mutex_(mutex) {
    mutex_.lock();
  }
  ~MutexLock() RELDEV_RELEASE() { mutex_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mutex_;
};

/// Condition variable usable with Mutex. Waits are annotated REQUIRES: the
/// caller must hold the mutex, and (as with std::condition_variable) the
/// wait releases it while sleeping and reacquires before returning.
/// Waiting while holding any other lock is a contract violation: that lock
/// would stay held for the whole sleep.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void wait(Mutex& mutex) RELDEV_REQUIRES(mutex) {
    RELDEV_EXPECTS(mutex.held_by_caller() && lockdep::held_count() == 1);
    std::unique_lock<std::mutex> native(mutex.mutex_, std::adopt_lock);
    mutex.holder_.store(std::thread::id{}, std::memory_order_relaxed);
    cv_.wait(native);
    mutex.holder_.store(std::this_thread::get_id(),
                        std::memory_order_relaxed);
    native.release();  // the caller's MutexLock still owns the mutex
  }

  /// Returns false if `timeout` elapsed without a notification.
  template <typename Rep, typename Period>
  bool wait_for(Mutex& mutex, std::chrono::duration<Rep, Period> timeout)
      RELDEV_REQUIRES(mutex) {
    RELDEV_EXPECTS(mutex.held_by_caller() && lockdep::held_count() == 1);
    std::unique_lock<std::mutex> native(mutex.mutex_, std::adopt_lock);
    mutex.holder_.store(std::thread::id{}, std::memory_order_relaxed);
    const auto status = cv_.wait_for(native, timeout);
    mutex.holder_.store(std::this_thread::get_id(),
                        std::memory_order_relaxed);
    native.release();
    return status == std::cv_status::no_timeout;
  }

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace reldev

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
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "reldev/util/assert.hpp"

// With RELDEV_LOCKDEP (cmake option; Debug/CI builds) every Mutex also
// feeds the runtime lock-order checker: mutexes get *class* identities
// (an explicit name, or the construction site), acquisitions build a
// global ordering graph with cycle detection, and the raw-I/O paths
// refuse to block while a lock is held. See lockdep.hpp / DESIGN.md §15.
#if defined(RELDEV_LOCKDEP)
#include <source_location>

#include "reldev/util/lockdep.hpp"
#endif

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

/// Lock-ordering declarations between mutexes (deadlock prevention).
#define RELDEV_ACQUIRED_BEFORE(...) \
  RELDEV_THREAD_ANNOTATION__(acquired_before(__VA_ARGS__))
#define RELDEV_ACQUIRED_AFTER(...) \
  RELDEV_THREAD_ANNOTATION__(acquired_after(__VA_ARGS__))

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
#define RELDEV_TRY_ACQUIRE(...) \
  RELDEV_THREAD_ANNOTATION__(try_acquire_capability(__VA_ARGS__))

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

// ---------------------------------------------------------------------------
// Annotated primitives.
// ---------------------------------------------------------------------------

/// std::mutex with the capability attribute and a real assert_held(). The
/// holder is tracked with one relaxed atomic store per lock/unlock — cheap
/// enough to keep in every build, and it turns RELDEV_ASSERT_CAPABILITY
/// from a pure compile-time claim into a runtime contract check
/// (ContractViolation on failure, like every other contract in this
/// library).
class RELDEV_CAPABILITY("mutex") Mutex {
 public:
#if defined(RELDEV_LOCKDEP)
  /// Lockdep class identity: mutexes sharing a `name` (or, unnamed, a
  /// construction site) form one class, so one run's ordering facts
  /// generalize over every instance. Name long-lived mutexes after their
  /// owner ("ScrubDaemon.mutex"); locals may rely on the site default.
  explicit Mutex(const char* name = nullptr,
                 std::source_location site = std::source_location::current())
      : ld_name_(name), ld_file_(site.file_name()), ld_line_(site.line()) {}
#else
  Mutex() = default;
  /// Lockdep class name; inert in this configuration (kept so naming a
  /// mutex does not need an #ifdef at the declaration site).
  explicit Mutex(const char* /*name*/) {}
#endif
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

#if defined(RELDEV_LOCKDEP)
  void lock(std::source_location site = std::source_location::current())
      RELDEV_ACQUIRE() {
    const std::uint32_t cls = ld_class();
    lockdep::pre_acquire(this, cls, site.file_name(), site.line());
    mutex_.lock();
    holder_.store(std::this_thread::get_id(), std::memory_order_relaxed);
    lockdep::post_acquire(this, cls, site.file_name(), site.line());
  }

  void unlock() RELDEV_RELEASE() {
    lockdep::note_release(this);
    holder_.store(std::thread::id{}, std::memory_order_relaxed);
    mutex_.unlock();
  }

  [[nodiscard]] bool try_lock(
      std::source_location site = std::source_location::current())
      RELDEV_TRY_ACQUIRE(true) {
    if (!mutex_.try_lock()) return false;
    holder_.store(std::this_thread::get_id(), std::memory_order_relaxed);
    // A try-lock can never participate in a deadlock (it backs off), so
    // no pre_acquire ordering check — but it is held from here on, so it
    // does join the stack for later edges and blocking checks.
    lockdep::post_acquire(this, ld_class(), site.file_name(), site.line());
    return true;
  }
#else
  void lock() RELDEV_ACQUIRE() {
    mutex_.lock();
    holder_.store(std::this_thread::get_id(), std::memory_order_relaxed);
  }

  void unlock() RELDEV_RELEASE() {
    holder_.store(std::thread::id{}, std::memory_order_relaxed);
    mutex_.unlock();
  }

  [[nodiscard]] bool try_lock() RELDEV_TRY_ACQUIRE(true) {
    if (!mutex_.try_lock()) return false;
    holder_.store(std::this_thread::get_id(), std::memory_order_relaxed);
    return true;
  }
#endif

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

#if defined(RELDEV_LOCKDEP)
  /// Lazily interned lockdep class id (0 = not yet registered). Racing
  /// registrations are benign: register_class is idempotent per key.
  std::uint32_t ld_class() noexcept {
    std::uint32_t cls = ld_class_.load(std::memory_order_acquire);
    if (cls == 0) {
      cls = lockdep::register_class(ld_name_, ld_file_, ld_line_);
      ld_class_.store(cls, std::memory_order_release);
    }
    return cls;
  }

  const char* ld_name_;
  const char* ld_file_;
  unsigned ld_line_;
  std::atomic<std::uint32_t> ld_class_{0};
#endif

  std::mutex mutex_;
  std::atomic<std::thread::id> holder_{};
};

/// RAII lock over a Mutex (the annotated lock_guard). The scoped-capability
/// attribute lets the analysis treat the guard's lifetime as the span the
/// mutex is held.
class RELDEV_SCOPED_CAPABILITY MutexLock {
 public:
#if defined(RELDEV_LOCKDEP)
  /// The guard's construction site is the acquisition site lockdep shows
  /// in held-lock chains (source_location defaults to the caller).
  explicit MutexLock(Mutex& mutex,
                     std::source_location site = std::source_location::current())
      RELDEV_ACQUIRE(mutex)
      : mutex_(mutex) {
    mutex_.lock(site);
  }
#else
  explicit MutexLock(Mutex& mutex) RELDEV_ACQUIRE(mutex) : mutex_(mutex) {
    mutex_.lock();
  }
#endif
  ~MutexLock() RELDEV_RELEASE() { mutex_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mutex_;
};

/// Condition variable usable with Mutex. Waits are annotated REQUIRES: the
/// caller must hold the mutex, and (as with std::condition_variable) the
/// wait releases it while sleeping and reacquires before returning.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void wait(Mutex& mutex) RELDEV_REQUIRES(mutex) {
    // Lockdep: the mutex leaves the held stack while the wait sleeps (it
    // really is released) and is re-pushed — with ordering re-checked —
    // on wake. Waiting with *other* locks held is reported.
#if defined(RELDEV_LOCKDEP)
    const lockdep::WaitToken token = lockdep::wait_begin(&mutex);
#endif
    std::unique_lock<std::mutex> native(mutex.mutex_, std::adopt_lock);
    mutex.holder_.store(std::thread::id{}, std::memory_order_relaxed);
    cv_.wait(native);
    mutex.holder_.store(std::this_thread::get_id(),
                        std::memory_order_relaxed);
    native.release();  // the caller's MutexLock still owns the mutex
#if defined(RELDEV_LOCKDEP)
    lockdep::wait_end(&mutex, token);
#endif
  }

  /// Returns false if `timeout` elapsed without a notification.
  template <typename Rep, typename Period>
  bool wait_for(Mutex& mutex, std::chrono::duration<Rep, Period> timeout)
      RELDEV_REQUIRES(mutex) {
#if defined(RELDEV_LOCKDEP)
    const lockdep::WaitToken token = lockdep::wait_begin(&mutex);
#endif
    std::unique_lock<std::mutex> native(mutex.mutex_, std::adopt_lock);
    mutex.holder_.store(std::thread::id{}, std::memory_order_relaxed);
    const auto status = cv_.wait_for(native, timeout);
    mutex.holder_.store(std::this_thread::get_id(),
                        std::memory_order_relaxed);
    native.release();
#if defined(RELDEV_LOCKDEP)
    lockdep::wait_end(&mutex, token);
#endif
    return status == std::cv_status::no_timeout;
  }

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace reldev

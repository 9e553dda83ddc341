#include "reldev/util/thread_annotations.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "reldev/util/assert.hpp"
#include "reldev/util/lockdep.hpp"

namespace reldev {
namespace {

TEST(MutexTest, LockUnlockTracksHolder) {
  Mutex mutex;
  EXPECT_FALSE(mutex.held_by_caller());
  mutex.lock();
  EXPECT_TRUE(mutex.held_by_caller());
  mutex.unlock();
  EXPECT_FALSE(mutex.held_by_caller());
}

TEST(MutexTest, AssertHeldPassesWhenHeld) {
  Mutex mutex;
  const MutexLock lock(mutex);
  EXPECT_NO_THROW(mutex.assert_held());
}

TEST(MutexTest, AssertHeldThrowsWhenNotHeld) {
  Mutex mutex;
  EXPECT_THROW(mutex.assert_held(), ContractViolation);
}

TEST(MutexTest, AssertHeldThrowsWhenHeldByAnotherThread) {
  // held_by_caller() is per-thread, not "is locked": holding the mutex on
  // one thread must not satisfy assert_held() on another.
  Mutex mutex;
  mutex.lock();
  bool threw = false;
  std::thread other([&] {
    try {
      mutex.assert_held();
    } catch (const ContractViolation&) {
      threw = true;
    }
  });
  other.join();
  mutex.unlock();
  EXPECT_TRUE(threw);
}

TEST(MutexTest, HolderClearedAfterUnlockEvenAcrossThreads) {
  Mutex mutex;
  std::thread other([&] {
    mutex.lock();
    mutex.unlock();
  });
  other.join();
  EXPECT_FALSE(mutex.held_by_caller());
  // And the mutex is genuinely free again.
  mutex.lock();
  EXPECT_TRUE(mutex.held_by_caller());
  mutex.unlock();
}

TEST(MutexTest, ProvidesMutualExclusion) {
  Mutex mutex;
  long counter = 0;
  constexpr int kThreads = 8;
  constexpr int kIncrements = 5000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIncrements; ++i) {
        const MutexLock lock(mutex);
        ++counter;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(counter, static_cast<long>(kThreads) * kIncrements);
}

TEST(MutexLockTest, ReleasesOnScopeExit) {
  Mutex mutex;
  {
    const MutexLock lock(mutex);
    EXPECT_TRUE(mutex.held_by_caller());
  }
  EXPECT_FALSE(mutex.held_by_caller());
  mutex.lock();
  EXPECT_TRUE(mutex.held_by_caller());
  mutex.unlock();
}

TEST(MutexLockTest, ReleasesWhenScopeExitsViaException) {
  Mutex mutex;
  try {
    const MutexLock lock(mutex);
    throw std::runtime_error("boom");
  } catch (const std::runtime_error&) {
  }
  EXPECT_FALSE(mutex.held_by_caller());
  mutex.lock();
  EXPECT_TRUE(mutex.held_by_caller());
  mutex.unlock();
}

TEST(CondVarTest, WaitReleasesMutexWhileBlockedAndReacquires) {
  Mutex mutex;
  CondVar cv;
  bool ready = false;
  std::thread waiter([&] {
    const MutexLock lock(mutex);
    while (!ready) cv.wait(mutex);
    // After wait returns the mutex is held again.
    mutex.assert_held();
  });
  // The waiter must let go of the mutex while blocked, or this lock would
  // deadlock.
  for (;;) {
    const MutexLock lock(mutex);
    if (!ready) {
      ready = true;
      cv.notify_one();
      break;
    }
  }
  waiter.join();
  EXPECT_TRUE(ready);
}

TEST(CondVarTest, WaitForTimesOutWithoutNotification) {
  Mutex mutex;
  CondVar cv;
  const MutexLock lock(mutex);
  const bool notified = cv.wait_for(mutex, std::chrono::milliseconds(5));
  EXPECT_FALSE(notified);
  // The mutex is reacquired even on timeout.
  EXPECT_TRUE(mutex.held_by_caller());
}

TEST(CondVarTest, WaitForReturnsTrueWhenNotified) {
  Mutex mutex;
  CondVar cv;
  bool stop = false;
  std::thread notifier([&] {
    for (;;) {
      {
        const MutexLock lock(mutex);
        if (stop) return;
      }
      cv.notify_all();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  bool notified = false;
  {
    const MutexLock lock(mutex);
    // Spurious wakeups cannot produce a false positive here: wait_for only
    // reports true on an actual notify.
    notified = cv.wait_for(mutex, std::chrono::seconds(10));
    stop = true;
  }
  notifier.join();
  EXPECT_TRUE(notified);
}

TEST(CondVarTest, NotifyAllWakesEveryWaiter) {
  Mutex mutex;
  CondVar cv;
  bool go = false;
  int awake = 0;
  constexpr int kWaiters = 4;
  std::vector<std::thread> waiters;
  waiters.reserve(kWaiters);
  for (int i = 0; i < kWaiters; ++i) {
    waiters.emplace_back([&] {
      const MutexLock lock(mutex);
      while (!go) cv.wait(mutex);
      ++awake;
    });
  }
  {
    const MutexLock lock(mutex);
    go = true;
  }
  cv.notify_all();
  for (auto& waiter : waiters) waiter.join();
  EXPECT_EQ(awake, kWaiters);
}

// The run-time lock rules: each Mutex counts the locks its thread holds,
// blocking calls and CondVar waits check that count.

TEST(LockRulesTest, BlockingUnderMutexLockThrowsNamingTheOperation) {
  Mutex mutex;
  const MutexLock lock(mutex);
  try {
    lockdep::check_blocking("pread");
    FAIL() << "check_blocking passed with a lock held";
  } catch (const ContractViolation& violation) {
    EXPECT_NE(std::string(violation.what()).find("pread"), std::string::npos)
        << violation.what();
  }
}

TEST(LockRulesTest, BlockingWithNoLockHeldPasses) {
  EXPECT_EQ(lockdep::held_count(), 0);
  EXPECT_NO_THROW(lockdep::check_blocking("fsync"));
  Mutex mutex;
  { const MutexLock lock(mutex); }
  EXPECT_NO_THROW(lockdep::check_blocking("fsync"));
}

TEST(LockRulesTest, AllowBlockingSuppressesTheThrowAndNests) {
  Mutex mutex;
  const MutexLock lock(mutex);
  {
    const lockdep::AllowBlocking outer("test: blocks by design");
    EXPECT_NO_THROW(lockdep::check_blocking("pwrite"));
    {
      const lockdep::AllowBlocking inner("test: nested scope");
      EXPECT_NO_THROW(lockdep::check_blocking("pwrite"));
    }
    // Closing the inner scope leaves the outer one in force.
    EXPECT_NO_THROW(lockdep::check_blocking("pwrite"));
  }
  EXPECT_THROW(lockdep::check_blocking("pwrite"), ContractViolation);
}

TEST(LockRulesTest, AllowBlockingIsPerThread) {
  Mutex mine;
  const MutexLock lock(mine);
  const lockdep::AllowBlocking allow("test: this thread only");
  bool threw = false;
  std::thread other([&] {
    Mutex theirs;
    const MutexLock held(theirs);
    try {
      lockdep::check_blocking("send");
    } catch (const ContractViolation&) {
      threw = true;
    }
  });
  other.join();
  EXPECT_TRUE(threw);
}

TEST(LockRulesTest, WaitWithOnlyItsOwnMutexHeldPasses) {
  Mutex mutex;
  CondVar cv;
  const MutexLock lock(mutex);
  EXPECT_NO_THROW(
      (void)cv.wait_for(mutex, std::chrono::milliseconds(1)));
  EXPECT_EQ(lockdep::held_count(), 1);

  bool ready = false;
  std::thread notifier([&] {
    const MutexLock held(mutex);
    ready = true;
    cv.notify_all();
  });
  // The notifier can only take the mutex while this wait has released it.
  EXPECT_NO_THROW({
    while (!ready) cv.wait(mutex);
  });
  notifier.join();
  EXPECT_EQ(lockdep::held_count(), 1);
}

TEST(LockRulesTest, WaitWithASecondLockHeldThrows) {
  Mutex outer;
  Mutex mutex;
  CondVar cv;
  const MutexLock outer_lock(outer);
  const MutexLock lock(mutex);
  EXPECT_THROW(cv.wait(mutex), ContractViolation);
  EXPECT_THROW((void)cv.wait_for(mutex, std::chrono::milliseconds(1)),
               ContractViolation);
  // The failed waits left both locks held, as they were.
  EXPECT_TRUE(outer.held_by_caller());
  EXPECT_TRUE(mutex.held_by_caller());
  EXPECT_EQ(lockdep::held_count(), 2);
}

TEST(LockRulesTest, NestingWithoutBlockingIsAllowed) {
  Mutex a;
  Mutex b;
  {
    const MutexLock first(a);
    const MutexLock second(b);
    EXPECT_EQ(lockdep::held_count(), 2);
  }
  EXPECT_EQ(lockdep::held_count(), 0);
}

TEST(LockRulesTest, CountIsZeroAfterAnExceptionUnwindsThroughMutexLock) {
  Mutex a;
  Mutex b;
  try {
    const MutexLock first(a);
    const MutexLock second(b);
    lockdep::check_blocking("recv");
  } catch (const ContractViolation&) {
  }
  EXPECT_EQ(lockdep::held_count(), 0);
  EXPECT_NO_THROW(lockdep::check_blocking("recv"));
}

TEST(AnnotationMacroTest, MacrosCompileToValidCodeOnEveryCompiler) {
  // On GCC every RELDEV_* attribute macro expands to nothing; on clang
  // they expand to thread-safety attributes. Either way this struct —
  // which uses the main macros in realistic positions — must compile and
  // behave like plain code. This is the "no-op on GCC" contract.
  struct Annotated {
    Mutex mutex;
    int guarded RELDEV_GUARDED_BY(mutex) = 0;
    int* pointee RELDEV_PT_GUARDED_BY(mutex) = nullptr;

    void bump() RELDEV_EXCLUDES(mutex) {
      const MutexLock lock(mutex);
      bump_locked();
    }
    void bump_locked() RELDEV_REQUIRES(mutex) { ++guarded; }
    int value() RELDEV_EXCLUDES(mutex) {
      const MutexLock lock(mutex);
      return guarded;
    }
  };
  Annotated annotated;
  annotated.bump();
  annotated.bump();
  EXPECT_EQ(annotated.value(), 2);
}

}  // namespace
}  // namespace reldev

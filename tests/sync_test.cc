#include "common/sync.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

// Tests for the annotated synchronization primitives themselves. The
// locking *discipline* (which member needs which lock) is enforced at
// compile time by Clang — see thread_safety_compile_test — so these
// tests pin the runtime behavior: mutual exclusion and RAII scope.

namespace quasaq {
namespace {

TEST(MutexTest, LockUnlockRoundTrip) {
  Mutex mu;
  mu.Lock();
  mu.Unlock();
  // Reacquirable after release.
  mu.Lock();
  mu.Unlock();
}

TEST(MutexTest, MutexLockReleasesAtScopeExit) {
  Mutex mu;
  std::atomic<bool> acquired{false};
  std::thread contender;
  {
    MutexLock lock(&mu);
    contender = std::thread([&mu, &acquired] {
      MutexLock contended(&mu);
      acquired = true;
    });
    // The contender blocks for as long as the scope holds the lock.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_FALSE(acquired.load());
  }
  // Leaving the scope released the lock, so the contender gets it.
  contender.join();
  EXPECT_TRUE(acquired.load());
}

TEST(MutexTest, ProtectsSharedCounter) {
  constexpr int kThreads = 8;
  constexpr int kIncrements = 20000;
  Mutex mu;
  int64_t counter = 0;  // guarded by mu (dynamically; local for the test)
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&mu, &counter] {
      for (int i = 0; i < kIncrements; ++i) {
        MutexLock lock(&mu);
        ++counter;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counter, int64_t{kThreads} * kIncrements);
}

}  // namespace
}  // namespace quasaq

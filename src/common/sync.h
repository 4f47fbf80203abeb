#ifndef QUASAQ_COMMON_SYNC_H_
#define QUASAQ_COMMON_SYNC_H_

#include <mutex>

// Synchronization primitives carrying Clang thread-safety annotations
// (https://clang.llvm.org/docs/ThreadSafetyAnalysis.html). Locking
// discipline is declared in the types — which mutex guards which member
// (GUARDED_BY), which helper assumes the lock (REQUIRES) — and Clang's
// `-Wthread-safety` turns a violation into a compile error instead of a
// flaky benchmark. On non-Clang compilers every annotation expands to
// nothing and the wrappers are thin veneers over <mutex>.
//
// Where the locks are and what they guard is documented in
// docs/ARCHITECTURE.md ("Threading model").

#if defined(__clang__) && !defined(SWIG)
#define QUASAQ_THREAD_ANNOTATION_(x) __attribute__((x))
#else
#define QUASAQ_THREAD_ANNOTATION_(x)  // no-op
#endif

// The type is a capability (a lock).
#define QUASAQ_CAPABILITY(x) QUASAQ_THREAD_ANNOTATION_(capability(x))
// The type is an RAII object acquiring a capability for its lifetime.
#define QUASAQ_SCOPED_CAPABILITY QUASAQ_THREAD_ANNOTATION_(scoped_lockable)
// The member may only be read/written while holding the given lock.
#define QUASAQ_GUARDED_BY(x) QUASAQ_THREAD_ANNOTATION_(guarded_by(x))
// The function acquires / releases the listed capabilities.
#define QUASAQ_ACQUIRE(...) \
  QUASAQ_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))
#define QUASAQ_RELEASE(...) \
  QUASAQ_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))
// The caller must already hold the listed capabilities.
#define QUASAQ_REQUIRES(...) \
  QUASAQ_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))
// The caller must NOT hold the listed capabilities (deadlock guard for
// public entry points that take the lock themselves).
#define QUASAQ_EXCLUDES(...) \
  QUASAQ_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))

namespace quasaq {

// Annotated mutual-exclusion lock. Non-reentrant: a thread acquiring a
// Mutex it already holds deadlocks (Clang's analysis rejects the
// attempt at compile time via EXCLUDES on the public entry points).
class QUASAQ_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() QUASAQ_ACQUIRE() { mu_.lock(); }
  void Unlock() QUASAQ_RELEASE() { mu_.unlock(); }

 private:
  std::mutex mu_;
};

// RAII lock for a scope. The annotation transfers the capability to the
// guard object, so every guarded access inside the scope type-checks.
class QUASAQ_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) QUASAQ_ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() QUASAQ_RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* const mu_;
};

}  // namespace quasaq

#endif  // QUASAQ_COMMON_SYNC_H_

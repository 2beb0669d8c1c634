// Annotated mutex wrappers (DESIGN.md §11).
//
// gsgrow code never holds a bare std::mutex: the annotated Mutex below is
// the only lock type, so every guarded field can name its lock with
// GSGROW_GUARDED_BY and clang's -Wthread-safety analysis can prove the
// lock discipline (the invariant linter's `bare-mutex` rule enforces the
// "never bare" part on gcc builds, where the attributes are no-ops).
//
// ExternalSerialization is the capability token for the single-writer,
// externally-synchronized classes (IncrementalInvertedIndex): they own no
// lock — MiningService's mutex serializes them — but their writer-side
// state is still GSGROW_GUARDED_BY the token,
// and every method that touches it must open with AssertHeld(). A new
// method that forgets is a -Werror=thread-safety build error, which forces
// its author to read (and re-state) the threading contract.

#ifndef GSGROW_UTIL_MUTEX_H_
#define GSGROW_UTIL_MUTEX_H_

#include <mutex>  // gsgrow:allow(bare-mutex): the annotated wrapper itself

#include "util/thread_annotations.h"

namespace gsgrow {

/// std::mutex with clang capability annotations; LevelDB-style AssertHeld
/// documents (and under clang, enforces) "caller must hold this".
class GSGROW_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() GSGROW_ACQUIRE() { mu_.lock(); }
  void Unlock() GSGROW_RELEASE() { mu_.unlock(); }

  /// No-op at runtime; tells the analysis the capability is held on paths
  /// it cannot see (e.g. single-owner construction before sharing).
  void AssertHeld() const GSGROW_ASSERT_CAPABILITY(this) {}

 private:
  std::mutex mu_;  // gsgrow:allow(bare-mutex): wrapped here, nowhere else
};

/// RAII lock over an annotated Mutex (std::lock_guard equivalent).
class GSGROW_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) GSGROW_ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() GSGROW_RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* const mu_;
};

/// Zero-size capability token for externally-synchronized classes. Owns no
/// lock; guarding fields with it forces every accessor through AssertHeld,
/// i.e. through an explicit re-statement of "the caller serializes me".
class GSGROW_CAPABILITY("external serialization") ExternalSerialization {
 public:
  ExternalSerialization() = default;
  ExternalSerialization(const ExternalSerialization&) = delete;
  ExternalSerialization& operator=(const ExternalSerialization&) = delete;

  /// Declares that the (external) serialization point is active. No-op at
  /// runtime — the value is the compile-time audit trail.
  void AssertHeld() const GSGROW_ASSERT_CAPABILITY(this) {}
};

}  // namespace gsgrow

#endif  // GSGROW_UTIL_MUTEX_H_

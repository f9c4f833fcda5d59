#pragma once

/// \file thread_annotations.h
/// Clang thread-safety capability macros for the sharded kernel.
///
/// The sharded simulation kernel (sim/domain.h) synchronizes with
/// barriers, not mutexes: any datum is owned by exactly one execution
/// context at a time — a shard's thread, the serial phase on shard 0,
/// or the external caller when no workers are running — and ownership
/// transfers only across a full acquire/release barrier.  Clang's
/// thread-safety analysis (-Wthread-safety) was designed for lock-based
/// code, but its capability model is general enough to machine-check
/// this ownership discipline too: we declare zero-size *capability
/// tokens* for each ownership domain, mark the state they protect with
/// MEDEA_GUARDED_BY, and acquire/release (or assert) the tokens at the
/// phase boundaries where ownership actually transfers.  Every token
/// operation compiles to nothing; the analysis runs entirely at compile
/// time.
///
/// What this buys: a future change that reads serial-phase state from
/// the parallel phase, walks a shard's seam links outside its drain
/// phase, or touches a FIFO from off its owning shard gets a
/// compiler error under `-DMEDEA_THREAD_SAFETY=ON` (clang) before any
/// test — or TSan — ever runs.
///
/// On non-clang compilers (and under MEDEA_NO_THREAD_SAFETY_ANALYSIS_
/// MACROS) every macro expands to nothing, so gcc builds are untouched;
/// tests/test_thread_annotations.cpp asserts the no-op expansion.
///
/// Macro names follow the clang documentation's mutex.h reference so
/// the mapping to the underlying attributes stays obvious.

#if defined(__clang__) && !defined(MEDEA_NO_THREAD_SAFETY_ANALYSIS_MACROS)
#define MEDEA_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define MEDEA_THREAD_ANNOTATION(x)  // no-op off clang
#endif

/// Declares a class whose instances are capabilities (ownership tokens).
#define MEDEA_CAPABILITY(x) MEDEA_THREAD_ANNOTATION(capability(x))

/// Declares an RAII class that acquires a capability in its constructor
/// and releases it in its destructor.
#define MEDEA_SCOPED_CAPABILITY MEDEA_THREAD_ANNOTATION(scoped_lockable)

/// The marked data member may only be accessed while holding `x`
/// (exclusively for writes, at least shared for reads).
#define MEDEA_GUARDED_BY(x) MEDEA_THREAD_ANNOTATION(guarded_by(x))

/// The marked pointer's *pointee* may only be accessed while holding `x`.
#define MEDEA_PT_GUARDED_BY(x) MEDEA_THREAD_ANNOTATION(pt_guarded_by(x))

/// The function may only be called while holding the listed capabilities
/// exclusively / shared; the caller retains them.
#define MEDEA_REQUIRES(...) \
  MEDEA_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define MEDEA_REQUIRES_SHARED(...) \
  MEDEA_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))

/// The function acquires / releases the listed capabilities (the token
/// operations placed at phase boundaries).
#define MEDEA_ACQUIRE(...) \
  MEDEA_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define MEDEA_ACQUIRE_SHARED(...) \
  MEDEA_THREAD_ANNOTATION(acquire_shared_capability(__VA_ARGS__))
#define MEDEA_RELEASE(...) \
  MEDEA_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define MEDEA_RELEASE_SHARED(...) \
  MEDEA_THREAD_ANNOTATION(release_shared_capability(__VA_ARGS__))
#define MEDEA_RELEASE_GENERIC(...) \
  MEDEA_THREAD_ANNOTATION(release_generic_capability(__VA_ARGS__))

/// The function must NOT be called while holding the listed capabilities.
#define MEDEA_EXCLUDES(...) MEDEA_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Tells the analysis the capability is held here by an invariant it
/// cannot see (e.g. "all worker threads are parked at a barrier" or
/// "run() has not been called yet").  Runtime no-op; use only where a
/// comment states the invariant.
#define MEDEA_ASSERT_CAPABILITY(x) MEDEA_THREAD_ANNOTATION(assert_capability(x))
#define MEDEA_ASSERT_SHARED_CAPABILITY(x) \
  MEDEA_THREAD_ANNOTATION(assert_shared_capability(x))

/// The function returns a reference to the given capability.
#define MEDEA_RETURN_CAPABILITY(x) MEDEA_THREAD_ANNOTATION(lock_returned(x))

/// Escape hatch: disables analysis for one function.  Prefer
/// MEDEA_ASSERT_CAPABILITY (it documents *which* invariant is trusted).
#define MEDEA_NO_THREAD_SAFETY_ANALYSIS \
  MEDEA_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace medea::core {

/// A zero-cost ownership token for clang's thread-safety analysis.
///
/// Models a logical ownership domain — a barrier phase, a shard's
/// execution context, construction-time wiring — rather than a runtime
/// lock.  acquire()/release() mark real ownership transfers (barrier
/// crossings); assert_held()/assert_shared() mark places where an
/// invariant outside the analysis's view guarantees ownership (document
/// the invariant at every assert site).  Exclusive means "may write",
/// shared means "may read concurrently with other shared holders".
///
/// All members are empty inline functions: under every compiler and
/// every build mode this class costs nothing at runtime.
class MEDEA_CAPABILITY("role") Capability {
 public:
  Capability() = default;
  Capability(const Capability&) = delete;
  Capability& operator=(const Capability&) = delete;

  void acquire() const MEDEA_ACQUIRE() {}
  void release() const MEDEA_RELEASE() {}
  void acquire_shared() const MEDEA_ACQUIRE_SHARED() {}
  void release_shared() const MEDEA_RELEASE_SHARED() {}
  void assert_held() const MEDEA_ASSERT_CAPABILITY(this) {}
  void assert_shared() const MEDEA_ASSERT_SHARED_CAPABILITY(this) {}
};

}  // namespace medea::core

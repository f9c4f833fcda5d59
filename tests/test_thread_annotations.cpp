// Tests for core/thread_annotations.h: the macros must vanish entirely
// on non-clang compilers (a gcc -Werror build would otherwise trip over
// unknown attributes), the Capability token must stay a zero-cost empty
// type everywhere, and annotated code must run unchanged.
//
// The *analysis* itself can only be exercised by clang (-Wthread-safety,
// the MEDEA_THREAD_SAFETY build option); CI's static-analysis job builds
// the whole tree that way.  What this test pins down is the contract
// that lets the annotations ride along in every other build.

#include "core/thread_annotations.h"

#include <deque>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "sim/domain.h"
#include "sim/fifo.h"

namespace {

// Expand-then-stringify: MEDEA_TA_STR(MEDEA_GUARDED_BY(x)) is "" iff
// the macro expanded to nothing.
#define MEDEA_TA_STR_IMPL(...) #__VA_ARGS__
#define MEDEA_TA_STR(...) MEDEA_TA_STR_IMPL(__VA_ARGS__)

#if defined(__clang__) && !defined(MEDEA_NO_THREAD_SAFETY_ANALYSIS_MACROS)
constexpr bool kExpectAnnotations = true;
#else
constexpr bool kExpectAnnotations = false;
#endif

TEST(ThreadAnnotations, MacrosExpandToNothingOffClang) {
  constexpr const char* kExpansions[] = {
      MEDEA_TA_STR(MEDEA_CAPABILITY("role")),
      MEDEA_TA_STR(MEDEA_SCOPED_CAPABILITY),
      MEDEA_TA_STR(MEDEA_GUARDED_BY(tok)),
      MEDEA_TA_STR(MEDEA_PT_GUARDED_BY(tok)),
      MEDEA_TA_STR(MEDEA_REQUIRES(tok)),
      MEDEA_TA_STR(MEDEA_REQUIRES_SHARED(tok)),
      MEDEA_TA_STR(MEDEA_ACQUIRE(tok)),
      MEDEA_TA_STR(MEDEA_ACQUIRE_SHARED(tok)),
      MEDEA_TA_STR(MEDEA_RELEASE(tok)),
      MEDEA_TA_STR(MEDEA_RELEASE_SHARED(tok)),
      MEDEA_TA_STR(MEDEA_RELEASE_GENERIC(tok)),
      MEDEA_TA_STR(MEDEA_EXCLUDES(tok)),
      MEDEA_TA_STR(MEDEA_ASSERT_CAPABILITY(tok)),
      MEDEA_TA_STR(MEDEA_ASSERT_SHARED_CAPABILITY(tok)),
      MEDEA_TA_STR(MEDEA_RETURN_CAPABILITY(tok)),
      MEDEA_TA_STR(MEDEA_NO_THREAD_SAFETY_ANALYSIS),
  };
  for (const char* expansion : kExpansions) {
    if (kExpectAnnotations) {
      EXPECT_STRNE(expansion, "") << "macro lost its attribute on clang";
    } else {
      EXPECT_STREQ(expansion, "") << "macro must be a no-op off clang";
    }
  }
}

TEST(ThreadAnnotations, CapabilityIsZeroCost) {
  using medea::core::Capability;
  static_assert(std::is_empty_v<Capability>,
                "the token must carry no runtime state");
  static_assert(!std::is_copy_constructible_v<Capability>,
                "a capability names an ownership domain; copying one "
                "would be meaningless");
  // Token operations are callable on a const object and do nothing.
  const Capability tok;
  tok.acquire();
  tok.release();
  tok.acquire_shared();
  tok.release_shared();
  tok.assert_held();
  tok.assert_shared();
}

// Annotated guarded state compiles and behaves normally in a plain
// (non-analysis) build: GUARDED_BY members read/write as usual.
struct GuardedCounter {
  medea::core::Capability cap;
  int value MEDEA_GUARDED_BY(cap) = 0;

  void bump() MEDEA_REQUIRES(cap) { ++value; }
};

TEST(ThreadAnnotations, AnnotatedCodeRunsUnchanged) {
  GuardedCounter c;
  c.cap.acquire();
  c.bump();
  c.bump();
  c.cap.release();
  c.cap.assert_held();  // invariant: single-threaded test body
  EXPECT_EQ(c.value, 2);
}

// The annotated kernel types must not grow: the tokens are empty and
// [[no_unique_address]]-free, so they cost at most the empty-member
// byte, which the surrounding layout absorbs in all three classes
// (checked loosely — what matters is no cache-line-scale regression).
TEST(ThreadAnnotations, AnnotatedKernelTypesStaySmall) {
  EXPECT_LE(sizeof(medea::core::Capability), 1u);
  // A Fifo gained at most padding for its token.
  EXPECT_LE(sizeof(medea::sim::Fifo<int>),
            sizeof(std::deque<int>) + sizeof(std::vector<int>) + 128);
}

// End-to-end sanity: the annotated SimDomain + Fifo still run a trivial
// wiring exactly as before (the asserts in set_consumer/push/pop are on
// the hot path of every model; this catches an accidentally non-empty
// expansion faster than inspection).
TEST(ThreadAnnotations, AnnotatedFifoStillWorks) {
  medea::sim::SchedulerConfig cfg;
  medea::sim::Scheduler sched(cfg);
  medea::sim::Fifo<int> f(sched, 4);
  struct Pusher : medea::sim::Component {
    Pusher(medea::sim::Scheduler& s, medea::sim::Fifo<int>& q)
        : Component(s, "pusher"), fifo(q) {}
    void tick(medea::sim::Cycle) override {
      EXPECT_TRUE(fifo.can_push());
      fifo.push(7);
      EXPECT_TRUE(fifo.empty());  // pending, not visible in the push cycle
    }
    medea::sim::Fifo<int>& fifo;
  } pusher(sched, f);
  sched.wake_at(pusher, 1);
  EXPECT_TRUE(sched.run());
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f.front(), 7);
  EXPECT_EQ(f.pop(), 7);
}

}  // namespace

/// Unit tests for the cycle-accurate discrete-event kernel (src/sim).

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/domain.h"
#include "sim/fifo.h"
#include "sim/frame_pool.h"
#include "sim/rng.h"
#include "sim/scheduler.h"
#include "sim/stats.h"
#include "sim/task.h"

namespace medea::sim {
namespace {

// ---------------------------------------------------------------------
// Scheduler
// ---------------------------------------------------------------------

class Recorder : public Component {
 public:
  Recorder(Scheduler& s, std::string name) : Component(s, std::move(name)) {}
  void tick(Cycle now) override { ticks.push_back(now); }
  std::vector<Cycle> ticks;
};

TEST(Scheduler, TicksComponentAtRequestedCycle) {
  Scheduler sched;
  Recorder r(sched, "r");
  sched.wake_at(r, 5);
  EXPECT_TRUE(sched.run());
  ASSERT_EQ(r.ticks.size(), 1u);
  EXPECT_EQ(r.ticks[0], 5u);
  EXPECT_EQ(sched.now(), 5u);
}

TEST(Scheduler, SkipsIdleCycles) {
  Scheduler sched;
  Recorder r(sched, "r");
  sched.wake_at(r, 10);
  sched.wake_at(r, 1000000);
  EXPECT_TRUE(sched.run());
  EXPECT_EQ(sched.active_cycles(), 2u);  // only 2 cycles actually executed
  EXPECT_EQ(sched.now(), 1000000u);
}

TEST(Scheduler, DeduplicatesSameCycleWakes) {
  Scheduler sched;
  Recorder r(sched, "r");
  sched.wake_at(r, 3);
  sched.wake_at(r, 3);
  sched.wake_at(r, 3);
  EXPECT_TRUE(sched.run());
  EXPECT_EQ(r.ticks.size(), 1u);
}

TEST(Scheduler, DedupsDuplicateWakesAtPushTime) {
  // Duplicate (component, future-cycle) wakes never reach the heap:
  // three requests for cycle 3 cost one push (hot-FIFO fan-in pressure).
  Scheduler sched;
  Recorder r(sched, "r");
  sched.wake_at(r, 3);
  sched.wake_at(r, 3);
  sched.wake_at(r, 3);
  sched.wake_at(r, 7);  // a different cycle is a fresh push
  EXPECT_EQ(sched.wake_requests(), 4u);
  EXPECT_EQ(sched.wakes_deduped(), 2u);
  EXPECT_EQ(sched.heap_pushes(), 2u);
  EXPECT_TRUE(sched.run());
  EXPECT_EQ(r.ticks, (std::vector<Cycle>{3, 7}));
}

TEST(Scheduler, PushDedupNeverLosesAWakeAcrossRuns) {
  // Waking again between runs must still tick at the new cycle even
  // though the heap saw pushes for this component before.  (Re-waking
  // at the *already-ticked* current cycle is a no-op — that is the
  // kernel's long-standing pop-side dedup, unchanged by the push-time
  // stamp; a component ticks at most once per cycle, ever.)
  Scheduler sched;
  Recorder r(sched, "r");
  sched.wake_at(r, 4);
  sched.wake_at(r, 4);
  EXPECT_TRUE(sched.run());
  ASSERT_EQ(r.ticks.size(), 1u);
  sched.wake_at(r, 4);  // now() and already ticked at 4: stays one tick
  EXPECT_TRUE(sched.run());
  EXPECT_EQ(r.ticks, (std::vector<Cycle>{4}));
  sched.wake_at(r, 9);
  sched.wake_at(r, 9);
  EXPECT_TRUE(sched.run());
  EXPECT_EQ(r.ticks, (std::vector<Cycle>{4, 9}));
}

/// Pushes one value into each of three FIFOs during a single tick.
class FanInPusher : public Component {
 public:
  FanInPusher(Scheduler& s, Fifo<int>& a, Fifo<int>& b, Fifo<int>& c)
      : Component(s, "pusher"), a_(a), b_(b), c_(c) {}
  void tick(Cycle) override {
    a_.push(1);
    b_.push(2);
    c_.push(3);
  }
  Fifo<int>& a_;
  Fifo<int>& b_;
  Fifo<int>& c_;
};

TEST(Scheduler, FifoFanInWakesConsumerWithOneHeapPush) {
  // N channels committing into one consumer in the same cycle is the
  // hot-FIFO pattern the push-time dedup exists for: three commits used
  // to mean three heap pushes (two discarded at pop); now two of the
  // wake requests are absorbed before touching the heap.
  Scheduler sched;
  Recorder consumer(sched, "consumer");
  Fifo<int> a(sched, 4), b(sched, 4), c(sched, 4);
  for (Fifo<int>* f : {&a, &b, &c}) f->set_consumer(&consumer);
  FanInPusher pusher(sched, a, b, c);
  sched.wake_at(pusher, 1);
  const std::uint64_t deduped_before = sched.wakes_deduped();
  EXPECT_TRUE(sched.run());
  EXPECT_EQ(sched.wakes_deduped() - deduped_before, 2u);
  ASSERT_EQ(consumer.ticks.size(), 1u);
  EXPECT_EQ(consumer.ticks[0], 2u);
}

TEST(Scheduler, MultipleWakesAtDifferentCycles) {
  Scheduler sched;
  Recorder r(sched, "r");
  sched.wake_at(r, 1);
  sched.wake_at(r, 2);
  sched.wake_at(r, 7);
  EXPECT_TRUE(sched.run());
  EXPECT_EQ(r.ticks, (std::vector<Cycle>{1, 2, 7}));
}

TEST(Scheduler, RunStopsAtLimit) {
  Scheduler sched;
  Recorder r(sched, "r");
  sched.wake_at(r, 100);
  EXPECT_FALSE(sched.run(50));
  EXPECT_TRUE(r.ticks.empty());
  // The pending event is still there; a later run picks it up.
  EXPECT_TRUE(sched.run(200));
  EXPECT_EQ(r.ticks.size(), 1u);
}

TEST(Scheduler, RunOrThrowThrowsOnLimit) {
  Scheduler sched;
  Recorder r(sched, "r");
  sched.wake_at(r, 100);
  EXPECT_THROW(sched.run_or_throw(50), std::runtime_error);
}

class SelfWaker : public Component {
 public:
  SelfWaker(Scheduler& s, int n) : Component(s, "selfwaker"), remaining(n) {}
  void tick(Cycle) override {
    ++count;
    if (--remaining > 0) wake();
  }
  int remaining;
  int count = 0;
};

TEST(Scheduler, SelfWakeChainsConsecutiveCycles) {
  Scheduler sched;
  SelfWaker w(sched, 10);
  sched.wake_at(w, 0);
  EXPECT_TRUE(sched.run());
  EXPECT_EQ(w.count, 10);
  EXPECT_EQ(sched.now(), 9u);
}

// Two components woken the same cycle are both ticked in that cycle.
TEST(Scheduler, SameCycleBatchDispatch) {
  Scheduler sched;
  Recorder a(sched, "a");
  Recorder b(sched, "b");
  sched.wake_at(a, 4);
  sched.wake_at(b, 4);
  EXPECT_TRUE(sched.run());
  ASSERT_EQ(a.ticks.size(), 1u);
  ASSERT_EQ(b.ticks.size(), 1u);
  EXPECT_EQ(sched.active_cycles(), 1u);
}

// ---------------------------------------------------------------------
// Calendar queue (two-tier event structure)
// ---------------------------------------------------------------------

SchedulerConfig legacy_heap_cfg() {
  SchedulerConfig cfg;
  cfg.queue = SchedulerConfig::EventQueue::kBinaryHeap;
  return cfg;
}

TEST(CalendarQueue, NearWakesLandInBucketsFarWakesOverflow) {
  Scheduler sched;  // default: calendar, 1024-cycle ring
  Recorder r(sched, "r");
  sched.wake_at(r, 1);        // bucket
  sched.wake_at(r, 1023);     // last cycle inside the ring
  sched.wake_at(r, 1024);     // first cycle beyond it -> overflow heap
  sched.wake_at(r, 5'000'000);
  EXPECT_EQ(sched.bucket_pushes(), 2u);
  EXPECT_EQ(sched.overflow_pushes(), 2u);
  EXPECT_EQ(sched.heap_pushes(),
            sched.bucket_pushes() + sched.overflow_pushes());
  EXPECT_TRUE(sched.run());
  EXPECT_EQ(r.ticks, (std::vector<Cycle>{1, 1023, 1024, 5'000'000}));
}

TEST(CalendarQueue, LegacyHeapKernelStaysSelectable) {
  Scheduler sched(legacy_heap_cfg());
  Recorder r(sched, "r");
  sched.wake_at(r, 3);
  sched.wake_at(r, 900000);
  EXPECT_TRUE(sched.run());
  EXPECT_EQ(r.ticks, (std::vector<Cycle>{3, 900000}));
  EXPECT_EQ(sched.bucket_pushes(), 0u);  // every push is an overflow push
  EXPECT_EQ(sched.overflow_pushes(), 2u);
}

TEST(CalendarQueue, RingWrapsAcrossManyRevolutions) {
  // A self-waker chaining 10000 consecutive cycles crosses the default
  // 1024-cycle ring almost ten times.
  Scheduler sched;
  SelfWaker w(sched, 10000);
  sched.wake_at(w, 0);
  EXPECT_TRUE(sched.run());
  EXPECT_EQ(w.count, 10000);
  EXPECT_EQ(sched.now(), 9999u);
}

TEST(CalendarQueue, TinyRingStillCorrect) {
  SchedulerConfig cfg;
  cfg.ring_bits = 6;  // 64-cycle ring: every mid-range wake overflows
  Scheduler sched(cfg);
  Recorder r(sched, "r");
  sched.wake_at(r, 10);
  sched.wake_at(r, 63);
  sched.wake_at(r, 64);   // overflow
  sched.wake_at(r, 200);  // overflow
  EXPECT_EQ(sched.bucket_pushes(), 2u);
  EXPECT_EQ(sched.overflow_pushes(), 2u);
  EXPECT_TRUE(sched.run());
  EXPECT_EQ(r.ticks, (std::vector<Cycle>{10, 63, 64, 200}));
}

TEST(CalendarQueue, RingBitsAreClampedToSaneRange) {
  SchedulerConfig cfg;
  cfg.ring_bits = 1;
  EXPECT_EQ(Scheduler(cfg).config().ring_bits, 6u);
  cfg.ring_bits = 64;
  EXPECT_EQ(Scheduler(cfg).config().ring_bits, 20u);
}

TEST(CalendarQueue, RingBitsZeroAutoSizesFromHorizonHint) {
  SchedulerConfig cfg;
  cfg.ring_bits = 0;
  // No hint: the former fixed default.
  EXPECT_EQ(Scheduler(cfg).config().ring_bits, 10u);
  // A hint sizes the smallest ring covering twice the horizon.
  cfg.horizon_hint = 5000;  // bit_width 13 -> 14 bits (16384 >= 2*5000)
  EXPECT_EQ(Scheduler(cfg).config().ring_bits, 14u);
  cfg.horizon_hint = 3;  // tiny hints still clamp up to the floor
  EXPECT_EQ(Scheduler(cfg).config().ring_bits, 6u);
  cfg.horizon_hint = ~std::uint64_t{0};  // huge hints clamp to the cap
  EXPECT_EQ(Scheduler(cfg).config().ring_bits, 20u);
}

TEST(CalendarQueue, SameCycleDispatchFollowsConstructionOrder) {
  // B's wake for cycle 2000 is requested first (far future -> overflow);
  // A's wake for the same cycle arrives later via a bucket once `now` is
  // close enough.  Same-cycle dispatch is canonical component
  // construction order in every kernel — independent of which tier the
  // wake landed in or when it was requested — so A (constructed first)
  // ticks before B in the heap and the calendar alike.  This shared
  // order is what lets the sharded kernel reproduce single-thread runs
  // bit-identically.
  struct Proxy final : Component {
    Proxy(Scheduler& s, std::string n, std::vector<std::string>* order)
        : Component(s, std::move(n)), order_(order) {}
    void tick(Cycle) override { order_->push_back(name()); }
    std::vector<std::string>* order_;
  };
  struct LateScheduler final : Component {
    LateScheduler(Scheduler& s, Component& target)
        : Component(s, "late"), target_(target) {}
    void tick(Cycle) override { scheduler().wake_at(target_, 2000); }
    Component& target_;
  };

  for (bool legacy : {false, true}) {
    Scheduler sched(legacy ? legacy_heap_cfg() : SchedulerConfig{});
    std::vector<std::string> order;
    Proxy a(sched, "a", &order);
    Proxy b(sched, "b", &order);
    LateScheduler late(sched, a);
    sched.wake_at(b, 2000);   // overflow tier (2000 > ring)
    sched.wake_at(late, 1500);  // wakes `a` for 2000 from close range
    EXPECT_TRUE(sched.run());
    EXPECT_EQ(order, (std::vector<std::string>{"a", "b"})) << "legacy="
                                                           << legacy;
  }
}

TEST(CalendarQueue, ComponentWithMultiplePendingWakesUsesSpillNodes) {
  // The embedded intrusive hook covers one pending wake; stacking many
  // distinct future cycles on one component must spill cleanly.
  Scheduler sched;
  Recorder r(sched, "r");
  for (Cycle c = 1; c <= 40; ++c) sched.wake_at(r, c * 3);
  EXPECT_TRUE(sched.run());
  EXPECT_EQ(r.ticks.size(), 40u);
  for (std::size_t i = 0; i < r.ticks.size(); ++i) {
    EXPECT_EQ(r.ticks[i], (i + 1) * 3);
  }
}

TEST(CalendarQueue, IdleReflectsBothTiers) {
  Scheduler sched;
  EXPECT_TRUE(sched.idle());
  Recorder r(sched, "r");
  sched.wake_at(r, 5);  // bucket
  EXPECT_FALSE(sched.idle());
  EXPECT_TRUE(sched.run());
  EXPECT_TRUE(sched.idle());
  sched.wake_at(r, 5'000'000);  // overflow
  EXPECT_FALSE(sched.idle());
  EXPECT_TRUE(sched.run());
  EXPECT_TRUE(sched.idle());
}

TEST(CalendarQueue, NearRingAndHeapWakesMergeInConstructionOrder) {
  // 130 components (three bitmap words) all due at cycle T, woken through
  // every tier: from cycle 0 (beyond the 1024-cycle ring: overflow heap),
  // from T-5 (ring bucket) and from T-1 (near bitmap), each batch
  // requested in reverse construction order.  Every kernel ticks each
  // exactly once, at T, in construction order; a 2-shard domain, whose
  // components interleave across shards, does so within each shard.
  constexpr int kComps = 130;
  constexpr Cycle kT = 2000;
  using Log = std::vector<std::pair<int, Cycle>>;
  struct Proxy final : Component {
    Proxy(Scheduler& s, int id, Log* log)
        : Component(s, "proxy"), id_(id), log_(log) {}
    void tick(Cycle now) override { log_->emplace_back(id_, now); }
    int id_;
    Log* log_;
  };
  struct Waker final : Component {
    Waker(Scheduler& s, std::vector<Proxy*> targets)
        : Component(s, "waker"), targets_(std::move(targets)) {}
    void tick(Cycle) override {
      for (Proxy* p : targets_) scheduler().wake_at(*p, kT);
    }
    std::vector<Proxy*> targets_;
  };
  SchedulerConfig sharded;
  sharded.queue = SchedulerConfig::EventQueue::kShardedCalendar;
  sharded.num_shards = 2;

  for (const SchedulerConfig& cfg :
       {SchedulerConfig{}, legacy_heap_cfg(), sharded}) {
    SimDomain dom(cfg, 2);
    const int n = dom.num_shards();
    const auto shard_of = [&](int i) -> Scheduler& { return dom.shard(i % n); };
    std::vector<Log> logs(static_cast<std::size_t>(n));
    std::vector<std::unique_ptr<Proxy>> proxies;
    for (int i = 0; i < kComps; ++i) {
      proxies.push_back(std::make_unique<Proxy>(
          shard_of(i), i, &logs[static_cast<std::size_t>(i % n)]));
    }
    std::vector<std::vector<Proxy*>> ring_targets(logs.size());
    std::vector<std::vector<Proxy*>> near_targets(logs.size());
    for (int i = kComps - 1; i >= 0; --i) {
      Proxy& p = *proxies[static_cast<std::size_t>(i)];
      const auto s = static_cast<std::size_t>(i % n);
      if (i % 3 == 0) shard_of(i).wake_at(p, kT);  // overflow heap
      if (i % 3 == 1) ring_targets[s].push_back(&p);
      if (i % 3 == 2) near_targets[s].push_back(&p);
    }
    std::vector<std::unique_ptr<Waker>> wakers;
    for (int s = 0; s < n; ++s) {
      const auto ss = static_cast<std::size_t>(s);
      wakers.push_back(std::make_unique<Waker>(dom.shard(s), ring_targets[ss]));
      dom.shard(s).wake_at(*wakers.back(), kT - 5);
      wakers.push_back(std::make_unique<Waker>(dom.shard(s), near_targets[ss]));
      dom.shard(s).wake_at(*wakers.back(), kT - 1);
    }
    EXPECT_TRUE(dom.run());

    const std::string what = "shards=" + std::to_string(n) + " heap=" +
                             std::to_string(cfg == legacy_heap_cfg());
    std::vector<Log> expected(logs.size());
    for (int i = 0; i < kComps; ++i) {
      expected[static_cast<std::size_t>(i % n)].emplace_back(i, kT);
    }
    EXPECT_EQ(logs, expected) << what;
    if (cfg == legacy_heap_cfg()) {
      EXPECT_EQ(dom.bucket_pushes(), 0u);
    } else {
      // 43 ring + 43 near wakes count as bucket pushes; 44 proxies and
      // every waker went to the heap.
      EXPECT_EQ(dom.bucket_pushes(), 86u) << what;
      EXPECT_EQ(dom.overflow_pushes(), 44u + 2u * static_cast<unsigned>(n))
          << what;
    }

    // Waking a component for now() between runs after it already ticked
    // this cycle dispatches the cycle again but does not tick it twice.
    const std::uint64_t active = dom.active_cycles();
    shard_of(5).wake_at(*proxies[5], dom.now());
    EXPECT_TRUE(dom.run());
    EXPECT_EQ(logs, expected) << what;
    EXPECT_EQ(dom.active_cycles(), active + 1) << what;
    EXPECT_TRUE(dom.idle()) << what;
  }
}

// ---------------------------------------------------------------------
// FramePool
// ---------------------------------------------------------------------

TEST(FramePool, RecyclesSizeClasses) {
  FramePool pool;
  void* a = pool.allocate(100);  // rounds to 128
  EXPECT_EQ(pool.stats().misses, 1u);
  pool.deallocate(a, 100);
  EXPECT_EQ(pool.stats().recycled, 1u);
  EXPECT_EQ(pool.stats().bytes_retained, 128u);
  void* b = pool.allocate(120);  // same 128-byte class -> free-list hit
  EXPECT_EQ(b, a);
  EXPECT_EQ(pool.stats().hits, 1u);
  EXPECT_EQ(pool.stats().bytes_retained, 0u);
  pool.deallocate(b, 120);
}

TEST(FramePool, OversizeFramesPassThrough) {
  FramePool pool;
  void* p = pool.allocate(FramePool::kMaxPooledBytes + 1);
  ASSERT_NE(p, nullptr);
  pool.deallocate(p, FramePool::kMaxPooledBytes + 1);
  EXPECT_EQ(pool.stats().oversize, 1u);
  EXPECT_EQ(pool.stats().hits, 0u);
  EXPECT_EQ(pool.stats().bytes_retained, 0u);
}

TEST(FramePool, TrimReleasesRetainedBytes) {
  FramePool pool;
  void* a = pool.allocate(64);
  pool.deallocate(a, 64);
  EXPECT_GT(pool.stats().bytes_retained, 0u);
  pool.trim();
  EXPECT_EQ(pool.stats().bytes_retained, 0u);
}

// ---------------------------------------------------------------------
// Fifo
// ---------------------------------------------------------------------

/// Pushes a burst of values, one per cycle.
class Producer : public Component {
 public:
  Producer(Scheduler& s, Fifo<int>& f, int n)
      : Component(s, "prod"), fifo(f), remaining(n) {
    f.set_producer(this);
  }
  void tick(Cycle) override {
    if (remaining > 0 && fifo.can_push()) {
      fifo.push(next++);
      --remaining;
    }
    if (remaining > 0) wake();
  }
  Fifo<int>& fifo;
  int remaining;
  int next = 0;
};

/// Pops everything available each tick and records (cycle, value).
class Consumer : public Component {
 public:
  Consumer(Scheduler& s, Fifo<int>& f) : Component(s, "cons"), fifo(f) {
    f.set_consumer(this);
  }
  void tick(Cycle now) override {
    while (!fifo.empty()) got.emplace_back(now, fifo.pop());
  }
  Fifo<int>& fifo;
  std::vector<std::pair<Cycle, int>> got;
};

TEST(Fifo, PushVisibleNextCycle) {
  Scheduler sched;
  Fifo<int> f(sched, 4);
  Producer p(sched, f, 1);
  Consumer c(sched, f);
  sched.wake_at(p, 0);
  EXPECT_TRUE(sched.run());
  ASSERT_EQ(c.got.size(), 1u);
  EXPECT_EQ(c.got[0].first, 1u);  // pushed at 0, consumed at 1
  EXPECT_EQ(c.got[0].second, 0);
}

TEST(Fifo, DeliversInOrderAtFullThroughput) {
  Scheduler sched;
  Fifo<int> f(sched, 2);
  Producer p(sched, f, 50);
  Consumer c(sched, f);
  sched.wake_at(p, 0);
  EXPECT_TRUE(sched.run());
  ASSERT_EQ(c.got.size(), 50u);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(c.got[static_cast<std::size_t>(i)].second, i);
    // one value per cycle, first arrives at cycle 1
    EXPECT_EQ(c.got[static_cast<std::size_t>(i)].first,
              static_cast<Cycle>(i + 1));
  }
}

/// Consumer that pops only every `period` cycles, to exercise producer
/// back-pressure and the blocked-producer wakeup path.
class SlowConsumer : public Component {
 public:
  SlowConsumer(Scheduler& s, Fifo<int>& f, Cycle period)
      : Component(s, "slow"), fifo(f), period_(period) {
    f.set_consumer(this);
  }
  void tick(Cycle now) override {
    if (now >= next_pop_ && !fifo.empty()) {
      got.push_back(fifo.pop());
      next_pop_ = now + period_;
    }
    if (!fifo.empty()) scheduler().wake_at(*this, std::max(now + 1, next_pop_));
  }
  Fifo<int>& fifo;
  Cycle period_;
  Cycle next_pop_ = 0;
  std::vector<int> got;
};

TEST(Fifo, BackpressureBlocksAndResumesProducer) {
  Scheduler sched;
  Fifo<int> f(sched, 2);
  Producer p(sched, f, 20);
  SlowConsumer c(sched, f, 5);
  sched.wake_at(p, 0);
  EXPECT_TRUE(sched.run());
  ASSERT_EQ(c.got.size(), 20u);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(c.got[static_cast<std::size_t>(i)], i);
}

TEST(Fifo, PopFreesSpaceOnlyNextCycle) {
  Scheduler sched;
  Fifo<int> f(sched, 1);
  // Hand-drive: producer pushes at 0; consumer pops at 1; producer sees
  // space again only at 2.
  struct Driver : Component {
    Driver(Scheduler& s, Fifo<int>& f) : Component(s, "drv"), fifo(f) {}
    void tick(Cycle now) override {
      if (now == 0) {
        EXPECT_TRUE(fifo.can_push());
        fifo.push(42);
        wake();
      } else if (now == 1) {
        EXPECT_EQ(fifo.pop(), 42);
        EXPECT_FALSE(fifo.can_push());  // slot frees at commit
        wake();
      } else if (now == 2) {
        EXPECT_TRUE(fifo.can_push());
      }
    }
    Fifo<int>& fifo;
  } d(sched, f);
  sched.wake_at(d, 0);
  EXPECT_TRUE(sched.run());
}

TEST(Fifo, ZeroCapacityIsRejected) {
  Scheduler sched;
  EXPECT_THROW(Fifo<int>(sched, 0), std::invalid_argument);
}

TEST(Fifo, CapacityThreeRingWrapsInOrder) {
  // A slow consumer keeps the ring full, so head and tail wrap every
  // third value; the capacity is deliberately not a power of two.
  Scheduler sched;
  Fifo<int> f(sched, 3);
  Producer p(sched, f, 100);
  SlowConsumer c(sched, f, 2);
  sched.wake_at(p, 0);
  EXPECT_TRUE(sched.run());
  ASSERT_EQ(c.got.size(), 100u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(c.got[static_cast<std::size_t>(i)], i);
  }
  EXPECT_TRUE(f.empty());
}

TEST(Fifo, PopBeforeProducerTickWakesProducerNextCycle) {
  // The consumer is built first, so it ticks before the producer within
  // a cycle.  At cycle 1 it pops the only slot's entry; the producer's
  // can_push() then fails (the slot frees at 2) and the FIFO itself
  // wakes the producer for 2 — the producer never wakes itself.
  Scheduler sched;
  Fifo<int> f(sched, 1);
  Consumer c(sched, f);
  struct OneShotProducer : Component {
    OneShotProducer(Scheduler& s, Fifo<int>& q)
        : Component(s, "prod"), fifo(q) {
      q.set_producer(this);
    }
    void tick(Cycle now) override {
      ticks.push_back(now);
      const bool ok = fifo.can_push();
      accepted.push_back(ok);
      if (ok) fifo.push(static_cast<int>(now));
    }
    Fifo<int>& fifo;
    std::vector<Cycle> ticks;
    std::vector<bool> accepted;
  } p(sched, f);
  sched.wake_at(p, 0);
  sched.wake_at(p, 1);
  EXPECT_TRUE(sched.run());
  EXPECT_EQ(p.ticks, (std::vector<Cycle>{0, 1, 2}));
  EXPECT_EQ(p.accepted, (std::vector<bool>{true, false, true}));
  EXPECT_EQ(c.got, (std::vector<std::pair<Cycle, int>>{{1, 0}, {3, 2}}));
}

TEST(Fifo, ReadsAfterRunSeeTheLastCyclesPushes) {
  // Outside dispatch every entry is settled: a push made in the last
  // dispatched cycle is readable once run() returns, and stays visible
  // when a between-runs wake dispatches that cycle again.
  struct SizeProbe : Component {
    SizeProbe(Scheduler& s, Fifo<int>& q) : Component(s, "probe"), fifo(q) {}
    void tick(Cycle) override { seen = fifo.size(); }
    Fifo<int>& fifo;
    std::size_t seen = 0;
  };
  Scheduler sched;
  Fifo<int> f(sched, 4);
  Producer p(sched, f, 2);
  SizeProbe probe(sched, f);
  sched.wake_at(p, 5);
  EXPECT_TRUE(sched.run());
  EXPECT_EQ(sched.now(), 6u);
  ASSERT_EQ(f.size(), 2u);
  EXPECT_EQ(f.front(), 0);
  EXPECT_EQ(f.peek(1), 1);
  EXPECT_EQ(f.producer_occupancy(), 2u);
  sched.wake_at(probe, sched.now());
  EXPECT_TRUE(sched.run());
  EXPECT_EQ(probe.seen, 2u);
}

TEST(Fifo, PushesInOneTickIssueOneConsumerWake) {
  // Only the first push of a cycle wakes the consumer: three pushes in
  // one tick cost one wake request, none of them deduped.
  struct Burst : Component {
    Burst(Scheduler& s, Fifo<int>& q) : Component(s, "burst"), fifo(q) {}
    void tick(Cycle) override {
      for (int v = 0; v < 3; ++v) fifo.push(v);
    }
    Fifo<int>& fifo;
  };
  Scheduler sched;
  Fifo<int> f(sched, 4);
  Burst b(sched, f);
  Consumer c(sched, f);
  sched.wake_at(b, 1);
  EXPECT_TRUE(sched.run());
  EXPECT_EQ(sched.wake_requests(), 2u);  // the test's wake + one push wake
  EXPECT_EQ(sched.wakes_deduped(), 0u);
  EXPECT_EQ(c.got,
            (std::vector<std::pair<Cycle, int>>{{2, 0}, {2, 1}, {2, 2}}));
}

TEST(FifoDeathTest, BoundsAreCheckedInEveryBuildMode) {
  Scheduler sched;
  Fifo<int> f(sched, 1);
  EXPECT_DEATH(f.pop(), "pop on an empty FIFO");
  EXPECT_DEATH(static_cast<void>(f.front()), "past the visible entries");
  f.push(1);
  EXPECT_DEATH(f.push(2), "push on a full FIFO");
  EXPECT_DEATH(static_cast<void>(f.peek(1)), "past the visible entries");
}

TEST(FifoDeathTest, PendingPushIsNotPoppable) {
  // This cycle's push is past the visible entries for the whole cycle.
  struct PushPop : Component {
    PushPop(Scheduler& s, Fifo<int>& q) : Component(s, "pushpop"), fifo(q) {}
    void tick(Cycle) override {
      fifo.push(1);
      fifo.pop();
    }
    Fifo<int>& fifo;
  };
  Scheduler sched;
  Fifo<int> f(sched, 2);
  PushPop pp(sched, f);
  sched.wake_at(pp, 1);
  EXPECT_DEATH(sched.run(), "pop on an empty FIFO");
}

// ---------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------

TEST(Stats, CountersStartAtZeroAndAccumulate) {
  StatSet s;
  EXPECT_EQ(s.get("x"), 0u);
  s.inc("x");
  s.inc("x", 4);
  EXPECT_EQ(s.get("x"), 5u);
}

TEST(Stats, AccumulatorTracksMinMeanMax) {
  StatSet s;
  s.sample("lat", 10.0);
  s.sample("lat", 20.0);
  s.sample("lat", 30.0);
  EXPECT_DOUBLE_EQ(s.acc("lat").mean(), 20.0);
  EXPECT_DOUBLE_EQ(s.acc("lat").min(), 10.0);
  EXPECT_DOUBLE_EQ(s.acc("lat").max(), 30.0);
  EXPECT_EQ(s.acc("lat").count(), 3u);
}

TEST(Stats, MergeAddsCountersAndAccumulators) {
  StatSet a;
  StatSet b;
  a.inc("x", 2);
  b.inc("x", 3);
  b.inc("y", 1);
  a.sample("v", 1.0);
  b.sample("v", 3.0);
  a.merge(b);
  EXPECT_EQ(a.get("x"), 5u);
  EXPECT_EQ(a.get("y"), 1u);
  EXPECT_EQ(a.acc("v").count(), 2u);
  EXPECT_DOUBLE_EQ(a.acc("v").mean(), 2.0);
}

// ---------------------------------------------------------------------
// RNG
// ---------------------------------------------------------------------

TEST(Rng, DeterministicForSameSeed) {
  Xoshiro256 a(7);
  Xoshiro256 b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Xoshiro256 a(1);
  Xoshiro256 b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next() == b.next());
  EXPECT_LT(same, 4);
}

TEST(Rng, NextBelowStaysInRange) {
  Xoshiro256 r(99);
  for (int i = 0; i < 1000; ++i) {
    const auto v = r.next_below(7);
    EXPECT_LT(v, 7u);
  }
}

TEST(Rng, NextDoubleInUnitInterval) {
  Xoshiro256 r(5);
  for (int i = 0; i < 1000; ++i) {
    const double d = r.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

// ---------------------------------------------------------------------
// Task (coroutines)
// ---------------------------------------------------------------------

Task<int> make_value_task(int v) { co_return v; }

Task<int> nested_sum(int a, int b) {
  const int x = co_await make_value_task(a);
  const int y = co_await make_value_task(b);
  co_return x + y;
}

TEST(Task, LazyStartAndResult) {
  auto t = make_value_task(42);
  EXPECT_FALSE(t.done());
  t.start();
  EXPECT_TRUE(t.done());
  EXPECT_EQ(t.result(), 42);
}

TEST(Task, NestedCoAwaitWithSymmetricTransfer) {
  auto t = nested_sum(20, 22);
  t.start();
  EXPECT_TRUE(t.done());
  EXPECT_EQ(t.result(), 42);
}

Task<> throwing_task() {
  throw std::runtime_error("boom");
  co_return;
}

TEST(Task, ExceptionPropagatesToOwner) {
  auto t = throwing_task();
  t.start();
  EXPECT_TRUE(t.done());
  EXPECT_THROW(t.rethrow_if_error(), std::runtime_error);
}

TEST(Task, OnDoneFires) {
  bool fired = false;
  auto t = make_value_task(1);
  t.set_on_done([](void* flag) { *static_cast<bool*>(flag) = true; }, &fired);
  t.start();
  EXPECT_TRUE(fired);
}

TEST(Task, CoroutineFramesComeFromTheThreadLocalPool) {
  // Warm-up: the first task of a given frame size is a miss; every
  // subsequent one of the same shape must be served from the free list.
  {
    auto t = make_value_task(1);
    t.start();
  }
  const FramePool::Stats warm = FramePool::tls().stats();
  for (int i = 0; i < 100; ++i) {
    auto t = make_value_task(i);
    t.start();
    EXPECT_EQ(t.result(), i);
  }
  const FramePool::Stats after = FramePool::tls().stats();
  EXPECT_EQ(after.misses, warm.misses) << "warm frames must not hit malloc";
  EXPECT_GE(after.hits, warm.hits + 100);
}

}  // namespace
}  // namespace medea::sim

#pragma once

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "sim/types.h"

/// \file scheduler.h
/// The cycle-accurate discrete-event kernel at the bottom of MEDEA.
///
/// The paper models every block as a synchronous SystemC module clocked by
/// a single clock.  We reproduce those semantics with an event-driven
/// kernel so that cycles in which no component has work are skipped
/// entirely; this is what makes the 168-point design-space sweep of the
/// paper's Section III affordable on one machine.
///
/// Semantics contract (matches RTL intuition):
///  * A component's tick(now) sees only state written in cycles < now.
///  * Values pushed into channels during tick(now) become visible to
///    consumers at cycle now+1 (a channel hides the pushes of the cycle
///    being dispatched; see sim/fifo.h).
///  * A component may receive spurious ticks; tick() must be idempotent
///    when there is no work to do.
///  * wake() during a tick may only target strictly future cycles.
///
/// Event-queue structure (SchedulerConfig): almost every wake in this
/// model targets `now+1` (FIFO pushes and pops, link writes,
/// self-re-arming engines), so the default kernel is a three-tier calendar:
///  * Near tier — wakes for `now` and `now+1` set one bit in a bitmap
///    indexed by the component's construction order, one bitmap per
///    cycle parity.  The inline wake_at() fast path is a stamp compare
///    and a bit set.
///  * Ring tier — a power-of-two ring of per-cycle buckets for
///    `now+2 .. now+ring`, each an intrusive singly-linked list threaded
///    through the components themselves (zero allocation).
///  * Overflow tier — a binary heap for anything further out
///    (DDR-scale delays, idle-period jumps).
/// Dispatching cycle t ORs t's ring bucket and heap entries into t's
/// near bitmap, then walks its set bits with a find-first-set scan and
/// ticks each component straight from an order -> Component* table.
/// Set-bit order *is* construction order, so no batch is gathered or
/// sorted.  The pure binary heap stays selectable as the whole kernel
/// (gather, sort by construction order, tick) for differential testing.
///
/// Dispatch order is bit-identical between every kernel (calendar,
/// binary heap, and the sharded executor in sim/domain.h): within a
/// cycle components tick in construction order — a canonical order that
/// is identical however the wake requests arrived and however the model
/// is partitioned across shards.  The contract already makes
/// within-cycle tick order unobservable (next-cycle visibility), so the
/// canonical order changes no simulation result; it exists so observer
/// event streams (delivery logs, flit traces) are comparable
/// bit-for-bit across kernels.

namespace medea::sim {

class Scheduler;
class Component;

/// Periodic observer of simulated-time progress, for telemetry sampling.
///
/// The scheduler calls on_cycle(now) at the top of any dispatched cycle
/// that has reached the cycle the hook last asked for (before any
/// component ticks, so the hook sees only state written in cycles
/// < now).  The return value is the next cycle of interest; returning
/// kNeverCycle mutes the hook.  Because the check rides the run loop's
/// existing cycle advance — one integer compare per *dispatched cycle*,
/// nothing per wake or per event — an unset hook costs effectively zero
/// on the kernel hot path, which is what lets telemetry stay compiled in
/// everywhere and be enabled per run.
class CycleHook {
 public:
  virtual ~CycleHook() = default;
  virtual Cycle on_cycle(Cycle now) = 0;
};

namespace detail {

/// Intrusive calendar-bucket link.  Every Component embeds one node (the
/// common case: at most one pending wake), and the scheduler keeps a
/// recycled pool of spill nodes for components with several wakes in
/// flight at once (e.g. a timed operation plus an engine self-wake).
struct WakeNode {
  Component* comp = nullptr;
  WakeNode* next = nullptr;
  bool pooled = false;  ///< false: embedded in its component
  bool active = false;  ///< embedded node currently linked in a bucket
};

}  // namespace detail

/// Base class for every clocked hardware model.
class Component {
 public:
  Component(Scheduler& sched, std::string name);
  /// Clears this component's slot in the scheduler's order table, so the
  /// scheduler must outlive every component built on it.
  virtual ~Component();

  Component(const Component&) = delete;
  Component& operator=(const Component&) = delete;

  /// One clock cycle of work.  Called only on cycles for which the
  /// component was woken (by itself, by a channel, or by another block).
  virtual void tick(Cycle now) = 0;

  const std::string& name() const { return name_; }
  Scheduler& scheduler() const { return sched_; }

 protected:
  /// Request a tick at now+delta (delta >= 1 while the clock is running).
  void wake(Cycle delta = 1);

  /// Global construction sequence number — the canonical within-cycle
  /// dispatch order and the component's bit in the near-tier bitmaps
  /// (see the file comment).  Shard schedulers created by one SimDomain
  /// share a single counter, so the order is global across the whole
  /// partitioned model.
  std::uint64_t order() const { return order_; }

 private:
  friend class Scheduler;
  Scheduler& sched_;
  std::string name_;
  std::uint64_t order_;              // canonical dispatch order key
  Cycle last_ticked_ = kNeverCycle;  // dedup guard for same-cycle wakes
  Cycle last_wake_cycle_ = 0;        // push-time dedup stamp (see wake_at)
  detail::WakeNode hook_;            // intrusive calendar-bucket hook
};

/// The simulation kernel.
class Scheduler {
 public:
  explicit Scheduler(const SchedulerConfig& cfg = {});
  ~Scheduler();
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  const SchedulerConfig& config() const { return cfg_; }

  Cycle now() const { return now_; }

  /// True while dispatch_cycle() is ticking components for now(): the
  /// window in which the channel writes of this dispatch are pending.
  bool dispatching() const { return dispatching_; }

  /// Total cycles in which at least one component ticked.  Every
  /// dispatch_cycle() call counts, so the value also names the cycle
  /// being dispatched (sim::Fifo stamps its push and pop batches with it).
  std::uint64_t active_cycles() const { return active_cycles_; }

  /// Schedule component c to tick at absolute cycle `at`.
  /// While dispatching a cycle, `at` must be strictly in the future.
  ///
  /// Duplicate wakes for the same (component, future cycle) are deduped
  /// at push time via a per-component last-wake stamp, so a hot FIFO
  /// fan-in (N channels pushing into one router in the same cycle)
  /// costs one push instead of N.  A second dedup layer at dispatch time
  /// (Component::last_ticked_) covers the remaining `at == now` path.
  /// The `now+1` case is inline (below); the rest is out of line.
  void wake_at(Component& c, Cycle at);

  /// Pressure counters: total wake_at() requests and how many were
  /// absorbed by the push-time dedup (never reached a queue).
  std::uint64_t wake_requests() const { return wake_requests_; }
  std::uint64_t wakes_deduped() const { return wakes_deduped_; }
  std::uint64_t heap_pushes() const { return wake_requests_ - wakes_deduped_; }

  /// Where the surviving pushes landed: the calendar's near bitmaps and
  /// ring buckets (counted together) vs the overflow binary heap.  In the
  /// legacy kBinaryHeap kernel every push counts as an overflow push.
  std::uint64_t bucket_pushes() const { return bucket_pushes_; }
  std::uint64_t overflow_pushes() const { return overflow_pushes_; }

  /// Effective log2 ring size after clamping / auto-sizing (0 under the
  /// kBinaryHeap kernel, which has no ring).
  std::uint32_t ring_bits_chosen() const { return ring_bits_chosen_; }

  /// Observed wake-horizon histogram: bucket k counts surviving pushes
  /// whose horizon (at - now) had bit_width k, i.e. fell in
  /// [2^(k-1), 2^k); bucket 0 counts zero-horizon pushes (at == now,
  /// legal between runs).  The basis for ring auto-sizing calibration.
  const std::array<std::uint64_t, 65>& wake_horizon_histogram() const {
    return horizon_hist_;
  }

  /// Smallest ring_bits (clamped to [6, 20]) whose ring would have
  /// absorbed at least `coverage` of the observed wake horizons — what
  /// SchedulerConfig::horizon_hint should be tuned toward.
  std::uint32_t suggested_ring_bits(double coverage = 0.999) const;

  /// Entries currently queued across every tier (near bitmaps, calendar
  /// ring, overflow heap) — the "event queue occupancy" telemetry gauge.
  /// A near-tier push counts once even when its bit was already set, so
  /// the gauge reads the same as a one-entry-per-push queue would.
  std::size_t queued() const {
    return near_count_[0] + near_count_[1] + ring_count_ + heap_.size();
  }

  /// Install (or clear, with nullptr) the periodic cycle hook.  `first`
  /// is the first cycle of interest; after that the hook's own return
  /// values drive the cadence.
  void set_cycle_hook(CycleHook* hook, Cycle first = 0) {
    hook_ = hook;
    hook_next_ = hook == nullptr ? kNeverCycle : first;
  }

  /// Run until the event queues empty or `limit` is passed.
  /// Returns true if the system went idle (queues drained), false if the
  /// cycle limit stopped the run (useful as a livelock/deadlock guard).
  bool run(Cycle limit = kNeverCycle);

  /// Convenience: run with a hard limit and abort (assert/throw) if the
  /// limit is reached.  Used by tests and by MedeaSystem::run().
  void run_or_throw(Cycle limit);

  /// Abort the run loop at the end of the current cycle.
  void request_stop() { stop_requested_ = true; }

  bool idle() const { return queued() == 0; }

  // ------------------------------------------------------------------
  // Sharded-executor interface (sim::SimDomain).  A SimDomain drives
  // several shard schedulers in lockstep: per global cycle it asks each
  // shard for its next event time, min-reduces across shards, then has
  // due shards dispatch_cycle(t) and idle shards fast_forward(t).  The
  // single-thread run() loop is built from the same pieces, so the two
  // execution modes cannot drift apart.
  // ------------------------------------------------------------------

  /// Earliest pending event time across every tier (kNeverCycle: idle).
  Cycle next_event_cycle() const {
    // Near-tier entries target now_ or now_+1, and nothing is queued
    // before now_.
    if (near_count_[now_ & 1] != 0) return now_;
    Cycle t = near_count_[(now_ + 1) & 1] != 0 ? now_ + 1 : kNeverCycle;
    if (ring_count_ != 0) t = std::min(t, next_ring_cycle());
    if (!heap_.empty() && heap_.top().cycle < t) t = heap_.top().cycle;
    return t;
  }

  /// Dispatch one cycle: tick every component woken for `t` (which must
  /// be next_event_cycle()) in canonical component order.  Does not fire
  /// the cycle hook — the caller (run() or the SimDomain) owns hook
  /// cadence.
  void dispatch_cycle(Cycle t);

  /// Advance now() to `t` without dispatching (every pending event is
  /// known to be later than `t`).  The sharded executor uses this to
  /// keep an idle shard's clock in lockstep so that wakes delivered by
  /// the cross-shard drain phase (at t+1) satisfy the monotonicity
  /// invariants and stay inside the calendar ring's horizon window.
  void fast_forward(Cycle t) {
    assert(t >= now_);
    assert(next_event_cycle() > t);
    now_ = t;
  }

  bool stop_requested() const { return stop_requested_; }
  void reset_stop() { stop_requested_ = false; }

  /// Redirect the component-construction order counter (the canonical
  /// dispatch key) to shared storage.  A SimDomain points every shard at
  /// one counter *before any component is built*, making construction
  /// order global across the partitioned model.
  void adopt_order_counter(std::uint64_t* counter) {
    order_counter_ = counter;
  }
  std::uint64_t next_component_order() { return (*order_counter_)++; }

  /// Optional trace sink; null disables tracing.
  void set_trace(std::ostream* os) { trace_ = os; }
  std::ostream* trace() const { return trace_; }
  bool tracing() const { return trace_ != nullptr; }

 private:
  struct Event {
    Cycle cycle;
    std::uint64_t seq;  // FIFO order among same-cycle events => determinism
    Component* component;
    bool operator>(const Event& o) const {
      return cycle != o.cycle ? cycle > o.cycle : seq > o.seq;
    }
  };

  /// Head/tail of one calendar bucket's intrusive FIFO list.
  struct Bucket {
    detail::WakeNode* head = nullptr;
    detail::WakeNode* tail = nullptr;
  };

  friend class Component;

  /// Enter `c` in the order table (Component's constructor); grows the
  /// table and both near bitmaps geometrically.
  void register_component(Component& c);
  /// Out-of-line part of wake_at(): every wake but the calendar's `now+1`.
  void wake_slow(Component& c, Cycle at);
  /// Set component `order`'s bit in the near bitmap of `at`'s parity.
  void mark_near(Cycle at, std::uint64_t order) {
    near_[at & 1][order >> 6] |= std::uint64_t{1} << (order & 63);
  }
  /// Mark `c` due at `at` (now_ or now_+1) in the near tier.
  void push_near(Component& c, Cycle at) {
    mark_near(at, c.order_);
    ++near_count_[at & 1];
    ++bucket_pushes_;
  }
  void push_bucket(Component& c, Cycle at);
  void push_heap(Component& c, Cycle at);
  /// Legacy kBinaryHeap dispatch: gather t's batch, sort it by
  /// construction order, tick it.
  void dispatch_sorted(Cycle t);
  detail::WakeNode* acquire_node(Component& c);
  void release_node(detail::WakeNode* n);
  /// Earliest non-empty ring cycle in [now_, now_ + ring size), or
  /// kNeverCycle.  A bitmap word scan, so idle gaps cost ~ring/64 tests.
  Cycle next_ring_cycle() const;
  /// Move t's ring bucket into t's near bitmap.
  void drain_bucket(Cycle t);

  SchedulerConfig cfg_;
  bool use_calendar_ = true;
  std::uint32_t ring_bits_chosen_ = 0;
  Cycle now_ = 0;
  bool dispatching_ = false;
  bool stop_requested_ = false;
  std::uint64_t seq_ = 0;
  std::uint64_t order_counter_storage_ = 0;
  std::uint64_t* order_counter_ = &order_counter_storage_;
  std::uint64_t active_cycles_ = 0;
  std::uint64_t wake_requests_ = 0;
  std::uint64_t wakes_deduped_ = 0;
  std::uint64_t bucket_pushes_ = 0;
  std::uint64_t overflow_pushes_ = 0;
  std::array<std::uint64_t, 65> horizon_hist_{};

  // Telemetry hook: hook_next_ is kNeverCycle whenever hook_ is null, so
  // the disabled case is a single always-false compare in run().
  CycleHook* hook_ = nullptr;
  Cycle hook_next_ = kNeverCycle;

  // Near tier: order -> component table (null for orders built on
  // another shard or already destroyed), one order-indexed bitmap per
  // cycle parity, and the pushes each bitmap holds.
  std::vector<Component*> by_order_;
  std::array<std::vector<std::uint64_t>, 2> near_;
  std::array<std::size_t, 2> near_count_{};

  // Calendar tier: ring of buckets indexed by (cycle & ring_mask_), an
  // occupancy bitmap for next-event scans, and the spill-node pool.
  std::size_t ring_mask_ = 0;
  std::size_t ring_count_ = 0;  ///< nodes currently linked in buckets
  std::vector<Bucket> ring_;
  std::vector<std::uint64_t> ring_bitmap_;
  std::vector<std::unique_ptr<detail::WakeNode[]>> node_blocks_;
  detail::WakeNode* free_nodes_ = nullptr;

  // Overflow tier (the whole kernel under kBinaryHeap).
  std::priority_queue<Event, std::vector<Event>, std::greater<>> heap_;

  std::vector<Component*> dispatch_batch_;  ///< kBinaryHeap only
  std::ostream* trace_ = nullptr;
};

inline void Scheduler::wake_at(Component& c, Cycle at) {
  assert(&c.sched_ == this && "wake a component on its own scheduler");
  // The dominant wake: next cycle, calendar kernel.  Same counters and
  // push-time dedup as wake_slow(), whose comments explain them.
  if (at == now_ + 1 && use_calendar_) [[likely]] {
    ++wake_requests_;
    if (c.last_wake_cycle_ == at) {
      ++wakes_deduped_;
      return;
    }
    c.last_wake_cycle_ = at;
    ++horizon_hist_[1];
    push_near(c, at);
    return;
  }
  wake_slow(c, at);
}

inline void Component::wake(Cycle delta) {
  sched_.wake_at(*this, sched_.now() + delta);
}

}  // namespace medea::sim

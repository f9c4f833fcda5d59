#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/thread_annotations.h"
#include "sim/scheduler.h"
#include "sim/types.h"

/// \file domain.h
/// The sharded parallel simulation kernel: several calendar-queue
/// Scheduler shards driven in lockstep, one global cycle at a time.
///
/// Graphite-style cycle-level distribution: the model is partitioned
/// into per-thread shards (a torus shards by row bands — see
/// noc::Network), each shard owns its components and runs its own
/// calendar queue, and shards synchronize at every active cycle with a
/// sense-reversing spin barrier.  Cross-shard links are one-flit
/// registers double-buffered by cycle parity (noc::Link): the producer
/// shard writes the entry for c+1 while dispatching cycle c, and the
/// consumer shard's drain phase, after the post-dispatch barrier, wakes
/// the consumer for c+1 on its own scheduler — so a flit crossing the
/// boundary at cycle c is seen when the neighbor shard dispatches c+1,
/// exactly the single-thread link timing.
///
/// One global cycle runs in three barrier-separated phases:
///
///   publish   each shard posts its next-event time; barrier
///   serial    shard 0 alone: flush the previous cycle's cross-shard
///             observer events (in shard order = canonical component
///             order), min-reduce the global next cycle t, fire the
///             cycle hook for t; barrier
///   parallel  due shards dispatch_cycle(t), idle shards
///             fast_forward(t); barrier; each shard runs its drain
///             hooks (consumer wakes at t+1 for full seam links)
///
/// Every phase boundary is a full acquire/release barrier, so the seam
/// links and per-shard state need no atomics of their own — writers
/// and readers of any location are always separated by a barrier, which
/// is also what makes the kernel ThreadSanitizer-clean.
///
/// That barrier-ownership discipline is machine-checked at compile time
/// (clang -Wthread-safety, the MEDEA_THREAD_SAFETY build option) with
/// three capability tokens (see core/thread_annotations.h):
///
///   setup_    the registration tables (drains_, cycle_end_,
///             pre_sample_, hook_) — written only before run() spawns
///             workers, read shared by every shard during the run
///   publish_  the padded next-event slots — each shard exclusively
///             writes its own slot in the publish window, every shard
///             reads all slots after the publish barrier
///   serial_   the lockstep clock and end-of-cycle state (now_,
///             active_cycles_, hook_next_, pending_flush_, stop_flag_)
///             — exclusively owned by shard 0 between the publish and
///             serial barriers, read shared by all after the serial
///             barrier, and owned by the external caller whenever no
///             worker thread is running
///
/// Determinism: the global cycle sequence is a pure min-reduction of
/// per-shard next-event times; within a cycle each shard ticks in the
/// canonical component-construction order (shared across shards via one
/// order counter) and cross-shard effects land at t+1 regardless of
/// which thread got where first.  Results — cycle counts, delivery
/// logs, stats, flit traces — are bit-identical to the single-thread
/// calendar kernel; test_scheduler_diff enforces it on every registry
/// workload.
///
/// Worker threads are spawned per run() call (a run is seconds of work;
/// thread startup is microseconds) and joined before run() returns, so
/// the domain is externally single-threaded.

namespace medea::sim {

class SimDomain {
 public:
  /// Build the shard set for `cfg`.  The shard count is
  /// resolve_shards(cfg, max_useful_shards); anything other than
  /// kShardedCalendar, and models that cannot shard (pass
  /// max_useful_shards = 1), get exactly one shard — the transparent
  /// single-thread fallback.  Shard schedulers run the calendar kernel
  /// under kShardedCalendar and the configured kernel otherwise, so a
  /// 1-shard domain is bit-identical to a plain Scheduler.
  explicit SimDomain(const SchedulerConfig& cfg, int max_useful_shards = 0);
  ~SimDomain();

  SimDomain(const SimDomain&) = delete;
  SimDomain& operator=(const SimDomain&) = delete;

  /// Shard count `cfg` resolves to: 1 unless kShardedCalendar, else
  /// num_shards (0 = std::thread::hardware_concurrency), clamped to
  /// [1, max_useful] (0 = unclamped) and a sanity cap of 64.
  static int resolve_shards(const SchedulerConfig& cfg, int max_useful);

  int num_shards() const { return static_cast<int>(shards_.size()); }
  bool sharded() const { return shards_.size() > 1; }
  Scheduler& shard(int s) { return *shards_[static_cast<std::size_t>(s)]; }
  const Scheduler& shard(int s) const {
    return *shards_[static_cast<std::size_t>(s)];
  }

  /// Last dispatched global cycle (the lockstep clock).
  Cycle now() const {
    // Invariant: external reads happen only while no worker is running
    // (run() joins before returning), or from the serial phase.
    serial_.assert_shared();
    return sharded() ? now_ : shards_[0]->now();
  }

  /// Global cycles in which at least one shard ticked — the exact
  /// analogue of Scheduler::active_cycles() and bit-identical to it.
  std::uint64_t active_cycles() const {
    serial_.assert_shared();  // same invariant as now()
    return sharded() ? active_cycles_ : shards_[0]->active_cycles();
  }

  bool idle() const;

  /// Run until every shard drains or `limit` is passed; same contract
  /// as Scheduler::run (false = the cycle limit stopped the run).
  bool run(Cycle limit = kNeverCycle);
  void run_or_throw(Cycle limit);

  /// Cycle hook with Scheduler::set_cycle_hook semantics, fired once
  /// per global cycle from the serial phase (so it observes
  /// end-of-previous-cycle state across every shard).
  void set_cycle_hook(CycleHook* hook, Cycle first = 0);

  // ------------------------------------------------------------------
  // Cross-shard services (registered at model construction time)
  // ------------------------------------------------------------------

  /// Per-shard drain-phase work for the cycle just dispatched: turn what
  /// neighbor shards wrote for shard `s` this cycle (full seam links)
  /// into wakes on shard s's own scheduler.  Runs on shard s's thread,
  /// after every shard's commits and before any shard's next dispatch.
  void add_shard_drain(int s, std::function<void(Cycle)> fn);

  /// Serial end-of-cycle work (observer fan-in flush, in registration
  /// order): runs on shard 0's thread once per active global cycle,
  /// while every other shard is parked at a barrier.
  void add_cycle_end(std::function<void(Cycle)> fn);

  /// Serial pre-hook work (e.g. merging per-shard StatSets so a
  /// telemetry sampler reads coherent aggregates): runs immediately
  /// before the cycle hook fires, and only then — an unsampled run
  /// never pays for it.
  void add_pre_sample(std::function<void()> fn);

  // ------------------------------------------------------------------
  // Aggregated kernel counters (sums over shards; the wake/dedup/active
  // counters are kernel-independent and bit-match the single-thread
  // kernels — see workload::add_sched_stats)
  // ------------------------------------------------------------------

  std::uint64_t wake_requests() const;
  std::uint64_t wakes_deduped() const;
  std::uint64_t bucket_pushes() const;
  std::uint64_t overflow_pushes() const;
  std::uint64_t commit_pushes() const;
  std::uint64_t commits_deduped() const;
  std::size_t queued() const;

  /// Wall-clock nanoseconds threads spent spinning at cycle barriers,
  /// summed over shards (the bench's load-imbalance metric).
  std::uint64_t barrier_wait_ns() const {
    return barrier_wait_ns_.load(std::memory_order_relaxed);
  }

 private:
  bool run_sharded(Cycle limit);
  /// One shard's run loop; returns true when the run ended idle.
  bool shard_loop(int s, Cycle limit);
  void barrier_wait(std::uint64_t* wait_ns);

  // Ownership tokens for clang's thread-safety analysis (see the file
  // comment for the phase protocol each one encodes).  Zero-size, every
  // operation on them compiles to nothing.
  core::Capability setup_;    ///< registration tables, frozen at run()
  core::Capability publish_;  ///< padded next-event slots
  core::Capability serial_;   ///< lockstep clock + end-of-cycle state

  SchedulerConfig cfg_;
  std::vector<std::unique_ptr<Scheduler>> shards_;
  std::uint64_t order_counter_ = 0;

  Cycle now_ MEDEA_GUARDED_BY(serial_) = 0;
  std::uint64_t active_cycles_ MEDEA_GUARDED_BY(serial_) = 0;
  CycleHook* hook_ MEDEA_GUARDED_BY(setup_) = nullptr;
  Cycle hook_next_ MEDEA_GUARDED_BY(serial_) = kNeverCycle;

  std::vector<std::vector<std::function<void(Cycle)>>> drains_
      MEDEA_GUARDED_BY(setup_);
  std::vector<std::function<void(Cycle)>> cycle_end_ MEDEA_GUARDED_BY(setup_);
  std::vector<std::function<void()>> pre_sample_ MEDEA_GUARDED_BY(setup_);

  // Sense-reversing spin barrier (generation counter + arrival count).
  std::atomic<std::uint32_t> arrived_{0};
  std::atomic<std::uint64_t> generation_{0};
  std::atomic<std::uint64_t> barrier_wait_ns_{0};

  /// Per-shard next-event times, published before each barrier.  Padded
  /// to cache lines so publishing doesn't bounce one line between every
  /// shard.
  struct alignas(64) PaddedCycle {
    Cycle value = kNeverCycle;
  };
  std::vector<PaddedCycle> local_next_ MEDEA_GUARDED_BY(publish_);

  // Written only by shard 0 in the serial phase, read by all after the
  // following barrier.
  Cycle pending_flush_ MEDEA_GUARDED_BY(serial_) =
      kNeverCycle;  ///< cycle whose end work is owed
  bool stop_flag_ MEDEA_GUARDED_BY(serial_) = false;
};

}  // namespace medea::sim

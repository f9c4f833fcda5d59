#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/thread_annotations.h"
#include "sim/scheduler.h"
#include "sim/types.h"

/// \file fifo.h
/// Synchronous single-producer/single-consumer FIFO channel.
///
/// This is the general interconnect primitive of the model: the routers'
/// inject/eject queues, the buffered-XY baseline's links, the TIE
/// message-passing ports, the pif2NoC arbiter queues and the MPMMU's
/// Pif-Request / Pif-Data / outgoing queues are all Fifo<T>.  (The
/// deflection fabric's links are one-flit registers instead — see
/// noc::Link.)
///
/// Timing semantics (hardware-faithful):
///  * push() during cycle T becomes visible to the consumer at T+1.
///  * pop() during cycle T removes the element immediately from the
///    consumer's view, but the slot is returned to the producer's free
///    space only at T+1 (as a registered occupancy counter would).
///  * The first push of cycle T wakes the consumer for T+1.  A pop wakes
///    a producer that found the FIFO full (the blocked-producer latch)
///    for T+1, and a producer that finds it full after a pop in the same
///    cycle is woken for T+1 instead of latching.
///
/// These rules make simulation results independent of the order in which
/// components tick within a cycle.
///
/// Representation: a fixed-capacity ring plus two stamped batches, the
/// newest push batch (the last `pushed_` entries) and the newest pop
/// batch (`popped_` freed slots).  A batch is stamped with the owning
/// scheduler's active_cycles() count, which names one dispatched cycle.
/// It is pending — its entries hidden from the consumer, its slots
/// withheld from the producer — only while that cycle is dispatching.
/// Outside dispatch (after run(), in test set-up) every entry and every
/// freed slot is settled for good, so the kernel needs no end-of-cycle
/// commit step.
///
/// Bounds are checked in every build mode: a push on a full FIFO, or a
/// pop/front/peek past the visible entries, aborts — in a ring either
/// would read or overwrite a live slot.
///
/// ## Ownership (clang -Wthread-safety)
///
/// A Fifo belongs to exactly one shard: every member is touched only
/// from the owning shard's scheduler context (its dispatch phase), or
/// from the external thread while no run is in flight.  That ownership
/// is encoded in the `owner_` capability token: mutators assert
/// exclusive ownership, const readers assert shared.  No Fifo is ever
/// shared between shards: producer and consumer always run on the
/// owning shard.

namespace medea::sim {

namespace detail {
[[noreturn]] inline void fifo_bounds_fault(const char* what) {
  std::fprintf(stderr, "sim::Fifo: %s\n", what);
  std::abort();
}
}  // namespace detail

template <typename T>
class Fifo {
 public:
  Fifo(Scheduler& sched, std::size_t capacity)
      : sched_(sched), capacity_(capacity) {
    if (capacity == 0) {
      throw std::invalid_argument("sim::Fifo: capacity must be >= 1");
    }
    buf_.resize(capacity);
  }

  Fifo(const Fifo&) = delete;
  Fifo& operator=(const Fifo&) = delete;

  std::size_t capacity() const { return capacity_; }

  /// Component to wake when pushed data becomes visible.
  void set_consumer(Component* c) {
    owner_.assert_held();  // wiring time: model construction, pre-run
    consumer_ = c;
  }
  /// Component to wake when a full FIFO frees space.
  void set_producer(Component* c) {
    owner_.assert_held();  // wiring time: model construction, pre-run
    producer_ = c;
  }

  // ------------------------------------------------------------------
  // Producer interface
  // ------------------------------------------------------------------

  /// Occupancy from the producer's point of view: every entry in the
  /// ring plus the slots popped this cycle, which free at T+1.
  std::size_t producer_occupancy() const {
    owner_.assert_shared();
    return count_ + (pending(pop_stamp_) ? popped_ : 0);
  }

  bool can_push() const {
    owner_.assert_held();  // writes the missed-wakeup latch below
    if (producer_occupancy() < capacity_) return true;
    // Full.  A pop this cycle frees a slot at T+1, so wake the producer
    // then; otherwise remember it so the next pop wakes it.  Either way
    // a blocked producer can never miss its wakeup.
    if (pending(pop_stamp_)) {
      wake_producer();
    } else {
      push_blocked_ = true;
    }
    return false;
  }

  /// Append one element; visible to the consumer next cycle.
  void push(T v) {
    owner_.assert_held();  // producer runs on the owning shard
    if (producer_occupancy() >= capacity_) {
      detail::fifo_bounds_fault("push on a full FIFO");
    }
    if (push_stamp_ != sched_.active_cycles()) {
      push_stamp_ = sched_.active_cycles();
      pushed_ = 0;
      if (consumer_ != nullptr) sched_.wake_at(*consumer_, sched_.now() + 1);
    }
    ++pushed_;
    buf_[wrap(head_ + count_)] = std::move(v);
    ++count_;
  }

  // ------------------------------------------------------------------
  // Consumer interface
  // ------------------------------------------------------------------

  bool empty() const { return size() == 0; }

  /// Entries visible to the consumer: the ring minus this cycle's pushes.
  std::size_t size() const {
    owner_.assert_shared();
    return count_ - (pending(push_stamp_) ? pushed_ : 0);
  }

  const T& front() const { return peek(0); }

  /// Visible entry `i` (0 = front), without popping.  Routers use this
  /// to announce newly visible inject-queue entries to a lifecycle
  /// observer; it never reaches this cycle's pushes, so peeking cannot
  /// perturb timing.
  const T& peek(std::size_t i) const {
    owner_.assert_shared();
    if (i >= size()) detail::fifo_bounds_fault("read past the visible entries");
    return buf_[wrap(head_ + i)];
  }

  T pop() {
    owner_.assert_held();  // consumer runs on the owning shard
    if (size() == 0) detail::fifo_bounds_fault("pop on an empty FIFO");
    T v = std::move(buf_[head_]);
    head_ = wrap(head_ + 1);
    --count_;
    if (pop_stamp_ != sched_.active_cycles()) {
      pop_stamp_ = sched_.active_cycles();
      popped_ = 0;
    }
    ++popped_;
    if (push_blocked_) wake_producer();
    return v;
  }

 private:
  /// A batch is pending while the cycle it was stamped in dispatches.
  bool pending(std::uint64_t stamp) const {
    return sched_.dispatching() && stamp == sched_.active_cycles();
  }

  /// Ring index wrap; capacities need not be powers of two.
  std::size_t wrap(std::size_t i) const {
    return i >= capacity_ ? i - capacity_ : i;
  }

  /// Wake the producer for T+1 and clear the latch.
  void wake_producer() const MEDEA_REQUIRES(owner_) {
    push_blocked_ = false;
    const Cycle at = sched_.now() + 1;
    if (producer_ != nullptr && producer_woken_for_ != at) {
      producer_woken_for_ = at;
      sched_.wake_at(*producer_, at);
    }
  }

  static constexpr std::uint64_t kNoStamp = ~std::uint64_t{0};

  /// The owning shard's execution context (see the file comment).
  core::Capability owner_;

  Scheduler& sched_;
  std::size_t capacity_;
  std::vector<T> buf_ MEDEA_GUARDED_BY(owner_);
  std::size_t head_ MEDEA_GUARDED_BY(owner_) = 0;
  std::size_t count_ MEDEA_GUARDED_BY(owner_) = 0;
  std::uint64_t push_stamp_ MEDEA_GUARDED_BY(owner_) = kNoStamp;
  std::size_t pushed_ MEDEA_GUARDED_BY(owner_) = 0;
  std::uint64_t pop_stamp_ MEDEA_GUARDED_BY(owner_) = kNoStamp;
  std::size_t popped_ MEDEA_GUARDED_BY(owner_) = 0;
  mutable bool push_blocked_ MEDEA_GUARDED_BY(owner_) = false;
  /// Cycle the producer was last woken for: a pop that wakes a latched
  /// producer and a failed can_push() later in the same cycle make one
  /// wake request, not two.
  mutable Cycle producer_woken_for_ MEDEA_GUARDED_BY(owner_) = kNeverCycle;
  Component* consumer_ MEDEA_GUARDED_BY(owner_) = nullptr;
  Component* producer_ MEDEA_GUARDED_BY(owner_) = nullptr;
};

}  // namespace medea::sim

#pragma once

#include <cassert>
#include <deque>
#include <string>
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
///  * The consumer is woken automatically when data arrives; the producer
///    is woken automatically when a full FIFO gains space.
///
/// These rules make simulation results independent of the order in which
/// components tick within a cycle.
///
/// ## Ownership (clang -Wthread-safety)
///
/// A Fifo belongs to exactly one shard: every member is touched only
/// from the owning shard's scheduler context (its dispatch and commit
/// phases), or from the external thread while no run is in flight.
/// That ownership is encoded in the `owner_` capability token: mutators
/// assert exclusive ownership, const readers assert shared.  No Fifo is
/// ever shared between shards: producer and consumer always run on the
/// owning shard.

namespace medea::sim {

template <typename T>
class Fifo : public Committable {
 public:
  /// capacity == 0 means unbounded (used for modelling ideal sinks and
  /// for test instrumentation; real MEDEA queues are always bounded).
  Fifo(Scheduler& sched, std::string name, std::size_t capacity)
      : sched_(sched), name_(std::move(name)), capacity_(capacity) {}

  Fifo(const Fifo&) = delete;
  Fifo& operator=(const Fifo&) = delete;

  const std::string& name() const { return name_; }
  std::size_t capacity() const { return capacity_; }

  /// Component to wake when staged data commits (new data visible).
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

  /// Occupancy from the producer's point of view: committed entries
  /// (including ones popped this cycle, whose slots free at commit)
  /// plus entries staged this cycle.
  std::size_t producer_occupancy() const {
    owner_.assert_shared();
    return q_.size() + popped_this_cycle_ + staged_.size();
  }

  bool can_push() const {
    owner_.assert_held();  // writes the missed-wakeup latch below
    const bool ok = capacity_ == 0 || producer_occupancy() < capacity_;
    // Remember that a producer found us full so commit() can wake it as
    // soon as space appears; this prevents missed-wakeup hangs.
    if (!ok) push_blocked_ = true;
    return ok;
  }

  /// Stage one element; visible to the consumer next cycle.
  void push(T v) {
    owner_.assert_held();  // producer runs on the owning shard
    assert(can_push() && "Fifo::push on full FIFO");
    arm_commit();
    staged_.push_back(std::move(v));
  }

  // ------------------------------------------------------------------
  // Consumer interface
  // ------------------------------------------------------------------

  bool empty() const {
    owner_.assert_shared();
    return q_.empty();
  }
  std::size_t size() const {
    owner_.assert_shared();
    return q_.size();
  }

  const T& front() const {
    owner_.assert_shared();
    assert(!q_.empty());
    return q_.front();
  }

  /// Committed entry `i` (0 = front), without popping.  Routers use this
  /// to announce newly visible inject-queue entries to a lifecycle
  /// observer; it never touches staged data, so peeking cannot perturb
  /// timing.
  const T& peek(std::size_t i) const {
    owner_.assert_shared();
    assert(i < q_.size());
    return q_[i];
  }

  T pop() {
    owner_.assert_held();  // consumer runs on the owning shard
    assert(!q_.empty());
    T v = std::move(q_.front());
    q_.pop_front();
    ++popped_this_cycle_;
    arm_commit();
    return v;
  }

  // ------------------------------------------------------------------
  // Committable
  // ------------------------------------------------------------------

  void commit() override {
    owner_.assert_held();  // commit phase of the owning shard
    const bool gained_data = !staged_.empty();
    for (auto& v : staged_) q_.push_back(std::move(v));
    staged_.clear();
    popped_this_cycle_ = 0;
    commit_stamp_ = kNeverCycle;
    if (gained_data && consumer_ != nullptr) {
      sched_.wake_at(*consumer_, sched_.now() + 1);
    }
    if (push_blocked_ && producer_ != nullptr &&
        (capacity_ == 0 || q_.size() < capacity_)) {
      push_blocked_ = false;
      sched_.wake_at(*producer_, sched_.now() + 1);
    }
  }

 private:
  /// Epoch-stamp commit-list dedup: a busy FIFO takes several pushes and
  /// pops per cycle (a router pops four links and pushes four), but must
  /// appear on the scheduler's commit list once.  Stamping the arming
  /// cycle dedups without searching the list; the duplicates absorbed
  /// here are counted scheduler-wide (Scheduler::commits_deduped) and
  /// exported through telemetry.  commit() resets the stamp so a FIFO
  /// re-armed in the same cycle from outside the run loop (test setup
  /// code) can never lose its registration.
  void arm_commit() MEDEA_REQUIRES(owner_) {
    const Cycle now = sched_.now();
    if (commit_stamp_ == now) {
      sched_.note_commit_dedup();
      return;
    }
    commit_stamp_ = now;
    sched_.defer_commit(*this);
  }

  /// The owning shard's execution context (see the file comment).
  core::Capability owner_;

  Scheduler& sched_;
  std::string name_;
  std::size_t capacity_;
  std::deque<T> q_ MEDEA_GUARDED_BY(owner_);
  std::vector<T> staged_ MEDEA_GUARDED_BY(owner_);
  std::size_t popped_this_cycle_ MEDEA_GUARDED_BY(owner_) = 0;
  Cycle commit_stamp_ MEDEA_GUARDED_BY(owner_) = kNeverCycle;
  mutable bool push_blocked_ MEDEA_GUARDED_BY(owner_) = false;
  Component* consumer_ MEDEA_GUARDED_BY(owner_) = nullptr;
  Component* producer_ MEDEA_GUARDED_BY(owner_) = nullptr;
};

}  // namespace medea::sim

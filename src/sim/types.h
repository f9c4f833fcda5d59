#pragma once

#include <cstdint>

/// \file types.h
/// Fundamental scalar types shared by every MEDEA simulation module.

namespace medea::sim {

/// Simulation time, measured in clock cycles of the single system clock.
/// The paper's SystemC model is fully synchronous; so is this kernel.
using Cycle = std::uint64_t;

/// Sentinel for "no scheduled time".
inline constexpr Cycle kNeverCycle = ~Cycle{0};

/// Event-queue selection for the discrete-event kernel.
///
/// The calendar queue is the default: the overwhelming majority of wakes
/// (`now+1`) set one bit in a construction-order bitmap, a power-of-two
/// ring of per-cycle buckets absorbs the rest of the near future, and a
/// binary heap is kept only as an overflow tier for far-future events
/// (DDR-refresh-scale delays; see sim/scheduler.h).  The
/// pure binary heap remains selectable so differential tests can run the
/// same seed through both kernels and assert bit-identical behaviour.
/// kShardedCalendar partitions the model across per-thread calendar
/// schedulers synchronized at cycle boundaries (sim::SimDomain); code
/// paths that cannot shard (full-system apps, the XY baseline) fall back
/// transparently to one calendar shard, so the selection is always safe.
struct SchedulerConfig {
  enum class EventQueue : std::uint8_t {
    kCalendar,         ///< two-tier calendar queue + overflow heap (default)
    kBinaryHeap,       ///< legacy single binary heap (reference kernel)
    kShardedCalendar,  ///< per-thread calendar shards, lockstep cycle barrier
  };

  EventQueue queue = EventQueue::kCalendar;

  /// log2 of the calendar ring size in cycles.  Wakes within
  /// 2^ring_bits cycles of `now` land in a bucket; anything further out
  /// goes to the overflow heap.  Clamped to [6, 20] by the Scheduler.
  /// 0 = size automatically from horizon_hint (below).
  std::uint32_t ring_bits = 10;

  /// Sizing hint for ring_bits == 0: the longest wake horizon (cycles
  /// into the future) the model is expected to use routinely.  The
  /// scheduler picks the smallest ring covering 2x the hint, so the
  /// common wakes stay O(1) bucket pushes with slack for jitter; 0 means
  /// "no idea", which sizes the ring at the former fixed default (2^10).
  /// Runs export the observed wake-horizon histogram
  /// (Scheduler::suggested_ring_bits) so the hint can be calibrated.
  Cycle horizon_hint = 0;

  /// kShardedCalendar only: number of parallel shards.  0 = auto from
  /// std::thread::hardware_concurrency().  Clamped by the model's useful
  /// parallelism (a W x H torus shards by rows, so at most H shards).
  std::uint32_t num_shards = 0;

  bool operator==(const SchedulerConfig&) const = default;
};

}  // namespace medea::sim

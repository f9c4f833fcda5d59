#pragma once

#include <array>
#include <vector>

#include "noc/coord.h"
#include "noc/flit.h"
#include "sim/fifo.h"
#include "sim/rng.h"
#include "sim/scheduler.h"
#include "sim/stats.h"

/// \file router.h
/// The MEDEA deflection ("hot-potato") router, paper §II-A.
///
/// Properties reproduced from the paper:
///  * full packet switching: every flit of a packet routes independently,
///    so flits of one logic packet can (and do) arrive out of order;
///  * minimal storage: never more than one flit per input channel, no
///    packet buffers, no back-pressure between switches;
///  * deadlock-free by construction (flits always move); livelock is
///    theoretically possible, mitigated here — as in most hot-potato
///    designs — by oldest-first priority, and watched by a hop counter.
///
/// Per cycle the router:
///  1. accepts at most one flit per input link,
///  2. ejects up to eject_per_cycle flits addressed to this node,
///  3. assigns remaining flits to output ports oldest-first, preferring
///     productive directions, deflecting losers to any free port,
///  4. injects at most one local flit if an output port is still free.

namespace medea::noc {

// FlitObserver (the flit-event hook both router models fire) lives in
// flit.h so the buffered-XY baseline can use it without this header.

/// One unidirectional router-to-router link: a one-flit register.
///
/// A hot-potato link carries at most one flit per cycle and never
/// back-pressures, so it needs no queue and no end-of-cycle commit.  The
/// register is double-buffered by cycle parity: during cycle t the
/// producer router writes entry (t+1)&1 and wakes the consumer for t+1,
/// while the consumer router reads and clears entry t&1.  A flit sent at
/// t is therefore seen at t+1 (one cycle per hop), and the two sides
/// never touch the same entry in one cycle — even when they are the same
/// router (the loopback links of a 1-wide or 1-tall torus).  Writing an
/// entry that is still full would mean a flit was dropped, so the router
/// aborts instead (in every build mode).
///
/// A seam link (consumer on another shard of a sim::SimDomain) skips the
/// producer-side wake: the consumer shard's drain phase finds the full
/// entry and wakes the consumer on its own scheduler.  Cross-shard entry
/// ownership: the producer shard writes entry (t+1)&1 while dispatching
/// t; the consumer shard reads it in its drain phase after the
/// post-dispatch barrier of t, then reads and clears it while
/// dispatching t+1; the producer writes it again no earlier than t+2.
/// Every write and read of one entry is separated by a barrier, so the
/// link needs no atomics.  Ownership that flips with cycle parity is
/// finer than clang's capability analysis can express, so it is
/// documented here rather than annotated (ThreadSanitizer checks it).
struct Link {
  std::array<Flit, 2> flit{};
  std::array<bool, 2> full{};
  bool seam = false;                   ///< consumer on another shard
  sim::Component* consumer = nullptr;  ///< router reading this link
};

struct RouterConfig {
  int eject_per_cycle = 1;      ///< local delivery bandwidth (flits/cycle)
  int inject_queue_depth = 2;   ///< NI-side injection staging
  int eject_queue_depth = 4;    ///< NI-side delivery staging
  bool random_tie_break = false;  ///< age ties: random port pick vs fixed scan

  bool operator==(const RouterConfig&) const = default;
};

class DeflectionRouter : public sim::Component {
 public:
  /// `rng_seed` seeds this router's private tie-break stream.  Each
  /// router owns its generator so stochastic choices depend only on the
  /// router's own event history — never on the order in which routers
  /// tick within a cycle (the kernel's determinism contract) — which is
  /// also what makes trace replay bit-identical under random_tie_break.
  DeflectionRouter(sim::Scheduler& sched, const TorusGeometry& geom, Coord pos,
                   const RouterConfig& cfg, sim::StatSet& net_stats,
                   std::uint64_t rng_seed);

  Coord pos() const { return pos_; }

  /// Wiring (done once by Network during construction).
  void connect_input(Dir d, Link* link) { in_[static_cast<int>(d)] = link; }
  void connect_output(Dir d, Link* link) {
    out_[static_cast<int>(d)] = link;
  }

  /// Local-port queues: the network interface pushes into inject() and
  /// pops from eject().
  sim::Fifo<Flit>& inject() { return inject_q_; }
  sim::Fifo<Flit>& eject() { return eject_q_; }

  /// Attach (or detach with nullptr) a flit-event observer.  The
  /// hop-level lifecycle events are only fired when the observer asks
  /// for them (FlitObserver::wants_lifecycle), cached here so the tick
  /// path keeps its one-pointer-test cost otherwise.
  void set_observer(FlitObserver* obs) {
    observer_ = obs;
    lifecycle_ = (obs != nullptr && obs->wants_lifecycle()) ? obs : nullptr;
  }

  void tick(sim::Cycle now) override;

 private:
  const TorusGeometry& geom_;
  Coord pos_;
  int node_id_;
  RouterConfig cfg_;
  sim::StatSet& stats_;
  sim::Xoshiro256 rng_;
  FlitObserver* observer_ = nullptr;
  FlitObserver* lifecycle_ = nullptr;  ///< observer_ iff it wants hop events
  /// Inject-queue entries already announced via on_queue_enter (a
  /// watermark into the committed queue; decremented on pop).
  std::size_t q_announced_ = 0;

  // Stat handles resolved once at construction; bumping these on the
  // tick path avoids the per-event string-keyed map lookup.
  sim::Stat& st_delivered_;
  sim::Stat& st_delivered_here_;  ///< per-router series (telemetry heatmaps)
  sim::Stat& st_livelock_;
  sim::Stat& st_deflections_;
  sim::Stat& st_injected_;
  sim::Accumulator& acc_latency_;
  sim::Accumulator& acc_hops_;
  sim::Accumulator& acc_defl_;

  std::array<Link*, kNumDirs> in_{};
  std::array<Link*, kNumDirs> out_{};
  sim::Fifo<Flit> inject_q_;
  sim::Fifo<Flit> eject_q_;

  // scratch, kept as members to avoid per-tick allocation
  std::vector<Flit> route_set_;
};

}  // namespace medea::noc

#pragma once

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "noc/network.h"
#include "noc/xy_network.h"
#include "sim/domain.h"
#include "sim/scheduler.h"
#include "workload/trace.h"

/// \file replay.h
/// Trace replay: re-inject a recorded flit trace into a bare NoC.
///
/// The replayer is the fast-forward mode of the workload engine: it
/// drives the cycle-accurate network with the exact injection schedule a
/// full-system run produced, without instantiating PEs, caches, the MPMMU
/// or any coroutine program.  Because both router models are pure
/// deterministic functions of their inputs (and recorded uids preserve
/// the deflection router's oldest-first tie-breaks), a replay reproduces
/// the recorded network behaviour bit-identically, at a fraction of the
/// full simulation cost — which is what makes replay-driven NoC/DSE
/// studies cheap.  The replayer is a template over the fabric type so
/// the deflection NoC (noc::Network) and the buffered-XY baseline
/// (noc::XyNetwork) both replay through the same machinery.
///
/// v2 traces carry the recording fabric's configuration; constructing a
/// replayer over a network whose kind or RouterConfig differs throws
/// unless `allow_config_mismatch` is set — replaying onto a different
/// NoC configuration is a legitimate what-if study, but it must be
/// explicit, never an accident (the delivered timing will differ from
/// the recording).  v1 traces recorded no config and skip the check.
///
/// Mechanics: each recorded event (cycle T, src) is pushed into node
/// src's inject FIFO at cycle T-1 so it becomes visible — and, because
/// the network state matches the recording, is injected — at exactly
/// cycle T.  Injection and sinking are per-node components constructed
/// on the node's own scheduler (net.sched_of(node)), so a replay shards
/// exactly like synthetic traffic: each shard injects and drains its own
/// band of the trace, with an identical component set — and therefore
/// identical wake/dedup counters — however many shards run it.

namespace medea::workload {

struct ReplayResult {
  sim::Cycle cycles = 0;          ///< cycle at which the replay went idle
  std::uint64_t flits_injected = 0;
  std::uint64_t flits_delivered = 0;
  sim::Cycle last_delivery_cycle = 0;
};

namespace detail {
/// Throw unless the recording fabric in `meta` matches the replay
/// network (kind + configuration).  No-op for v1 metas and when
/// `allow_mismatch` is set.
void check_replay_net(const TraceMeta& meta, const noc::Network& net,
                      bool allow_mismatch);
void check_replay_net(const TraceMeta& meta, const noc::XyNetwork& net,
                      bool allow_mismatch);
void throw_geometry_mismatch(const TraceMeta& meta);
}  // namespace detail

/// Replay driver over fabric N (noc::Network or noc::XyNetwork:
/// anything with geometry()/inject()/eject()/sched_of()/
/// reserve_flit_uids()).
template <typename N>
class BasicTraceReplayer {
 public:
  /// Copies the trace's events; the Trace itself need not outlive the
  /// replayer.  The network geometry must match trace.meta (always), and
  /// its configuration must match the recorded fabric for v2 traces
  /// (unless allow_config_mismatch).
  explicit BasicTraceReplayer(N& net, const Trace& trace,
                              bool allow_config_mismatch = false) {
    if (net.geometry().width() != trace.meta.width ||
        net.geometry().height() != trace.meta.height) {
      detail::throw_geometry_mismatch(trace.meta);
    }
    detail::check_replay_net(trace.meta, net, allow_config_mismatch);

    // One uniform shift keeps every push at cycle >= 1.  A trace cannot
    // legally contain events before cycle 2 (a push at cycle >= 1
    // is visible at >= 2), but shift defensively instead of failing on
    // hand-crafted traces.
    sim::Cycle shift = 0;
    if (!trace.events.empty()) {
      const sim::Cycle c0 = trace.events.front().cycle;
      shift = c0 >= 2 ? 0 : 2 - c0;
      std::uint32_t max_uid = 0;
      for (const TraceEvent& e : trace.events) {
        max_uid = std::max(max_uid, e.uid);
      }
      net.reserve_flit_uids(max_uid + 1);
    }

    // Split the (cycle-sorted) event stream by source node; per-node
    // subsequences stay cycle-sorted.
    std::vector<std::vector<TraceEvent>> per_node(
        static_cast<std::size_t>(net.num_nodes()));
    for (const TraceEvent& e : trace.events) {
      per_node[e.src].push_back(e);
    }

    injectors_.reserve(static_cast<std::size_t>(net.num_nodes()));
    sinks_.reserve(static_cast<std::size_t>(net.num_nodes()));
    for (int n = 0; n < net.num_nodes(); ++n) {
      injectors_.push_back(std::make_unique<Injector>(
          net.sched_of(n), net, n,
          std::move(per_node[static_cast<std::size_t>(n)]),
          trace.meta.coord_bits, shift));
    }
    for (int n = 0; n < net.num_nodes(); ++n) {
      sinks_.push_back(std::make_unique<Sink>(net.sched_of(n), net, n));
    }
  }

  /// Legacy signature (pre-sharding); `sched` must be the scheduler the
  /// fabric was built on and is otherwise unused.
  BasicTraceReplayer(sim::Scheduler& /*sched*/, N& net, const Trace& trace,
                     bool allow_config_mismatch = false)
      : BasicTraceReplayer(net, trace, allow_config_mismatch) {}

  std::uint64_t injected() const {
    std::uint64_t total = 0;
    for (const auto& i : injectors_) total += i->injected();
    return total;
  }
  std::uint64_t delivered() const {
    std::uint64_t total = 0;
    for (const auto& s : sinks_) total += s->count();
    return total;
  }
  sim::Cycle last_delivery_cycle() const {
    sim::Cycle last = 0;
    for (const auto& s : sinks_) last = std::max(last, s->last_delivery());
    return last;
  }

 private:
  /// Feeds one node's recorded events into its inject FIFO on schedule.
  class Injector final : public sim::Component {
   public:
    Injector(sim::Scheduler& sched, N& net, int node,
             std::vector<TraceEvent> events, int coord_bits, sim::Cycle shift)
        : sim::Component(sched, "replay.injector" + std::to_string(node)),
          q_(net.inject(node)),
          coord_bits_(coord_bits),
          shift_(shift),
          events_(std::move(events)) {
      if (!events_.empty()) {
        sched.wake_at(*this, events_.front().cycle + shift_ - 1);
      }
    }

    void tick(sim::Cycle now) override {
      while (next_ < events_.size()) {
        const TraceEvent& e = events_[next_];
        const sim::Cycle push_at = e.cycle + shift_ - 1;
        if (push_at > now) {
          scheduler().wake_at(*this, push_at);
          return;
        }
        if (!q_.can_push()) {
          // Should not happen when replaying onto the recorded fabric
          // (the recorded run injected on schedule, so the queue drains
          // on schedule), but transformed traces (rate-compressed,
          // merged) can legitimately oversubscribe a queue; retry
          // deterministically rather than dropping.
          wake();
          return;
        }
        noc::Flit f = noc::decode_flit(e.payload, coord_bits_);
        f.uid = e.uid;
        q_.push(f);
        ++injected_;
        ++next_;
      }
    }

    std::uint64_t injected() const { return injected_; }

   private:
    sim::Fifo<noc::Flit>& q_;
    int coord_bits_;
    sim::Cycle shift_;
    std::vector<TraceEvent> events_;
    std::size_t next_ = 0;
    std::uint64_t injected_ = 0;
  };

  /// Drains one node's eject queue (stand-in for the PE/MPMMU consumer).
  /// Counters are per-sink — shards read and reduce them only after the
  /// run, never across threads.
  class Sink final : public sim::Component {
   public:
    Sink(sim::Scheduler& sched, N& net, int node)
        : sim::Component(sched, "replay.sink" + std::to_string(node)),
          q_(net.eject(node)) {
      q_.set_consumer(this);
    }

    void tick(sim::Cycle now) override {
      while (!q_.empty()) {
        q_.pop();
        ++count_;
        // Delivery into the eject queue happened one cycle before the
        // sink sees it (FIFO next-cycle visibility).
        last_delivery_ = std::max(last_delivery_, now - 1);
      }
    }

    std::uint64_t count() const { return count_; }
    sim::Cycle last_delivery() const { return last_delivery_; }

   private:
    sim::Fifo<noc::Flit>& q_;
    std::uint64_t count_ = 0;
    sim::Cycle last_delivery_ = 0;
  };

  std::vector<std::unique_ptr<Injector>> injectors_;
  std::vector<std::unique_ptr<Sink>> sinks_;
};

using TraceReplayer = BasicTraceReplayer<noc::Network>;
using XyTraceReplayer = BasicTraceReplayer<noc::XyNetwork>;

/// Convenience: replay `trace` on `net`, running `sched` to completion.
/// Throws if the geometry or (v2) fabric config mismatches, or the
/// cycle limit is hit.
template <typename N>
ReplayResult run_replay(sim::Scheduler& sched, N& net, const Trace& trace,
                        sim::Cycle limit = 50'000'000,
                        bool allow_config_mismatch = false) {
  BasicTraceReplayer<N> rep(net, trace, allow_config_mismatch);
  sched.run_or_throw(limit);
  ReplayResult r;
  r.cycles = sched.now();
  r.flits_injected = rep.injected();
  r.flits_delivered = rep.delivered();
  r.last_delivery_cycle = rep.last_delivery_cycle();
  return r;
}

/// Sharded variant: per-node injectors/sinks already live on their
/// node's shard; the domain runs the lockstep loop.
template <typename N>
ReplayResult run_replay(sim::SimDomain& dom, N& net, const Trace& trace,
                        sim::Cycle limit = 50'000'000,
                        bool allow_config_mismatch = false) {
  BasicTraceReplayer<N> rep(net, trace, allow_config_mismatch);
  dom.run_or_throw(limit);
  net.refresh_stats();
  ReplayResult r;
  r.cycles = dom.now();
  r.flits_injected = rep.injected();
  r.flits_delivered = rep.delivered();
  r.last_delivery_cycle = rep.last_delivery_cycle();
  return r;
}

}  // namespace medea::workload

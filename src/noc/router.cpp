#include "noc/router.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>

namespace medea::noc {

namespace {

/// Hop count beyond which we flag a flit as a livelock suspect.  The paper
/// observed "sporadic cases of single flits delivered with high latency";
/// this counter lets experiments quantify that tail.
constexpr std::uint16_t kLivelockHops = 256;

}  // namespace

DeflectionRouter::DeflectionRouter(sim::Scheduler& sched,
                                   const TorusGeometry& geom, Coord pos,
                                   const RouterConfig& cfg,
                                   sim::StatSet& net_stats,
                                   std::uint64_t rng_seed)
    : sim::Component(sched, "router" + pos.to_string()),
      geom_(geom),
      pos_(pos),
      node_id_(geom.node_id(pos)),
      cfg_(cfg),
      stats_(net_stats),
      rng_(rng_seed),
      st_delivered_(net_stats.counter("noc.flits_delivered")),
      st_delivered_here_(net_stats.counter(
          "noc.router." + std::to_string(geom.node_id(pos)) + ".delivered")),
      st_livelock_(net_stats.counter("noc.livelock_suspects")),
      st_deflections_(net_stats.counter("noc.deflections_total")),
      st_injected_(net_stats.counter("noc.flits_injected")),
      acc_latency_(net_stats.accumulator("noc.latency")),
      acc_hops_(net_stats.accumulator("noc.hops")),
      acc_defl_(net_stats.accumulator("noc.deflections")),
      inject_q_(sched, name() + ".inject",
                static_cast<std::size_t>(cfg.inject_queue_depth)),
      eject_q_(sched, name() + ".eject",
               static_cast<std::size_t>(cfg.eject_queue_depth)) {
  inject_q_.set_consumer(this);
}

void DeflectionRouter::tick(sim::Cycle now) {
  // 0. Lifecycle tracing: announce inject-queue entries that became
  //    visible this cycle (the FIFO wakes us whenever that happens, so
  //    the enter cycle observed here is exact).  Read-only — peek never
  //    perturbs FIFO timing — and skipped entirely unless the attached
  //    observer opted into hop-level events.
  if (lifecycle_ != nullptr) {
    for (std::size_t i = q_announced_; i < inject_q_.size(); ++i) {
      lifecycle_->on_queue_enter(now, node_id_, inject_q_.peek(i));
    }
    q_announced_ = inject_q_.size();
  }

  // 1. Accept at most one flit per input link (hot potato: the router
  //    never stores flits, so everything accepted must leave this cycle).
  route_set_.clear();
  const std::size_t rd = now & 1;  // link entry written during now-1
  for (Link* link : in_) {
    if (link->full[rd]) {
      route_set_.push_back(link->flit[rd]);
      link->full[rd] = false;
    }
  }

  // 2. Ejection: oldest flits addressed to this node, up to the local
  //    delivery bandwidth, space permitting.  Flits that cannot eject stay
  //    in the route set and deflect around the network.
  int ejected = 0;
  if (!route_set_.empty()) {
    std::stable_sort(route_set_.begin(), route_set_.end(),
                     [](const Flit& a, const Flit& b) {
                       if (a.inject_cycle != b.inject_cycle)
                         return a.inject_cycle < b.inject_cycle;
                       return a.uid < b.uid;
                     });
    for (auto it = route_set_.begin();
         it != route_set_.end() && ejected < cfg_.eject_per_cycle;) {
      if (it->dst == pos_ && eject_q_.can_push()) {
        ++st_delivered_;
        ++st_delivered_here_;
        acc_latency_.add(static_cast<double>(now - it->inject_cycle));
        acc_hops_.add(it->hops);
        acc_defl_.add(it->deflections);
        if (it->hops >= kLivelockHops) ++st_livelock_;
        if (observer_ != nullptr) observer_->on_deliver(now, node_id_, *it);
        eject_q_.push(*it);
        it = route_set_.erase(it);
        ++ejected;
      } else {
        ++it;
      }
    }
  }

  // 3. Port assignment, oldest-first (route_set_ is already sorted).
  bool port_free[kNumDirs] = {true, true, true, true};
  Dir assigned[8];  // route_set_.size() <= 4 always; slack for safety
  int n_assigned = 0;
  assert(route_set_.size() <= static_cast<std::size_t>(kNumDirs));

  auto pick_port = [&](const Flit& f, bool& productive) -> int {
    Dir prod[4];
    const int np = geom_.productive_dirs(pos_, f.dst, prod);
    // Productive first.
    int first_free_prod = -1;
    for (int i = 0; i < np; ++i) {
      if (port_free[static_cast<int>(prod[i])]) {
        if (first_free_prod < 0) first_free_prod = static_cast<int>(prod[i]);
        if (!cfg_.random_tie_break) break;
      }
    }
    if (first_free_prod >= 0) {
      productive = true;
      return first_free_prod;
    }
    // Deflect: any free port (fixed scan order, or random among free).
    productive = false;
    if (cfg_.random_tie_break) {
      int free_ports[kNumDirs];
      int nf = 0;
      for (int d = 0; d < kNumDirs; ++d) {
        if (port_free[d]) free_ports[nf++] = d;
      }
      if (nf == 0) return -1;
      return free_ports[rng_.next_below(static_cast<std::uint32_t>(nf))];
    }
    for (int d = 0; d < kNumDirs; ++d) {
      if (port_free[d]) return d;
    }
    return -1;
  };

  for (const Flit& f : route_set_) {
    bool productive = false;
    const int port = pick_port(f, productive);
    // With |route_set_| <= kNumDirs a free port always exists; if the
    // invariant is ever broken, fail hard instead of indexing with -1
    // (asserts vanish under NDEBUG and would leave this as silent UB).
    if (port < 0) std::abort();
    port_free[port] = false;
    assigned[n_assigned++] = static_cast<Dir>(port);
    if (!productive) ++st_deflections_;
  }

  // 4. Injection: one local flit if a port is still free.
  if (!inject_q_.empty()) {
    bool any_free = false;
    for (bool pf : port_free) any_free = any_free || pf;
    if (any_free) {
      Flit f = inject_q_.pop();
      if (q_announced_ > 0) --q_announced_;
      f.inject_cycle = now;
      bool productive = false;
      const int port = pick_port(f, productive);
      if (port < 0) std::abort();  // a free port was just verified above
      port_free[port] = false;
      if (observer_ != nullptr) observer_->on_inject(now, node_id_, f);
      route_set_.push_back(f);
      assigned[n_assigned++] = static_cast<Dir>(port);
      if (!productive) ++st_deflections_;
      ++st_injected_;
    }
  }

  // 5. Emit flits on their assigned links.
  for (int i = 0; i < n_assigned; ++i) {
    Flit f = route_set_[static_cast<std::size_t>(i)];
    f.hops++;
    Dir prod[4];
    const int np = geom_.productive_dirs(pos_, f.dst, prod);
    bool was_productive = false;
    for (int p = 0; p < np; ++p) was_productive |= (prod[p] == assigned[i]);
    if (!was_productive) f.deflections++;
    if (lifecycle_ != nullptr) {
      lifecycle_->on_hop(now, node_id_, static_cast<int>(assigned[i]),
                         !was_productive, f);
    }
    // Hot potato has no back-pressure: the entry read next cycle must be
    // free, or a flit would be overwritten (see Link).
    Link* link = out_[static_cast<int>(assigned[i])];
    const std::size_t wr = rd ^ 1;
    if (link->full[wr]) std::abort();
    link->flit[wr] = f;
    link->full[wr] = true;
    if (!link->seam) scheduler().wake_at(*link->consumer, now + 1);
  }

  // A pending injection that lost arbitration (or is still queued behind
  // the one-per-cycle limit) retries next cycle; link arrivals wake us
  // from the producer's write (or the shard drain, for seam links).
  if (!inject_q_.empty()) wake();
}

}  // namespace medea::noc

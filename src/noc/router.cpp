#include "noc/router.h"

#include <cstdlib>
#include <stdexcept>
#include <utility>

namespace medea::noc {

void RouterConfig::validate(const std::string& field) const {
  const std::pair<const char*, int> fields[] = {
      {"eject_per_cycle", eject_per_cycle},
      {"inject_queue_depth", inject_queue_depth},
      {"eject_queue_depth", eject_queue_depth}};
  for (const auto& [name, v] : fields) {
    if (v < 1) {
      throw std::invalid_argument(field + "." + name + " must be >= 1");
    }
  }
}

namespace {

/// Hop count beyond which we flag a flit as a livelock suspect.  The paper
/// observed "sporadic cases of single flits delivered with high latency";
/// this counter lets experiments quantify that tail.
constexpr std::uint16_t kLivelockHops = 256;

/// One flit of the route set, with the output port it was assigned and
/// whether that port is productive (decided once per hop, see assign).
struct Slot {
  Flit flit;
  int port;
  bool productive;
};

/// Oldest-first priority: earlier injection wins, uid breaks age ties.
bool older(const Flit& a, const Flit& b) {
  if (a.inject_cycle != b.inject_cycle) return a.inject_cycle < b.inject_cycle;
  return a.uid < b.uid;
}

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
      inject_q_(sched, static_cast<std::size_t>(cfg.inject_queue_depth)),
      eject_q_(sched, static_cast<std::size_t>(cfg.eject_queue_depth)) {
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
  //    The route set is kept oldest-first by stable insertion: an arrival
  //    moves ahead only of strictly younger flits, so age ties keep link
  //    order.  One flit per link bounds it at kNumDirs.
  Slot set[kNumDirs];
  int n = 0;
  const std::size_t rd = now & 1;  // link entry written during now-1
  for (Link* link : in_) {
    if (!link->full[rd]) continue;
    link->full[rd] = false;
    const Flit& f = link->flit[rd];
    int i = n++;
    for (; i > 0 && older(f, set[i - 1].flit); --i) {
      set[i].flit = set[i - 1].flit;
    }
    set[i].flit = f;
  }

  // 2. Ejection: oldest flits addressed to this node, up to the local
  //    delivery bandwidth, space permitting.  Flits that cannot eject stay
  //    in the route set and deflect around the network.
  int ejected = 0;
  for (int i = 0; i < n && ejected < cfg_.eject_per_cycle;) {
    const Flit& f = set[i].flit;
    if (f.dst == pos_ && eject_q_.can_push()) {
      ++st_delivered_;
      ++st_delivered_here_;
      acc_latency_.add(static_cast<double>(now - f.inject_cycle));
      acc_hops_.add(f.hops);
      acc_defl_.add(f.deflections);
      if (f.hops >= kLivelockHops) ++st_livelock_;
      if (observer_ != nullptr) observer_->on_deliver(now, node_id_, f);
      eject_q_.push(f);
      for (int j = i + 1; j < n; ++j) set[j - 1].flit = set[j].flit;
      --n;
      ++ejected;
    } else {
      ++i;
    }
  }

  // 3. Port assignment, oldest-first (the route set is already ordered).
  //    A flit takes its first free productive port; failing that it
  //    deflects to any free port (fixed scan order, or random among the
  //    free ones).  Productive directions are computed here, once per hop.
  bool port_free[kNumDirs] = {true, true, true, true};
  auto assign = [&](Slot& s) {
    Dir prod[4];
    const int np = geom_.productive_dirs(pos_, s.flit.dst, prod);
    int port = -1;
    for (int i = 0; i < np && port < 0; ++i) {
      const int d = static_cast<int>(prod[i]);
      if (port_free[d]) port = d;
    }
    s.productive = port >= 0;
    if (!s.productive) {
      ++st_deflections_;
      int free_ports[kNumDirs];
      int nf = 0;
      for (int d = 0; d < kNumDirs; ++d) {
        if (port_free[d]) free_ports[nf++] = d;
      }
      if (nf > 0) {
        port = cfg_.random_tie_break
                   ? free_ports[rng_.next_below(static_cast<std::uint32_t>(nf))]
                   : free_ports[0];
      }
    }
    // At most kNumDirs flits are ever routed, so a free port always
    // exists; if that is ever broken, fail hard instead of indexing with
    // -1 (asserts vanish under NDEBUG and would leave this as silent UB).
    if (port < 0) std::abort();
    port_free[port] = false;
    s.port = port;
  };
  for (int i = 0; i < n; ++i) assign(set[i]);

  // 4. Injection: one local flit if a port is still free — that is, if
  //    fewer than kNumDirs flits were routed, which keeps the route set
  //    within its kNumDirs slots.
  if (n < kNumDirs && !inject_q_.empty()) {
    Slot& s = set[n++];
    s.flit = inject_q_.pop();
    if (q_announced_ > 0) --q_announced_;
    s.flit.inject_cycle = now;
    assign(s);
    if (observer_ != nullptr) observer_->on_inject(now, node_id_, s.flit);
    ++st_injected_;
  }

  // 5. Emit flits on their assigned links.
  const std::size_t wr = rd ^ 1;
  for (int i = 0; i < n; ++i) {
    Slot& s = set[i];
    s.flit.hops++;
    if (!s.productive) s.flit.deflections++;
    if (lifecycle_ != nullptr) {
      lifecycle_->on_hop(now, node_id_, s.port, !s.productive, s.flit);
    }
    // Hot potato has no back-pressure: the entry read next cycle must be
    // free, or a flit would be overwritten (see Link).
    Link* link = out_[static_cast<std::size_t>(s.port)];
    if (link->full[wr]) std::abort();
    link->flit[wr] = s.flit;
    link->full[wr] = true;
    if (!link->seam) scheduler().wake_at(*link->consumer, now + 1);
  }

  // A pending injection that lost arbitration (or is still queued behind
  // the one-per-cycle limit) retries next cycle; link arrivals wake us
  // from the producer's write (or the shard drain, for seam links).
  if (!inject_q_.empty()) wake();
}

}  // namespace medea::noc

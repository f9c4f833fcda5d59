#include "noc/xy_router.h"

#include <cassert>
#include <stdexcept>
#include <utility>

namespace medea::noc {

void XyRouterConfig::validate(const std::string& field) const {
  const std::pair<const char*, int> fields[] = {
      {"input_buffer_depth", input_buffer_depth},
      {"eject_per_cycle", eject_per_cycle},
      {"inject_queue_depth", inject_queue_depth},
      {"eject_queue_depth", eject_queue_depth}};
  for (const auto& [name, v] : fields) {
    if (v < 1) {
      throw std::invalid_argument(field + "." + name + " must be >= 1");
    }
  }
}

XyRouter::XyRouter(sim::Scheduler& sched, const TorusGeometry& geom, Coord pos,
                   const XyRouterConfig& cfg, bool torus_wrap,
                   sim::StatSet& stats)
    : sim::Component(sched, "xyrouter" + pos.to_string()),
      geom_(geom),
      pos_(pos),
      node_id_(geom.node_id(pos)),
      cfg_(cfg),
      torus_wrap_(torus_wrap),
      stats_(stats),
      st_delivered_here_(stats.counter(
          "xynoc.router." + std::to_string(geom.node_id(pos)) + ".delivered")),
      inject_q_(sched, static_cast<std::size_t>(cfg.inject_queue_depth)),
      eject_q_(sched, static_cast<std::size_t>(cfg.eject_queue_depth)) {
  inject_q_.set_consumer(this);
}

void XyRouter::connect_input(Dir d, sim::Fifo<Flit>* link) {
  in_[static_cast<int>(d)] = link;
  link->set_consumer(this);
}

void XyRouter::connect_output(Dir d, sim::Fifo<Flit>* link) {
  out_[static_cast<int>(d)] = link;
}

std::size_t XyRouter::buffered() const {
  std::size_t n = 0;
  for (const auto& b : buf_) n += b.size();
  return n;
}

int XyRouter::route(Coord dst) const {
  if (dst == pos_) return kNumDirs;
  if (dst.x != pos_.x) {
    if (torus_wrap_) {
      const int w = geom_.width();
      const int fwd = ((dst.x - pos_.x) % w + w) % w;
      return fwd <= w - fwd ? static_cast<int>(Dir::kEast)
                            : static_cast<int>(Dir::kWest);
    }
    return dst.x > pos_.x ? static_cast<int>(Dir::kEast)
                          : static_cast<int>(Dir::kWest);
  }
  if (torus_wrap_) {
    const int h = geom_.height();
    const int fwd = ((dst.y - pos_.y) % h + h) % h;
    return fwd <= h - fwd ? static_cast<int>(Dir::kSouth)
                          : static_cast<int>(Dir::kNorth);
  }
  return dst.y > pos_.y ? static_cast<int>(Dir::kSouth)
                        : static_cast<int>(Dir::kNorth);
}

void XyRouter::tick(sim::Cycle now) {
  // 0. Lifecycle tracing: announce inject-queue entries that became
  //    visible this cycle (same contract as DeflectionRouter; skipped
  //    unless the observer opted into hop-level events).
  if (lifecycle_ != nullptr) {
    for (std::size_t i = q_announced_; i < inject_q_.size(); ++i) {
      lifecycle_->on_queue_enter(now, node_id_, inject_q_.peek(i));
    }
    q_announced_ = inject_q_.size();
  }

  // 1. Accept one flit per input link into the input buffers, space
  //    permitting (back-pressure: a full buffer leaves the flit on the
  //    link, which stalls the upstream router's output).
  for (int d = 0; d < kNumDirs; ++d) {
    auto* link = in_[d];
    if (link == nullptr || link->empty()) continue;
    if (buf_[static_cast<std::size_t>(d)].size() <
        static_cast<std::size_t>(cfg_.input_buffer_depth)) {
      buf_[static_cast<std::size_t>(d)].push_back(link->pop());
    }
  }
  // Local injection staging shares the same structure.
  if (!inject_q_.empty() &&
      buf_[kNumDirs].size() <
          static_cast<std::size_t>(cfg_.input_buffer_depth)) {
    Flit f = inject_q_.pop();
    if (q_announced_ > 0) --q_announced_;
    f.inject_cycle = now;
    if (observer_ != nullptr) observer_->on_inject(now, node_id_, f);
    buf_[kNumDirs].push_back(f);
    stats_.inc("xynoc.flits_injected");
  }

  // 2. Switch allocation: each output port (including eject) picks one
  //    requesting input buffer, round-robin for fairness.
  bool out_used[kNumDirs + 1] = {};
  for (int off = 0; off < kNumDirs + 1; ++off) {
    const int b = (rr_ + off) % (kNumDirs + 1);
    auto& q = buf_[static_cast<std::size_t>(b)];
    if (q.empty()) continue;
    const Flit& head = q.front();
    const int port = route(head.dst);
    if (out_used[port]) continue;  // head-of-line blocking, by design
    if (port == kNumDirs) {
      if (!eject_q_.can_push()) continue;
      Flit f = q.front();
      q.pop_front();
      out_used[port] = true;
      stats_.inc("xynoc.flits_delivered");
      ++st_delivered_here_;
      stats_.sample("xynoc.latency", static_cast<double>(now - f.inject_cycle));
      stats_.sample("xynoc.hops", f.hops);
      if (observer_ != nullptr) observer_->on_deliver(now, node_id_, f);
      eject_q_.push(f);
      continue;
    }
    auto* link = out_[port];
    assert(link != nullptr);
    if (!link->can_push()) continue;  // credit: downstream buffer full
    Flit f = q.front();
    q.pop_front();
    f.hops++;
    out_used[port] = true;
    // XY routing is always minimal, so a hop is never a deflection.
    if (lifecycle_ != nullptr) {
      lifecycle_->on_hop(now, node_id_, port, false, f);
    }
    link->push(f);
  }
  rr_ = (rr_ + 1) % (kNumDirs + 1);

  // 3. Occupancy statistics (peak buffering = the area argument).
  const std::size_t occ = buffered();
  if (occ > stats_.get("xynoc.peak_buffered")) {
    stats_.set("xynoc.peak_buffered", occ);
  }

  if (occ > 0 || !inject_q_.empty()) wake();
}

}  // namespace medea::noc

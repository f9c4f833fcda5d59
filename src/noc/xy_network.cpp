#include "noc/xy_network.h"

namespace medea::noc {

namespace {
constexpr std::size_t kLinkCapacity = 2;

Dir opposite(Dir d) {
  switch (d) {
    case Dir::kNorth: return Dir::kSouth;
    case Dir::kSouth: return Dir::kNorth;
    case Dir::kEast: return Dir::kWest;
    case Dir::kWest: return Dir::kEast;
  }
  return d;
}
}  // namespace

XyNetwork::XyNetwork(sim::Scheduler& sched, const TorusGeometry& geom,
                     const XyRouterConfig& cfg, bool torus_wrap)
    : geom_(geom), cfg_(cfg), torus_wrap_(torus_wrap), sched_(sched) {
  node_seq_.assign(static_cast<std::size_t>(geom_.num_nodes()), 0);
  routers_.reserve(static_cast<std::size_t>(geom_.num_nodes()));
  for (int id = 0; id < geom_.num_nodes(); ++id) {
    routers_.push_back(std::make_unique<XyRouter>(
        sched, geom_, geom_.coord_of(id), cfg, torus_wrap, stats_));
  }
  for (int id = 0; id < geom_.num_nodes(); ++id) {
    const Coord from = geom_.coord_of(id);
    for (int d = 0; d < kNumDirs; ++d) {
      const Dir dir = static_cast<Dir>(d);
      const Coord to = geom_.neighbor(from, dir);
      auto link = std::make_unique<sim::Fifo<Flit>>(sched, kLinkCapacity);
      routers_[static_cast<std::size_t>(id)]->connect_output(dir, link.get());
      router(geom_.node_id(to)).connect_input(opposite(dir), link.get());
      links_.push_back(std::move(link));
    }
  }
}

void XyNetwork::set_observer(FlitObserver* obs) {
  for (auto& r : routers_) r->set_observer(obs);
}

std::size_t XyNetwork::total_buffered() const {
  std::size_t n = 0;
  for (const auto& r : routers_) n += r->buffered();
  return n;
}

}  // namespace medea::noc

#pragma once

#include <memory>
#include <vector>

#include "noc/xy_router.h"

/// \file xy_network.h
/// Network assembly for the baseline buffered XY router (see xy_router.h).
/// Wiring matches Network exactly (same links, same geometry), so traffic
/// generators can drive either fabric and compare latency, throughput and
/// buffer occupancy — the quantitative form of the paper's §II-A argument
/// for deflection routing.

namespace medea::noc {

class XyNetwork {
 public:
  /// torus_wrap=false (default) gives a mesh, the deadlock-free home of
  /// dimension-ordered routing; wrap=true uses shortest-way tori links
  /// (fine for light load; cyclic buffer dependencies can deadlock under
  /// saturation, which the comparison benches avoid by construction).
  XyNetwork(sim::Scheduler& sched, const TorusGeometry& geom,
            const XyRouterConfig& cfg = {}, bool torus_wrap = false);

  /// The scheduler every node runs on (the XY baseline never shards;
  /// mirror of Network::sched_of so traffic templates work unchanged).
  sim::Scheduler& sched_of(int /*node_id*/) { return sched_; }

  const TorusGeometry& geometry() const { return geom_; }
  int num_nodes() const { return geom_.num_nodes(); }

  /// Router configuration and wrap mode this fabric was built with
  /// (persisted into trace headers; replay verifies them).
  const XyRouterConfig& config() const { return cfg_; }
  bool torus_wrap() const { return torus_wrap_; }

  sim::Fifo<Flit>& inject(int node_id) { return router(node_id).inject(); }
  sim::Fifo<Flit>& eject(int node_id) { return router(node_id).eject(); }

  XyRouter& router(int node_id) {
    return *routers_[static_cast<std::size_t>(node_id)];
  }

  sim::StatSet& stats() { return stats_; }
  const sim::StatSet& stats() const { return stats_; }

  /// No-op (stats() is always live): mirror of Network::refresh_stats so
  /// fabric-generic run helpers compile against either network.
  void refresh_stats() {}

  /// Attach a flit-event observer to every router (nullptr detaches).
  /// Gives the buffered-XY baseline the same record/replay capability
  /// the deflection fabric has.
  void set_observer(FlitObserver* obs);

  std::uint32_t next_flit_uid() { return next_uid_++; }

  /// Fresh unique flit id from `node`'s private stream — same scheme as
  /// Network::node_flit_uid, so the shared traffic templates draw
  /// identical uid sequences on either fabric.
  std::uint32_t node_flit_uid(int node) {
    return next_node_flit_uid(node_seq_[static_cast<std::size_t>(node)],
                              node);
  }

  /// Reserve uid space: make the next next_flit_uid() return at least
  /// `floor` (trace replay keeps recorded uids collision-free with it).
  void reserve_flit_uids(std::uint32_t floor) {
    if (floor > next_uid_) next_uid_ = floor;
  }

  /// Sum of all flits buffered inside routers right now.
  std::size_t total_buffered() const;

 private:
  TorusGeometry geom_;
  XyRouterConfig cfg_;
  bool torus_wrap_;
  sim::Scheduler& sched_;
  sim::StatSet stats_;
  std::vector<std::unique_ptr<XyRouter>> routers_;
  std::vector<std::unique_ptr<sim::Fifo<Flit>>> links_;
  std::uint32_t next_uid_ = 1;
  std::vector<std::uint32_t> node_seq_;
};

}  // namespace medea::noc

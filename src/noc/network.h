#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "core/thread_annotations.h"
#include "noc/coord.h"
#include "noc/flit.h"
#include "noc/router.h"
#include "sim/domain.h"
#include "sim/fifo.h"
#include "sim/rng.h"
#include "sim/scheduler.h"
#include "sim/stats.h"

/// \file network.h
/// The 2-D folded-torus NoC: routers plus inter-router links.
///
/// Network owns every DeflectionRouter (one contiguous array in node
/// order, swept by the tick loop) and every link, and exposes the
/// local inject/eject queues that network interfaces (the TIE port, the
/// pif2NoC bridge and the MPMMU's interface) attach to.
///
/// Links are one-flit registers (noc::Link) in one contiguous array, four
/// per node: a flit written at cycle T arrives at the downstream router
/// at T+1, giving the one-cycle-per-hop latency the paper's switch RTL
/// has.  The router aborts if it ever finds an entry it must write still
/// full, so "at most one flit per link per cycle" is checked in every
/// build mode.
///
/// ## Sharded construction (sim::SimDomain)
///
/// The domain-based constructor partitions the torus into contiguous row
/// bands, one per shard: every router and local queue of a band lives
/// on that shard's scheduler.  The vertical links crossing a band
/// boundary (torus wrap included) are seam links: the producer only
/// writes the entry, and the consumer shard's drain phase issues the
/// consumer's t+1 wake (see Link and sim/domain.h for the phase
/// protocol).  Row bands keep node ids contiguous per shard, which is
/// what makes shard-ordered observer fan-in reproduce the canonical
/// global event order bit-for-bit.  Per-shard StatSets keep the tick
/// path race-free; stats() exposes the shard-merged aggregate, rebuilt
/// by refresh_stats() (run helpers call it after a run; telemetry
/// sampling refreshes automatically through the domain's pre-sample
/// hook).
///
/// Flit uids are assigned per source node (next_node_flit_uid in
/// flit.h) so uid allocation — which feeds the router's oldest-first
/// tie-break — never depends on within-cycle interleaving; single-thread
/// and sharded runs therefore draw identical uid streams.  PEs/MPMMU
/// traffic (app runs, always single-shard) keeps the global
/// next_flit_uid() counter.

namespace medea::noc {

class Network {
 public:
  Network(sim::Scheduler& sched, const TorusGeometry& geom,
          const RouterConfig& cfg = {}, std::uint64_t seed = 1);

  /// Sharded construction: partition the torus across `dom`'s shards in
  /// contiguous row bands.  With a single-shard domain this is exactly
  /// the Scheduler constructor.
  Network(sim::SimDomain& dom, const TorusGeometry& geom,
          const RouterConfig& cfg = {}, std::uint64_t seed = 1);

  // Out of line: unique_ptr members over types declared below.
  ~Network();

  const TorusGeometry& geometry() const { return geom_; }
  int num_nodes() const { return geom_.num_nodes(); }

  /// Router configuration this network was built with (persisted into
  /// trace headers; replay verifies it against the recording).
  const RouterConfig& config() const { return cfg_; }

  /// Local-port access for the node's network interface.
  sim::Fifo<Flit>& inject(int node_id) { return router(node_id).inject(); }
  sim::Fifo<Flit>& eject(int node_id) { return router(node_id).eject(); }
  sim::Fifo<Flit>& inject(Coord c) { return inject(geom_.node_id(c)); }
  sim::Fifo<Flit>& eject(Coord c) { return eject(geom_.node_id(c)); }

  DeflectionRouter& router(int node_id) { return *routers_[node_id]; }
  DeflectionRouter& router(Coord c) { return router(geom_.node_id(c)); }

  /// Shard that owns `node_id`'s row band (always 0 when built on a
  /// plain Scheduler or a single-shard domain).
  int shard_of(int node_id) const {
    return shard_of_node_.empty() ? 0 : shard_of_node_[node_id];
  }

  /// The scheduler `node_id`'s components run on — endpoints attached
  /// to a node must be constructed against this scheduler.
  sim::Scheduler& sched_of(int node_id) {
    return *node_sched_[static_cast<std::size_t>(node_id)];
  }

  /// Shard-merged aggregate statistics.  Live in single-shard mode; in
  /// sharded mode a snapshot — refresh_stats() rebuilds it (run helpers
  /// call it after the run, the telemetry pre-sample hook during it).
  sim::StatSet& stats() {
    serial_.assert_held();  // external or domain-serial context only
    return stats_;
  }
  const sim::StatSet& stats() const {
    serial_.assert_shared();  // external or domain-serial context only
    return stats_;
  }

  /// Rebuild stats() from the per-shard sets (no-op in single mode).
  void refresh_stats();

  /// Flits that crossed a shard boundary over a seam link (0 in single
  /// mode) — the bench's cross-shard traffic metric.
  std::uint64_t mailbox_flits() const;
  /// Seam link count (0 in single mode).
  std::size_t num_shard_channels() const;

  /// Attach a flit-event observer to every router (nullptr detaches).
  /// The workload trace recorder and determinism tests hang off this.
  /// In sharded mode events are buffered per shard and replayed to the
  /// observer in canonical order from the domain's serial phase.
  void set_observer(FlitObserver* obs);

  /// Fresh unique flit id (for tracing and deterministic tie-breaks) —
  /// the global stream used by the PE/MPMMU interfaces (app runs,
  /// single-shard by construction).
  std::uint32_t next_flit_uid() { return next_uid_++; }

  /// Fresh unique flit id from `node`'s private stream (see
  /// next_node_flit_uid).  Synthetic traffic uses this so uid allocation
  /// is independent of within-cycle interleaving — the sharded kernel's
  /// bit-identity depends on it.
  std::uint32_t node_flit_uid(int node) {
    return next_node_flit_uid(node_seq_[static_cast<std::size_t>(node)],
                              node);
  }

  /// Reserve uid space: make the next next_flit_uid() return at least
  /// `floor`.  Trace replay uses this so re-injected flits keep their
  /// recorded uids without colliding with freshly allocated ones.
  void reserve_flit_uids(std::uint32_t floor) {
    if (floor > next_uid_) next_uid_ = floor;
  }

 private:
  /// The seam links shard s consumes, walked by its drain phase, plus
  /// the flits that drain found on them.  `drain` stands for shard s's
  /// drain-phase context: wiring fills `links` before any run, the drain
  /// phase is the only reader during a run, and mailbox_flits() reads
  /// `flits` after it.
  struct ShardSeams {
    core::Capability drain;
    std::vector<Link*> links MEDEA_GUARDED_BY(drain);
    std::uint64_t flits MEDEA_GUARDED_BY(drain) = 0;
  };

  /// Per-shard observer buffer: records the shard's flit events during
  /// the parallel phase, replays them to the real observer from the
  /// domain's serial flush.
  class ShardEventBuffer;

  void build(std::uint64_t seed);
  void wire_links();
  void drain_shard(int s, sim::Cycle now);
  void flush_observer_events();

  /// External single-thread / domain-serial-phase context: the merged
  /// stats snapshot and the observer target are only touched while no
  /// shard is dispatching (wiring time, the serial phase, or after the
  /// run) — never from the parallel phase.
  core::Capability serial_;

  TorusGeometry geom_;
  RouterConfig cfg_;
  sim::StatSet stats_ MEDEA_GUARDED_BY(serial_);
  /// Routers in node order, in one contiguous allocation sized once by
  /// build(): a router is pinned (links and its scheduler hold its
  /// address), so each is constructed in place and never moves.
  std::vector<std::optional<DeflectionRouter>> routers_;
  /// Link (node, d) at node * kNumDirs + d; sized once, never moved.
  std::vector<Link> links_;
  std::uint32_t next_uid_ = 1;
  std::vector<std::uint32_t> node_seq_;

  // --- sharded-mode state (empty / unused in single mode) ---
  sim::SimDomain* dom_ = nullptr;
  std::vector<sim::Scheduler*> node_sched_;  ///< per node (both modes)
  std::vector<int> shard_of_node_;
  std::vector<std::unique_ptr<sim::StatSet>> shard_stats_;
  std::vector<ShardSeams> seams_;  ///< per consumer shard
  std::vector<std::unique_ptr<ShardEventBuffer>> shard_obs_;
  FlitObserver* obs_target_ MEDEA_GUARDED_BY(serial_) = nullptr;
};

}  // namespace medea::noc

#pragma once

#include <array>
#include <deque>
#include <vector>

#include "noc/coord.h"
#include "noc/flit.h"
#include "sim/fifo.h"
#include "sim/scheduler.h"
#include "sim/stats.h"

/// \file xy_router.h
/// Baseline comparison router: input-buffered, dimension-ordered (X then
/// Y) routing with credit-style back-pressure — the conventional
/// alternative the paper argues against when motivating deflection
/// routing (§II-A: wormhole-class routers need per-port buffers, create
/// head-of-line blocking on long packets, and require a back-pressure
/// mechanism; their storage is far above the theoretical minimum).
///
/// This model keeps the same flits, torus wiring and one-cycle hops as
/// DeflectionRouter so the two can be compared head-to-head on identical
/// traffic (its links are Fifos, since they must back-pressure):
///  * each input port has a FIFO of configurable depth,
///  * a flit moves only when the downstream buffer has space (credit
///    check on the shared link FIFO),
///  * XY dimension order makes routing deterministic and deadlock-free
///    on a mesh; on a torus we use the shortest direction per axis, which
///    together with buffering can deadlock on cyclic dependencies — the
///    comparison benches therefore run the XY router on mesh geometry,
///    exactly the configuration contemporary NoCs used.
///
/// In-order delivery is a property of this router (single path per
/// source/destination pair), which is why conventional designs never
/// needed the paper's sequence-number machinery.

namespace medea::noc {

struct XyRouterConfig {
  int input_buffer_depth = 4;  ///< flits per input port (the area cost)
  int eject_per_cycle = 1;
  int inject_queue_depth = 2;
  int eject_queue_depth = 4;

  bool operator==(const XyRouterConfig&) const = default;
};

class XyRouter : public sim::Component {
 public:
  XyRouter(sim::Scheduler& sched, const TorusGeometry& geom, Coord pos,
           const XyRouterConfig& cfg, bool torus_wrap, sim::StatSet& stats);

  Coord pos() const { return pos_; }

  void connect_input(Dir d, sim::Fifo<Flit>* link);
  void connect_output(Dir d, sim::Fifo<Flit>* link);

  sim::Fifo<Flit>& inject() { return inject_q_; }
  sim::Fifo<Flit>& eject() { return eject_q_; }

  /// Attach (or detach with nullptr) a flit-event observer — the same
  /// hook DeflectionRouter has, so the trace recorder can capture the
  /// buffered-XY baseline for record/replay comparison studies.  Hop-
  /// level events fire only for observers that want them (see
  /// FlitObserver::wants_lifecycle), cached here off the tick path.
  void set_observer(FlitObserver* obs) {
    observer_ = obs;
    lifecycle_ = (obs != nullptr && obs->wants_lifecycle()) ? obs : nullptr;
  }

  void tick(sim::Cycle now) override;

  /// Total flits currently buffered in this router (occupancy metric —
  /// the storage the paper's deflection design avoids).
  std::size_t buffered() const;

 private:
  /// XY dimension-ordered next hop toward dst (X first, then Y).
  /// Returns kNumDirs when dst == pos_ (eject).
  int route(Coord dst) const;

  const TorusGeometry& geom_;
  Coord pos_;
  int node_id_;
  XyRouterConfig cfg_;
  bool torus_wrap_;
  sim::StatSet& stats_;
  FlitObserver* observer_ = nullptr;
  FlitObserver* lifecycle_ = nullptr;  ///< observer_ iff it wants hop events
  std::size_t q_announced_ = 0;  ///< inject-queue entries already announced

  /// Per-router delivery counter resolved once at construction, the
  /// source of telemetry's spatial ejection heatmaps (the fabric-wide
  /// counters above it stay string-keyed; this one is on the tick path).
  sim::Stat& st_delivered_here_;

  std::array<sim::Fifo<Flit>*, kNumDirs> in_{};
  std::array<sim::Fifo<Flit>*, kNumDirs> out_{};
  // Internal input buffers (index kNumDirs = local inject staging).
  std::array<std::deque<Flit>, kNumDirs + 1> buf_;
  sim::Fifo<Flit> inject_q_;
  sim::Fifo<Flit> eject_q_;
  int rr_ = 0;  // round-robin pointer over input buffers per output port
};

}  // namespace medea::noc

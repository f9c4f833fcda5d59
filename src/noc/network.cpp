#include "noc/network.h"

#include <utility>

namespace medea::noc {

namespace {
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

/// Per-shard flit-event buffer.  Routers of one shard record their
/// events here during the parallel dispatch phase; the domain's serial
/// end-of-cycle flush replays every shard's buffer — in shard order,
/// which with contiguous row bands is canonical node order — into the
/// real observer.  Events carry their original cycle, so the observer
/// sees exactly the stream a single-thread run produces.
class Network::ShardEventBuffer final : public FlitObserver {
 public:
  explicit ShardEventBuffer(Network& net) : net_(net) {}

  void on_inject(sim::Cycle now, int node, const Flit& f) override {
    own_.assert_held();  // owning shard's dispatch phase
    events_.push_back({Kind::kInject, now, node, 0, false, f});
  }
  void on_deliver(sim::Cycle now, int node, const Flit& f) override {
    own_.assert_held();  // owning shard's dispatch phase
    events_.push_back({Kind::kDeliver, now, node, 0, false, f});
  }
  void on_queue_enter(sim::Cycle now, int node, const Flit& f) override {
    own_.assert_held();  // owning shard's dispatch phase
    events_.push_back({Kind::kQueueEnter, now, node, 0, false, f});
  }
  void on_hop(sim::Cycle now, int node, int out_port, bool deflected,
              const Flit& f) override {
    own_.assert_held();  // owning shard's dispatch phase
    events_.push_back({Kind::kHop, now, node, out_port, deflected, f});
  }
  bool wants_lifecycle() const override {
    // Forwarded so routers gate hop events exactly as they would with
    // the target attached directly (checked at set_observer time —
    // serial context, hence the shared claim on the network token).
    net_.serial_.assert_shared();
    return net_.obs_target_ != nullptr && net_.obs_target_->wants_lifecycle();
  }

  void flush_to(FlitObserver* obs) {
    // Serial phase on shard 0: the writers (this buffer's shard) are
    // parked at a barrier, so ownership has transferred here.
    own_.assert_held();
    if (obs != nullptr) {
      for (const Event& e : events_) {
        switch (e.kind) {
          case Kind::kInject: obs->on_inject(e.now, e.node, e.flit); break;
          case Kind::kDeliver: obs->on_deliver(e.now, e.node, e.flit); break;
          case Kind::kQueueEnter:
            obs->on_queue_enter(e.now, e.node, e.flit);
            break;
          case Kind::kHop:
            obs->on_hop(e.now, e.node, e.out_port, e.deflected, e.flit);
            break;
        }
      }
    }
    events_.clear();
  }

 private:
  enum class Kind : std::uint8_t { kInject, kDeliver, kQueueEnter, kHop };
  struct Event {
    Kind kind;
    sim::Cycle now;
    int node;
    int out_port;
    bool deflected;
    Flit flit;
  };

  Network& net_;
  /// Alternating ownership: the buffer's shard during dispatch, shard 0
  /// during the serial flush — the phase barrier in between is the
  /// handoff.
  core::Capability own_;
  std::vector<Event> events_ MEDEA_GUARDED_BY(own_);
};

Network::Network(sim::Scheduler& sched, const TorusGeometry& geom,
                 const RouterConfig& cfg, std::uint64_t seed)
    : geom_(geom), cfg_(cfg) {
  node_sched_.assign(static_cast<std::size_t>(num_nodes()), &sched);
  build(seed);
}

Network::Network(sim::SimDomain& dom, const TorusGeometry& geom,
                 const RouterConfig& cfg, std::uint64_t seed)
    : geom_(geom), cfg_(cfg) {
  const int n = num_nodes();
  if (!dom.sharded()) {
    // Transparent fallback: a 1-shard domain builds the exact network a
    // plain Scheduler would (same construction order, same RNG draws).
    node_sched_.assign(static_cast<std::size_t>(n), &dom.shard(0));
    build(seed);
    return;
  }
  dom_ = &dom;
  const int num_shards = dom.num_shards();
  node_sched_.resize(static_cast<std::size_t>(n));
  shard_of_node_.resize(static_cast<std::size_t>(n));
  for (int id = 0; id < n; ++id) {
    // Contiguous row bands: row r belongs to shard r*S/H, so node ids
    // within a shard are contiguous (canonical-order fan-in relies on
    // this) and band heights differ by at most one row.
    const int s =
        static_cast<int>(geom_.coord_of(id).y) * num_shards / geom_.height();
    shard_of_node_[static_cast<std::size_t>(id)] = s;
    node_sched_[static_cast<std::size_t>(id)] = &dom.shard(s);
  }
  shard_stats_.reserve(static_cast<std::size_t>(num_shards));
  shard_obs_.reserve(static_cast<std::size_t>(num_shards));
  for (int s = 0; s < num_shards; ++s) {
    shard_stats_.push_back(std::make_unique<sim::StatSet>());
    shard_obs_.push_back(std::make_unique<ShardEventBuffer>(*this));
  }
  seams_ = std::vector<ShardSeams>(static_cast<std::size_t>(num_shards));
  build(seed);

  for (int s = 0; s < num_shards; ++s) {
    dom.add_shard_drain(s,
                        [this, s](sim::Cycle now) { drain_shard(s, now); });
  }
  dom.add_cycle_end([this](sim::Cycle) { flush_observer_events(); });
  dom.add_pre_sample([this] { refresh_stats(); });
}

Network::~Network() = default;

void Network::build(std::uint64_t seed) {
  serial_.assert_held();  // construction time: single-threaded
  const int n = num_nodes();
  node_seq_.assign(static_cast<std::size_t>(n), 0);
  // Routers, in node order on every shard: the RNG stream draws and the
  // component construction order (the canonical dispatch key, global via
  // the domain's shared counter) are the same in both modes.  Each
  // router gets a private stream expanded from the network seed (see
  // the DeflectionRouter constructor comment: per-router generators keep
  // stochastic tie-breaks independent of within-cycle tick order).
  sim::SplitMix64 streams(seed);
  routers_ = std::vector<std::optional<DeflectionRouter>>(
      static_cast<std::size_t>(n));
  for (int id = 0; id < n; ++id) {
    sim::StatSet& st =
        shard_stats_.empty()
            ? stats_
            : *shard_stats_[static_cast<std::size_t>(shard_of(id))];
    routers_[static_cast<std::size_t>(id)].emplace(
        sched_of(id), geom_, geom_.coord_of(id), cfg_, st, streams.next());
  }
  wire_links();
}

void Network::wire_links() {
  // One unidirectional link per (router, direction).  The link leaving
  // router R through direction d enters neighbour(R, d) through the
  // opposite port.  On 1-wide or 1-tall tori a link can loop back to its
  // own router; the parity split in Link handles that uniformly.
  const int n = num_nodes();
  links_.resize(static_cast<std::size_t>(n) * kNumDirs);
  for (int id = 0; id < n; ++id) {
    const Coord from = geom_.coord_of(id);
    for (int d = 0; d < kNumDirs; ++d) {
      const Dir dir = static_cast<Dir>(d);
      const int to = geom_.node_id(geom_.neighbor(from, dir));
      Link& link = links_[static_cast<std::size_t>(id * kNumDirs + d)];
      link.consumer = &router(to);
      link.seam = shard_of(id) != shard_of(to);
      router(id).connect_output(dir, &link);
      router(to).connect_input(opposite(dir), &link);
      if (link.seam) {
        ShardSeams& in = seams_[static_cast<std::size_t>(shard_of(to))];
        in.drain.assert_held();  // wiring time: no run in flight
        in.links.push_back(&link);
      }
    }
  }
}

void Network::drain_shard(int s, sim::Cycle now) {
  ShardSeams& in = seams_[static_cast<std::size_t>(s)];
  // Shard s's drain phase, after the post-dispatch barrier: every
  // producer write of this cycle happens-before this point (see Link).
  in.drain.assert_held();
  const std::size_t e = (now + 1) & 1;
  for (Link* link : in.links) {
    if (!link->full[e]) continue;
    // The wake the seam's producer skipped, issued on the consumer's
    // own scheduler (shard s): new data visible at now+1.
    ++in.flits;
    dom_->shard(s).wake_at(*link->consumer, now + 1);
  }
}

void Network::flush_observer_events() {
  serial_.assert_shared();  // domain serial phase (cycle-end hook)
  for (auto& buf : shard_obs_) buf->flush_to(obs_target_);
}

void Network::refresh_stats() {
  // Domain serial phase (pre-sample hook) or external post-run call —
  // either way no shard is writing its StatSet.
  serial_.assert_held();
  if (shard_stats_.empty()) return;
  stats_.clear();
  for (const auto& ss : shard_stats_) stats_.merge(*ss);
}

std::uint64_t Network::mailbox_flits() const {
  std::uint64_t total = 0;
  for (const ShardSeams& in : seams_) {
    in.drain.assert_shared();  // after the run: no drain phase in flight
    total += in.flits;
  }
  return total;
}

std::size_t Network::num_shard_channels() const {
  std::size_t total = 0;
  for (const ShardSeams& in : seams_) {
    in.drain.assert_shared();  // links are fixed at wiring time
    total += in.links.size();
  }
  return total;
}

void Network::set_observer(FlitObserver* obs) {
  serial_.assert_held();  // wiring time: no run in flight
  obs_target_ = obs;
  if (dom_ == nullptr || shard_obs_.empty()) {
    for (auto& r : routers_) r->set_observer(obs);
    return;
  }
  // Sharded: routers record into their shard's buffer; the domain's
  // serial phase replays the buffers into `obs` in canonical order.
  for (int id = 0; id < num_nodes(); ++id) {
    FlitObserver* target =
        obs == nullptr
            ? nullptr
            : shard_obs_[static_cast<std::size_t>(
                             shard_of_node_[static_cast<std::size_t>(id)])]
                  .get();
    routers_[static_cast<std::size_t>(id)]->set_observer(target);
  }
}

}  // namespace medea::noc

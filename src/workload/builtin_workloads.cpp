/// The built-in workload set: both full-system applications (all
/// programming-model variants), the four synthetic NoC patterns, and
/// trace replay — everything behind the one registry the sweeps, the
/// benches and the CLI share.

#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>

#include "apps/alltoall.h"
#include "apps/jacobi.h"
#include "apps/reduction.h"
#include "core/system.h"
#include "noc/traffic.h"
#include "noc/xy_network.h"
#include "workload/measure.h"
#include "workload/replay.h"
#include "workload/workload.h"
#include "workload/xform/transform.h"

namespace medea::workload {
namespace {

/// The engaged section, or kind-appropriate defaults when the caller
/// left it out (a disengaged section is "defaults", not an error).
template <typename Section>
Section section_or_default(const std::optional<Section>& s) {
  return s.has_value() ? *s : Section{};
}

/// Memory-system series for app-workload timelines: the MPMMU's request
/// stream, its local cache, and every core's PE + L1 counters (prefixed
/// "core<rank>." so the per-core streams stay distinguishable).  A no-op
/// unless the run attached a sampler, so untimed runs pay nothing.
void add_memory_telemetry(ScopedTelemetry& telemetry, core::MedeaSystem& sys) {
  telemetry.add("", sys.mpmmu().stats());
  telemetry.add("mpmmu.", sys.mpmmu().cache().stats());
  for (int r = 0; r < sys.num_cores(); ++r) {
    const std::string prefix = "core" + std::to_string(r) + ".";
    telemetry.add(prefix, sys.core(r).stats());
    telemetry.add(prefix, sys.core(r).cache().stats());
  }
}

/// Kernel pressure counters merged into every run's stats.  Only the
/// kernel-*independent* ones belong here: the differential tests compare
/// full counter maps across event-queue kernels (heap, calendar, sharded
/// at any shard count), so bucket_pushes/overflow_pushes (two-tier
/// placement, which differs between the ring and the heap) stay out.
/// commit_pushes/commits_deduped stay out too: they count the host's
/// Fifo commit-list bookkeeping, not modelled hardware.  All four remain
/// visible as timeline series via Sampler::attach().
void add_sched_stats(const sim::Scheduler& sched, sim::StatSet& stats) {
  stats.set("sched.wake_requests", sched.wake_requests());
  stats.set("sched.wakes_deduped", sched.wakes_deduped());
  stats.set("sched.active_cycles", sched.active_cycles());
}

/// Sharded-domain overload: shard sums for the wake counters (each wake
/// request lands on exactly one shard, so the sums bit-match the
/// single-thread kernels) and the global active-cycle count.
void add_sched_stats(const sim::SimDomain& dom, sim::StatSet& stats) {
  stats.set("sched.wake_requests", dom.wake_requests());
  stats.set("sched.wakes_deduped", dom.wakes_deduped());
  stats.set("sched.active_cycles", dom.active_cycles());
}

// ---------------------------------------------------------------------
// Full-system applications
// ---------------------------------------------------------------------

class JacobiWorkload final : public Workload {
 public:
  JacobiWorkload(std::string name, apps::JacobiVariant variant,
                 std::string description)
      : name_(std::move(name)),
        variant_(variant),
        description_(std::move(description)) {}

  std::string name() const override { return name_; }
  std::string description() const override { return description_; }
  WorkloadKind kind() const override { return WorkloadKind::kApp; }

  RunResult run(const RunRequest& req, RunContext& ctx) const override {
    const AppParams ap = section_or_default(req.app);
    core::MedeaConfig cfg = req.machine;
    cfg.workload = name_;
    cfg.seed = req.seed;
    core::MedeaSystem sys(cfg);
    if (noc::FlitObserver* o = ctx.observer()) sys.network().set_observer(o);
    ScopedTelemetry telemetry(ctx, sys.scheduler(), sys.network().stats());
    add_memory_telemetry(telemetry, sys);

    apps::JacobiParams jp;
    jp.n = ap.size > 0 ? ap.size : 30;
    jp.warmup_iterations = ap.warmup_iterations;
    jp.timed_iterations = ap.iterations;
    jp.variant = variant_;
    jp.verify = req.verify;
    const apps::JacobiResult res = apps::run_jacobi(sys, jp);

    RunResult r;
    r.cycles = res.total_cycles;
    r.metric = res.cycles_per_iteration;
    r.metric_name = "cycles_per_iteration";
    r.stats = sys.aggregate_stats();
    add_sched_stats(sys.scheduler(), r.stats);
    r.flits_delivered = r.stats.get("noc.flits_delivered");
    r.verified_ok = !jp.verify || res.max_abs_error == 0.0;
    return r;
  }

 private:
  std::string name_;
  apps::JacobiVariant variant_;
  std::string description_;
};

class ReductionWorkload final : public Workload {
 public:
  ReductionWorkload(std::string name, apps::ReductionVariant variant,
                    std::string description)
      : name_(std::move(name)),
        variant_(variant),
        description_(std::move(description)) {}

  std::string name() const override { return name_; }
  std::string description() const override { return description_; }
  WorkloadKind kind() const override { return WorkloadKind::kApp; }

  RunResult run(const RunRequest& req, RunContext& ctx) const override {
    const AppParams ap = section_or_default(req.app);
    core::MedeaConfig cfg = req.machine;
    cfg.workload = name_;
    cfg.seed = req.seed;
    core::MedeaSystem sys(cfg);
    if (noc::FlitObserver* o = ctx.observer()) sys.network().set_observer(o);
    ScopedTelemetry telemetry(ctx, sys.scheduler(), sys.network().stats());
    add_memory_telemetry(telemetry, sys);

    apps::ReductionParams rp;
    rp.elements = ap.size > 0 ? ap.size : 1024;
    rp.repeats = ap.iterations;
    rp.variant = variant_;
    const apps::ReductionResult res = apps::run_reduction(sys, rp);

    RunResult r;
    r.cycles = res.total_cycles;
    r.metric = res.cycles_per_round;
    r.metric_name = "cycles_per_round";
    r.stats = sys.aggregate_stats();
    add_sched_stats(sys.scheduler(), r.stats);
    r.flits_delivered = r.stats.get("noc.flits_delivered");
    // The MP variant accumulates in rank order (exact); the SM variant's
    // order follows lock grants, so it gets the documented tolerance.
    r.verified_ok = !req.verify || res.abs_error <= 1e-9;
    return r;
  }

 private:
  std::string name_;
  apps::ReductionVariant variant_;
  std::string description_;
};

// ---------------------------------------------------------------------
// NoC-only synthetic traffic
// ---------------------------------------------------------------------

class SyntheticWorkload final : public Workload {
 public:
  explicit SyntheticWorkload(noc::TrafficPattern pattern)
      : pattern_(pattern) {}

  std::string name() const override { return noc::to_string(pattern_); }
  std::string description() const override {
    switch (pattern_) {
      case noc::TrafficPattern::kUniformRandom:
        return "synthetic NoC traffic: uniform-random destinations";
      case noc::TrafficPattern::kHotspot:
        return "synthetic NoC traffic: all nodes target one hotspot";
      case noc::TrafficPattern::kTranspose:
        return "synthetic NoC traffic: (x,y)->(y,x) permutation";
      case noc::TrafficPattern::kNeighbor:
        return "synthetic NoC traffic: nearest-neighbour ring";
      case noc::TrafficPattern::kBitReversal:
        return "synthetic NoC traffic: node i -> bit-reverse(i) (FFT "
               "butterfly permutation)";
    }
    return "synthetic NoC traffic";
  }
  WorkloadKind kind() const override { return WorkloadKind::kSynthetic; }

  TraceNetConfig net_config(const RunRequest& req) const override {
    const SyntheticParams sp = section_or_default(req.synthetic);
    if (sp.network == "xy") {
      return TraceNetConfig::from(sp.xy_router, sp.xy_torus_wrap);
    }
    return TraceNetConfig::from(req.machine.router);
  }

  RunResult run(const RunRequest& req, RunContext& ctx) const override {
    const SyntheticParams sp = section_or_default(req.synthetic);
    noc::TrafficConfig tc;
    tc.pattern = pattern_;
    tc.injection_rate = sp.injection_rate;
    tc.process = sp.process;
    tc.flits_per_node = sp.flits_per_node;
    tc.hotspot_node = sp.hotspot_node;
    tc.seed = req.seed;

    // Synthetic patterns drive either fabric (sp.network); stat keys and
    // the latency accumulator just carry the fabric's prefix.
    const noc::TorusGeometry geom(req.machine.noc_width,
                                  req.machine.noc_height);
    RunResult r;
    if (sp.network == "xy") {
      // The XY baseline shares buffered queues across the whole fabric
      // and never shards; a kShardedCalendar config transparently runs
      // the calendar kernel single-threaded here.
      sim::Scheduler sched(req.machine.scheduler);
      noc::XyNetwork net(sched, geom, sp.xy_router, sp.xy_torus_wrap);
      run_on(sched, net, tc, req, ctx, r, "xynoc.");
      r.cycles = sched.now();
    } else if (sp.network == "deflection") {
      // Row bands cap useful shards at the torus height; anything the
      // config resolves beyond one shard runs the lockstep parallel
      // kernel, bit-identical to the single-thread run.
      sim::SimDomain dom(req.machine.scheduler, geom.height());
      noc::Network net(dom, geom, req.machine.router, req.seed);
      run_on(dom, net, tc, req, ctx, r, "noc.");
      r.cycles = dom.now();
    } else {
      throw std::invalid_argument(
          "synthetic workload: unknown network '" + sp.network +
          "' (expected \"deflection\" or \"xy\")");
    }
    return r;
  }

 private:
  /// One synthetic run on fabric Net driven by Exec (a Scheduler or a
  /// SimDomain — the run helpers, telemetry attachment and sched-stat
  /// export all overload on it): the classic fixed-budget drain, or —
  /// when the request asks for it — a phased warmup/measure/drain run
  /// driven through the measurement controller (validation guarantees
  /// ctx.measure is set whenever measurement.phased is).
  template <typename Exec, typename Net>
  static void run_on(Exec& exec, Net& net, const noc::TrafficConfig& tc,
                     const RunRequest& req, RunContext& ctx, RunResult& r,
                     const std::string& prefix) {
    if (noc::FlitObserver* o = ctx.observer()) net.set_observer(o);
    ScopedTelemetry telemetry(ctx, exec, net.stats());
    if (req.measurement.phased) {
      const MeasurementResult m =
          run_phased_traffic(exec, net, tc, req.measurement, *ctx.measure);
      r.metric = m.latency.mean;
      r.metric_name = "measured_avg_flit_latency";
      r.stats = net.stats();
      r.flits_delivered = r.stats.get(prefix + "flits_delivered");
      // A phased run is sound when every measured flit made it out.
      r.verified_ok = m.drained;
    } else {
      const int received = noc::run_traffic(exec, net, tc);
      r.metric = net.stats().acc(prefix + "latency").mean();
      r.metric_name = "avg_flit_latency";
      r.stats = net.stats();
      r.flits_delivered =
          r.stats.get(prefix + "flits_delivered");
      r.verified_ok =
          static_cast<std::uint64_t>(received) == r.flits_delivered;
    }
    add_sched_stats(exec, r.stats);
  }

  noc::TrafficPattern pattern_;
};

// ---------------------------------------------------------------------
// All-to-all exchange (full system)
// ---------------------------------------------------------------------

class AlltoallWorkload final : public Workload {
 public:
  std::string name() const override { return "alltoall"; }
  std::string description() const override {
    return "personalized all-to-all exchange over eMPI (ring schedule; "
           "every core sends a distinct chunk to every other core)";
  }
  WorkloadKind kind() const override { return WorkloadKind::kApp; }

  RunResult run(const RunRequest& req, RunContext& ctx) const override {
    const AppParams ap = section_or_default(req.app);
    core::MedeaConfig cfg = req.machine;
    cfg.workload = name();
    cfg.seed = req.seed;
    core::MedeaSystem sys(cfg);
    if (noc::FlitObserver* o = ctx.observer()) sys.network().set_observer(o);
    ScopedTelemetry telemetry(ctx, sys.scheduler(), sys.network().stats());
    add_memory_telemetry(telemetry, sys);

    apps::AlltoallParams aap;
    aap.words_per_pair = ap.size > 0 ? ap.size : 8;
    aap.repeats = ap.iterations;
    const apps::AlltoallResult res = apps::run_alltoall(sys, aap);

    RunResult r;
    r.cycles = res.total_cycles;
    r.metric = res.cycles_per_round;
    r.metric_name = "cycles_per_round";
    r.stats = sys.aggregate_stats();
    add_sched_stats(sys.scheduler(), r.stats);
    r.flits_delivered = r.stats.get("noc.flits_delivered");
    // Receivers verify every word against the (src,dst,i) reference on
    // every run; req.verify only decides whether the result gates on it.
    r.verified_ok = !req.verify || res.verified_ok;
    return r;
  }
};

// ---------------------------------------------------------------------
// Trace replay
// ---------------------------------------------------------------------

class ReplayWorkload final : public Workload {
 public:
  std::string name() const override { return "replay"; }
  std::string description() const override {
    return "re-inject a recorded flit trace into a bare NoC (fast-forward "
           "mode; requires replay.trace_path, honors replay.trace_scale)";
  }
  WorkloadKind kind() const override { return WorkloadKind::kReplay; }

  /// The replay NoC takes its geometry from the trace header, not from
  /// the machine config (recorders must be sized accordingly).
  std::pair<int, int> noc_dims(const RunRequest& req) const override {
    const TraceMeta meta = load_trace_meta(require_path(req));
    return {meta.width, meta.height};
  }

  /// Re-recording a replay keeps the original header's fabric.
  TraceNetConfig net_config(const RunRequest& req) const override {
    return load_trace_meta(require_path(req)).net;
  }

  RunResult run(const RunRequest& req, RunContext& ctx) const override {
    const ReplayParams rp = section_or_default(req.replay);
    const std::shared_ptr<const Trace> trace_ptr =
        load_cached(require_path(req), rp.trace_scale);
    const Trace& trace = *trace_ptr;

    // Seed the NoC from the trace header, not the replay params: with
    // random_tie_break routers the recorded deflection choices depend on
    // the recorded seed, and bit-identical replay depends on matching it.
    const noc::TorusGeometry geom(trace.meta.width, trace.meta.height);
    ReplayResult res;
    RunResult r;
    if (trace.meta.version >= 2 &&
        trace.meta.net.kind == TraceNetKind::kBufferedXy) {
      // The header says which fabric recorded the trace; rebuild exactly
      // that one (the machine's deflection RouterConfig does not apply).
      // The XY fabric never shards (see SyntheticWorkload).
      sim::Scheduler sched(req.machine.scheduler);
      noc::XyNetwork net(sched, geom, trace.meta.net.xy_router_config(),
                         trace.meta.net.torus_wrap);
      if (noc::FlitObserver* o = ctx.observer()) net.set_observer(o);
      ScopedTelemetry telemetry(ctx, sched, net.stats());
      res = run_replay(sched, net, trace, kReplayLimit, rp.force_config);
      r.stats = net.stats();
      add_sched_stats(sched, r.stats);
    } else {
      // Deflection replay runs on the machine's RouterConfig; for v2
      // traces the replayer refuses a config that differs from the
      // recording unless rp.force_config makes it explicit.  Replays
      // shard like synthetic traffic: per-node injectors/sinks live on
      // their node's shard.
      sim::SimDomain dom(req.machine.scheduler, geom.height());
      noc::Network net(dom, geom, req.machine.router, trace.meta.seed);
      if (noc::FlitObserver* o = ctx.observer()) net.set_observer(o);
      ScopedTelemetry telemetry(ctx, dom, net.stats());
      res = run_replay(dom, net, trace, kReplayLimit, rp.force_config);
      r.stats = net.stats();
      add_sched_stats(dom, r.stats);
    }

    r.cycles = res.cycles;
    r.metric = static_cast<double>(res.last_delivery_cycle);
    r.metric_name = "last_delivery_cycle";
    r.flits_delivered = res.flits_delivered;
    // Every recorded flit must come out of the network again.
    r.verified_ok = res.flits_delivered == trace.events.size();
    return r;
  }

 private:
  static constexpr sim::Cycle kReplayLimit = 50'000'000;

  static const std::string& require_path(const RunRequest& req) {
    if (!req.replay.has_value() || req.replay->trace_path.empty()) {
      throw std::invalid_argument(
          "replay workload: replay.trace_path must name a recorded trace");
    }
    return req.replay->trace_path;
  }

  /// Traces are immutable once recorded, and a DSE sweep replays the
  /// same file — at the same handful of rate scales — at every design
  /// point from many threads.  Cache parsed (and scaled) traces by
  /// (path, scale) so a 168-cell sweep decodes the file once and runs
  /// each RateScale pass once, not once per cell.
  std::shared_ptr<const Trace> load_cached(const std::string& path,
                                           double scale) const {
    const CacheKey key{path, scale};
    {
      const std::lock_guard<std::mutex> lock(cache_mutex_);
      const auto it = cache_.find(key);
      if (it != cache_.end()) return it->second;
    }
    std::shared_ptr<const Trace> fresh;
    if (scale == 1.0) {
      fresh = std::make_shared<const Trace>(load_trace(path));
    } else {
      const auto base = load_cached(path, 1.0);
      fresh = std::make_shared<const Trace>(
          xform::RateScale(scale).apply(*base));
    }
    const std::lock_guard<std::mutex> lock(cache_mutex_);
    // A sweep touches a few (path, scale) combos; a pathological caller
    // cycling through many files should not accumulate them forever.
    if (cache_.size() >= 16) cache_.clear();
    return cache_.emplace(key, std::move(fresh)).first->second;
  }

  using CacheKey = std::pair<std::string, double>;
  mutable std::mutex cache_mutex_;
  mutable std::map<CacheKey, std::shared_ptr<const Trace>> cache_;
};

}  // namespace

namespace detail {

void register_builtins(WorkloadRegistry& reg) {
  reg.add(std::make_unique<JacobiWorkload>(
      "jacobi", apps::JacobiVariant::kHybridMp,
      "Jacobi 2-D Laplace solver, hybrid message-passing variant (the "
      "paper's benchmark)"));
  reg.add(std::make_unique<JacobiWorkload>(
      "jacobi-sync", apps::JacobiVariant::kHybridSyncOnly,
      "Jacobi solver: shared-memory data exchange, message-passing "
      "synchronization"));
  reg.add(std::make_unique<JacobiWorkload>(
      "jacobi-sm", apps::JacobiVariant::kPureSharedMemory,
      "Jacobi solver: pure shared memory with lock-based barriers"));
  reg.add(std::make_unique<ReductionWorkload>(
      "reduction", apps::ReductionVariant::kMessagePassing,
      "parallel dot product, message-passing gather+broadcast"));
  reg.add(std::make_unique<ReductionWorkload>(
      "reduction-sm", apps::ReductionVariant::kSharedMemory,
      "parallel dot product, lock-protected shared accumulator"));
  reg.add(std::make_unique<AlltoallWorkload>());
  for (noc::TrafficPattern pat :
       {noc::TrafficPattern::kUniformRandom, noc::TrafficPattern::kHotspot,
        noc::TrafficPattern::kTranspose, noc::TrafficPattern::kNeighbor,
        noc::TrafficPattern::kBitReversal}) {
    reg.add(std::make_unique<SyntheticWorkload>(pat));
  }
  reg.add(std::make_unique<ReplayWorkload>());
}

}  // namespace detail
}  // namespace medea::workload

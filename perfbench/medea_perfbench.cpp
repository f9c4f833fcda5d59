/// medea_perfbench: the measuring program behind perfbench/run.py.
///
/// Runs one benchmark workload (README.md says why each exists) for a
/// host-time budget and prints one JSON document on stdout:
///
///   * provenance: compiler, build type, NDEBUG, host cores, workers,
///     shards, seed and the workload's configuration;
///   * the simulated outputs of every design point (cycles, headline
///     metric, flits, latency percentiles) — run.py checks them against
///     golden.json on the default seed;
///   * invariant-check failures, with the points attempted and failed;
///   * untraced (--trace 0): the end-to-end metrics;
///     traced (--trace 1): the per-layer counters and span timings,
///     with the spans themselves written to --spans FILE.
///
/// Everything timed is host time (std::chrono::steady_clock); simulated
/// quantities are labelled as such.  Spans are recorded here, around the
/// calls into each library layer — the library itself is not modified.
///
///   medea_perfbench --workload jacobi_wb --seed 1 --seconds 10 --trace 0
///                   [--quick] [--spans FILE]

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "apps/jacobi.h"
#include "core/system.h"
#include "dse/pareto.h"
#include "dse/sweep.h"
#include "noc/network.h"
#include "noc/traffic.h"
#include "sim/domain.h"
#include "sim/frame_pool.h"
#include "workload/measure.h"
#include "workload/workload.h"

using namespace medea;

namespace {

#ifdef NDEBUG
constexpr bool kNdebug = true;
#else
constexpr bool kNdebug = false;
#endif
#ifdef __OPTIMIZE__
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

using Clock = std::chrono::steady_clock;
const Clock::time_point kEpoch = Clock::now();

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 != 0 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

/// Heap bytes currently allocated (arena + mmapped chunks).
double heap_in_use() {
  const struct mallinfo2 mi = mallinfo2();
  return static_cast<double>(mi.uordblks + mi.hblkhd);
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---------------------------------------------------------------------
// Minimal JSON writer
// ---------------------------------------------------------------------

class Json {
 public:
  Json& obj() { return open('{'); }
  Json& end_obj() { return close('}'); }
  Json& arr() { return open('['); }
  Json& end_arr() { return close(']'); }
  Json& key(const std::string& k) {
    sep();
    quoted(k);
    out_ += ':';
    after_key_ = true;
    return *this;
  }
  Json& val(double v) {
    sep();
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    // NaN/inf are not JSON; no metric here can produce them legitimately.
    out_ += (v == v && v - v == 0.0) ? buf : "null";
    return *this;
  }
  Json& val(std::uint64_t v) { return raw(std::to_string(v)); }
  Json& val(int v) { return raw(std::to_string(v)); }
  Json& val(bool v) { return raw(v ? "true" : "false"); }
  Json& val(const std::string& s) {
    sep();
    quoted(s);
    return *this;
  }
  Json& val(const char* s) { return val(std::string(s)); }
  template <typename T>
  Json& field(const std::string& k, const T& v) {
    return key(k).val(v);
  }
  const std::string& str() const { return out_; }

 private:
  Json& open(char c) {
    sep();
    out_ += c;
    first_.push_back(true);
    return *this;
  }
  Json& close(char c) {
    out_ += c;
    first_.pop_back();
    return *this;
  }
  Json& raw(const std::string& s) {
    sep();
    out_ += s;
    return *this;
  }
  void sep() {
    if (after_key_) {
      after_key_ = false;
      return;
    }
    if (first_.empty()) return;
    if (!first_.back()) out_ += ',';
    first_.back() = false;
  }
  void quoted(const std::string& s) {
    out_ += '"';
    for (const char c : s) {
      if (c == '"' || c == '\\') {
        out_ += '\\';
        out_ += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof buf, "\\u%04x", c);
        out_ += buf;
      } else {
        out_ += c;
      }
    }
    out_ += '"';
  }

  std::string out_;
  std::vector<bool> first_;
  bool after_key_ = false;
};

// ---------------------------------------------------------------------
// Spans: recorded in memory per worker thread, written out at the end
// ---------------------------------------------------------------------

struct Span {
  std::string name;
  std::string point;  ///< design-point id shared by a point's spans
  int parent = -1;    ///< index into the same log; -1 = root
  int thread = 0;
  double start_s = 0.0;  ///< host seconds since program start
  double end_s = 0.0;
  std::vector<std::pair<std::string, double>> counters;
};

/// One worker's span log.  A disabled log records nothing, so the same
/// instrumented code runs as the untraced reference pass.
class SpanLog {
 public:
  SpanLog(bool enabled, int thread) : enabled_(enabled), thread_(thread) {}

  bool enabled() const { return enabled_; }

  int open(const std::string& name, const std::string& point) {
    if (!enabled_) return -1;
    Span s;
    s.name = name;
    s.point = point;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.thread = thread_;
    s.start_s = since(kEpoch);
    spans_.push_back(std::move(s));
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }

  /// Closes span `id` and returns its duration in seconds.
  double close(int id) {
    if (id < 0) return 0.0;
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end_s = since(kEpoch);
    stack_.pop_back();
    return s.end_s - s.start_s;
  }

  void counter(int id, const std::string& key, double v) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].counters.emplace_back(key, v);
  }

  std::vector<Span>& spans() { return spans_; }

 private:
  bool enabled_;
  int thread_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// Per-layer totals accumulated over a traced pass, keyed by counter.
using Counters = std::map<std::string, double>;

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool quick = false;
  std::string spans_path;

  bool jacobi = false;
  mem::WritePolicy policy = mem::WritePolicy::kWriteBack;
  bool sharded = false;
  int workers = 1;  ///< DSE worker threads (Jacobi)
  int shards = 1;   ///< kernel shards (uniform; 1 = single-thread kernel)

  // Jacobi design-point slice (the paper's 4x4 folded torus).
  int n = 60;
  std::vector<int> cores = {2, 8, 15};
  std::vector<std::uint32_t> cache_kb = {2, 16, 64};

  // Uniform-random deflection traffic.
  int width = 60;
  int height = 60;
  double rate = 0.30;
  int flits_per_node = 100;
};

int host_cores() {
  const int n = static_cast<int>(std::thread::hardware_concurrency());
  return n > 0 ? n : 1;
}

Config parse_args(int argc, char** argv) {
  Config c;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
      return argv[++i];
    };
    if (a == "--workload") {
      c.workload = next();
      have_workload = true;
    } else if (a == "--seed") {
      c.seed = std::stoull(next());
    } else if (a == "--seconds") {
      c.seconds = std::stod(next());
    } else if (a == "--trace") {
      c.trace = std::stoi(next()) != 0;
    } else if (a == "--spans") {
      c.spans_path = next();
    } else if (a == "--quick") {
      c.quick = true;
    } else {
      throw std::invalid_argument("unknown argument " + a);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");

  // Load comes from one process with at most one thread per host core.
  const int par = std::min(4, host_cores());
  if (c.workload == "jacobi_wb" || c.workload == "jacobi_wt") {
    c.jacobi = true;
    c.policy = c.workload == "jacobi_wb" ? mem::WritePolicy::kWriteBack
                                         : mem::WritePolicy::kWriteThrough;
    c.workers = par;
    if (c.quick) {
      c.cores = {8};
      c.cache_kb = {16};
    }
  } else if (c.workload == "uniform_60x60" ||
             c.workload == "uniform_60x60_sharded") {
    c.sharded = c.workload == "uniform_60x60_sharded";
    if (c.quick) c.width = c.height = 8;
    c.shards = c.sharded ? std::min(par, c.height) : 1;
  } else {
    throw std::invalid_argument("unknown workload " + c.workload);
  }
  return c;
}

std::string config_string(const Config& c) {
  std::string s;
  if (c.jacobi) {
    s = "jacobi hybrid_mp n=" + std::to_string(c.n) + " policy=" +
        mem::to_string(c.policy) + " cores=";
    for (std::size_t i = 0; i < c.cores.size(); ++i) {
      s += (i ? "," : "") + std::to_string(c.cores[i]);
    }
    s += " l1_kb=";
    for (std::size_t i = 0; i < c.cache_kb.size(); ++i) {
      s += (i ? "," : "") + std::to_string(c.cache_kb[i]);
    }
    s += " warmup_iters=1 timed_iters=1 noc=4x4";
  } else {
    char rate[16];
    std::snprintf(rate, sizeof rate, "%.2f", c.rate);
    s = "uniform deflection " + std::to_string(c.width) + "x" +
        std::to_string(c.height) + " rate=" + rate + " flits_per_node=" +
        std::to_string(c.flits_per_node);
  }
  return s;
}

struct DesignPoint {
  int cores = 0;
  std::uint32_t kb = 0;
  std::string label;
};

/// The slice in run_sweep's order (cores-major, then cache) and labels.
std::vector<DesignPoint> design_points(const Config& c) {
  std::vector<DesignPoint> pts;
  for (int cores : c.cores) {
    for (std::uint32_t kb : c.cache_kb) {
      pts.push_back({cores, kb,
                     std::to_string(cores) + "P_" + std::to_string(kb) +
                         "k$_" + mem::to_string(c.policy)});
    }
  }
  return pts;
}

std::string uniform_label(const Config& c) {
  return "uniform_" + std::to_string(c.width) + "x" + std::to_string(c.height);
}

/// Simulated outputs of one design point (what golden.json pins).
struct PointOutput {
  std::string label;
  std::uint64_t cycles = 0;
  double metric = 0.0;
  std::uint64_t flits_injected = 0;
  std::uint64_t flits_delivered = 0;
  std::uint64_t latency_p50 = 0;
  std::uint64_t latency_p99 = 0;
  double flit_hops = 0.0;
};

PointOutput output_of(const std::string& label, const workload::RunResult& r) {
  PointOutput o;
  o.label = label;
  o.cycles = r.cycles;
  o.metric = r.metric;
  o.flits_injected = r.stats.get("noc.flits_injected");
  o.flits_delivered = r.flits_delivered;
  o.latency_p50 = r.measurement.latency.p50;
  o.latency_p99 = r.measurement.latency.p99;
  o.flit_hops = r.stats.acc("noc.hops").sum();
  return o;
}

/// Invariant-check bookkeeping: one entry per design point simulated.
struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;

  /// Records one point; `problems` empty means it passed.
  void point(const std::string& label,
             const std::vector<std::string>& problems) {
    ++attempted;
    if (problems.empty()) return;
    ++failed;
    for (const auto& p : problems) failures.push_back(label + ": " + p);
  }
};

std::vector<std::string> output_invariants(const PointOutput& o,
                                           const workload::RunResult& r) {
  std::vector<std::string> bad;
  if (!r.verified_ok) bad.push_back("verification failed");
  if (o.cycles == 0) bad.push_back("zero simulated cycles");
  if (o.flits_injected != o.flits_delivered) {
    bad.push_back("injected " + std::to_string(o.flits_injected) +
                  " != delivered " + std::to_string(o.flits_delivered));
  }
  if (r.measurement.delivered != o.flits_delivered) {
    bad.push_back("measured deliveries != fabric deliveries");
  }
  return bad;
}

bool same_stats(const sim::StatSet& a, const sim::StatSet& b) {
  if (a.counters() != b.counters()) return false;
  const auto& x = a.accumulators();
  const auto& y = b.accumulators();
  if (x.size() != y.size()) return false;
  for (auto i = x.begin(), j = y.begin(); i != x.end(); ++i, ++j) {
    if (i->first != j->first || i->second.count() != j->second.count() ||
        i->second.sum() != j->second.sum() ||
        i->second.min() != j->second.min() ||
        i->second.max() != j->second.max()) {
      return false;
    }
  }
  return true;
}

/// Everything a workload run reports back to main().
struct Report {
  std::vector<PointOutput> outputs;
  Checks checks;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  std::vector<Span> spans;
  std::vector<double> rep_walls;  ///< host seconds of each timed repetition

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
};

/// Runs fn(i, worker) for i in [0, n) on `workers` threads, worker w
/// taking i = w, w+workers, ... (dse::run_sweep's striping).
void striped(std::size_t n, int workers,
             const std::function<void(std::size_t, int)>& fn) {
  const int w_count = std::max(1, std::min<int>(workers, static_cast<int>(n)));
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(w_count));
  std::vector<std::thread> pool;
  for (int w = 0; w < w_count; ++w) {
    pool.emplace_back([&, w] {
      try {
        for (std::size_t i = static_cast<std::size_t>(w); i < n;
             i += static_cast<std::size_t>(w_count)) {
          fn(i, w);
        }
      } catch (...) {
        errors[static_cast<std::size_t>(w)] = std::current_exception();
      }
    });
  }
  for (auto& t : pool) t.join();
  for (const auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

// ---------------------------------------------------------------------
// Jacobi DSE workloads
// ---------------------------------------------------------------------

core::MedeaConfig jacobi_machine(const Config& c, const DesignPoint& p) {
  core::MedeaConfig m = dse::make_design_config(p.cores, p.kb, c.policy);
  m.workload = "jacobi";
  m.seed = c.seed;
  return m;
}

apps::JacobiParams jacobi_params(const Config& c) {
  apps::JacobiParams jp;
  jp.n = c.n;
  jp.warmup_iterations = 1;  // warm the modelled caches, untimed
  jp.timed_iterations = 1;
  jp.variant = apps::JacobiVariant::kHybridMp;
  return jp;
}

/// The untimed check pass: every point through the workload engine with
/// verify=true, checked against the host reference and the invariants.
std::vector<PointOutput> jacobi_check_pass(const Config& c, Checks& checks) {
  const std::vector<DesignPoint> pts = design_points(c);
  std::vector<PointOutput> out(pts.size());
  std::vector<std::vector<std::string>> problems(pts.size());
  striped(pts.size(), c.workers, [&](std::size_t i, int) {
    workload::RunRequest req;
    req.machine = jacobi_machine(c, pts[i]);
    req.seed = c.seed;
    req.verify = true;
    workload::AppParams ap;
    ap.size = c.n;
    ap.iterations = 1;
    ap.warmup_iterations = 1;
    req.app = ap;
    const workload::RunResult r = workload::run_by_name("jacobi", req);
    out[i] = output_of(pts[i].label, r);
    problems[i] = output_invariants(out[i], r);
  });
  for (std::size_t i = 0; i < pts.size(); ++i) {
    checks.point(pts[i].label, problems[i]);
  }
  return out;
}

dse::SweepSpec jacobi_spec(const Config& c) {
  dse::SweepSpec spec;
  spec.workload = "jacobi";
  spec.variant = apps::JacobiVariant::kHybridMp;
  spec.n = c.n;
  spec.cores = c.cores;
  spec.cache_kb = c.cache_kb;
  spec.policies = {c.policy};
  spec.warmup_iterations = 1;
  spec.timed_iterations = 1;
  spec.threads = c.workers;
  return spec;
}

/// A sweep point must reproduce the check pass exactly.
std::vector<std::string> sweep_point_problems(const dse::SweepPoint& p,
                                              const PointOutput& ref) {
  std::vector<std::string> bad;
  if (p.label != ref.label) bad.push_back("sweep label " + p.label);
  if (p.cycles_per_iteration != ref.metric) {
    bad.push_back("cycles_per_iteration differs from the check pass");
  }
  if (p.measurement.latency.p50 != ref.latency_p50 ||
      p.measurement.latency.p99 != ref.latency_p99 ||
      p.measurement.delivered != ref.flits_delivered) {
    bad.push_back("latency/deliveries differ from the check pass");
  }
  return bad;
}

/// Set-up a sweep of the slice pays: the sum over its design points of
/// the median MedeaSystem constructor time (constructor cost grows
/// ~30x from 2 to 15 cores, so a median over pooled points would jump
/// between configurations).
double jacobi_setup_s(const Config& c) {
  const std::vector<DesignPoint> pts = design_points(c);
  std::vector<std::vector<double>> t(pts.size());
  for (int rep = 0; rep < 15; ++rep) {
    for (std::size_t i = 0; i < pts.size(); ++i) {
      const core::MedeaConfig m = jacobi_machine(c, pts[i]);
      const auto t0 = Clock::now();
      core::MedeaSystem sys(m);
      t[i].push_back(since(t0));
    }
  }
  double sum = 0.0;
  for (const auto& samples : t) sum += median(samples);
  return sum;
}

void jacobi_timed(const Config& c, const std::vector<PointOutput>& ref,
                  double setup, Report& rep) {
  const dse::SweepSpec spec = jacobi_spec(c);
  double cycles = 0.0, hops = 0.0;
  for (const auto& o : ref) {
    cycles += static_cast<double>(o.cycles);
    hops += o.flit_hops;
  }
  const double routers = 16.0;  // make_design_config: 4x4 torus
  std::vector<double> walls;
  std::vector<std::vector<double>> point_s(ref.size());
  const auto t0 = Clock::now();
  do {
    const auto r0 = Clock::now();
    const std::vector<dse::SweepPoint> pts = dse::run_sweep(spec);
    walls.push_back(since(r0));
    for (std::size_t i = 0; i < pts.size(); ++i) {
      point_s[i].push_back(pts[i].host_ms / 1000.0);
      rep.checks.point(pts[i].label, sweep_point_problems(pts[i], ref[i]));
    }
  } while (since(t0) < c.seconds);
  rep.rep_walls = walls;

  const double npts = static_cast<double>(ref.size());
  std::vector<double> pph, cps, hps;
  for (double w : walls) {
    pph.push_back(npts * 3600.0 / w);
    cps.push_back(cycles / w);
    hps.push_back(hops / w);
  }
  rep.metric("points_per_hour", median(pph), "1/h");
  // Median over design points of each point's median host time.
  std::vector<double> per_point;
  for (const auto& samples : point_s) per_point.push_back(median(samples));
  rep.metric("point_wall_s", median(per_point), "s");
  rep.metric("sim_cycles_per_s", median(cps), "1/s");
  rep.metric("router_cycles_per_s", median(cps) * routers, "1/s");
  rep.metric("flit_hops_per_s", median(hps), "1/s");
  rep.metric("setup_s", setup, "s");
}

/// One design point through the layers, spanned and counted when `log`
/// is enabled (the same calls JacobiWorkload::run makes, including the
/// measurement observer the engine attaches).
void jacobi_traced_point(const Config& c, const DesignPoint& p,
                         const PointOutput& ref, SpanLog& log, Counters& k,
                         std::vector<std::string>& problems) {
  const int root = log.open("point", p.label);
  const sim::FramePool::Stats fp0 = sim::FramePool::tls().stats();

  int s = log.open("apps.setup", p.label);
  core::MedeaSystem sys(jacobi_machine(c, p));
  const double setup_s = log.close(s);
  workload::MeasurementController mc(workload::MeasurementParams{},
                                     sys.config().num_nodes());
  sys.network().set_observer(&mc);

  s = log.open("apps.run", p.label);
  const apps::JacobiResult res = apps::run_jacobi(sys, jacobi_params(c));
  const double run_s = log.close(s);
  if (res.total_cycles != ref.cycles ||
      res.cycles_per_iteration != ref.metric) {
    problems.push_back("traced run differs from the check pass");
  }
  if (!log.enabled()) return;

  const sim::Scheduler& sched = sys.scheduler();
  const sim::FramePool::Stats fp1 = sim::FramePool::tls().stats();
  const std::pair<std::string, double> run_counters[] = {
      {"sim.wake_requests", static_cast<double>(sched.wake_requests())},
      {"sim.active_cycles", static_cast<double>(sched.active_cycles())},
      {"sim.cycles", static_cast<double>(sched.now())},
      {"sim.overflow_pushes", static_cast<double>(sched.overflow_pushes())},
      {"sim.frame_pool_hits", static_cast<double>(fp1.hits - fp0.hits)},
      {"sim.frame_pool_misses", static_cast<double>(fp1.misses - fp0.misses)},
  };
  for (const auto& [key, v] : run_counters) {
    log.counter(s, key, v);
    k[key] += v;
  }

  s = log.open("workload.stats_aggregate", p.label);
  const sim::StatSet st = sys.aggregate_stats();
  const double agg_s = log.close(s);
  double l1_hits = 0.0, l1_misses = 0.0, l1_wb = 0.0;
  for (int r = 0; r < sys.num_cores(); ++r) {
    const sim::StatSet& cs = sys.core(r).cache().stats();
    l1_hits += static_cast<double>(cs.get("cache.read_hits") +
                                   cs.get("cache.write_hits"));
    l1_misses += static_cast<double>(cs.get("cache.read_misses") +
                                     cs.get("cache.write_misses"));
    l1_wb += static_cast<double>(cs.get("cache.writebacks"));
  }
  const auto get = [&st](const char* key) {
    return static_cast<double>(st.get(key));
  };
  const std::string mpmmu_delivered =
      "noc.router." + std::to_string(sys.config().mpmmu_node) + ".delivered";
  const std::pair<std::string, double> stat_counters[] = {
      {"noc.flit_hops", st.acc("noc.hops").sum()},
      {"noc.deflections", get("noc.deflections_total")},
      {"noc.flits_delivered", get("noc.flits_delivered")},
      {"noc.mpmmu_node_delivered", get(mpmmu_delivered.c_str())},
      {"pe.ops_retired", get("pe.ops_retired")},
      {"pe.write_buffer_stalls", get("pe.write_buffer_stalls")},
      {"pe.mp_credit_stalls", get("pe.mp_credit_stalls")},
      {"mem.l1_hits", l1_hits},
      {"mem.l1_misses", l1_misses},
      {"mem.l1_writebacks", l1_wb},
      {"empi.packets_sent", get("tie.packets_sent")},
      {"mpmmu.transactions", get("mpmmu.transactions")},
      {"mpmmu.single_writes", get("mpmmu.single_writes")},
  };
  for (const auto& [key, v] : stat_counters) {
    log.counter(s, key, v);
    k[key] += v;
  }
  k["apps.setup_s"] += setup_s;
  k["apps.run_s"] += run_s;
  k["workload.stats_aggregate_s"] += agg_s;
  log.close(root);
}

/// One pass over the slice through jacobi_traced_point; returns its wall.
double jacobi_direct_pass(const Config& c, const std::vector<PointOutput>& ref,
                          bool traced, Report& rep, Counters& k) {
  const std::vector<DesignPoint> pts = design_points(c);
  const int w_count = std::min<int>(c.workers, static_cast<int>(pts.size()));
  std::vector<SpanLog> logs;
  for (int w = 0; w < w_count; ++w) logs.emplace_back(traced, w);
  std::vector<Counters> ks(static_cast<std::size_t>(w_count));
  std::vector<std::vector<std::string>> problems(pts.size());
  const auto t0 = Clock::now();
  striped(pts.size(), w_count, [&](std::size_t i, int w) {
    jacobi_traced_point(c, pts[i], ref[i], logs[static_cast<std::size_t>(w)],
                        ks[static_cast<std::size_t>(w)], problems[i]);
  });
  const double wall = since(t0);
  for (std::size_t i = 0; i < pts.size(); ++i) {
    rep.checks.point(pts[i].label, problems[i]);
  }
  for (const Counters& wk : ks) {
    for (const auto& [key, v] : wk) k[key] += v;
  }
  for (SpanLog& log : logs) {
    const int offset = static_cast<int>(rep.spans.size());
    for (Span& s : log.spans()) {
      if (s.parent >= 0) s.parent += offset;
      rep.spans.push_back(std::move(s));
    }
  }
  return wall;
}

void jacobi_traced(const Config& c, const std::vector<PointOutput>& ref,
                   Report& rep, Counters& k) {
  Counters unused;
  const double untraced = jacobi_direct_pass(c, ref, false, rep, unused);
  const double traced = jacobi_direct_pass(c, ref, true, rep, k);
  k["trace.overhead_s"] = traced - untraced;

  // The DSE layer: one real sweep, its per-point host times and the
  // Pareto/Kill-rule analysis over its results.
  const auto t0 = Clock::now();
  const std::vector<dse::SweepPoint> pts = dse::run_sweep(jacobi_spec(c));
  const double sweep_wall = since(t0);
  double sum_s = 0.0, max_s = 0.0;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    sum_s += pts[i].host_ms / 1000.0;
    max_s = std::max(max_s, pts[i].host_ms / 1000.0);
    rep.checks.point(pts[i].label, sweep_point_problems(pts[i], ref[i]));
  }
  const int workers = std::min<int>(c.workers, static_cast<int>(pts.size()));
  k["dse.parallel_efficiency"] = ratio(sum_s, workers * sweep_wall);
  k["dse.point_wall_s_max"] = max_s;
  SpanLog log(true, 0);
  const int s = log.open("dse.pareto", "sweep");
  const auto frontier = dse::pareto_frontier(dse::to_design_points(pts));
  log.counter(s, "dse.frontier_points", static_cast<double>(frontier.size()));
  log.counter(s, "dse.knee",
              static_cast<double>(dse::kill_rule_knee(frontier)));
  k["dse.pareto_s"] = log.close(s);
  for (Span& sp : log.spans()) rep.spans.push_back(std::move(sp));
}

// ---------------------------------------------------------------------
// Uniform-random traffic on the 60x60 deflection torus
// ---------------------------------------------------------------------

sim::SchedulerConfig uniform_scheduler(int shards) {
  sim::SchedulerConfig s;
  if (shards > 1) {
    s.queue = sim::SchedulerConfig::EventQueue::kShardedCalendar;
    s.num_shards = static_cast<std::uint32_t>(shards);
  }
  return s;
}

workload::RunRequest uniform_request(const Config& c, int shards,
                                     bool collect) {
  workload::RunRequest req;
  req.machine.noc_width = c.width;
  req.machine.noc_height = c.height;
  req.machine.workload = "uniform";
  req.machine.scheduler = uniform_scheduler(shards);
  req.seed = c.seed;
  workload::SyntheticParams sp;
  sp.injection_rate = c.rate;
  sp.flits_per_node = c.flits_per_node;
  req.synthetic = sp;
  req.measurement.collect = collect;
  return req;
}

noc::TrafficConfig uniform_traffic(const Config& c) {
  noc::TrafficConfig tc;
  tc.pattern = noc::TrafficPattern::kUniformRandom;
  tc.injection_rate = c.rate;
  tc.flits_per_node = c.flits_per_node;
  tc.seed = c.seed;
  return tc;
}

std::vector<std::string> uniform_invariants(const Config& c,
                                            const PointOutput& o,
                                            const workload::RunResult& r) {
  std::vector<std::string> bad = output_invariants(o, r);
  const std::uint64_t expect =
      static_cast<std::uint64_t>(c.width) *
      static_cast<std::uint64_t>(c.height) *
      static_cast<std::uint64_t>(c.flits_per_node);
  if (o.flits_delivered != expect) {
    bad.push_back("delivered " + std::to_string(o.flits_delivered) +
                  " != nodes x flits/node " + std::to_string(expect));
  }
  return bad;
}

/// Bit-identity of two runs of the same inputs (any kernel).
std::vector<std::string> same_run(const workload::RunResult& a,
                                  const workload::RunResult& b) {
  std::vector<std::string> bad;
  if (a.cycles != b.cycles || a.metric != b.metric ||
      a.flits_delivered != b.flits_delivered) {
    bad.push_back("cycles/metric/deliveries differ from the reference run");
  }
  if (!same_stats(a.stats, b.stats)) {
    bad.push_back("stats differ from the reference run");
  }
  if (!(a.measurement == b.measurement)) {
    bad.push_back("measurement differs from the reference run");
  }
  return bad;
}

struct UniformCheck {
  workload::RunResult reference;  ///< single-thread kernel, collect on
  PointOutput output;
};

/// The untimed check pass: a single-thread reference run checked against
/// the traffic invariants.  The sharded workload's runs must reproduce it
/// bit for bit.
UniformCheck uniform_check_pass(const Config& c, Checks& checks) {
  UniformCheck u;
  u.reference = workload::run_by_name("uniform", uniform_request(c, 1, true));
  u.output = output_of(uniform_label(c), u.reference);
  checks.point(u.output.label, uniform_invariants(c, u.output, u.reference));
  return u;
}

double uniform_setup_s(const Config& c) {
  const noc::TorusGeometry geom(c.width, c.height);
  std::vector<double> t;
  for (int rep = 0; rep < 15; ++rep) {
    const auto t0 = Clock::now();
    sim::SimDomain dom(uniform_scheduler(c.shards), c.height);
    noc::Network net(dom, geom, noc::RouterConfig{}, c.seed);
    t.push_back(since(t0));
  }
  return median(t);
}

/// Timed runs of the workload's request.  The sharded workload first
/// runs the untimed single-thread reference it must reproduce bit for
/// bit; the single-thread workload checks its first timed run against
/// the invariants and every later run against that first one.
void uniform_timed(const Config& c, double setup, Report& rep) {
  std::optional<UniformCheck> ref;
  if (c.sharded) ref = uniform_check_pass(c, rep.checks);
  const workload::RunRequest req = uniform_request(c, c.shards, true);
  std::vector<double> walls;
  const auto t0 = Clock::now();
  do {
    const auto r0 = Clock::now();
    workload::RunResult r = workload::run_by_name("uniform", req);
    walls.push_back(since(r0));
    if (ref.has_value()) {
      rep.checks.point(ref->output.label, same_run(r, ref->reference));
    } else {
      const PointOutput o = output_of(uniform_label(c), r);
      rep.checks.point(o.label, uniform_invariants(c, o, r));
      ref = UniformCheck{std::move(r), o};
    }
  } while (since(t0) < c.seconds);
  rep.rep_walls = walls;
  rep.outputs.push_back(ref->output);

  const double cycles = static_cast<double>(ref->output.cycles);
  const double routers = static_cast<double>(c.width * c.height);
  std::vector<double> pph, cps, hps;
  for (double w : walls) {
    pph.push_back(3600.0 / w);
    cps.push_back(cycles / w);
    hps.push_back(ref->output.flit_hops / w);
  }
  rep.metric("points_per_hour", median(pph), "1/h");
  rep.metric("point_wall_s", median(walls), "s");
  rep.metric("sim_cycles_per_s", median(cps), "1/s");
  rep.metric("router_cycles_per_s", median(cps) * routers, "1/s");
  rep.metric("flit_hops_per_s", median(hps), "1/s");
  rep.metric("setup_s", setup, "s");
}

/// One run through the fabric layers (SimDomain + Network construction,
/// noc::run_traffic with the engine's measurement observer), spanned and
/// counted when `log` is enabled.  Returns its wall time.
double uniform_direct_run(const Config& c, const UniformCheck& ref,
                          SpanLog& log, Counters& k, Checks& checks) {
  const std::string label = ref.output.label;
  const auto t0 = Clock::now();
  const int root = log.open("run", label);
  const sim::FramePool::Stats fp0 = sim::FramePool::tls().stats();
  const double heap0 = log.enabled() ? heap_in_use() : 0.0;

  int s = log.open("noc.setup", label);
  const noc::TorusGeometry geom(c.width, c.height);
  sim::SimDomain dom(uniform_scheduler(c.shards), c.height);
  noc::Network net(dom, geom, noc::RouterConfig{}, c.seed);
  const double setup_s = log.close(s);
  const double heap = log.enabled() ? heap_in_use() - heap0 : 0.0;
  workload::MeasurementController mc(workload::MeasurementParams{},
                                     net.num_nodes());
  net.set_observer(&mc);

  s = log.open("noc.run", label);
  const int received = noc::run_traffic(dom, net, uniform_traffic(c));
  const double run_s = log.close(s);
  std::vector<std::string> bad;
  if (dom.now() != ref.output.cycles ||
      static_cast<std::uint64_t>(received) != ref.output.flits_delivered) {
    bad.push_back("direct fabric run differs from the check pass");
  }
  checks.point(label, bad);

  if (log.enabled()) {
    const sim::FramePool::Stats fp1 = sim::FramePool::tls().stats();
    const sim::StatSet& st = net.stats();
    const std::pair<std::string, double> counters[] = {
        {"sim.wake_requests", static_cast<double>(dom.wake_requests())},
        {"sim.active_cycles", static_cast<double>(dom.active_cycles())},
        {"sim.cycles", static_cast<double>(dom.now())},
        {"sim.overflow_pushes", static_cast<double>(dom.overflow_pushes())},
        {"sim.frame_pool_hits", static_cast<double>(fp1.hits - fp0.hits)},
        {"sim.frame_pool_misses", static_cast<double>(fp1.misses - fp0.misses)},
        {"sim.barrier_wait_ns", static_cast<double>(dom.barrier_wait_ns())},
        {"sim.shards", static_cast<double>(dom.num_shards())},
        {"sim.mailbox_flits", static_cast<double>(net.mailbox_flits())},
        {"noc.flit_hops", st.acc("noc.hops").sum()},
        {"noc.deflections",
         static_cast<double>(st.get("noc.deflections_total"))},
        {"noc.flits_delivered",
         static_cast<double>(st.get("noc.flits_delivered"))},
        {"noc.heap_bytes", heap},
        {"noc.routers", static_cast<double>(net.num_nodes())},
    };
    for (const auto& [key, v] : counters) {
      log.counter(s, key, v);
      k[key] += v;
    }
    k["noc.setup_s"] += setup_s;
    k["noc.run_s"] += run_s;
  }
  log.close(root);
  return since(t0);
}

void uniform_traced(const Config& c, Report& rep, Counters& k) {
  // The single-thread reference (the check pass); on the sharded
  // workload its own engine runs must reproduce it bit for bit.
  auto t0 = Clock::now();
  const UniformCheck ref = uniform_check_pass(c, rep.checks);
  double t_on = c.sharded ? 0.0 : since(t0);
  rep.outputs.push_back(ref.output);

  // Measurement collection (the engine's observer) on vs off, in
  // alternating engine runs: two of each.
  double t_off = 0.0;
  for (int pair = 0; pair < 2; ++pair) {
    for (const bool collect : {false, true}) {
      if (collect && pair == 0 && !c.sharded) continue;  // the check pass
      t0 = Clock::now();
      const workload::RunResult r = workload::run_by_name(
          "uniform", uniform_request(c, c.shards, collect));
      (collect ? t_on : t_off) += since(t0);
      if (collect) {
        rep.checks.point(ref.output.label, same_run(r, ref.reference));
      } else {
        std::vector<std::string> bad;
        if (r.cycles != ref.output.cycles ||
            r.flits_delivered != ref.output.flits_delivered) {
          bad.push_back("collect-off run differs");
        }
        rep.checks.point(ref.output.label, bad);
      }
    }
  }
  k["workload.observer_overhead_share"] = ratio(t_on - t_off, t_off);

  SpanLog quiet(false, 0), log(true, 0);
  Counters unused;
  const double untraced = uniform_direct_run(c, ref, quiet, unused, rep.checks);
  const double traced = uniform_direct_run(c, ref, log, k, rep.checks);
  k["trace.overhead_s"] = traced - untraced;
  for (Span& s : log.spans()) rep.spans.push_back(std::move(s));
}

// ---------------------------------------------------------------------
// Per-layer metrics from the traced pass's totals
// ---------------------------------------------------------------------

void layer_metrics(Counters& k, std::size_t spans, Report& rep) {
  const double shards = k["sim.shards"];
  const double barrier_share =
      shards > 1.0
          ? ratio(k["sim.barrier_wait_ns"] * 1e-9, shards * k["noc.run_s"])
          : 0.0;
  const struct {
    const char* name;
    double value;
    const char* unit;
  } m[] = {
      {"sim.wake_requests", k["sim.wake_requests"], "count"},
      {"sim.wakes_per_active_cycle",
       ratio(k["sim.wake_requests"], k["sim.active_cycles"]), "ratio"},
      {"sim.active_cycle_share", ratio(k["sim.active_cycles"], k["sim.cycles"]),
       "ratio"},
      {"sim.frame_pool_hit_rate",
       ratio(k["sim.frame_pool_hits"],
             k["sim.frame_pool_hits"] + k["sim.frame_pool_misses"]),
       "ratio"},
      {"sim.overflow_pushes", k["sim.overflow_pushes"], "count"},
      {"sim.barrier_wait_share", barrier_share, "ratio"},
      {"sim.mailbox_flits", k["sim.mailbox_flits"], "count"},
      {"noc.flit_hops", k["noc.flit_hops"], "count"},
      {"noc.deflection_ratio", ratio(k["noc.deflections"], k["noc.flit_hops"]),
       "ratio"},
      {"noc.run_s", k["noc.run_s"], "s"},
      {"noc.setup_s", k["noc.setup_s"], "s"},
      {"noc.heap_bytes_per_router",
       ratio(k["noc.heap_bytes"], k["noc.routers"]), "B"},
      {"pe.ops_retired", k["pe.ops_retired"], "count"},
      {"pe.write_buffer_stalls", k["pe.write_buffer_stalls"], "count"},
      {"pe.wakes_per_op", ratio(k["sim.wake_requests"], k["pe.ops_retired"]),
       "ratio"},
      {"pe.mp_credit_stalls", k["pe.mp_credit_stalls"], "count"},
      {"mem.l1_hit_rate",
       ratio(k["mem.l1_hits"], k["mem.l1_hits"] + k["mem.l1_misses"]), "ratio"},
      {"mem.l1_misses", k["mem.l1_misses"], "count"},
      {"mem.l1_writebacks", k["mem.l1_writebacks"], "count"},
      {"empi.packets_sent", k["empi.packets_sent"], "count"},
      {"mpmmu.transactions", k["mpmmu.transactions"], "count"},
      {"mpmmu.single_writes", k["mpmmu.single_writes"], "count"},
      {"mpmmu.hotspot_share",
       ratio(k["noc.mpmmu_node_delivered"], k["noc.flits_delivered"]), "ratio"},
      {"apps.setup_s", k["apps.setup_s"], "s"},
      {"apps.run_s", k["apps.run_s"], "s"},
      {"workload.stats_aggregate_s", k["workload.stats_aggregate_s"], "s"},
      {"workload.observer_overhead_share",
       k["workload.observer_overhead_share"], "ratio"},
      {"dse.parallel_efficiency", k["dse.parallel_efficiency"], "ratio"},
      {"dse.point_wall_s_max", k["dse.point_wall_s_max"], "s"},
      {"dse.pareto_s", k["dse.pareto_s"], "s"},
      {"trace.overhead_s", k["trace.overhead_s"], "s"},
      {"trace.spans", static_cast<double>(spans), "count"},
  };
  for (const auto& x : m) rep.metric(x.name, x.value, x.unit);
}

// ---------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------

void write_spans(const Config& c, const std::vector<Span>& spans) {
  Json j;
  j.obj().field("schema", "medea-perfbench-spans-v1");
  j.field("workload", c.workload).field("seed", c.seed);
  j.key("spans").arr();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    j.obj()
        .field("id", static_cast<int>(i))
        .field("name", s.name)
        .field("point", s.point)
        .field("parent", s.parent)
        .field("thread", s.thread)
        .field("start_s", s.start_s)
        .field("end_s", s.end_s);
    j.key("counters").obj();
    for (const auto& [key, v] : s.counters) j.field(key, v);
    j.end_obj().end_obj();
  }
  j.end_arr().end_obj();
  std::ofstream f(c.spans_path);
  f << j.str() << '\n';
  if (!f) throw std::runtime_error("cannot write spans to " + c.spans_path);
}

void print_report(const Config& c, const Report& rep) {
  Json j;
  j.obj().key("provenance").obj();
  j.field("compiler", MEDEA_PERFBENCH_COMPILER)
      .field("compiler_version", __VERSION__)
      .field("build_type", MEDEA_PERFBENCH_BUILD_TYPE)
      .field("ndebug", kNdebug)
      .field("optimized", kOptimized)
      .field("nproc", host_cores())
      .field("workers", c.jacobi ? c.workers : 1)
      .field("shards", c.shards)
      .field("seed", c.seed)
      .field("quick", c.quick)
      .field("config", config_string(c));
  j.end_obj();
  j.key("outputs").arr();
  for (const PointOutput& o : rep.outputs) {
    j.obj()
        .field("label", o.label)
        .field("cycles", o.cycles)
        .field("metric", o.metric)
        .field("flits_delivered", o.flits_delivered)
        .field("latency_p50", o.latency_p50)
        .field("latency_p99", o.latency_p99)
        .end_obj();
  }
  j.end_arr();
  j.key("rep_walls_s").arr();
  for (double w : rep.rep_walls) j.val(w);
  j.end_arr();
  j.field("attempted", rep.checks.attempted).field("failed", rep.checks.failed);
  j.key("failures").arr();
  for (const auto& f : rep.checks.failures) j.val(f);
  j.end_arr();
  j.key("metrics").obj();
  for (const auto& [name, vu] : rep.metrics) {
    j.key(name).obj().field("value", vu.first).field("unit", vu.second);
    j.end_obj();
  }
  j.end_obj().end_obj();
  std::printf("%s\n", j.str().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Config c = parse_args(argc, argv);
    if (!kOptimized || !kNdebug) {
      std::fprintf(stderr,
                   "medea_perfbench: refusing to report timings from an %s "
                   "build (build type %s)\n",
                   kOptimized ? "assert-enabled" : "unoptimized",
                   MEDEA_PERFBENCH_BUILD_TYPE);
      return 3;
    }
    Report rep;
    Counters k;
    // Set-up is sampled first, while the process heap is in the same
    // state on every run: after the check pass, whether the allocator
    // hands back warm or freshly faulted pages varies from run to run.
    double setup = 0.0;
    if (!c.trace) setup = c.jacobi ? jacobi_setup_s(c) : uniform_setup_s(c);
    if (c.jacobi) {
      rep.outputs = jacobi_check_pass(c, rep.checks);
      if (c.trace) {
        jacobi_traced(c, rep.outputs, rep, k);
      } else {
        jacobi_timed(c, rep.outputs, setup, rep);
      }
    } else if (c.trace) {
      uniform_traced(c, rep, k);
    } else {
      uniform_timed(c, setup, rep);
    }
    if (c.trace) {
      layer_metrics(k, rep.spans.size(), rep);
      if (!c.spans_path.empty()) write_spans(c, rep.spans);
    }
    rep.metric("peak_rss_mb", peak_rss_mb(), "MB");
    print_report(c, rep);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "medea_perfbench: %s\n", e.what());
    return 2;
  }
}

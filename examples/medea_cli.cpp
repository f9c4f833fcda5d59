/// medea_cli — the command-line front-end: run, record and saturation-
/// sweep any registered workload, and inspect, transform, diff and merge
/// MDTR flit traces without touching the simulator.
///
///   medea_cli list                         list registered workloads
///   medea_cli run <workload> [flags]       run one workload
///   medea_cli run <workload> --sweep-load [flags]
///                                          walk offered load to saturation
///                                          (synthetic patterns only)
///   medea_cli inspect FILE [--buckets=N] [--json]
///   medea_cli transform IN -o OUT [passes...]
///   medea_cli diff A B
///   medea_cli merge A B -o OUT
///   medea_cli help                         print every flag
///
/// `run` flags are generated from the RunRequest parameter structs and
/// grouped the same way.  Flags only engage the request section they
/// belong to, so a knob that does not apply to the chosen workload — say
/// --trace-scale on `uniform`, or --rate on `jacobi` — is a hard
/// validation error, not a silently ignored no-op.  Every value is
/// parsed strictly: a number must be the whole value and fit its field,
/// an enum must be one of its listed spellings, and anything else exits
/// 1 with an error naming the flag.
///
/// Examples:
///   medea_cli run uniform --width=8 --height=8 --rate=0.2
///   medea_cli run uniform --phased --process=onoff --measure=8192
///   medea_cli run uniform --sweep-load --loads=0.05,0.15,0.25 --json=sat.json
///   medea_cli run uniform --phased --timeline=tl.json --perfetto=trace.json
///   medea_cli run uniform --rate=0.65 --flit-trace=flits.json --worst-flits=5
///   medea_cli run jacobi --size=30 --record=jacobi.mdtr
///   medea_cli run replay --trace=jacobi.mdtr --trace-scale=2.0
///   medea_cli inspect jacobi.mdtr --json
///   medea_cli transform jacobi.mdtr -o big.mdtr --remap=8x8 --scale=0.5
///   medea_cli diff jacobi.mdtr big.mdtr
///
/// Exit codes: 0 success, 1 usage/processing error or failed --verify,
/// 2 when `diff` finds a difference.

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <limits>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "dse/report.h"
#include "sim/telemetry.h"
#include "workload/flit_report.h"
#include "workload/saturation.h"
#include "workload/timeline.h"
#include "workload/trace.h"
#include "workload/workload.h"
#include "workload/xform/inspect.h"
#include "workload/xform/transform.h"

using namespace medea;
namespace xform = medea::workload::xform;

namespace {

// ---------------------------------------------------------------------
// One strict parser and one flag matcher for every subcommand
// ---------------------------------------------------------------------

/// One flag's value text.  Every accessor parses the whole text or
/// throws std::invalid_argument naming the flag and the bad text.
struct Value {
  std::string_view flag;
  std::string_view text;

  [[noreturn]] void fail(std::string_view expected) const {
    std::string msg(flag);
    msg += ": invalid value '";
    msg += text;
    msg += "' (expected ";
    msg += expected;
    msg += ')';
    throw std::invalid_argument(msg);
  }

  /// A number of type T in [lo, hi] (std::from_chars over the full text:
  /// no whitespace, sign or suffix it would not accept, no trailing
  /// bytes; floating-point values must be finite).
  template <typename T>
  T num(T lo = std::numeric_limits<T>::lowest(),
        T hi = std::numeric_limits<T>::max()) const {
    T v{};
    const char* first = text.data();
    const char* last = first + text.size();
    const auto [p, ec] = std::from_chars(first, last, v);
    bool ok = !text.empty() && ec == std::errc{} && p == last && lo <= v &&
              v <= hi;
    if constexpr (std::is_floating_point_v<T>) {
      if (!(ok && std::isfinite(v))) fail("a finite number");
    } else if (!ok) {
      std::string range = "an integer in [";
      range += std::to_string(lo);
      range += ", ";
      range += std::to_string(hi);
      range += ']';
      fail(range);
    }
    return v;
  }

  /// One of the listed spellings.
  template <typename E>
  E one_of(std::initializer_list<std::pair<std::string_view, E>> opts) const {
    std::string names;
    for (const auto& [name, e] : opts) {
      if (text == name) return e;
      if (!names.empty()) names += '|';
      names += name;
    }
    fail(names);
  }

  /// The two halves around `sep` (e.g. "8x8", "100:200").
  std::pair<Value, Value> split(char sep, std::string_view shape) const {
    const std::size_t at = text.find(sep);
    if (at == std::string_view::npos) fail(shape);
    return {Value{flag, text.substr(0, at)},
            Value{flag, text.substr(at + 1)}};
  }

  /// A non-empty string (file paths, names).
  std::string str() const {
    if (text.empty()) fail("a non-empty value");
    return std::string(text);
  }
};

template <typename State>
struct Flag {
  const char* group;  ///< help section (mirrors the param struct)
  const char* name;   ///< the one spelling, e.g. "--rate"
  const char* arg;    ///< metavar ("" = boolean flag)
  const char* help;
  void (*set)(State&, const Value&);
};

/// Bare words, and the file after `-o`, in command-line order.
struct Words {
  std::vector<std::string> positional;
  std::string out;
};

/// Apply every `--name[=value]` in `args` through `flags`: a boolean
/// matches exactly, a valued flag as `name=value`.  An unknown flag, a
/// valued flag without a value or a switch with one throws.
template <typename State>
Words parse_args(std::span<char* const> args,
                 const std::vector<Flag<State>>& flags, State& state) {
  Words words;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string_view a = args[i];
    if (a == "-o") {
      if (i + 1 == args.size()) {
        throw std::invalid_argument("-o: missing output file");
      }
      words.out = Value{"-o", args[++i]}.str();
      continue;
    }
    if (!a.starts_with('-')) {
      words.positional.emplace_back(a);
      continue;
    }
    const std::string_view name = a.substr(0, a.find('='));
    const Flag<State>* hit = nullptr;
    for (const Flag<State>& f : flags) {
      if (name == f.name) hit = &f;
    }
    if (hit == nullptr) {
      throw std::invalid_argument(std::string("unknown option: ").append(a));
    }
    const bool valued = hit->arg[0] != '\0';
    if (valued == (name == a)) {
      throw std::invalid_argument(std::string(name).append(
          valued ? ": needs a value" : ": is a switch and takes no value"));
    }
    hit->set(state, Value{name, valued ? a.substr(name.size() + 1) : ""});
  }
  return words;
}

template <typename State>
void print_flags(const std::vector<Flag<State>>& flags) {
  const char* group = "";
  for (const Flag<State>& f : flags) {
    if (std::string_view(group) != f.group) {
      group = f.group;
      std::fprintf(stderr, "\n%s options:\n", group);
    }
    std::string lhs = f.name;
    if (f.arg[0] != '\0') lhs += std::string("=") + f.arg;
    std::fprintf(stderr, "  %-26s %s\n", lhs.c_str(), f.help);
  }
}

// ---------------------------------------------------------------------
// `run`: the flag table, generated from the RunRequest sections
// ---------------------------------------------------------------------

/// CLI state the `run` flags mutate.  Sections are engaged on first
/// touch; the engine's validate_request() then rejects sections the
/// chosen workload cannot honor.
struct Cli {
  workload::RunRequest req;
  bool stats = false;
  std::string record_path;
  std::string json_path;
  // --timeline/--perfetto telemetry exports
  std::string timeline_path;
  std::string timeline_csv_path;
  std::string perfetto_path;
  // --flit-trace/--worst-flits per-flit lifecycle tracing
  std::string flit_trace_path;
  bool print_worst = false;
  // --sweep-load mode
  bool sweep = false;
  workload::LoadSweepSpec sweep_spec;

  workload::SyntheticParams& synth() {
    if (!req.synthetic) req.synthetic = workload::SyntheticParams{};
    return *req.synthetic;
  }
  workload::AppParams& app() {
    if (!req.app) req.app = workload::AppParams{};
    return *req.app;
  }
  workload::ReplayParams& replay() {
    if (!req.replay) req.replay = workload::ReplayParams{};
    return *req.replay;
  }
};

std::vector<double> parse_loads(const Value& v) {
  std::vector<double> out;
  std::string_view rest = v.text;
  for (;;) {
    const std::size_t comma = rest.find(',');
    out.push_back(Value{v.flag, rest.substr(0, comma)}.num<double>());
    if (comma == std::string_view::npos) return out;
    rest.remove_prefix(comma + 1);
  }
}

using RunFlag = Flag<Cli>;

const std::vector<RunFlag>& run_flags() {
  static const std::vector<RunFlag> flags = {
      // --- machine (core::MedeaConfig + run-wide knobs) ---
      {"machine", "--width", "W", "NoC torus width (default 4)",
       [](Cli& c, const Value& v) { c.req.machine.noc_width = v.num<int>(); }},
      {"machine", "--height", "H", "NoC torus height (default 4)",
       [](Cli& c, const Value& v) { c.req.machine.noc_height = v.num<int>(); }},
      {"machine", "--cores", "P", "compute cores (default 4)",
       [](Cli& c, const Value& v) {
         c.req.machine.num_compute_cores = v.num<int>();
       }},
      {"machine", "--cache-kb", "K", "L1 size in kB, power of two",
       [](Cli& c, const Value& v) {
         constexpr std::uint32_t kMaxKb = UINT32_MAX / 1024;
         c.req.machine.l1.size_bytes = v.num<std::uint32_t>(0, kMaxKb) * 1024;
       }},
      {"machine", "--policy", "wb|wt", "L1 write policy (default wb)",
       [](Cli& c, const Value& v) {
         c.req.machine.l1.policy = v.one_of<mem::WritePolicy>(
             {{"wb", mem::WritePolicy::kWriteBack},
              {"wt", mem::WritePolicy::kWriteThrough}});
       }},
      {"machine", "--seed", "S", "RNG seed (default 1)",
       [](Cli& c, const Value& v) { c.req.seed = v.num<std::uint64_t>(); }},
      {"machine", "--verify", "", "check against the host reference",
       [](Cli& c, const Value&) { c.req.verify = true; }},
      {"machine", "--shards", "N",
       "run the sharded parallel kernel with N threads (0 = one per "
       "hardware thread; results are bit-identical to --shards=1)",
       [](Cli& c, const Value& v) {
         c.req.machine.scheduler.queue =
             sim::SchedulerConfig::EventQueue::kShardedCalendar;
         c.req.machine.scheduler.num_shards = v.num<std::uint32_t>();
       }},

      // --- synthetic (SyntheticParams) ---
      {"synthetic", "--rate", "R",
       "offered load, flits/node/cycle (default 0.1)",
       [](Cli& c, const Value& v) {
         c.synth().injection_rate = v.num<double>();
       }},
      {"synthetic", "--process", "bernoulli|onoff",
       "injection process (default bernoulli)",
       [](Cli& c, const Value& v) {
         c.synth().process.kind = v.one_of<noc::InjectionKind>(
             {{"bernoulli", noc::InjectionKind::kBernoulli},
              {"onoff", noc::InjectionKind::kOnOff}});
       }},
      {"synthetic", "--burst-alpha", "A",
       "onoff: per-cycle on->off probability (default 0.05)",
       [](Cli& c, const Value& v) {
         c.synth().process.burst_alpha = v.num<double>();
       }},
      {"synthetic", "--burst-beta", "B",
       "onoff: per-cycle off->on probability (default 0.02)",
       [](Cli& c, const Value& v) {
         c.synth().process.burst_beta = v.num<double>();
       }},
      {"synthetic", "--flits", "F",
       "per-node flit budget, non-phased runs (default 1000)",
       [](Cli& c, const Value& v) { c.synth().flits_per_node = v.num<int>(); }},
      {"synthetic", "--hotspot", "NODE", "hotspot target node (default 0)",
       [](Cli& c, const Value& v) { c.synth().hotspot_node = v.num<int>(); }},
      {"synthetic", "--network", "deflection|xy",
       "fabric the pattern runs on (default deflection)",
       [](Cli& c, const Value& v) { c.synth().network = v.str(); }},

      // --- app (AppParams) ---
      {"app", "--size", "N", "problem size (grid n / elements)",
       [](Cli& c, const Value& v) { c.app().size = v.num<int>(); }},
      {"app", "--iters", "I", "timed iterations/rounds (default 1)",
       [](Cli& c, const Value& v) { c.app().iterations = v.num<int>(); }},
      {"app", "--warmup-iters", "I", "untimed warm-up iterations",
       [](Cli& c, const Value& v) {
         c.app().warmup_iterations = v.num<int>();
       }},

      // --- replay (ReplayParams) ---
      {"replay", "--trace", "FILE", "input trace to replay",
       [](Cli& c, const Value& v) { c.replay().trace_path = v.str(); }},
      {"replay", "--trace-scale", "F", "rate-scale the trace first",
       [](Cli& c, const Value& v) {
         c.replay().trace_scale = v.num<double>();
       }},
      {"replay", "--force", "",
       "allow a RouterConfig differing from the trace header",
       [](Cli& c, const Value&) { c.replay().force_config = true; }},

      // --- measurement (MeasurementParams) ---
      {"measurement", "--no-collect", "", "skip latency/throughput collection",
       [](Cli& c, const Value&) { c.req.measurement.collect = false; }},
      {"measurement", "--phased", "",
       "warmup/measure/drain run (synthetic only)",
       [](Cli& c, const Value&) { c.req.measurement.phased = true; }},
      {"measurement", "--warmup", "C", "warmup cycles (default 1000)",
       [](Cli& c, const Value& v) {
         c.req.measurement.warmup_cycles = v.num<sim::Cycle>();
       }},
      {"measurement", "--auto-warmup", "",
       "detect steady state instead of fixed warmup",
       [](Cli& c, const Value&) { c.req.measurement.auto_warmup = true; }},
      {"measurement", "--warmup-step", "C",
       "steady-state probe window (default 256)",
       [](Cli& c, const Value& v) {
         c.req.measurement.warmup_step = v.num<sim::Cycle>();
       }},
      {"measurement", "--steady-tol", "T",
       "steady-state tolerance (default 0.05)",
       [](Cli& c, const Value& v) {
         c.req.measurement.steady_tolerance = v.num<double>();
       }},
      {"measurement", "--measure", "C",
       "measurement window length (default 4096)",
       [](Cli& c, const Value& v) {
         c.req.measurement.measure_cycles = v.num<sim::Cycle>();
       }},
      {"measurement", "--drain-limit", "C",
       "max extra drain cycles (default 1000000)",
       [](Cli& c, const Value& v) {
         c.req.measurement.drain_limit = v.num<sim::Cycle>();
       }},

      // --- telemetry (TelemetryParams + exporters) ---
      {"telemetry", "--sample-every", "N",
       "snapshot stats every N cycles (default 1024 when a telemetry "
       "output below is requested, else off)",
       [](Cli& c, const Value& v) {
         c.req.telemetry.sample_every = v.num<sim::Cycle>();
       }},
      {"telemetry", "--timeline", "FILE",
       "write the sampled time-series as JSON (medea-timeline-v1)",
       [](Cli& c, const Value& v) { c.timeline_path = v.str(); }},
      {"telemetry", "--timeline-csv", "FILE",
       "write the sampled time-series as CSV",
       [](Cli& c, const Value& v) { c.timeline_csv_path = v.str(); }},
      {"telemetry", "--perfetto", "FILE",
       "write a Chrome/Perfetto trace (open in chrome://tracing)",
       [](Cli& c, const Value& v) { c.perfetto_path = v.str(); }},

      // --- flit tracing (FlitTraceParams + exporters) ---
      {"flit-trace", "--flit-trace", "FILE",
       "write sampled per-flit hop chains as JSON (medea-flittrace-v1)",
       [](Cli& c, const Value& v) { c.flit_trace_path = v.str(); }},
      {"flit-trace", "--trace-sample", "N",
       "trace 1-in-N packets by uid hash (default 1 = every packet)",
       [](Cli& c, const Value& v) {
         c.req.flit_trace.sample_every = v.num<std::uint32_t>();
       }},
      {"flit-trace", "--worst-flits", "K",
       "print the top-K worst-packet forensics report (implies tracing)",
       [](Cli& c, const Value& v) {
         c.req.flit_trace.worst_k = v.num<int>();
         c.print_worst = true;
       }},

      // --- modes & output ---
      {"output", "--record", "FILE", "record the run's flit trace",
       [](Cli& c, const Value& v) { c.record_path = v.str(); }},
      {"output", "--stats", "", "dump aggregate statistics",
       [](Cli& c, const Value&) { c.stats = true; }},
      {"output", "--json", "FILE", "write latency/curve JSON",
       [](Cli& c, const Value& v) { c.json_path = v.str(); }},
      {"output", "--sweep-load", "",
       "saturation sweep: walk offered load (synthetic only)",
       [](Cli& c, const Value&) { c.sweep = true; }},
      {"output", "--loads", "A,B,..", "explicit sweep load points",
       [](Cli& c, const Value& v) { c.sweep_spec.loads = parse_loads(v); }},
      {"output", "--load-start", "R", "sweep ramp start (default 0.05)",
       [](Cli& c, const Value& v) { c.sweep_spec.start = v.num<double>(); }},
      {"output", "--load-stop", "R", "sweep ramp stop (default 0.65)",
       [](Cli& c, const Value& v) { c.sweep_spec.stop = v.num<double>(); }},
      {"output", "--load-step", "R", "sweep ramp step (default 0.05)",
       [](Cli& c, const Value& v) { c.sweep_spec.step = v.num<double>(); }},
      {"output", "--saturation-ratio", "R",
       "accepted/offered below R flags saturation (default 0.9)",
       [](Cli& c, const Value& v) {
         c.sweep_spec.saturation_ratio = v.num<double>();
       }},
      {"output", "--stop-at-saturation", "",
       "end the sweep at the first saturated point",
       [](Cli& c, const Value&) { c.sweep_spec.stop_at_saturation = true; }},
  };
  return flags;
}

void print_measurement(const workload::MeasurementResult& m) {
  if (m.latency.count == 0) return;
  std::printf(
      "  latency (cycles): mean %.2f  p50 %llu  p99 %llu  p999 %llu  "
      "max %llu  (%llu flits%s)\n",
      m.latency.mean, static_cast<unsigned long long>(m.latency.p50),
      static_cast<unsigned long long>(m.latency.p99),
      static_cast<unsigned long long>(m.latency.p999),
      static_cast<unsigned long long>(m.latency.max),
      static_cast<unsigned long long>(m.latency.count),
      m.drained ? "" : ", NOT drained");
  std::printf("  throughput: offered %.4f  accepted %.4f flits/node/cycle\n",
              m.offered_load, m.accepted_throughput);
}

void append_point_json(std::string& out, double requested,
                       const workload::MeasurementResult& m, bool saturated) {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "    {\"requested_load\": %.6f, \"offered_load\": %.6f, "
      "\"accepted_throughput\": %.6f, \"mean\": %.3f, \"p50\": %llu, "
      "\"p99\": %llu, \"p999\": %llu, \"max\": %llu, \"count\": %llu, "
      "\"drained\": %s, \"saturated\": %s}",
      requested, m.offered_load, m.accepted_throughput, m.latency.mean,
      static_cast<unsigned long long>(m.latency.p50),
      static_cast<unsigned long long>(m.latency.p99),
      static_cast<unsigned long long>(m.latency.p999),
      static_cast<unsigned long long>(m.latency.max),
      static_cast<unsigned long long>(m.latency.count),
      m.drained ? "true" : "false", saturated ? "true" : "false");
  out += buf;
}

/// Write `text` to `path` (throws on failure) and say so.
void dump(const std::string& path, const std::string& text) {
  dse::write_file(path, text);
  std::printf("wrote %s\n", path.c_str());
}

int run_sweep(const std::string& name, Cli& cli) {
  cli.sweep_spec.workload = name;
  cli.sweep_spec.base = cli.req;
  const workload::SaturationCurve curve =
      workload::sweep_load(cli.sweep_spec);

  std::printf("%s on %s: saturation sweep (%zu points)\n",
              curve.workload.c_str(), curve.network.c_str(),
              curve.points.size());
  std::printf("  %-10s %-10s %-10s %8s %8s %8s  %s\n", "requested", "offered",
              "accepted", "p50", "p99", "p999", "");
  for (const workload::LoadPoint& pt : curve.points) {
    const workload::MeasurementResult& m = pt.measurement;
    std::printf("  %-10.4f %-10.4f %-10.4f %8llu %8llu %8llu  %s\n",
                pt.requested_load, m.offered_load, m.accepted_throughput,
                static_cast<unsigned long long>(m.latency.p50),
                static_cast<unsigned long long>(m.latency.p99),
                static_cast<unsigned long long>(m.latency.p999),
                pt.saturated ? "SATURATED" : "");
  }
  if (curve.saturation_load >= 0.0) {
    std::printf("saturation at offered load %.4f (peak accepted %.4f)\n",
                curve.saturation_load, curve.peak_accepted);
  } else {
    std::printf("no saturation up to the last point (peak accepted %.4f)\n",
                curve.peak_accepted);
  }

  if (!cli.json_path.empty()) {
    std::string j = "{\n  \"workload\": \"" + curve.workload +
                    "\",\n  \"network\": \"" + curve.network +
                    "\",\n  \"saturation_load\": " +
                    std::to_string(curve.saturation_load) +
                    ",\n  \"peak_accepted\": " +
                    std::to_string(curve.peak_accepted) +
                    ",\n  \"points\": [\n";
    for (std::size_t i = 0; i < curve.points.size(); ++i) {
      append_point_json(j, curve.points[i].requested_load,
                        curve.points[i].measurement,
                        curve.points[i].saturated);
      j += i + 1 < curve.points.size() ? ",\n" : "\n";
    }
    j += "  ]\n}\n";
    dump(cli.json_path, j);
  }
  return 0;
}

int cmd_run(std::span<char* const> args) {
  if (args.empty() || args[0][0] == '-') {
    throw std::invalid_argument(
        "run: missing workload name (see `medea_cli list`)");
  }
  const std::string name = args[0];
  Cli cli;
  cli.req.machine.num_compute_cores = 4;
  const Words words = parse_args(args.subspan(1), run_flags(), cli);
  if (!words.positional.empty() || !words.out.empty()) {
    std::string msg = "run: unexpected argument '";
    msg += words.out.empty() ? words.positional[0] : "-o";
    msg += '\'';
    throw std::invalid_argument(msg);
  }
  cli.req.machine.workload = name;

  // Telemetry outputs imply sampling; pick a default cadence when the
  // user asked for an export but not a rate.
  const bool wants_telemetry = !cli.timeline_path.empty() ||
                               !cli.timeline_csv_path.empty() ||
                               !cli.perfetto_path.empty();
  if (wants_telemetry && cli.req.telemetry.sample_every == 0) {
    cli.req.telemetry.sample_every = 1024;
  }
  if (!cli.perfetto_path.empty()) {
    telemetry::HostProfiler::instance().set_enabled(true);
  }
  // Flit-trace outputs imply tracing; default to sampling every packet.
  const bool wants_flit_trace = !cli.flit_trace_path.empty() ||
                                cli.print_worst ||
                                cli.req.flit_trace.sample_every > 0;
  if (wants_flit_trace && cli.req.flit_trace.sample_every == 0) {
    cli.req.flit_trace.sample_every = 1;
  }

  if (cli.sweep) return run_sweep(name, cli);

  workload::RunResult res;
  if (!cli.record_path.empty()) {
    const workload::Trace t = workload::record_workload(name, cli.req, &res);
    workload::save_trace(t, cli.record_path);
    std::printf("recorded %zu injection events to %s\n", t.events.size(),
                cli.record_path.c_str());
  } else {
    telemetry::ProfileScope scope("run " + name, "sim");
    res = workload::run_by_name(name, cli.req);
  }
  std::printf(
      "%s: %llu cycles, %llu flits delivered, %s = %.2f%s\n", name.c_str(),
      static_cast<unsigned long long>(res.cycles),
      static_cast<unsigned long long>(res.flits_delivered),
      res.metric_name.c_str(), res.metric,
      cli.req.verify ? (res.verified_ok ? ", verified" : ", VERIFY FAILED")
                     : "");
  print_measurement(res.measurement);
  if (cli.stats) std::fputs(res.stats.to_string().c_str(), stdout);
  const int worst_k = cli.req.flit_trace.worst_k;
  if (cli.print_worst) {
    std::fputs(workload::format_worst_flits(res.flit_trace, worst_k).c_str(),
               stdout);
  }
  if (wants_telemetry || wants_flit_trace) {
    const workload::Workload& w =
        workload::WorkloadRegistry::instance().at(name);
    const auto [tw, th] = w.noc_dims(cli.req);
    workload::TimelineMeta meta;
    meta.workload = name;
    meta.seed = cli.req.seed;
    meta.noc_width = tw;
    meta.noc_height = th;
    meta.measurement = res.measurement;
    if (!cli.timeline_path.empty()) {
      dump(cli.timeline_path,
           workload::format_timeline_json(res.timeline, meta));
    }
    if (!cli.timeline_csv_path.empty()) {
      dump(cli.timeline_csv_path, workload::format_timeline_csv(res.timeline));
    }
    // A traced run's Perfetto export carries the worst packets' flow
    // arrows on top of the counter/phase tracks.
    if (!cli.perfetto_path.empty()) {
      const auto& spans = telemetry::HostProfiler::instance().spans();
      dump(cli.perfetto_path,
           wants_flit_trace
               ? workload::format_chrome_trace(res.timeline, meta, spans,
                                               res.flit_trace, worst_k)
               : workload::format_chrome_trace(res.timeline, meta, spans));
    }
    if (!cli.flit_trace_path.empty()) {
      dump(cli.flit_trace_path,
           workload::format_flit_trace_json(res.flit_trace, meta, worst_k));
    }
  }
  if (!cli.json_path.empty()) {
    std::string j = "{\n  \"workload\": \"" + name + "\",\n  \"points\": [\n";
    const double requested =
        cli.req.synthetic ? cli.req.synthetic->injection_rate : 0.0;
    append_point_json(j, requested, res.measurement, false);
    j += "\n  ]\n}\n";
    dse::write_file(cli.json_path, j);
  }
  return res.verified_ok ? 0 : 1;
}

// ---------------------------------------------------------------------
// Trace toolkit: inspect, transform, diff, merge
// ---------------------------------------------------------------------

struct InspectOpts {
  int buckets = 16;
  bool json = false;
};

const std::vector<Flag<InspectOpts>>& inspect_flags() {
  static const std::vector<Flag<InspectOpts>> flags = {
      {"inspect", "--buckets", "N", "injection-over-time buckets (default 16)",
       [](InspectOpts& o, const Value& v) { o.buckets = v.num<int>(); }},
      {"inspect", "--json", "",
       "emit the inspection as one JSON document (per-source rates, the "
       "src->dst matrix, both histograms)",
       [](InspectOpts& o, const Value&) { o.json = true; }},
  };
  return flags;
}

/// Transform passes, applied in the order given.
const std::vector<Flag<xform::Pipeline>>& transform_flags() {
  using P = xform::Pipeline;
  static const std::vector<Flag<P>> flags = {
      {"transform pass", "--scale", "F",
       "rate-scale the injection schedule (F > 1 = higher load)",
       [](P& p, const Value& v) {
         p.add(std::make_unique<xform::RateScale>(v.num<double>()));
       }},
      {"transform pass", "--remap", "WxH",
       "retarget onto a WxH torus (coordinate-preserving embedding)",
       [](P& p, const Value& v) {
         const auto [w, h] = v.split('x', "WxH");
         p.add(std::make_unique<xform::RemapNodes>(
             w.num<int>(), h.num<int>(), xform::RemapMode::kBijective));
       }},
      {"transform pass", "--remap-tiled", "WxH",
       "tile the recording across a WxH torus (integer multiples)",
       [](P& p, const Value& v) {
         const auto [w, h] = v.split('x', "WxH");
         p.add(std::make_unique<xform::RemapNodes>(w.num<int>(), h.num<int>(),
                                                   xform::RemapMode::kTiled));
       }},
      {"transform pass", "--window", "B:E",
       "keep cycles [B, E), rebased to the start",
       [](P& p, const Value& v) {
         const auto [b, e] = v.split(':', "B:E");
         p.add(std::make_unique<xform::TimeWindow>(b.num<sim::Cycle>(),
                                                   e.num<sim::Cycle>(), true));
       }},
      {"transform pass", "--window-raw", "B:E", "same without rebasing",
       [](P& p, const Value& v) {
         const auto [b, e] = v.split(':', "B:E");
         p.add(std::make_unique<xform::TimeWindow>(b.num<sim::Cycle>(),
                                                   e.num<sim::Cycle>(), false));
       }},
  };
  return flags;
}

/// Flag-less commands still reject stray flags through the one parser.
struct NoOpts {};
const std::vector<Flag<NoOpts>> kNoFlags;

/// Require exactly `n` bare words and (when `wants_out`) one `-o OUT`.
void expect_words(const char* cmd, const Words& w, std::size_t n,
                  bool wants_out) {
  if (w.positional.size() != n || w.out.empty() == wants_out) {
    std::string msg = cmd;
    msg += ": expected ";
    msg += std::to_string(n);
    msg += n == 1 ? " file" : " files";
    if (wants_out) msg += " and -o OUT";
    throw std::invalid_argument(msg + " (see `medea_cli help`)");
  }
}

int cmd_inspect(std::span<char* const> args) {
  InspectOpts o;
  const Words w = parse_args(args, inspect_flags(), o);
  expect_words("inspect", w, 1, false);
  const workload::Trace t = workload::load_trace(w.positional[0]);
  const auto insp = xform::inspect_trace(t, o.buckets);
  std::fputs(o.json ? xform::format_inspection_json(t, insp).c_str()
                    : xform::format_inspection(t, insp).c_str(),
             stdout);
  return 0;
}

int cmd_transform(std::span<char* const> args) {
  xform::Pipeline pipeline;
  const Words w = parse_args(args, transform_flags(), pipeline);
  expect_words("transform", w, 1, true);
  if (pipeline.empty()) {
    throw std::invalid_argument(
        "transform: no passes given (nothing to do)");
  }
  const std::string& in_path = w.positional[0];
  const workload::Trace in = workload::load_trace(in_path);
  const workload::Trace out = pipeline.apply(in);
  workload::validate_trace(out);
  workload::save_trace(out, w.out);
  std::printf("%s: %zu events (%dx%d) -> %s: %zu events (%dx%d) via %s\n",
              in_path.c_str(), in.events.size(), in.meta.width,
              in.meta.height, w.out.c_str(), out.events.size(),
              out.meta.width, out.meta.height, pipeline.describe().c_str());
  return 0;
}

int cmd_diff(std::span<char* const> args) {
  NoOpts o;
  const Words w = parse_args(args, kNoFlags, o);
  expect_words("diff", w, 2, false);
  const workload::Trace a = workload::load_trace(w.positional[0]);
  const workload::Trace b = workload::load_trace(w.positional[1]);
  const auto d = xform::diff_traces(a, b);
  if (d.identical) {
    std::printf("identical: %zu events, meta equal\n", d.a_events);
    return 0;
  }
  std::printf("traces differ (a: %zu events, b: %zu events)\n", d.a_events,
              d.b_events);
  std::printf("first difference: %s\n", d.first_difference.c_str());
  return 2;
}

int cmd_merge(std::span<char* const> args) {
  NoOpts o;
  const Words w = parse_args(args, kNoFlags, o);
  expect_words("merge", w, 2, true);
  const workload::Trace a = workload::load_trace(w.positional[0]);
  const workload::Trace b = workload::load_trace(w.positional[1]);
  const workload::Trace merged = xform::merge_traces(a, b);
  workload::validate_trace(merged);
  workload::save_trace(merged, w.out);
  std::printf("merged %zu + %zu -> %zu events into %s\n", a.events.size(),
              b.events.size(), merged.events.size(), w.out.c_str());
  return 0;
}

int cmd_list(std::span<char* const> args) {
  if (!args.empty()) throw std::invalid_argument("list: takes no arguments");
  std::printf("registered workloads:\n");
  for (const workload::Workload* w :
       workload::WorkloadRegistry::instance().list()) {
    std::printf("  %-14s [%s] %s\n", w->name().c_str(),
                to_string(w->kind()), w->description().c_str());
  }
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: medea_cli list\n"
               "       medea_cli run <workload> [options]\n"
               "       medea_cli run <workload> --sweep-load [options]\n"
               "       medea_cli inspect FILE [options]\n"
               "       medea_cli transform IN -o OUT [passes, in order]\n"
               "       medea_cli diff A B        (exit 2 when different)\n"
               "       medea_cli merge A B -o OUT\n");
  print_flags(run_flags());
  print_flags(inspect_flags());
  print_flags(transform_flags());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string_view cmd = argv[1];
  const std::span<char* const> args(argv + 2,
                                    static_cast<std::size_t>(argc - 2));
  try {
    if (cmd == "list") return cmd_list(args);
    if (cmd == "run") return cmd_run(args);
    if (cmd == "inspect") return cmd_inspect(args);
    if (cmd == "transform") return cmd_transform(args);
    if (cmd == "diff") return cmd_diff(args);
    if (cmd == "merge") return cmd_merge(args);
    if (cmd != "help" && cmd != "--help" && cmd != "-h") {
      std::fprintf(stderr, "error: unknown command '%s'\n", argv[1]);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return usage();
}

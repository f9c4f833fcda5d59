#include "workload/workload.h"

#include <optional>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>

namespace medea::workload {

namespace detail {
// Implemented in builtin_workloads.cpp; called once by the registry
// constructor so the built-in set is always available.
void register_builtins(WorkloadRegistry& reg);
}  // namespace detail

const char* to_string(WorkloadKind k) {
  switch (k) {
    case WorkloadKind::kApp: return "a full-system app";
    case WorkloadKind::kSynthetic: return "a synthetic pattern";
    case WorkloadKind::kReplay: return "a trace replay";
  }
  return "?";
}

WorkloadRegistry::WorkloadRegistry() { detail::register_builtins(*this); }

WorkloadRegistry& WorkloadRegistry::instance() {
  static WorkloadRegistry reg;
  return reg;
}

void WorkloadRegistry::add(std::unique_ptr<Workload> w) {
  const std::string name = w->name();
  const auto [it, inserted] = by_name_.emplace(name, std::move(w));
  if (!inserted) {
    throw std::invalid_argument("WorkloadRegistry: duplicate workload name '" +
                                name + "'");
  }
}

const Workload* WorkloadRegistry::find(const std::string& name) const {
  const auto it = by_name_.find(name);
  return it == by_name_.end() ? nullptr : it->second.get();
}

const Workload& WorkloadRegistry::at(const std::string& name) const {
  if (const Workload* w = find(name)) return *w;
  std::string known;
  for (const auto& [n, w] : by_name_) {
    if (!known.empty()) known += ", ";
    known += n;
  }
  throw std::invalid_argument("WorkloadRegistry: unknown workload '" + name +
                              "' (known: " + known + ")");
}

std::vector<const Workload*> WorkloadRegistry::list() const {
  std::vector<const Workload*> out;
  out.reserve(by_name_.size());
  for (const auto& [n, w] : by_name_) out.push_back(w.get());
  return out;
}

std::vector<std::string> WorkloadRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(by_name_.size());
  for (const auto& [n, w] : by_name_) out.push_back(n);
  return out;
}

void validate_request(const RunRequest& req, const Workload& w) {
  const WorkloadKind k = w.kind();
  const auto misapplied = [&](const std::string& section,
                              const std::string& knobs) {
    throw std::invalid_argument(
        "workload '" + w.name() + "' is " + to_string(k) + ": the " + section +
        " section (" + knobs +
        ") does not apply and would be silently ignored — drop it or pick a "
        "matching workload");
  };
  if (req.synthetic.has_value() && k != WorkloadKind::kSynthetic) {
    misapplied("synthetic",
               "injection_rate/process/flits_per_node/hotspot_node/network");
  }
  if (req.app.has_value() && k != WorkloadKind::kApp) {
    misapplied("app", "size/iterations/warmup_iterations");
  }
  if (req.replay.has_value() && k != WorkloadKind::kReplay) {
    misapplied("replay", "trace_path/trace_scale/force_config");
  }
  if (k == WorkloadKind::kReplay &&
      (!req.replay.has_value() || req.replay->trace_path.empty())) {
    throw std::invalid_argument(
        "replay workload: replay.trace_path must name a recorded trace");
  }
  if (k == WorkloadKind::kSynthetic) {
    // Synthetic endpoints draw per-node flit uids (noc/flit.h), whose
    // node and sequence fields must not wrap: a wrapped uid aliases
    // another flit and silently corrupts uid-keyed traces and
    // tie-breaks.
    const long long nodes =
        static_cast<long long>(req.machine.noc_width) * req.machine.noc_height;
    if (nodes > noc::kMaxFlitUidNodes) {
      throw std::invalid_argument(
          "machine.noc_width x machine.noc_height: " + std::to_string(nodes) +
          " nodes exceed the " + std::to_string(noc::kMaxFlitUidNodes) +
          "-node flit uid space of synthetic traffic");
    }
    if (req.synthetic.has_value() &&
        req.synthetic->flits_per_node >
            static_cast<long long>(noc::kMaxFlitUidSeq)) {
      throw std::invalid_argument(
          "synthetic.flits_per_node must be <= " +
          std::to_string(noc::kMaxFlitUidSeq) +
          " (the per-node flit uid sequence space)");
    }
  }
  const MeasurementParams& m = req.measurement;
  if (m.phased && k != WorkloadKind::kSynthetic) {
    throw std::invalid_argument(
        "measurement.phased drives rate-controlled synthetic traffic, but "
        "workload '" +
        w.name() + "' is " + to_string(k));
  }
  if (m.phased) {
    if (m.measure_cycles == 0) {
      throw std::invalid_argument(
          "measurement.measure_cycles must be > 0 for a phased run");
    }
    if (m.auto_warmup && m.warmup_step == 0) {
      throw std::invalid_argument(
          "measurement.warmup_step must be > 0 when auto_warmup is on");
    }
    if (m.steady_tolerance < 0.0) {
      throw std::invalid_argument(
          "measurement.steady_tolerance must be >= 0");
    }
  }
}

RunResult run_workload(const Workload& w, const RunRequest& req,
                       noc::FlitObserver* observer) {
  validate_request(req, w);
  // The sampler outlives the workload's scheduler use: workloads attach
  // it via ctx.attach_telemetry(), the engine collects the timeline.
  std::optional<telemetry::Sampler> sampler;
  if (req.telemetry.sample_every > 0) {
    sampler.emplace(req.telemetry.sample_every);
  }
  const auto finish_timeline = [&](RunResult& r) {
    if (!sampler.has_value()) return;
    sampler->finish(r.cycles);
    r.timeline = sampler->take();
  };
  const bool measuring = req.measurement.collect || req.measurement.phased;
  const bool tracing = req.flit_trace.sample_every > 0;
  // noc_dims is only consulted when something needs the geometry (replay
  // workloads answer it from the trace header, which costs a file load).
  int width = 0, height = 0;
  if (measuring || tracing) std::tie(width, height) = w.noc_dims(req);
  std::optional<telemetry::FlitTracer> tracer;
  if (tracing) {
    tracer.emplace(req.flit_trace.sample_every, width, height);
  }
  const auto finish_trace = [&](RunResult& r) {
    if (!tracer.has_value()) return;
    tracer->finalize(r.cycles);
    r.flit_trace = tracer->take();
  };
  // When tracing, every observer hangs off one tee (events arrive in
  // add() order: controller, caller's observer, tracer — the same order
  // the measurement controller's forward chain produced).  Without a
  // tracer the pre-existing single-chain wiring is kept as-is.
  std::optional<MeasurementController> mc;
  if (measuring) {
    mc.emplace(req.measurement, width * height,
               tracing ? nullptr : observer);
  }
  noc::FlitObserverTee tee;
  RunContext ctx{observer, mc ? &*mc : nullptr,
                 sampler ? &*sampler : nullptr};
  if (tracing) {
    if (mc) tee.add(&*mc);
    tee.add(observer);
    tee.add(&*tracer);
    ctx.fabric_override = &tee;
  }
  RunResult r = w.run(req, ctx);
  if (mc) {
    // Whole-run mode: the window is the entire run.  Phased runs were
    // finalized by the driver already (finalize is idempotent).
    mc->finalize(r.cycles, true);
    r.measurement = mc->result();
  }
  finish_timeline(r);
  finish_trace(r);
  return r;
}

RunResult run_by_name(const std::string& name, const RunRequest& req,
                      noc::FlitObserver* observer) {
  return run_workload(WorkloadRegistry::instance().at(name), req, observer);
}

RunResult run_configured(const RunRequest& req, noc::FlitObserver* observer) {
  return run_by_name(req.machine.workload, req, observer);
}

Trace record_workload(const std::string& name, const RunRequest& req,
                      RunResult* result) {
  const Workload& w = WorkloadRegistry::instance().at(name);
  const auto [width, height] = w.noc_dims(req);
  TraceRecorder rec(width, height);
  rec.set_net_config(w.net_config(req));
  RunResult res = run_workload(w, req, &rec);
  Trace t = rec.take(res.cycles, name, req.seed);
  if (result != nullptr) *result = std::move(res);
  return t;
}

}  // namespace medea::workload

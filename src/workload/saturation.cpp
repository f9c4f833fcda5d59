#include "workload/saturation.h"

#include <cmath>
#include <stdexcept>
#include <string>

namespace medea::workload {

std::vector<double> load_points(const LoadSweepSpec& spec) {
  if (!spec.loads.empty()) return spec.loads;
  if (spec.step <= 0.0 || spec.stop < spec.start) {
    throw std::invalid_argument(
        "load sweep: need step > 0 and stop >= start (or explicit loads)");
  }
  std::vector<double> out;
  // Walk in integer steps — accumulating doubles would drift and can
  // drop/duplicate the final point.
  for (int i = 0;; ++i) {
    const double load = spec.start + spec.step * i;
    if (load > spec.stop + 1e-12) break;
    out.push_back(load);
  }
  return out;
}

SaturationCurve sweep_load(const LoadSweepSpec& spec) {
  const Workload& w = WorkloadRegistry::instance().at(spec.workload);
  if (w.kind() != WorkloadKind::kSynthetic) {
    throw std::invalid_argument(
        "load sweep: workload '" + spec.workload +
        "' is not a synthetic pattern (saturation sweeps walk an "
        "injection rate)");
  }
  const std::vector<double> loads = load_points(spec);
  if (loads.empty()) {
    throw std::invalid_argument("load sweep: no load points to run");
  }
  // Check every point before running any, so a bad entry late in the
  // list cannot fail the sweep after the earlier points have run.
  for (const double load : loads) {
    if (!std::isfinite(load) || load <= 0.0 || load > 1.0) {
      throw std::invalid_argument("load sweep: load " + std::to_string(load) +
                                  " is outside (0, 1] (flits/node/cycle)");
    }
  }

  SaturationCurve curve;
  curve.workload = spec.workload;
  curve.network =
      spec.base.synthetic.has_value() ? spec.base.synthetic->network
                                      : SyntheticParams{}.network;

  for (const double load : loads) {
    RunRequest req = spec.base;
    if (!req.synthetic.has_value()) req.synthetic = SyntheticParams{};
    req.synthetic->injection_rate = load;
    req.measurement.collect = true;
    req.measurement.phased = true;

    LoadPoint pt;
    pt.requested_load = load;
    pt.measurement = run_workload(w, req).measurement;
    const MeasurementResult& m = pt.measurement;
    pt.saturated = !m.drained || (m.offered_load > 0.0 &&
                                  m.accepted_throughput <
                                      spec.saturation_ratio * m.offered_load);
    if (m.accepted_throughput > curve.peak_accepted) {
      curve.peak_accepted = m.accepted_throughput;
    }
    if (pt.saturated && curve.saturation_load < 0.0) {
      curve.saturation_load = load;
    }
    curve.points.push_back(pt);
    if (pt.saturated && spec.stop_at_saturation) break;
  }
  return curve;
}

}  // namespace medea::workload

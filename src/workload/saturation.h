#pragma once

#include <string>
#include <vector>

#include "workload/measure.h"
#include "workload/workload.h"

/// \file saturation.h
/// Offered-load saturation sweeps: walk a synthetic pattern's injection
/// rate, run one phased (warmup/measure/drain) measurement per load
/// point, and report the saturation curve — accepted throughput and
/// latency percentiles vs offered load, the standard figure of merit
/// for a router (and the methodology behind the paper's NoC ablations).
///
/// Saturation shows up two ways, and either flags the point:
///  * accepted throughput falls below `saturation_ratio` x offered (the
///    fabric refuses offers faster than it delivers), or
///  * the drain phase never empties the fabric inside drain_limit
///    (latency is growing without bound; `drained` is false).

namespace medea::workload {

/// One saturation sweep: which synthetic workload, at which loads.
struct LoadSweepSpec {
  /// Registry name of a synthetic pattern (uniform/hotspot/...).
  std::string workload = "uniform";

  /// Template request: machine config, injection process, fabric choice
  /// and measurement phase lengths all come from here.  Each point
  /// overrides synthetic.injection_rate and forces measurement.phased.
  RunRequest base{};

  /// Explicit load points; empty means the start/stop/step ramp below.
  std::vector<double> loads;
  double start = 0.05;
  double stop = 0.65;
  double step = 0.05;

  /// Accepted < ratio x offered flags the point as saturated.
  double saturation_ratio = 0.9;

  /// Stop the sweep at the first saturated point (the rest of the ramp
  /// would only measure deeper congestion, ever more slowly).
  bool stop_at_saturation = false;
};

/// One measured point of the curve.
struct LoadPoint {
  double requested_load = 0.0;  ///< injection rate asked of the endpoints
  MeasurementResult measurement;
  bool saturated = false;
};

struct SaturationCurve {
  std::string workload;
  std::string network;  ///< "deflection" or "xy"
  std::vector<LoadPoint> points;
  /// First requested load flagged saturated; < 0 when the sweep never
  /// saturated (the fabric kept up through `stop`).
  double saturation_load = -1.0;
  /// Highest accepted throughput seen anywhere on the curve.
  double peak_accepted = 0.0;
};

/// The load points a spec will run (explicit list, or the ramp).
std::vector<double> load_points(const LoadSweepSpec& spec);

/// Run the sweep.  Throws std::invalid_argument, before any point runs,
/// when spec.workload is not a synthetic pattern, the ramp is
/// empty/ill-formed, or a load is not a finite rate in (0, 1].
SaturationCurve sweep_load(const LoadSweepSpec& spec);

}  // namespace medea::workload

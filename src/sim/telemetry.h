#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "sim/scheduler.h"
#include "sim/stats.h"
#include "sim/types.h"

/// \file telemetry.h
/// Cycle-domain time-series sampling and host-side phase profiling.
///
/// Every metric the simulator produced before this subsystem was a
/// single end-of-run scalar, which hides transient congestion, warmup
/// drift and saturation onset entirely.  The Sampler turns any StatSet
/// (router fabrics, caches, the scheduler's own pressure counters, the
/// measurement controller) into a compact columnar time series: every N
/// simulated cycles it snapshots each registered counter and stores the
/// per-window *delta*, so a window's rate is delta / window_cycles and
/// the absolute value round-trips by prefix sum (Timeline::reconstruct).
///
/// Sampling is driven by the scheduler's CycleHook — a compare on the
/// run loop's existing cycle advance — so a run without a sampler pays
/// nothing on the wake/dispatch hot path, and a sampled run pays one
/// StatSet walk per window, never per event.  Snapshot times are
/// simulated cycles, so timelines are bit-deterministic across reruns.
///
/// The host side mirrors this: ProfileScope is an RAII wall-clock span
/// (trace decode, transform, simulate, drain, export...) collected by
/// the process-wide HostProfiler; workload/timeline.h renders both the
/// cycle-domain series and the host spans into one Chrome/Perfetto
/// trace-event JSON so a whole run opens in chrome://tracing.

namespace medea::sim {
class SimDomain;
}  // namespace medea::sim

namespace medea::telemetry {

/// One sampled metric: name plus one value per snapshot window.
/// Cumulative series (counters) store per-window deltas; gauge series
/// (queue occupancies) store the value observed at each snapshot.
/// A series discovered mid-run (StatSet counters are created lazily)
/// starts at `first_window`; earlier windows are implicitly zero.
struct Series {
  std::string name;
  bool cumulative = true;
  std::size_t first_window = 0;
  std::vector<std::uint64_t> values;

  bool operator==(const Series&) const = default;
};

/// A finished sampling run: the snapshot cycles (window right edges)
/// and every series, name-sorted.  Window w covers simulated cycles
/// (sample_cycles[w-1], sample_cycles[w]], with window 0 starting at
/// cycle 0.  The event-driven kernel skips idle cycles, so snapshot
/// cycles land on the first *dispatched* cycle at or after each
/// sample_every boundary — windows are therefore near-uniform under
/// load and stretch across idle gaps.
struct Timeline {
  sim::Cycle sample_every = 0;
  std::vector<sim::Cycle> sample_cycles;
  std::vector<Series> series;

  bool empty() const { return sample_cycles.empty(); }
  std::size_t num_windows() const { return sample_cycles.size(); }

  /// Series by exact name; nullptr when absent.
  const Series* find(const std::string& name) const;

  /// Simulated cycles covered by window w (>= 1 for every valid w).
  sim::Cycle window_cycles(std::size_t w) const {
    return sample_cycles[w] - (w == 0 ? 0 : sample_cycles[w - 1]);
  }

  /// Absolute per-window values: prefix-summed deltas for cumulative
  /// series, the raw samples for gauges; zero before first_window.
  /// Inverse of the delta encoding (tests round-trip through it).
  std::vector<std::uint64_t> reconstruct(const Series& s) const;

  bool operator==(const Timeline&) const = default;
};

/// Snapshots registered stat sources every `sample_every` simulated
/// cycles into a Timeline.  Typical lifecycle:
///
///   telemetry::Sampler sampler(1024);
///   sampler.add_stats("", net.stats());     // every counter + accumulator
///   sampler.attach(sched);                  // sched.* probes + cycle hook
///   ... run the simulation ...
///   sampler.finish(sched.now());            // tail window + detach
///   const telemetry::Timeline& tl = sampler.timeline();
///
/// StatSet sources are walked by reference at snapshot time, so
/// counters created after registration (StatSets grow lazily) appear as
/// new series from the window in which they first show up.
class Sampler final : public sim::CycleHook {
 public:
  explicit Sampler(sim::Cycle sample_every);

  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  /// Register a StatSet: every counter becomes a cumulative series
  /// named `prefix + counter_name`, every accumulator a pair of
  /// cumulative series (`.count`, `.sum`) so exporters can derive
  /// windowed means (e.g. per-window average flit latency).
  void add_stats(std::string prefix, const sim::StatSet& stats);

  /// Register a single probe: cumulative (delta-encoded counter) or
  /// gauge (sampled absolute value, e.g. a queue occupancy).
  void add_counter(std::string name, std::function<std::uint64_t()> probe);
  void add_gauge(std::string name, std::function<std::uint64_t()> probe);

  /// Hook this sampler into the scheduler's run loop and register the
  /// kernel's own pressure series: sched.wake_requests/wakes_deduped/
  /// bucket_pushes/overflow_pushes/active_cycles (cumulative) and
  /// sched.queued/ring_bits (gauges).
  /// sched.bucket_pushes counts the calendar's near-tier (`now`/`now+1`
  /// bitmap) pushes together with its ring-bucket pushes.
  void attach(sim::Scheduler& sched);

  /// Same wiring over a sharded simulation domain: the pressure series
  /// are summed across shards and the hook fires from the domain's
  /// serial phase (after the per-shard stat merge), so sampled sharded
  /// runs stay deterministic.  Falls through to the Scheduler overload
  /// for single-shard domains.
  void attach(sim::SimDomain& dom);

  /// CycleHook: snapshot and return the next sample boundary.
  sim::Cycle on_cycle(sim::Cycle now) override;

  /// Record one snapshot row at `now` (idempotent per cycle).
  void snapshot(sim::Cycle now);

  /// Capture the final partial window at `end`, detach from the
  /// scheduler and name-sort the series.  Idempotent.
  void finish(sim::Cycle end);

  sim::Cycle sample_every() const { return every_; }
  const Timeline& timeline() const { return tl_; }
  Timeline take() { return std::move(tl_); }

 private:
  struct StatSource {
    std::string prefix;
    const sim::StatSet* stats;
  };
  struct Probe {
    std::string name;
    bool cumulative;
    std::function<std::uint64_t()> fn;
  };
  struct SeriesState {
    std::size_t index;   ///< into tl_.series
    std::uint64_t last;  ///< previous absolute value (cumulative only)
  };

  void record(const std::string& name, bool cumulative, std::uint64_t value,
              std::size_t window);

  sim::Cycle every_;
  sim::Scheduler* sched_ = nullptr;
  sim::SimDomain* dom_ = nullptr;
  bool finished_ = false;
  std::vector<StatSource> stat_sources_;
  std::vector<Probe> probes_;
  std::map<std::string, SeriesState> state_;
  Timeline tl_;
};

// ---------------------------------------------------------------------
// Host-side phase profiling (wall clock, not simulated cycles)
// ---------------------------------------------------------------------

/// One completed host-side span, microseconds since HostProfiler start.
struct HostSpan {
  std::string name;      ///< e.g. "run:uniform", "trace.load"
  std::string category;  ///< trace-event "cat": "sim", "io", "sweep"...
  std::uint64_t start_us = 0;
  std::uint64_t dur_us = 0;
  std::uint32_t tid = 0;  ///< stable per-thread id for the trace
};

/// Process-wide collector of host spans.  Disabled by default: an
/// unarmed ProfileScope costs one relaxed atomic load, so the scopes
/// stay compiled into the engine, the sweep driver and the CLIs and are
/// switched on only when someone wants a Perfetto export.
class HostProfiler {
 public:
  static HostProfiler& instance();

  bool enabled() const;
  void set_enabled(bool on);

  /// Microseconds since the profiler singleton was created.
  std::uint64_t now_us() const;

  /// Stable small integer for the calling thread.
  std::uint32_t thread_id();

  void record(HostSpan span);

  std::vector<HostSpan> spans() const;
  void clear();

 private:
  HostProfiler();
  struct Impl;
  Impl* impl_;
};

/// RAII wall-clock span recorded into HostProfiler::instance() at
/// destruction — when the profiler is enabled; otherwise free.
class ProfileScope {
 public:
  explicit ProfileScope(std::string name, std::string category = "host");
  ~ProfileScope();

  ProfileScope(const ProfileScope&) = delete;
  ProfileScope& operator=(const ProfileScope&) = delete;

 private:
  std::string name_;
  std::string category_;
  std::uint64_t start_us_ = 0;
  bool armed_ = false;
};

}  // namespace medea::telemetry

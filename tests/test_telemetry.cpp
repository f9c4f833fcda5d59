/// Tests for the telemetry subsystem: the cycle-domain Sampler (delta
/// encoding round-trip, lazily-appearing series, gauge probes,
/// determinism across reruns), the zero-overhead-when-disabled
/// guarantee, the exporters (timeline JSON, CSV, Chrome trace JSON —
/// structurally validated), the timeline_summary roll-up, host-side
/// ProfileScope spans, and the Fifo commit-dedup counters the sampler
/// exports.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/scheduler.h"
#include "sim/stats.h"
#include "sim/telemetry.h"
#include "workload/timeline.h"
#include "workload/workload.h"

namespace medea {
namespace {

using telemetry::Sampler;
using telemetry::Series;
using telemetry::Timeline;

workload::RunRequest small_uniform(sim::Cycle sample_every) {
  workload::RunRequest req;
  workload::SyntheticParams sp;
  sp.injection_rate = 0.3;
  sp.flits_per_node = 60;
  req.synthetic = sp;
  req.telemetry.sample_every = sample_every;
  return req;
}

// ---------------------------------------------------------------------
// Sampler core: delta encoding, gauges, lazy series
// ---------------------------------------------------------------------

TEST(TelemetrySampler, DeltaEncodingRoundTripsThroughReconstruct) {
  std::uint64_t counter = 0;
  Sampler s(10);
  s.add_counter("ctr", [&] { return counter; });

  counter = 5;
  s.snapshot(10);
  counter = 5;  // idle window: delta 0
  s.snapshot(20);
  counter = 42;
  s.snapshot(30);
  s.finish(30);  // already snapshotted at 30: no extra window

  const Timeline& tl = s.timeline();
  ASSERT_EQ(tl.num_windows(), 3u);
  EXPECT_EQ(tl.sample_cycles, (std::vector<sim::Cycle>{10, 20, 30}));

  const Series* ctr = tl.find("ctr");
  ASSERT_NE(ctr, nullptr);
  EXPECT_TRUE(ctr->cumulative);
  // Stored form is per-window deltas...
  EXPECT_EQ(ctr->values, (std::vector<std::uint64_t>{5, 0, 37}));
  // ...and reconstruct() prefix-sums back to the absolute values.
  EXPECT_EQ(tl.reconstruct(*ctr), (std::vector<std::uint64_t>{5, 5, 42}));
}

TEST(TelemetrySampler, GaugeStoresSampledAbsolutes) {
  std::uint64_t depth = 0;
  Sampler s(8);
  s.add_gauge("depth", [&] { return depth; });

  depth = 7;
  s.snapshot(8);
  depth = 3;
  s.snapshot(16);
  s.finish(16);

  const Series* g = s.timeline().find("depth");
  ASSERT_NE(g, nullptr);
  EXPECT_FALSE(g->cumulative);
  EXPECT_EQ(g->values, (std::vector<std::uint64_t>{7, 3}));
  // Gauges reconstruct verbatim (no prefix sum).
  EXPECT_EQ(s.timeline().reconstruct(*g), g->values);
}

TEST(TelemetrySampler, LazilyCreatedCounterGetsFirstWindowOffset) {
  sim::StatSet stats;
  stats.inc("early");
  Sampler s(10);
  s.add_stats("", stats);

  s.snapshot(10);
  // A counter born after the first snapshot must not shift the grid:
  // its series starts at the window it first appears in and earlier
  // windows reconstruct as zero.
  stats.inc("late");
  stats.inc("late");
  s.snapshot(20);
  s.finish(20);

  const Timeline& tl = s.timeline();
  const Series* late = tl.find("late");
  ASSERT_NE(late, nullptr);
  EXPECT_EQ(late->first_window, 1u);
  EXPECT_EQ(late->values, (std::vector<std::uint64_t>{2}));
  EXPECT_EQ(tl.reconstruct(*late), (std::vector<std::uint64_t>{0, 2}));

  const Series* early = tl.find("early");
  ASSERT_NE(early, nullptr);
  EXPECT_EQ(early->first_window, 0u);
  EXPECT_EQ(tl.reconstruct(*early), (std::vector<std::uint64_t>{1, 1}));
}

TEST(TelemetrySampler, AccumulatorsExportCountAndSumSeries) {
  sim::StatSet stats;
  stats.accumulator("lat").add(4.0);
  stats.accumulator("lat").add(6.0);
  Sampler s(10);
  s.add_stats("", stats);
  s.snapshot(10);
  s.finish(10);

  const Series* cnt = s.timeline().find("lat.count");
  const Series* sum = s.timeline().find("lat.sum");
  ASSERT_NE(cnt, nullptr);
  ASSERT_NE(sum, nullptr);
  EXPECT_EQ(cnt->values, (std::vector<std::uint64_t>{2}));
  EXPECT_EQ(sum->values, (std::vector<std::uint64_t>{10}));
}

TEST(TelemetrySampler, FinishIsIdempotentAndCapturesTailWindow) {
  std::uint64_t counter = 0;
  Sampler s(100);
  s.add_counter("ctr", [&] { return counter; });
  counter = 9;
  s.snapshot(100);
  counter = 12;
  s.finish(142);  // partial tail window (100, 142]
  counter = 99;
  s.finish(500);  // idempotent: must not add another window

  const Timeline& tl = s.timeline();
  ASSERT_EQ(tl.num_windows(), 2u);
  EXPECT_EQ(tl.sample_cycles.back(), 142u);
  EXPECT_EQ(tl.window_cycles(1), 42u);
  EXPECT_EQ(tl.find("ctr")->values, (std::vector<std::uint64_t>{9, 3}));
}

// ---------------------------------------------------------------------
// Whole-run behavior through the workload engine
// ---------------------------------------------------------------------

TEST(TelemetryRun, SampledRunsAreDeterministicAcrossReruns) {
  const workload::RunResult a =
      workload::run_by_name("uniform", small_uniform(64));
  const workload::RunResult b =
      workload::run_by_name("uniform", small_uniform(64));
  ASSERT_FALSE(a.timeline.empty());
  EXPECT_EQ(a.timeline, b.timeline);  // bit-identical: cycles and series
  EXPECT_EQ(a.timeline.sample_every, 64u);
}

TEST(TelemetryRun, DisabledSamplingPerturbsNothing) {
  // Sampling must not change simulation behavior, and a disabled
  // sampler must not touch the kernel at all: cycle count and the
  // scheduler's wake/commit pressure counters are identical with
  // sampling off and on (the hook is cycle-driven, not wake-driven).
  const workload::RunResult off =
      workload::run_by_name("uniform", small_uniform(0));
  const workload::RunResult on =
      workload::run_by_name("uniform", small_uniform(64));
  EXPECT_TRUE(off.timeline.empty());
  EXPECT_EQ(off.cycles, on.cycles);
  EXPECT_EQ(off.flits_delivered, on.flits_delivered);
  for (const char* key : {"sched.wake_requests", "sched.wakes_deduped",
                          "sched.active_cycles"}) {
    EXPECT_EQ(off.stats.get(key), on.stats.get(key)) << key;
  }
  EXPECT_GT(off.stats.get("sched.wake_requests"), 0u);
}

TEST(TelemetryRun, TimelineDeltasSumToFinalCounters) {
  const workload::RunResult r =
      workload::run_by_name("uniform", small_uniform(64));
  ASSERT_FALSE(r.timeline.empty());
  // The delivered-flit series must account for every delivery the
  // end-of-run scalar reports, and the sched.* series must match the
  // aggregate pressure counters: nothing escapes between windows.
  const Series* delivered = r.timeline.find("noc.flits_delivered");
  ASSERT_NE(delivered, nullptr);
  std::uint64_t total = 0;
  for (std::uint64_t d : delivered->values) total += d;
  EXPECT_EQ(total, r.flits_delivered);

  const Series* wakes = r.timeline.find("sched.wake_requests");
  ASSERT_NE(wakes, nullptr);
  EXPECT_EQ(r.timeline.reconstruct(*wakes).back(),
            r.stats.get("sched.wake_requests"));
}

TEST(TelemetryRun, CommitDedupAbsorbsSameCycleRearms) {
  // Satellite: the Fifo epoch-stamp dedup. Multi-flit pushes into the
  // same queue in one cycle used to enter the commit list repeatedly;
  // now duplicates are counted instead of queued.  The commit counters
  // measure the host's commit-list bookkeeping rather than modelled
  // hardware, so they live on the timeline, not in the run stats.
  workload::RunRequest req = small_uniform(64);
  req.synthetic->injection_rate = 0.6;  // busy queues => same-cycle re-arms
  const workload::RunResult r = workload::run_by_name("uniform", req);
  const Series* pushes = r.timeline.find("sched.commit_pushes");
  const Series* dedup = r.timeline.find("sched.commits_deduped");
  ASSERT_NE(pushes, nullptr);
  ASSERT_NE(dedup, nullptr);
  EXPECT_GT(r.timeline.reconstruct(*pushes).back(), 0u);
  EXPECT_GT(r.timeline.reconstruct(*dedup).back(), 0u);
}

TEST(TelemetryRun, PerRouterDeliveredCountersExist) {
  const workload::RunResult r =
      workload::run_by_name("uniform", small_uniform(64));
  // 4x4 default fabric: every router owns a heatmap series.
  std::uint64_t sum = 0;
  for (int id = 0; id < 16; ++id) {
    const Series* s =
        r.timeline.find("noc.router." + std::to_string(id) + ".delivered");
    if (s == nullptr) continue;  // routers that never ejected stay absent
    for (std::uint64_t v : s->values) sum += v;
  }
  EXPECT_EQ(sum, r.flits_delivered);
}

// ---------------------------------------------------------------------
// Exporters
// ---------------------------------------------------------------------

/// Structural JSON check (same pattern as test_trace_xform): every
/// brace/bracket balances and never goes negative outside strings.
void expect_balanced_json(const std::string& text) {
  int brace = 0;
  int bracket = 0;
  bool in_string = false;
  bool escaped = false;
  for (char c : text) {
    if (escaped) {
      escaped = false;
      continue;
    }
    if (in_string) {
      if (c == '\\') escaped = true;
      if (c == '"') in_string = false;
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{': ++brace; break;
      case '}': --brace; break;
      case '[': ++bracket; break;
      case ']': --bracket; break;
      default: break;
    }
    ASSERT_GE(brace, 0);
    ASSERT_GE(bracket, 0);
  }
  EXPECT_EQ(brace, 0);
  EXPECT_EQ(bracket, 0);
  EXPECT_FALSE(in_string);
}

workload::TimelineMeta meta_for(const workload::RunResult& r) {
  workload::TimelineMeta meta;
  meta.workload = "uniform";
  meta.seed = 1;
  meta.noc_width = 4;
  meta.noc_height = 4;
  meta.measurement = r.measurement;
  return meta;
}

TEST(TelemetryExport, TimelineJsonIsBalancedAndSelfDescribing) {
  const workload::RunResult r =
      workload::run_by_name("uniform", small_uniform(64));
  const std::string json =
      workload::format_timeline_json(r.timeline, meta_for(r));
  expect_balanced_json(json);
  EXPECT_NE(json.find("\"schema\": \"medea-timeline-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"sample_every\": 64"), std::string::npos);
  EXPECT_NE(json.find("\"series\""), std::string::npos);
  EXPECT_NE(json.find("\"heatmaps\""), std::string::npos);
  // Router series are folded into heatmaps, not emitted individually.
  EXPECT_EQ(json.find("\"noc.router.0.delivered\""), std::string::npos);
}

TEST(TelemetryExport, CsvHasOneRowPerWindow) {
  const workload::RunResult r =
      workload::run_by_name("uniform", small_uniform(64));
  const std::string csv = workload::format_timeline_csv(r.timeline);
  std::size_t lines = 0;
  for (char c : csv) {
    if (c == '\n') ++lines;
  }
  EXPECT_EQ(lines, r.timeline.num_windows() + 1);  // header + windows
  EXPECT_EQ(csv.rfind("window,cycle_end,window_cycles", 0), 0u);
}

TEST(TelemetryExport, ChromeTraceIsBalancedAndCarriesBothDomains) {
  const workload::RunResult r =
      workload::run_by_name("uniform", small_uniform(64));
  std::vector<telemetry::HostSpan> spans;
  spans.push_back({"run uniform", "sim", 10, 500, 0});
  const std::string trace =
      workload::format_chrome_trace(r.timeline, meta_for(r), spans);
  expect_balanced_json(trace);
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("\"medea-chrome-trace-v1\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\": \"M\""), std::string::npos);  // metadata
  EXPECT_NE(trace.find("\"ph\": \"X\""), std::string::npos);  // spans
  EXPECT_NE(trace.find("\"ph\": \"C\""), std::string::npos);  // counters
  EXPECT_NE(trace.find("\"run uniform\""), std::string::npos);  // host span
}

TEST(TelemetryExport, SummaryExportsTimelinePrefixedScalars) {
  const workload::RunResult r =
      workload::run_by_name("uniform", small_uniform(64));
  const std::map<std::string, double> s =
      workload::timeline_summary(r.timeline);
  ASSERT_FALSE(s.empty());
  for (const auto& [key, value] : s) {
    EXPECT_EQ(key.rfind("timeline_", 0), 0u) << key;
    (void)value;
  }
  ASSERT_TRUE(s.count("timeline_windows"));
  EXPECT_EQ(s.at("timeline_windows"),
            static_cast<double>(r.timeline.num_windows()));
  ASSERT_TRUE(s.count("timeline_mean_flits_per_cycle"));
  EXPECT_GT(s.at("timeline_mean_flits_per_cycle"), 0.0);
  // Empty timeline => empty summary (bench rows stay metric-free).
  EXPECT_TRUE(workload::timeline_summary(Timeline{}).empty());
}

// ---------------------------------------------------------------------
// Host-side profiling
// ---------------------------------------------------------------------

TEST(TelemetryHost, ProfileScopeRecordsOnlyWhenEnabled) {
  auto& prof = telemetry::HostProfiler::instance();
  prof.clear();
  prof.set_enabled(false);
  { telemetry::ProfileScope off("disabled-span", "test"); }
  EXPECT_TRUE(prof.spans().empty());

  prof.set_enabled(true);
  { telemetry::ProfileScope on("enabled-span", "test"); }
  prof.set_enabled(false);
  const std::vector<telemetry::HostSpan> spans = prof.spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "enabled-span");
  EXPECT_EQ(spans[0].category, "test");
  prof.clear();
}

}  // namespace
}  // namespace medea

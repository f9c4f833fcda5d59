#include "workload/timeline.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <sstream>
#include <utility>

namespace medea::workload {

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string fmt_double(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

/// Per-window value of series s at window w (delta for counters, sample
/// for gauges; zero before the series appeared).
std::uint64_t value_at(const telemetry::Series& s, std::size_t w) {
  if (w < s.first_window || w - s.first_window >= s.values.size()) return 0;
  return s.values[w - s.first_window];
}

/// A `<fabric>.router.<id>.<metric>` series name, decomposed.
struct RouterSeries {
  std::string group;  ///< "<fabric>.router.<metric>"
  int id = -1;
  const telemetry::Series* series = nullptr;
};

bool parse_router_series(const telemetry::Series& s, RouterSeries& out) {
  const std::string tag = ".router.";
  const auto at = s.name.find(tag);
  if (at == std::string::npos) return false;
  std::size_t i = at + tag.size();
  if (i >= s.name.size() ||
      !std::isdigit(static_cast<unsigned char>(s.name[i]))) {
    return false;
  }
  int id = 0;
  while (i < s.name.size() &&
         std::isdigit(static_cast<unsigned char>(s.name[i]))) {
    id = id * 10 + (s.name[i] - '0');
    ++i;
  }
  if (i >= s.name.size() || s.name[i] != '.') return false;
  out.group = s.name.substr(0, at) + ".router." + s.name.substr(i + 1);
  out.id = id;
  out.series = &s;
  return true;
}

/// Split the timeline's series into per-router groups (heatmap sources)
/// and everything else, preserving name order.
void split_series(const telemetry::Timeline& tl,
                  std::vector<const telemetry::Series*>& plain,
                  std::map<std::string, std::vector<RouterSeries>>& groups) {
  for (const telemetry::Series& s : tl.series) {
    RouterSeries rs;
    if (parse_router_series(s, rs)) {
      // The map slot is selected before the argument moves from rs
      // (object expression sequenced first), so keying on rs.group here
      // is safe.
      groups[rs.group].push_back(std::move(rs));
    } else {
      plain.push_back(&s);
    }
  }
}

}  // namespace

std::string format_timeline_json(const telemetry::Timeline& tl,
                                 const TimelineMeta& meta) {
  std::vector<const telemetry::Series*> plain;
  std::map<std::string, std::vector<RouterSeries>> groups;
  split_series(tl, plain, groups);

  std::ostringstream os;
  os << "{\n";
  os << "  \"schema\": \"medea-timeline-v1\",\n";
  os << "  \"workload\": \"" << json_escape(meta.workload) << "\",\n";
  os << "  \"seed\": " << meta.seed << ",\n";
  os << "  \"noc\": {\"width\": " << meta.noc_width
     << ", \"height\": " << meta.noc_height << "},\n";
  os << "  \"phases\": {\"warmup_end\": " << meta.measurement.warmup_end
     << ", \"measure_end\": " << meta.measurement.measure_end
     << ", \"run_cycles\": " << meta.measurement.run_cycles << "},\n";
  os << "  \"sample_every\": " << tl.sample_every << ",\n";
  os << "  \"num_windows\": " << tl.num_windows() << ",\n";
  os << "  \"sample_cycles\": [";
  for (std::size_t i = 0; i < tl.sample_cycles.size(); ++i) {
    os << (i ? ", " : "") << tl.sample_cycles[i];
  }
  os << "],\n";

  os << "  \"series\": [";
  bool first = true;
  for (const telemetry::Series* s : plain) {
    os << (first ? "\n" : ",\n");
    first = false;
    os << "    {\"name\": \"" << json_escape(s->name) << "\", \"kind\": \""
       << (s->cumulative ? "counter" : "gauge")
       << "\", \"first_window\": " << s->first_window << ", \"values\": [";
    for (std::size_t i = 0; i < s->values.size(); ++i) {
      os << (i ? ", " : "") << s->values[i];
    }
    os << "]}";
  }
  os << "\n  ],\n";

  // Per-router groups render as spatial frames: one flattened
  // row-major width x height grid of per-window deltas per window.
  os << "  \"heatmaps\": [";
  first = true;
  for (const auto& [group, members] : groups) {
    int max_id = 0;
    for (const RouterSeries& rs : members) max_id = std::max(max_id, rs.id);
    int w = meta.noc_width, h = meta.noc_height;
    if (w <= 0 || h <= 0 || w * h <= max_id) {
      w = max_id + 1;
      h = 1;
    }
    os << (first ? "\n" : ",\n");
    first = false;
    os << "    {\"name\": \"" << json_escape(group) << "\", \"width\": " << w
       << ", \"height\": " << h << ", \"frames\": [";
    for (std::size_t win = 0; win < tl.num_windows(); ++win) {
      std::vector<std::uint64_t> cells(static_cast<std::size_t>(w) *
                                           static_cast<std::size_t>(h),
                                       0);
      for (const RouterSeries& rs : members) {
        cells[static_cast<std::size_t>(rs.id)] = value_at(*rs.series, win);
      }
      os << (win ? ", " : "") << "[";
      for (std::size_t i = 0; i < cells.size(); ++i) {
        os << (i ? "," : "") << cells[i];
      }
      os << "]";
    }
    os << "]}";
  }
  os << "\n  ]\n";
  os << "}\n";
  return std::move(os).str();
}

std::string format_timeline_csv(const telemetry::Timeline& tl) {
  std::ostringstream os;
  os << "window,cycle_end,window_cycles";
  for (const telemetry::Series& s : tl.series) os << "," << s.name;
  os << "\n";
  for (std::size_t w = 0; w < tl.num_windows(); ++w) {
    os << w << "," << tl.sample_cycles[w] << "," << tl.window_cycles(w);
    for (const telemetry::Series& s : tl.series) os << "," << value_at(s, w);
    os << "\n";
  }
  return std::move(os).str();
}

namespace {

std::string format_chrome_trace_impl(
    const telemetry::Timeline& tl, const TimelineMeta& meta,
    const std::vector<telemetry::HostSpan>& spans,
    const telemetry::FlitTrace* flits, int flow_packets) {
  std::ostringstream os;
  os << "{\"traceEvents\": [\n";
  bool first = true;
  const auto emit = [&](const std::string& ev) {
    os << (first ? "" : ",\n") << ev;
    first = false;
  };
  const auto meta_ev = [&](int pid, int tid, const std::string& what,
                           const std::string& name) {
    std::ostringstream e;
    e << "{\"ph\": \"M\", \"pid\": " << pid << ", \"tid\": " << tid
      << ", \"name\": \"" << what << "\", \"args\": {\"name\": \""
      << json_escape(name) << "\"}}";
    emit(std::move(e).str());
  };
  const auto span_ev = [&](int pid, int tid, const std::string& name,
                           const std::string& cat, std::uint64_t ts,
                           std::uint64_t dur) {
    std::ostringstream e;
    e << "{\"ph\": \"X\", \"pid\": " << pid << ", \"tid\": " << tid
      << ", \"name\": \"" << json_escape(name) << "\", \"cat\": \""
      << json_escape(cat) << "\", \"ts\": " << ts << ", \"dur\": " << dur
      << "}";
    emit(std::move(e).str());
  };
  const auto counter_ev = [&](int pid, const std::string& name,
                              std::uint64_t ts, const std::string& value) {
    std::ostringstream e;
    e << "{\"ph\": \"C\", \"pid\": " << pid << ", \"tid\": 0, \"name\": \""
      << json_escape(name) << "\", \"cat\": \"telemetry\", \"ts\": " << ts
      << ", \"args\": {\"value\": " << value << "}}";
    emit(std::move(e).str());
  };

  // --- pid 1: the simulated-time domain, cycles rendered as µs ---
  meta_ev(1, 0, "process_name",
          "sim: " + (meta.workload.empty() ? "run" : meta.workload) +
              " (1 cycle = 1us)");
  meta_ev(1, 0, "thread_name", "phases");

  const sim::Cycle end_cycle =
      std::max(meta.measurement.run_cycles,
               tl.empty() ? sim::Cycle{0} : tl.sample_cycles.back());
  const MeasurementResult& mr = meta.measurement;
  if (mr.measure_end > mr.warmup_end && mr.measure_end <= end_cycle) {
    // Phased run: the three booksim-style phases as top-level spans.
    if (mr.warmup_end > 0) span_ev(1, 0, "warmup", "phase", 0, mr.warmup_end);
    span_ev(1, 0, "measure", "phase", mr.warmup_end,
            mr.measure_end - mr.warmup_end);
    if (end_cycle > mr.measure_end) {
      span_ev(1, 0, "drain", "phase", mr.measure_end,
              end_cycle - mr.measure_end);
    }
  } else if (end_cycle > 0) {
    span_ev(1, 0, "run", "phase", 0, end_cycle);
  }

  // Counter tracks: windowed rates for counters (value plotted at the
  // window's *start*, chrome draws a step to the next sample), raw
  // values for gauges.  Per-router tracks only on small fabrics — a
  // 64-track wall is readable, a 1024-track one is not.
  std::vector<const telemetry::Series*> plain;
  std::map<std::string, std::vector<RouterSeries>> groups;
  split_series(tl, plain, groups);
  for (const telemetry::Series* s : plain) {
    for (std::size_t w = 0; w < tl.num_windows(); ++w) {
      const std::uint64_t ts = w == 0 ? 0 : tl.sample_cycles[w - 1];
      if (s->cumulative) {
        const double rate = static_cast<double>(value_at(*s, w)) /
                            static_cast<double>(tl.window_cycles(w));
        counter_ev(1, s->name + " (per cycle)", ts, fmt_double(rate));
      } else {
        counter_ev(1, s->name, ts, std::to_string(value_at(*s, w)));
      }
    }
  }
  for (const auto& [group, members] : groups) {
    if (members.size() > 64) continue;
    for (const RouterSeries& rs : members) {
      for (std::size_t w = 0; w < tl.num_windows(); ++w) {
        const std::uint64_t ts = w == 0 ? 0 : tl.sample_cycles[w - 1];
        const double rate = static_cast<double>(value_at(*rs.series, w)) /
                            static_cast<double>(tl.window_cycles(w));
        counter_ev(1, rs.series->name + " (per cycle)", ts, fmt_double(rate));
      }
    }
  }

  // --- pid 1, flit flows: the worst packets' journeys across per-router
  // thread tracks, connected by Perfetto flow arrows.  A slice is the
  // flit's residency in one router ([arrival, departure] in cycles); the
  // "s"/"t"/"f" events bind to those slices by (pid, tid, ts) and carry
  // the flit uid as the flow id, which is what draws the arrows. ---
  if (flits != nullptr && flits->enabled() && !flits->flits.empty()) {
    const auto flow_ev = [&](const char* ph, std::uint32_t id, int tid,
                             std::uint64_t ts, bool end_binding) {
      std::ostringstream e;
      e << "{\"ph\": \"" << ph << "\", \"pid\": 1, \"tid\": " << tid
        << ", \"name\": \"flit journey\", \"cat\": \"flit\", \"id\": " << id
        << ", \"ts\": " << ts;
      if (end_binding) e << ", \"bp\": \"e\"";
      e << "}";
      emit(std::move(e).str());
    };
    const auto router_tid = [](std::uint16_t node) {
      return 100 + static_cast<int>(node);
    };
    const auto worst = flits->worst(flow_packets);

    // Name the visited router tracks (once each).
    std::vector<std::uint16_t> named;
    const auto name_router = [&](std::uint16_t node) {
      if (std::find(named.begin(), named.end(), node) != named.end()) return;
      named.push_back(node);
      std::string label = "router " + std::to_string(node);
      if (flits->width > 0) {
        label += " (" + std::to_string(node % flits->width) + "," +
                 std::to_string(node / flits->width) + ")";
      }
      meta_ev(1, router_tid(node), "thread_name", label);
    };
    for (const telemetry::TracedFlit* f : worst) {
      if (f->hop_count == 0) continue;
      for (std::uint32_t i = 0; i < f->hop_count; ++i) {
        name_router(flits->hop_node[f->first_hop + i]);
      }
      name_router(f->dst);
    }

    for (const telemetry::TracedFlit* f : worst) {
      if (f->hop_count == 0) continue;
      const std::string label = "flit " + std::to_string(f->uid);
      sim::Cycle arrive = f->inject_cycle;
      for (std::uint32_t i = 0; i < f->hop_count; ++i) {
        const telemetry::TracedHop h = flits->hop(f->first_hop + i);
        const std::uint64_t dur = h.cycle + 1 - arrive;
        span_ev(1, router_tid(h.node),
                h.deflected != 0 ? label + " (deflected)" : label, "flit",
                arrive, dur);
        flow_ev(i == 0 ? "s" : "t", f->uid, router_tid(h.node), arrive, false);
        arrive = h.cycle + 1;
      }
      // Final residency at the destination until delivery.
      span_ev(1, router_tid(f->dst), label, "flit", arrive,
              f->deliver_cycle + 1 - arrive);
      flow_ev("f", f->uid, router_tid(f->dst), arrive, true);
    }
  }

  // --- pid 2: host wall-clock spans from ProfileScope ---
  if (!spans.empty()) {
    meta_ev(2, 0, "process_name", "host (wall clock)");
    std::vector<std::uint32_t> tids;
    for (const telemetry::HostSpan& s : spans) tids.push_back(s.tid);
    std::sort(tids.begin(), tids.end());
    tids.erase(std::unique(tids.begin(), tids.end()), tids.end());
    for (std::uint32_t tid : tids) {
      meta_ev(2, static_cast<int>(tid), "thread_name",
              "host-" + std::to_string(tid));
    }
    for (const telemetry::HostSpan& s : spans) {
      span_ev(2, static_cast<int>(s.tid), s.name, s.category, s.start_us,
              s.dur_us);
    }
  }

  os << "\n], \"displayTimeUnit\": \"ms\", \"otherData\": {\"schema\": "
        "\"medea-chrome-trace-v1\", \"workload\": \""
     << json_escape(meta.workload) << "\", \"seed\": " << meta.seed << "}}\n";
  return std::move(os).str();
}

}  // namespace

std::string format_chrome_trace(const telemetry::Timeline& tl,
                                const TimelineMeta& meta,
                                const std::vector<telemetry::HostSpan>& spans) {
  return format_chrome_trace_impl(tl, meta, spans, nullptr, 0);
}

std::string format_chrome_trace(const telemetry::Timeline& tl,
                                const TimelineMeta& meta,
                                const std::vector<telemetry::HostSpan>& spans,
                                const telemetry::FlitTrace& flits,
                                int flow_packets) {
  return format_chrome_trace_impl(tl, meta, spans, &flits, flow_packets);
}

std::map<std::string, double> timeline_summary(const telemetry::Timeline& tl) {
  std::map<std::string, double> out;
  if (tl.empty()) return out;  // unsampled run: no metrics at all
  out["timeline_windows"] = static_cast<double>(tl.num_windows());

  const auto windowed_rates = [&](const telemetry::Series& s) {
    std::vector<double> r(tl.num_windows());
    for (std::size_t w = 0; w < tl.num_windows(); ++w) {
      r[w] = static_cast<double>(value_at(s, w)) /
             static_cast<double>(tl.window_cycles(w));
    }
    return r;
  };

  const telemetry::Series* delivered = tl.find("noc.flits_delivered");
  if (delivered == nullptr) delivered = tl.find("xynoc.flits_delivered");
  if (delivered != nullptr) {
    const auto rates = windowed_rates(*delivered);
    double peak = 0.0, sum = 0.0;
    for (double r : rates) {
      peak = std::max(peak, r);
      sum += r;
    }
    out["timeline_peak_flits_per_cycle"] = peak;
    out["timeline_mean_flits_per_cycle"] =
        sum / static_cast<double>(rates.size());
  }

  // Peak windowed deflection rate: deflections per routed flit within
  // one window — the time-resolved congestion signal the end-of-run
  // scalar hides (transients around the saturation knee).
  const telemetry::Series* defl = tl.find("noc.deflections_total");
  const telemetry::Series* inj = tl.find("noc.flits_injected");
  if (defl != nullptr && inj != nullptr) {
    double peak = 0.0;
    for (std::size_t w = 0; w < tl.num_windows(); ++w) {
      const double i = static_cast<double>(value_at(*inj, w));
      if (i > 0.0) {
        peak = std::max(peak, static_cast<double>(value_at(*defl, w)) / i);
      }
    }
    out["timeline_peak_deflection_rate"] = peak;
  }

  if (const telemetry::Series* q = tl.find("sched.queued")) {
    std::uint64_t peak = 0;
    for (std::size_t w = 0; w < tl.num_windows(); ++w) {
      peak = std::max(peak, value_at(*q, w));
    }
    out["timeline_peak_queued"] = static_cast<double>(peak);
  }
  return out;
}

}  // namespace medea::workload

#!/usr/bin/env python3
"""Diff sim_speed (and p99 latency) across BENCH_*.json files.

Every bench binary writes a BENCH_<name>.json (bench/harness.h schema:
name/config/cycles/wall_ns/sim_speed/metrics per case).  CI archives one
per commit; this script turns two or more of them into a trendline so a
sim_speed regression is visible in review instead of three PRs later.

Usage:
  bench_trend.py FILE_OR_DIR [FILE_OR_DIR ...] [--max-regress=PCT]

With one input it prints the run's cases.  With several, inputs are
treated as successive runs (oldest first): cases are matched by
(bench, case-name) and the relative sim_speed change from the first to
the last run is reported.  Directories are scanned for BENCH_*.json.

Cases that export a `p99` metric (e.g. bench_saturation's per-load
latency rows) additionally get a p99 trend table — tail-latency
regressions are tracked the same way as sim_speed ones (note the sign:
p99 going UP is the regression).  The same goes for `max_deflections`
(bench_saturation's worst per-packet deflection count): a routing or
arbitration change that sends packets ricocheting shows up here before
it shows up in mean latency.  Cases exporting `timeline_*` metrics
(bench_saturation's sampled knee_timeline rows) get one trend table per
timeline metric, so transient-congestion regressions the end-of-run
scalars average away still show up in review.

Runs from older commits may predate a metric (or even the `cycles`
field): missing keys render as `-` and are excluded from deltas rather
than raising — a trend across heterogeneous BENCH_*.json vintages must
always print.

--max-regress=PCT exits non-zero when any matched case's sim_speed
dropped by more than PCT percent (for CI gating; default: report only).
"""

import argparse
import json
import sys
from pathlib import Path


def load_runs(inputs):
    """Each input (file or directory) becomes one run: {(bench, case): dict}."""
    runs = []
    for raw in inputs:
        path = Path(raw)
        if path.is_dir():
            files = sorted(path.glob("BENCH_*.json"))
            if not files:
                sys.exit(f"bench_trend: no BENCH_*.json in {path}")
        elif path.is_file():
            files = [path]
        else:
            sys.exit(f"bench_trend: no such file or directory: {path}")
        cases = {}
        for f in files:
            try:
                doc = json.loads(f.read_text())
            except json.JSONDecodeError as e:
                sys.exit(f"bench_trend: {f}: invalid JSON: {e}")
            for case in doc.get("cases", []):
                if "name" not in case:  # malformed row: skip, don't crash
                    continue
                cases[(doc.get("bench", f.stem), case["name"])] = case
        runs.append((str(path), cases))
    return runs


def fmt_speed(speed):
    return f"{speed / 1e6:10.2f}" if speed is not None else f"{'-':>10}"


def metric_of(case, key):
    """The case's named metric, or None when it doesn't export one."""
    return case.get("metrics", {}).get(key)


def p99_of(case):
    return metric_of(case, "p99")


def print_single(label, cases):
    print(f"# {label}")
    print(f"{'case':<44} {'Mcyc/s':>10} {'cycles':>14} {'p99':>8}")
    for (bench, name), c in sorted(cases.items()):
        p99 = p99_of(c)
        p99_cell = f"{p99:8.0f}" if p99 is not None else f"{'-':>8}"
        cycles = c.get("cycles")
        cyc_cell = f"{cycles:>14.0f}" if cycles is not None else f"{'-':>14}"
        print(f"{bench + '/' + name:<44} {fmt_speed(c.get('sim_speed'))} "
              f"{cyc_cell} {p99_cell}")
    print_shard_speedup(cases)


def print_shard_speedup(cases):
    """Within-run parallel-kernel summary: for every case family named
    '<base>/shardsN', the speedup of each shard count over that family's
    shards1 single-thread baseline, with the barrier-wait share and the
    mailbox traffic that bought it.  Silent when the run has no sharded
    cases (older BENCH_*.json vintages)."""
    families = {}
    for (bench, name), c in cases.items():
        base, sep, tail = name.rpartition("/shards")
        if not sep or not tail.isdigit():
            continue
        families.setdefault((bench, base), {})[int(tail)] = c
    printable = {k: v for k, v in families.items() if 1 in v and len(v) > 1}
    if not printable:
        return
    print(f"\n{'sharded kernel':<44} {'shards':>6} {'Mcyc/s':>10} "
          f"{'speedup':>8} {'barrier%':>9} {'mbox_flits':>11}")
    for (bench, base), by_count in sorted(printable.items()):
        baseline = by_count[1].get("sim_speed") or 0.0
        for count in sorted(by_count):
            c = by_count[count]
            speed = c.get("sim_speed") or 0.0
            speedup = speed / baseline if baseline > 0 else 0.0
            wall = c.get("wall_ns") or 0.0
            barrier = metric_of(c, "barrier_wait_ns")
            # Barrier wait is summed over shards; normalize per shard so
            # 100% means "threads did nothing but wait".
            share = (100.0 * barrier / (wall * count)
                     if barrier is not None and wall > 0 and count > 0
                     else None)
            share_cell = f"{share:8.1f}%" if share is not None else f"{'-':>9}"
            mbox = metric_of(c, "mailbox_flits")
            mbox_cell = f"{mbox:11.0f}" if mbox is not None else f"{'-':>11}"
            print(f"{bench + '/' + base:<44} {count:>6} {fmt_speed(speed)} "
                  f"{speedup:7.2f}x {share_cell} {mbox_cell}")


def print_metric_trend(runs, first, last, keys, metric, title, decimals=0):
    """Trend table for one metric over the cases whose first and last
    runs both carry it; silent when no case does (older runs simply
    predate the metric)."""
    keys = [k for k in keys
            if metric_of(first[k], metric) is not None
            and metric_of(last[k], metric) is not None]
    if not keys:
        return
    print(f"\n{title:<44} " + " ".join(
        f"{Path(label).name[:14]:>14}" for label, _ in runs) + f" {'delta':>8}")
    worst = 0.0
    for key in keys:
        cells = []
        for _, cases in runs:
            v = metric_of(cases.get(key, {}), metric)
            cells.append(f"{v:14.{decimals}f}" if v is not None
                         else f"{'-':>14}")
        base = metric_of(first[key], metric)
        cur = metric_of(last[key], metric)
        delta = (cur - base) / base * 100.0 if base > 0 else 0.0
        worst = max(worst, delta)
        bench, name = key
        print(f"{bench + '/' + name:<44} " + " ".join(cells) +
              f" {delta:+7.1f}%")
    print(f"worst {metric} change: {worst:+.1f}%")


def timeline_metrics(first, last, keys):
    """All timeline_* metric names present in both the first and last
    run for at least one common case, sorted."""
    names = set()
    for key in keys:
        a = set(first[key].get("metrics", {}))
        b = set(last[key].get("metrics", {}))
        names |= {m for m in a & b if m.startswith("timeline_")}
    return sorted(names)


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("inputs", nargs="+",
                        help="BENCH_*.json files or directories, oldest first")
    parser.add_argument("--max-regress", type=float, default=None, metavar="PCT",
                        help="fail if any case's sim_speed drops more than PCT%%")
    args = parser.parse_args()

    runs = load_runs(args.inputs)
    if len(runs) == 1:
        print_single(*runs[0])
        return

    first_label, first = runs[0]
    last_label, last = runs[-1]
    keys = sorted(set(first) & set(last))
    if not keys:
        sys.exit("bench_trend: no common cases between "
                 f"{first_label} and {last_label}")

    header = f"{'case':<44} " + " ".join(
        f"{Path(label).name[:14]:>14}" for label, _ in runs) + f" {'delta':>8}"
    print(header)

    def speed_cells(key):
        cells = []
        for _, cases in runs:
            c = cases.get(key)
            cells.append(f"{fmt_speed(c.get('sim_speed')):>14}" if c
                         else f"{'-':>14}")
        return " ".join(cells)

    worst = 0.0
    for key in keys:
        base = first[key].get("sim_speed", 0.0)
        cur = last[key].get("sim_speed", 0.0)
        delta = (cur - base) / base * 100.0 if base > 0 else 0.0
        worst = min(worst, delta)
        bench, name = key
        print(f"{bench + '/' + name:<44} {speed_cells(key)} {delta:+7.1f}%")

    # Cases missing from the first or the last run still get their row
    # (a new bench case has no earlier artifact to diff against), but no
    # delta and no say in the regression gate.
    only_first = sorted(set(first) - set(last))
    only_last = sorted(set(last) - set(first))
    for key in only_first:
        print(f"{key[0] + '/' + key[1]:<44} {speed_cells(key)} {'dropped':>8}")
    for key in only_last:
        print(f"{key[0] + '/' + key[1]:<44} {speed_cells(key)} {'new':>8}")

    print_metric_trend(runs, first, last, keys, "p99",
                       "p99 latency (cycles)")
    print_metric_trend(runs, first, last, keys, "max_deflections",
                       "max per-packet deflections")
    # Parallel-kernel health: barrier wait trending up means growing
    # load imbalance, mailbox flits changing means the partition (or the
    # traffic) moved across the seams.
    print_metric_trend(runs, first, last, keys, "barrier_wait_ns",
                       "barrier wait (ns, summed over shards)")
    print_metric_trend(runs, first, last, keys, "mailbox_flits",
                       "cross-shard mailbox flits")
    print_shard_speedup(last)
    for metric in timeline_metrics(first, last, keys):
        print_metric_trend(runs, first, last, keys, metric, metric,
                           decimals=3)

    if args.max_regress is not None and worst < -args.max_regress:
        print(f"\nbench_trend: FAIL: worst sim_speed regression {worst:.1f}% "
              f"exceeds --max-regress={args.max_regress}%", file=sys.stderr)
        sys.exit(1)
    print(f"\nworst sim_speed change vs {first_label}: {worst:+.1f}%")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Interleaved A/B timing of two medea_perfbench binaries.

Runs binary A and binary B alternately on one workload, N pairs, with
the side that runs first alternating too (A B, B A, A B, ...), so slow
drift of the host (thermal state, other load) hits both sides alike.
Every run must pass its own checks (`failed == 0`), and every run of
both binaries must report identical simulated `outputs` — a speedup
that changed the simulated result is not a speedup.  Each run measures
for BENCHMARK.json's `run_seconds`.  Then, for each end-to-end metric of
BENCHMARK.json the binaries report, it prints the median and min-max of
each side, the change of B's median against A's, the number of pairs B
won, and the interquartile range of A's runs (a median change smaller
than that is within A's own spread).

  scripts/ab_bench.py PARENT/medea_perfbench CHANGE/medea_perfbench \\
      --workload uniform_60x60 --pairs 10

Exit status: 0 when every check passed, 1 when a run failed its checks
or the outputs differ, 2 when a binary could not be run or its report
could not be read.  Only the two binaries are invoked; nothing under
perfbench/ is read or written besides running them.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 1            # perfbench's default seed, the one golden.json pins
RUN_TIMEOUT_S = 600  # a run longer than this counts as hung


class AbError(Exception):
    """A run that could not be carried out or read (exit status 2)."""


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def end_to_end_metrics(spec):
    """(name, better) of BENCHMARK.json's end-to-end metrics, in order."""
    return [(m["name"], m["better"]) for m in spec["end_to_end"]]


def run_once(binary, workload, seconds, spans):
    cmd = [binary, "--workload", workload, "--seed", str(SEED),
           "--seconds", str(seconds), "--trace", "0", "--spans", spans]
    try:
        r = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise AbError(f"{binary}: {e}") from e
    if r.returncode != 0:
        raise AbError(f"{binary} exited with {r.returncode}: "
                      f"{r.stderr.strip()[-400:]}")
    try:
        return json.loads(r.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError) as e:
        raise AbError(f"{binary}: no JSON report on stdout") from e


def check_runs(runs):
    """Problems with the runs: own-check failures, differing outputs."""
    problems = []
    reference = runs[0][1]["outputs"]
    for label, doc in runs:
        if doc["failed"] != 0:
            problems.append(f"{label}: failed == {doc['failed']}: "
                            f"{doc.get('failures', [])[:3]}")
        if doc["outputs"] != reference:
            problems.append(f"{label}: outputs differ from {runs[0][0]}: "
                            f"{doc['outputs']} vs {reference}")
    return problems


def summarize(runs, metrics):
    """Rows of (name, unit, better, A values, B values) per metric both
    binaries reported on every run; values are in pair order."""
    rows = []
    for name, better in metrics:
        vals = {"A": [], "B": []}
        unit = ""
        for label, doc in runs:
            m = doc["metrics"].get(name)
            if m is not None:
                vals[label[0]].append(m["value"])
                unit = m["unit"]
        if len(vals["A"]) == len(vals["B"]) == len(runs) // 2:
            rows.append((name, unit, better, vals["A"], vals["B"]))
    return rows


def fmt(v):
    return f"{v:.4g}"


def spread(values):
    """Median [min-max] of one side's runs."""
    return (f"{fmt(statistics.median(values))} "
            f"[{fmt(min(values))}-{fmt(max(values))}]")


def iqr(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[2] - q[0]


def report(rows, pairs):
    lines = [f"{'metric':<20} {'unit':<5} {'A median [min-max]':<34} "
             f"{'B median [min-max]':<34} {'B vs A':>8} {'B wins':>7} "
             f"{'A IQR':>9}"]
    for name, unit, better, a, b in rows:
        ma, mb = statistics.median(a), statistics.median(b)
        delta = (mb - ma) / ma * 100.0 if ma else float("nan")
        sign = 1 if better == "higher" else -1
        wins = sum(1 for x, y in zip(a, b) if sign * (y - x) > 0)
        lines.append(f"{name:<20} {unit:<5} {spread(a):<34} {spread(b):<34} "
                     f"{delta:+7.1f}% {wins:>3}/{len(a):<3} {fmt(iqr(a)):>9}")
    lines.append(f"{pairs} interleaved pairs; outputs identical, "
                 "failed == 0 on every run")
    return "\n".join(lines)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("binary_a", help="baseline medea_perfbench")
    ap.add_argument("binary_b", help="changed medea_perfbench")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    try:
        spec = benchmark_spec()
        metrics = end_to_end_metrics(spec)
        seconds = spec["run_seconds"]
        runs = []
        with tempfile.TemporaryDirectory() as tmp:
            spans = os.path.join(tmp, "spans.json")
            sides = [("A", args.binary_a), ("B", args.binary_b)]
            for i in range(args.pairs):
                for side, binary in sides if i % 2 == 0 else sides[::-1]:
                    doc = run_once(binary, args.workload, seconds, spans)
                    runs.append((f"{side}{i + 1}", doc))
                    print(f"[ab_bench] {side}{i + 1} done", file=sys.stderr,
                          flush=True)
        problems = check_runs(runs)
    except (AbError, OSError, KeyError, TypeError) as e:
        print(f"ab_bench: error: {e}", file=sys.stderr)
        return 2
    if problems:
        for p in problems:
            print(f"ab_bench: check failed: {p}", file=sys.stderr)
        return 1
    print(f"workload {args.workload}, seed {SEED}, {seconds:g} s per run")
    print(report(summarize(runs, metrics), args.pairs))
    return 0


if __name__ == "__main__":
    sys.exit(main())

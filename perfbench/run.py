#!/usr/bin/env python3
"""The MEDEA repository benchmark (see README.md in this directory).

Timed or traced run of one workload, from the root of a source checkout:

  python3 perfbench/run.py --workload jacobi_wb --seed 1 --seconds 25 --trace 0

Builds the simulator from source into .bench_build/ (Release), runs
medea_perfbench, checks its simulated outputs against golden.json (on
the default seed) and its invariant checks (on every seed), writes a
provenance-stamped record under .bench_build/records/, and prints one
JSON object as the last line of stdout:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics of BENCHMARK.json (--trace 0) or its
per-layer metrics (--trace 1).  Exits non-zero when any check fails.

  python3 perfbench/run.py --self-test      # quick self-check
  python3 perfbench/run.py --write-golden   # re-pin golden.json
"""

import argparse
import copy
import hashlib
import json
import os
import platform
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD, "cmake")
BINARY = os.path.join(CMAKE_DIR, "medea_perfbench")
GOLDEN = os.path.join(HERE, "golden.json")
DEFAULT_SEED = 1
RUN_TIMEOUT_S = 170
OPTIMIZED_BUILD_TYPES = ("Release", "RelWithDebInfo", "MinSizeRel")


class BenchError(Exception):
    """A failure that must end the run without printing a result."""


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def benchmark_spec():
    return load_json(os.path.join(ROOT, "BENCHMARK.json"))


def workload_names():
    return [w["name"] for w in benchmark_spec()["workloads"]]


def build():
    """Configure once, then (re)build medea_perfbench; output goes to stderr.
    Compiler temporaries stay inside the build tree too."""
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)

    def step(cmd, what):
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env)
        if r.returncode:
            raise BenchError(what + " failed")

    # cmake.check_cache exists once a configure has succeeded.
    if not os.path.exists(os.path.join(CMAKE_DIR, "CMakeFiles",
                                       "cmake.check_cache")):
        step(["cmake", "-S", HERE, "-B", CMAKE_DIR,
              "-DCMAKE_BUILD_TYPE=Release"], "cmake configure")
    step(["cmake", "--build", CMAKE_DIR, "--target", "medea_perfbench",
          "-j", str(os.cpu_count() or 1)], "build")


def source_provenance():
    """Commit when the checkout is a git repository, plus a digest of the
    sources the benchmark builds (a plain checkout has no commit)."""
    commit = "unknown (not a git checkout)"
    if os.path.exists(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            commit = r.stdout.strip()
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "perfbench"):
        for d, _, files in os.walk(os.path.join(ROOT, top)):
            paths += [os.path.join(d, f) for f in files]
    for p in sorted(paths):
        h.update(os.path.relpath(p, ROOT).encode())
        with open(p, "rb") as f:
            h.update(f.read())
    return {"commit": commit, "source_sha256": h.hexdigest()}


def run_binary(workload, seed, seconds, trace, quick, spans_path):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--spans", spans_path]
    if quick:
        cmd.append("--quick")
    r = subprocess.run(cmd, capture_output=True, text=True,
                       timeout=RUN_TIMEOUT_S)
    sys.stderr.write(r.stderr)
    if r.returncode != 0:
        raise BenchError(f"medea_perfbench exited with {r.returncode}")
    doc = json.loads(r.stdout.strip().splitlines()[-1])
    prov = doc["provenance"]
    if (not prov["optimized"] or not prov["ndebug"]
            or prov["build_type"] not in OPTIMIZED_BUILD_TYPES):
        raise BenchError("refusing timings from an unoptimized or "
                         f"assert-enabled build: {prov}")
    return doc


def golden_key(workload, quick):
    return workload + ("@quick" if quick else "")


def golden_mismatches(outputs, expected):
    """Labels of points whose simulated outputs differ from the golden."""
    if len(outputs) != len(expected):
        return ["point count %d != golden %d" % (len(outputs), len(expected))]
    bad = []
    for got, want in zip(outputs, expected):
        diff = [k for k in want if got.get(k) != want[k]]
        if diff:
            bad.append("%s: %s differ from golden" % (got["label"],
                                                      ",".join(diff)))
    return bad


def evaluate(doc, workload, seed, quick, golden):
    """Folds the golden check into the binary's own checks."""
    failures = list(doc["failures"])
    failed = doc["failed"]
    if seed == DEFAULT_SEED:
        expected = golden.get(golden_key(workload, quick))
        if expected is None:
            mism = ["no golden outputs for " + golden_key(workload, quick)]
        else:
            mism = golden_mismatches(doc["outputs"], expected)
        failures += mism
        failed = min(doc["attempted"], failed + len(mism))
    return failed, failures


def select_metrics(doc, trace):
    spec = benchmark_spec()
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    out = {}
    for m in wanted:
        got = doc["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            raise BenchError(f"metric {m['name']} missing or not in "
                             f"{m['unit']}: {got}")
        out[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    return out


def write_record(name, record):
    os.makedirs(os.path.join(BUILD, "records"), exist_ok=True)
    with open(os.path.join(BUILD, "records", name), "w",
              encoding="utf-8") as f:
        json.dump(record, f, indent=1)


def measure(workload, seed, seconds, trace, quick=False, golden=None):
    """One run: returns (result line, record)."""
    if golden is None:
        golden = load_json(GOLDEN)
    tag = "%s-seed%d-trace%d%s" % (workload, seed, trace,
                                   "-quick" if quick else "")
    spans_path = os.path.join(BUILD, "spans", tag + ".json")
    os.makedirs(os.path.dirname(spans_path), exist_ok=True)
    doc = run_binary(workload, seed, seconds, trace, quick, spans_path)
    failed, failures = evaluate(doc, workload, seed, quick, golden)
    result = {"correct": failed == 0, "attempted": doc["attempted"],
              "failed": failed, "metrics": select_metrics(doc, trace)}
    provenance = dict(doc["provenance"])
    provenance.update(source_provenance())
    provenance.update({"workload": workload, "seconds": seconds,
                       "trace": trace, "default_seed": DEFAULT_SEED,
                       "python": platform.python_version()})
    record = {"provenance": provenance, "outputs": doc["outputs"],
              "failures": failures, "result": result,
              "spans_file": os.path.relpath(spans_path, ROOT) if trace
              else None,
              "rep_walls_s": doc["rep_walls_s"],
              "all_metrics": doc["metrics"]}
    write_record(tag + ".json", record)
    for f in failures[:20]:
        log("check failed: " + f)
    return result, record


# ---------------------------------------------------------------------
# Golden re-pinning and the self-test
# ---------------------------------------------------------------------

GOLDEN_FIELDS = ("label", "cycles", "metric", "flits_delivered",
                 "latency_p50", "latency_p99")


def write_golden():
    golden = {}
    for quick in (False, True):
        for w in workload_names():
            doc = run_binary(w, DEFAULT_SEED, 0.1, 0, quick,
                             os.path.join(BUILD, "spans", "golden.json"))
            if doc["failed"]:
                raise BenchError(f"{w}: invariant checks fail: "
                                 f"{doc['failures'][:5]}")
            golden[golden_key(w, quick)] = [
                {k: o[k] for k in GOLDEN_FIELDS} for o in doc["outputs"]]
            log(f"pinned {golden_key(w, quick)}")
    with open(GOLDEN, "w", encoding="utf-8") as f:
        json.dump(golden, f, indent=1)
        f.write("\n")


def check_spans(path):
    spans = load_json(path)["spans"]
    if not spans:
        raise BenchError(f"{path}: no spans")
    for i, s in enumerate(spans):
        if s["id"] != i or not -1 <= s["parent"] < len(spans):
            raise BenchError(f"{path}: span {i} has a bad id/parent")
        if not s["start_s"] <= s["end_s"]:
            raise BenchError(f"{path}: span {i} ends before it starts")
        if s["parent"] >= 0:
            p = spans[s["parent"]]
            if not p["start_s"] <= s["start_s"] <= s["end_s"] <= p["end_s"]:
                raise BenchError(f"{path}: span {i} escapes its parent")


def self_test():
    """Quick mode: one point per Jacobi workload, 8x8 uniform fabrics.
    Every metric of BENCHMARK.json must print with its unit (checked by
    select_metrics), the span file must parse, and a planted golden
    mismatch must count as a failure."""
    golden = load_json(GOLDEN)
    for w in workload_names():
        for trace in (0, 1):
            result, record = measure(w, DEFAULT_SEED, 0.5, trace, True,
                                     golden)
            if not result["correct"] or result["failed"]:
                raise BenchError(f"{w} trace={trace}: {record['failures']}")
            if trace:
                check_spans(os.path.join(ROOT, record["spans_file"]))
        planted = copy.deepcopy(golden)
        planted[golden_key(w, True)][0]["cycles"] += 1
        failed, failures = evaluate(
            {"outputs": record["outputs"], "failures": [], "failed": 0,
             "attempted": result["attempted"]},
            w, DEFAULT_SEED, True, planted)
        if failed < 1 or not failures:
            raise BenchError(f"{w}: a planted golden mismatch went unnoticed")
        log(f"self-test {w}: ok")
    log("self-test passed")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float,
                    help="measuring time (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--write-golden", action="store_true")
    args = ap.parse_args()
    t0 = time.monotonic()
    try:
        timed = not (args.self_test or args.write_golden)
        if timed and args.workload not in workload_names():
            raise BenchError(f"--workload must be one of {workload_names()}")
        if timed and args.seed < 0:
            raise BenchError("--seed must be a non-negative integer")
        build()
        log("build ready after %.1f s" % (time.monotonic() - t0))
        if args.self_test:
            self_test()
            return 0
        if args.write_golden:
            write_golden()
            return 0
        seconds = args.seconds
        if seconds is None:
            seconds = benchmark_spec()["run_seconds"]
        result, _ = measure(args.workload, args.seed, seconds, args.trace)
    except (BenchError, subprocess.TimeoutExpired, OSError,
            ValueError, KeyError) as e:
        log(f"error: {e}")
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

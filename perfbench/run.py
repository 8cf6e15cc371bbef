#!/usr/bin/env python3
"""Funnel benchmark runner: builds perfbench/ and runs one workload.

    python3 perfbench/run.py --workload funnel-cold --seed 1 --seconds 10 --trace 0

Prints human-readable notes, then as its last line one JSON object with the
keys correct, attempted, failed and metrics. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer metrics of the traced run.

Other modes:
    --selftest            build and run the benchmark's own tests
    --spread N            run a workload on N seeds and report each metric's
                          median, quartiles and spread against its bound
    --golden-check        re-run all 149 pairs and compare with the golden
    --golden-write        regenerate perfbench/golden_verdicts.txt

Everything it builds or writes stays under .bench_build/ in the checkout.
"""

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
GOLDEN = os.path.join(HERE, "golden_verdicts.txt")
WORKLOADS = ("funnel-cold", "funnel-warm", "sample-passk")
RUN_TIMEOUT_S = 170     # one workload run, all its processes together
GOLDEN_TIMEOUT_S = 600  # --golden-check / --golden-write (149 pairs)
GOLDEN_PAIRS = 2
METRIC_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds the benchmark; False when the sources are missing
    or the build fails."""
    if not os.path.exists(os.path.join(ROOT, "src", "svc", "Service.h")):
        log("perfbench: library sources not found under %s/src" % ROOT)
        return False
    if not shutil.which("cmake"):
        log("perfbench: cmake not found")
        return False
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", "4"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("perfbench: build failed: %s" % " ".join(cmd))
            return False
    return True


def run_child(args, deadline):
    """Runs one measurement process, killing it at the monotonic time
    deadline; returns (its result object or None, its peak RSS in MB)."""
    proc = subprocess.Popen([os.path.join(BUILD, "perfbench")] + args,
                            cwd=ROOT, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(deadline - time.monotonic(), 0), proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        log("perfbench: %s exited with %d" % (" ".join(args[:3]),
                                             proc.returncode))
        return None, 0.0
    try:
        return json.loads(out.strip().splitlines()[-1]), usage.ru_maxrss / 1024
    except (IndexError, ValueError):
        log("perfbench: no result from %s" % " ".join(args[:3]))
        return None, 0.0


def run_workload(workload, seed, seconds, trace):
    """Runs one workload and returns the benchmark's result object, or None."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    work = os.path.join(ROOT, ".bench_build", "work-%d" % os.getpid())
    common = ["--seed", str(seed), "--work", work, "--golden", GOLDEN]
    notes, attempted, failed = [], 0, 0
    try:
        if workload.startswith("funnel-"):
            # Two golden pairs drawn by the seed, in their own process so
            # that they do not count in the measured process's peak RSS.
            gold, _ = run_child(["golden", "--pick", str(GOLDEN_PAIRS)] +
                                common, deadline)
            if gold is None:
                return None
            notes += gold.get("notes", [])
            attempted += gold["attempted"]
            failed += gold["failed"]
        if workload == "funnel-warm":
            pre, _ = run_child(["prefill"] + common, deadline)
            if pre is None:
                return None
            notes += ["prefill: " + n for n in pre.get("notes", [])]
            attempted += pre["attempted"]
            failed += pre["failed"]
        res, rss_mb = run_child(
            ["run", "--workload", workload, "--seconds", str(seconds),
             "--trace", str(trace)] + common, deadline)
        if res is None:
            return None
    finally:
        shutil.rmtree(work, ignore_errors=True)
    notes += res.get("notes", [])
    attempted += res["attempted"]
    failed += res["failed"]
    metrics = res["metrics"]
    if not trace:
        metrics["peak_rss_mb"] = {"value": rss_mb, "unit": "MB"}
    for name in metrics:
        if not METRIC_NAME.match(name):
            notes.append("invalid metric name %r" % name)
            failed += 1
    for n in notes:
        print("# " + n)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def load_bounds():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return {}
    return {m["name"]: m.get("bound") for m in spec.get("end_to_end", [])}


def spread_report(workload, runs, seed0, seconds, trace):
    """Runs one workload on `runs` consecutive seeds and prints, per metric,
    the median, the quartiles, and the quartile spread as a share of the
    median."""
    bounds = load_bounds()
    values, bad = {}, 0
    for i in range(runs):
        res = run_workload(workload, seed0 + i, seconds, trace)
        if res is None or not res["correct"]:
            bad += 1
            continue
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    print("%-22s %12s %12s %12s %8s %6s" % ("metric", "median", "q1", "q3",
                                           "spread", "bound"))
    for name, vals in values.items():
        if len(vals) < 2:
            continue
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        verdict = ""
        if bound:
            verdict = ("steady" if spread < bound / 3 else
                       "within" if spread <= bound else "NOISY")
        print("%-22s %12.6g %12.6g %12.6g %8.3f %6s %s" % (
            name, med, q1, q3, spread, bound if bound else "-", verdict))
        print("    runs: " + " ".join("%.4g" % v for v in vals))
    print("runs: %d ok, %d failed or incorrect" % (runs - bad, bad))
    return 0 if bad == 0 else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--spread", type=int, metavar="N")
    ap.add_argument("--golden-check", action="store_true")
    ap.add_argument("--golden-write", action="store_true")
    a = ap.parse_args()
    if not build():
        return 1
    if a.selftest:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        bad = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]
               if not METRIC_NAME.match(m["name"])]
        if bad:
            log("invalid metric names in BENCHMARK.json: %s" % bad)
            return 1
        return subprocess.run([os.path.join(BUILD, "perfbench_selftest"),
                               GOLDEN]).returncode
    if a.golden_check or a.golden_write:
        args = ["golden", "--golden", GOLDEN] + (
            ["--write"] if a.golden_write else [])
        res, _ = run_child(args, time.monotonic() + GOLDEN_TIMEOUT_S)
        if res is None:
            return 1
        for n in res.get("notes", []):
            print("# " + n)
        print("golden: %d pairs, %d failed" % (res["attempted"],
                                              res["failed"]))
        return 0 if res["failed"] == 0 else 1
    if not a.workload:
        ap.error("--workload is required")
    if a.spread:
        return spread_report(a.workload, a.spread, a.seed, a.seconds, a.trace)
    res = run_workload(a.workload, a.seed, a.seconds, a.trace)
    if res is None:
        return 1
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())

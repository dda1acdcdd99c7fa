"""Self-test of the benchmark: a short pass of every workload.

    python3 perfbench/selftest.py [--seconds 3] [--seed 1]

For each workload it runs ``run.py`` untraced and traced and checks that
  * every end-to-end metric is printed with its unit (the bounded ones,
    throughput, latency percentiles and ``failed_frac`` everywhere, and
    ``samples_per_s`` on ``traces``), and the result line carries exactly
    the metrics and units ``BENCHMARK.json`` names;
  * ``failed_frac`` is 0 and the result line says ``correct``;
  * every per-layer metric's function records at least one call on each
    workload ``tracing.PER_LAYER`` assigns it to.
Exits 1 and lists the problems if any check fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import tracing
from run import WORKLOADS

HERE = Path(__file__).resolve().parent


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError("%s exited %d:\n%s" % (" ".join(cmd), proc.returncode,
                                                   proc.stderr[-3000:]))
    lines = proc.stdout.splitlines()
    printed = {}
    calls = {}
    for line in lines:
        parts = line.split() or [""]
        if parts[0] == "metric":
            printed[parts[1]] = (float(parts[2]), parts[3])
        elif parts[0] == "calls":
            calls[parts[1]] = int(parts[2])
    return json.loads(lines[-1]), printed, calls, proc.stderr


def check_result(result, printed, declared, problems, where):
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != declared:
        problems.append("%s: result metrics %r, declared %r" % (where, got, declared))
    for name, unit in declared.items():
        if printed.get(name, (None, None))[1] != unit:
            problems.append("%s: %s not printed with unit %s" % (where, name, unit))
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        problems.append("%s: correct=%r attempted=%r failed=%r" % (
            where, result["correct"], result["attempted"], result["failed"]))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seconds", type=float, default=3)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []
    for wl in WORKLOADS:
        result, printed, _, _ = run(wl, args.seed, args.seconds, 0)
        check_result(result, printed, e2e, problems, wl)
        extra = {"polys_per_s": "1/s", "poly_p50_ms": "ms", "poly_p95_ms": "ms",
                 "failed_frac": "frac"}
        if wl == "traces":
            extra["samples_per_s"] = "1/s"
        for name, unit in extra.items():
            if printed.get(name, (None, None))[1] != unit:
                problems.append("%s: %s not printed with unit %s" % (wl, name, unit))
        if printed.get("failed_frac", (1.0,))[0] != 0:
            problems.append("%s: failed_frac is %r" % (wl, printed.get("failed_frac")))

        result, printed, calls, stderr = run(wl, args.seed, args.seconds, 1)
        check_result(result, printed, layers, problems, wl + " traced")
        for fn in tracing.expected_calls(wl):
            if calls.get(fn, 0) < 1:
                problems.append("%s traced: %s recorded no call" % (wl, fn))
        if "ZERO CALLS" in stderr:
            problems.append("%s traced: %s" % (wl, stderr.strip()))
        print("selftest %-10s attempted %d" % (wl, result["attempted"]))
    for p in problems:
        print("PROBLEM " + p)
    print("selftest %s" % ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

"""weilsf benchmark: one closed-loop workload per run.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 20 --trace 0

Workloads: verify, report, traces, prime-dim (see README.md for why each
exists).  One process, one thread: numpy/BLAS thread counts are pinned to 1
and the next input is processed only after the previous one returns.  The
seed picks the inputs; the package only sees the generated inputs.

With ``--trace 0`` the last stdout line is a JSON object with every
end-to-end metric; with ``--trace 1`` it holds every per-layer metric
(``tracing.py``), and the spans are written to ``perfbench/out/``.  Lines
before it give the machine facts and each metric by name, value and unit.
Every output is checked; a wrong, mismatched or raising item counts as
failed, and ``correct`` is false if any item failed.

``--setup-rep`` and ``--baseline`` are internal: the run starts itself with
them to repeat the set-up in fresh processes and to time an untraced loop
next to a traced one.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOADS = ("verify", "report", "traces", "prime-dim")
# set-up repetitions, each in a fresh process (import included); setup_s is
# the fastest of them, see README.md
SETUP_REPS = 6
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def loadavg():
    with open("/proc/loadavg") as fh:
        return float(fh.read().split()[0])


def percentile(values, pct):
    """Linear interpolation between closest ranks (numpy's default)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def import_package():
    """Import weilsf from this checkout's src/ only; seconds taken."""
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import weilsf
    if Path(weilsf.__file__).resolve().parent.parent != SRC:
        raise ImportError("weilsf imported from %s, not %s" % (weilsf.__file__, SRC))
    return time.perf_counter() - start


class Workload:
    """Set-up and timed units of one workload for one seed.

    ``prepare`` is one set-up repetition: it turns the seeded labels into
    validated polynomials (``parse_label`` / ``validate``, what ``weilsf
    classify --file`` pays) and makes one warm-up call on an input that is
    never timed.  It returns the units of the closed loop, each a list of
    (name, polynomial, expected output); the loop stops between units.
    """

    def __init__(self, name, seed):
        import workloads as wl
        self.wl = wl
        self.name = name
        rows = wl.load_corpus()
        if name == "traces":
            self.warm, self.timed = wl.draw_traces(seed, rows, SETUP_REPS)
        else:
            self.warm, timed = wl.draw_corpus(name, seed, rows, SETUP_REPS)
            self.timed = [[row] for row in timed]
        if name == "prime-dim":
            self.expected = wl.load_prime_dim()
            self.inputs = wl.draw_prime_dim(seed)

    def prepare(self, rep):
        wl, W = self.wl, self.wl.W
        warm = W.parse_label(self.warm[rep]["label"])
        if self.name == "prime-dim":
            units = [[(name, W.validate(coeffs, q), self.expected[name])
                      for name, q, coeffs in self.inputs]]
            W.classify(warm)
            return units
        units = [[(row["label"], W.parse_label(row["label"]), row) for row in unit]
                 for unit in self.timed]
        if self.name == "traces":
            W.histogram(warm, wl.WARMUP_SAMPLES, wl.WARMUP_BUCKETS)
            W.moment_report(warm, wl.WARMUP_SAMPLES, wl.MOMENT_ORDER)
        else:
            self.call(warm, self.warm[rep])
        return units

    def call(self, P, expected):
        run = {"verify": self.wl.run_verify, "report": self.wl.run_report,
               "traces": self.wl.run_traces, "prime-dim": self.wl.run_prime_dim}
        return run[self.name](P, expected)


def self_command(args, *extra):
    return [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), *extra]


def child_values(cmd):
    """Run this script with `cmd`; the ``name value`` lines of its stdout."""
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise RuntimeError("%s failed (exit %d): %s"
                           % (" ".join(cmd[2:]), proc.returncode, proc.stderr[-2000:]))
    out = {}
    for line in proc.stdout.splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[0] in ("setup_s", "timed_s", "items"):
            out[parts[0]] = float(parts[1])
    return out


def setup_once(args, rep):
    """Import the package, draw the inputs and make set-up repetition `rep`.

    Returns (workload, units, seconds of import plus set-up).
    """
    import_s = import_package()
    workload = Workload(args.workload, args.seed)
    start = time.perf_counter()
    units = workload.prepare(rep)
    return workload, units, import_s + time.perf_counter() - start


def timed_loop(workload, units, seconds, limit, tracer=None):
    """Closed loop over units until `seconds` pass (or `limit` items ran).

    Returns (wall seconds, [(name, seconds, failure or None)]).
    """
    done = []
    start = time.perf_counter()
    for unit in units:
        if limit is None and time.perf_counter() - start >= seconds:
            break
        if limit is not None and len(done) >= limit:
            break
        for name, P, expected in unit:
            if tracer is not None:
                tracer.label = name
            t0 = time.perf_counter()
            try:
                reason = workload.call(P, expected)
            except Exception as exc:  # a raising input is a failed item
                reason = "raised %s: %s" % (type(exc).__name__, exc)
            done.append((name, time.perf_counter() - t0, reason))
    return time.perf_counter() - start, done


def machine_facts():
    import mpmath
    import numpy
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "mpmath_backend": mpmath.libmp.BACKEND, "numpy": numpy.__version__,
            "loadavg_1m_start": loadavg()}


def emit(name, value, unit):
    print("metric %-40s %.6g %s" % (name, value, unit))


def end_to_end(workload, setup_times, wall, done):
    """(result metrics, printed-only metrics); see README.md."""
    wl = workload.wl
    n = len(done)
    lat_ms = [dt * 1000.0 for _, dt, _ in done]
    failed = sum(1 for *_, reason in done if reason is not None)
    result = {
        "setup_s": (min(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    printed = {
        "polys_per_s": (n / wall, "1/s"),
        "poly_p50_ms": (percentile(lat_ms, 50), "ms"),
        "poly_p95_ms": (percentile(lat_ms, 95), "ms"),
        "failed_frac": (failed / n, "frac"),
    }
    if workload.name == "traces":
        printed["samples_per_s"] = (n * (wl.TRACE_SAMPLES + wl.MOMENT_SAMPLES) / wall, "1/s")
    return result, printed


def per_layer(tracer, n_items, overhead):
    totals = tracer.totals()
    out = {}
    for fn, stat, _ in tracing.PER_LAYER:
        calls, self_s, timed_calls = totals[fn]
        value = {"calls": calls, "self_s": self_s,
                 "calls_per_poly": timed_calls / n_items}[stat]
        out["%s.%s" % (fn, stat)] = (value, tracing.UNITS[stat])
    out[tracing.OVERHEAD_METRIC] = (overhead, "frac")
    return out, totals


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-rep", type=int, default=None,
                    help="internal: make set-up repetition N only")
    ap.add_argument("--baseline", action="store_true",
                    help="internal: one set-up, then the untraced loop")
    ap.add_argument("--limit", type=int, default=None,
                    help="internal: run exactly this many timed items")
    args = ap.parse_args(argv)

    for var in THREAD_VARS:
        os.environ[var] = "1"
    try:
        if args.setup_rep is not None:
            print("setup_s %.9f" % setup_once(args, args.setup_rep)[2])
            return 0
        if args.trace:
            import_package()
            workload = Workload(args.workload, args.seed)
            tracer = tracing.Tracer()
            tracer.install()         # one traced set-up: validate calls
            units = workload.prepare(0)
        else:
            tracer = None
            workload, units, own_s = setup_once(args, 0)
    except ImportError as exc:
        print("error: cannot import weilsf from %s: %s" % (SRC, exc), file=sys.stderr)
        return 2
    facts = machine_facts()
    facts.update({"workload": args.workload, "seed": args.seed, "seconds": args.seconds})

    if tracer is None and not args.baseline:
        setup_times = [own_s] + [
            child_values(self_command(args, "--setup-rep", str(rep)))["setup_s"]
            for rep in range(1, SETUP_REPS)]
        print("setup_reps_s %s" % " ".join("%.6f" % t for t in setup_times))

    limit = args.limit
    if tracer is not None:
        # untraced loops over the same items just before and after the traced
        # one; their mean cancels a steady drift of the machine's speed
        before = child_values(self_command(args, "--baseline"))
        limit = int(before["items"])
    wall, done = timed_loop(workload, units, args.seconds, limit, tracer)
    if tracer is not None:
        tracer.uninstall()
        after = child_values(self_command(args, "--baseline", "--limit", str(limit)))
        untraced = (before["timed_s"] + after["timed_s"]) / 2.0
    print("timed_s %.9f" % wall)
    print("items %d" % len(done))
    if args.baseline:
        return 0

    facts["loadavg_1m_end"] = loadavg()
    print("machine %s" % json.dumps(facts, sort_keys=True))

    for name, _, reason in done:
        if reason is not None:
            print("FAILED %s: %s" % (name, reason), file=sys.stderr)
    failed = sum(1 for *_, reason in done if reason is not None)
    if tracer is None:
        metrics, printed = end_to_end(workload, setup_times, wall, done)
        for name, (value, unit) in {**metrics, **printed}.items():
            emit(name, value, unit)
    else:
        print("untraced_s %.9f %.9f" % (before["timed_s"], after["timed_s"]))
        metrics, totals = per_layer(tracer, len(done), wall / untraced - 1.0)
        for name, (value, unit) in metrics.items():
            emit(name, value, unit)
        for name in sorted(totals):
            print("calls %-40s %d" % (name, totals[name][0]))
        for name in tracing.expected_calls(args.workload):
            if totals[name][0] == 0:
                print("ZERO CALLS: traced %s recorded no call on workload %s "
                      "(bindings: %s)" % (name, args.workload,
                                          ", ".join(tracer.bindings[name]) or "none"),
                      file=sys.stderr)
        tracer.write(HERE / "out" / ("spans-%s-%d.jsonl" % (args.workload, args.seed)), facts)

    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(done),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

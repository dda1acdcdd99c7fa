"""Per-layer tracing by wrapping the package's public functions.

``Tracer.install`` replaces each function in ``TARGETS`` by a timing wrapper
at every binding of it in the loaded ``weilsf`` modules (``roots``, for
example, is bound in ``weilpoly``, ``anglerank``, ``distribution`` and the
package namespace), so a call is recorded whichever module makes it.  Spans
are kept in memory, keyed by the label of the input being processed, and
written out at the end.  The self time of a span is its duration minus the
durations of the spans it directly contains.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import time

# (module, function): every layer the per-layer metrics read
TARGETS = [
    ("weilpoly", "validate"),
    ("weilpoly", "roots"),
    ("polyarith", "factor"),
    ("polyarith", "base_change"),
    ("anglerank", "lll_reduce"),
    ("anglerank", "saturate_lattice"),
    ("anglerank", "smith_normal_form"),
    ("anglerank", "angle_rank_numeric"),
    ("classify", "sf_of_product"),
    ("classify", "geometric_decomposition"),
    ("classify", "classify"),
    ("distribution", "histogram"),
    ("distribution", "empirical_moments"),
    ("distribution", "exact_moments"),
]

# per-layer metrics: (function, statistic) -> the workloads on which the
# function must record calls, and the end-to-end metric it should move
# (see README.md for the predictions)
PER_LAYER = [
    ("anglerank.lll_reduce", "calls", ("verify", "prime-dim")),
    ("anglerank.lll_reduce", "self_s", ("verify", "prime-dim")),
    ("anglerank.angle_rank_numeric", "self_s", ("verify",)),
    ("anglerank.smith_normal_form", "self_s", ("verify",)),
    ("anglerank.saturate_lattice", "self_s", ("verify",)),
    ("weilpoly.roots", "calls", ("verify", "traces")),
    ("weilpoly.roots", "self_s", ("verify", "traces")),
    ("weilpoly.roots", "calls_per_poly", ("verify", "traces")),
    ("polyarith.factor", "calls", ("verify", "report", "prime-dim")),
    ("polyarith.factor", "self_s", ("verify", "report", "prime-dim")),
    ("polyarith.factor", "calls_per_poly", ("verify", "report", "prime-dim")),
    ("polyarith.base_change", "calls", ("report",)),
    ("classify.classify", "self_s", ("report",)),
    ("classify.sf_of_product", "self_s", ("report",)),
    ("classify.geometric_decomposition", "self_s", ("report",)),
    ("distribution.histogram", "self_s", ("traces",)),
    ("distribution.empirical_moments", "self_s", ("traces",)),
    ("distribution.exact_moments", "self_s", ("traces",)),
    ("weilpoly.validate", "calls", ("verify", "report")),
    ("weilpoly.validate", "self_s", ("verify", "report")),
]
UNITS = {"calls": "count", "self_s": "s", "calls_per_poly": "count/poly"}
OVERHEAD_METRIC = "trace.overhead_frac"
SETUP_LABEL = "<setup>"


def expected_calls(workload):
    """Functions that must record at least one call on this workload."""
    return sorted({fn for fn, _, wls in PER_LAYER if workload in wls})


class Tracer:
    def __init__(self):
        self.label = SETUP_LABEL
        self.spans = []          # (id, parent id, label, name, start, end, self)
        self.bindings = {}       # name -> ["module.attr", ...]
        self._stack = []         # [span id, time covered by child spans]
        self._ids = itertools.count()
        self._restore = []

    def install(self):
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "weilsf" or key.startswith("weilsf."))]
        for mod, func in TARGETS:
            name = "%s.%s" % (mod, func)
            orig = getattr(sys.modules["weilsf." + mod], func)
            wrapper = self._wrap(name, orig)
            found = []
            for m in modules:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, attr, wrapper)
                        self._restore.append((m, attr, orig))
                        found.append("%s.%s" % (m.__name__, attr))
            self.bindings[name] = found

    def uninstall(self):
        for m, attr, orig in reversed(self._restore):
            setattr(m, attr, orig)
        self._restore.clear()

    def _wrap(self, name, orig):
        stack = self._stack
        spans = self.spans
        ids = self._ids

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1][0] if stack else None
            frame = [sid, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                return orig(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                spans.append((sid, parent, self.label, name, start, end,
                              end - start - frame[1]))

        return traced

    def totals(self):
        """name -> [calls, self seconds, calls made for timed inputs]."""
        out = {"%s.%s" % t: [0, 0.0, 0] for t in TARGETS}
        for _, _, label, name, _, _, self_s in self.spans:
            row = out[name]
            row[0] += 1
            row[1] += self_s
            if label != SETUP_LABEL:
                row[2] += 1
        return out

    def write(self, path, facts):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write(json.dumps({"facts": facts, "bindings": self.bindings}) + "\n")
            for sid, parent, label, name, start, end, self_s in sorted(self.spans):
                fh.write(json.dumps({"id": sid, "parent": parent, "label": label,
                                     "name": name, "start": start, "end": end,
                                     "self_s": self_s}) + "\n")

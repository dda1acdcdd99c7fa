"""Inputs, calls and output checks for the four benchmark workloads.

The calls go through the package's own entry points: ``weilsf.cli._verify_one``
(what ``weilsf verify`` runs per polynomial), ``report``, ``histogram``,
``moment_report`` and ``classify``.  The traced run (see ``tracing.py``)
wraps the layers at every module binding, so it sees the same calls.

The expected outputs live in ``data/``; ``make_expected.py`` writes them
from the package.  A workload item counts as failed when the call raises,
when the structural/numeric comparison reports a mismatch, or when the
output differs from the expected one.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from pathlib import Path

import numpy as np

import weilsf as W
from weilsf import cli

DATA = Path(__file__).resolve().parent / "data"
CORPUS_FILE = DATA / "corpus.tsv"
PRIME_DIM_FILE = DATA / "prime_dim.json"

# the acceptance corpora (tests/conftest.py CORPUS_RANGES)
CORPUS_RANGES = [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3)]

# frozen prime-dimension inputs of tests/test_classify.py: (name, q, coeffs)
PRIME_DIM_INPUTS = [
    ("g5-degree-g-split", 2, (1, 0, 0, 0, 0, -3, 0, 0, 0, 0, 32)),
    ("g5-sophie-germain", 3, (1, 6, 14, 7, -46, -133, -138, 63, 378, 486, 243)),
    ("g5-absolutely-simple", 23, (1, 21, 243, 1913, 11771, 60543, 270733,
                                  1011977, 2956581, 5876661, 6436343)),
    ("g7-partial", 2, (1, -1, 0, 0, 0, 0, 0, -3, 0, 0, 0, 0, 0, -64, 128)),
]

TRACE_SAMPLES = 16 ** 6          # paper-scale histogram
TRACE_BUCKETS = 4 ** 6
MOMENT_SAMPLES = 10 ** 6
MOMENT_ORDER = 8
# relative tolerance of empirical against exact moments at MOMENT_SAMPLES;
# the largest error over all 1128 non-supersingular corpus labels is 1.2e-3
# (3.3.ab_e_ac, k = 8)
MOMENT_RTOL = 0.01
# relative tolerance of the histogram's moments, taken at bucket midpoints,
# against exact moments.  Midpoints err by second order in the bucket width
# w = 4g/B (first order only at atoms), and 16**6 samples lie much closer to
# the exact moments than 10**6: the largest error over all non-supersingular
# corpus labels is 1.6e-4 (3.3.ad_ab_m, k = 2).  A bucket index off by one
# moves every sample by w, which fails on an odd moment (k = 1 or 3 on the
# labels tried).
HIST_RTOL = 1e-3
# an atom's empirical mass may exceed k/m by the samples of other cosets that
# pass within the package's 1e-9 match window: a coset whose trace touches
# the atom value quadratically adds about sqrt(1e-9) of its mass
ATOM_TOL = 1e-4
# warm-up sizes for the trace workload (set-up only, not timed)
WARMUP_SAMPLES = 1 << 16
WARMUP_BUCKETS = 64

CORPUS_COLUMNS = ("label", "g", "q", "provenance", "supersingular",
                  "s_delta", "s_m", "n_delta", "n_m", "status", "report_sha256",
                  "atoms")


# ---------------------------------------------------------------------------
# expected outputs


def canonical(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest(obj):
    return hashlib.sha256(canonical(obj).encode()).hexdigest()


def format_atoms(atoms, m):
    """``value:k;...`` for atoms of mass about k/m; ``none`` if there are none."""
    return ";".join("%.9f:%d" % (v, round(frac * m)) for v, frac in atoms) or "none"


def parse_atoms(text):
    if text == "none":
        return []
    return [(float(v), int(k)) for v, k in
            (item.split(":") for item in text.split(";"))]


def load_corpus():
    """Expected rows of every corpus label, in corpus order."""
    rows = []
    with open(CORPUS_FILE) as fh:
        header = fh.readline().rstrip("\n").split("\t")
        if tuple(header) != CORPUS_COLUMNS:
            raise ValueError("unexpected columns in %s" % CORPUS_FILE)
        for line in fh:
            f = dict(zip(header, line.rstrip("\n").split("\t")))
            for key in ("g", "q", "supersingular", "s_delta", "s_m",
                        "n_delta", "n_m"):
                f[key] = int(f[key])
            rows.append(f)
    return rows


def load_prime_dim():
    with open(PRIME_DIM_FILE) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# seeded inputs; no input appears twice in one run


def _rng(workload, seed):
    return random.Random("%s:%d" % (workload, seed))


def draw_corpus(workload, seed, rows, warmups):
    """Seeded order of the whole corpus, split into warm-up and timed rows.

    Per-input cost depends mostly on the corpus (g, q) and on the decision
    node that classifies the input (oracle nodes run LLL, some nodes search
    base changes).  The rows are grouped by (g, q, provenance), shuffled
    within each group, and interleaved so that every prefix holds each group
    in its corpus proportion: which polynomials a run sees depends on the
    seed, the mix it sees does not.  Warm-up rows come from the cheapest
    corpus, g = 2 over F_2, so that set-up time does not depend on the seed.
    """
    rng = _rng(workload, seed)
    strata = {}
    for row in rows:
        strata.setdefault((row["g"], row["q"], row["provenance"]), []).append(row)
    groups = [strata[key] for key in sorted(strata)]
    for group in groups:
        rng.shuffle(group)
    keyed = sorted(((i + 0.5) / len(group), k, i)
                   for k, group in enumerate(groups) for i in range(len(group)))
    order = [groups[k][i] for _, k, i in keyed]
    cheapest = min(CORPUS_RANGES)
    warm = [row for row in order if (row["g"], row["q"]) == cheapest][:warmups]
    return warm, [row for row in order if row not in warm]


def draw_traces(seed, rows, warmups):
    """Rounds of one g = 2 and two g = 3 non-supersingular labels.

    Every run holds the same number of labels of each g, so samples_per_s
    does not depend on the g mix.  Two g = 3 labels per round put the median
    label inside the g = 3 group (about 1.9 s here) rather than between the
    two groups (g = 2 takes about 1.5 s).  Warm-up labels are further g = 2
    labels.
    """
    rng = _rng("traces", seed)
    by_g = {2: [], 3: []}
    for row in rows:
        if not row["supersingular"]:
            by_g[row["g"]].append(row)
    for group in by_g.values():
        rng.shuffle(group)
    g2, g3 = by_g[2], by_g[3]
    warm = g2[:warmups]
    g2 = g2[warmups:]
    rounds = [[g2[i], g3[2 * i], g3[2 * i + 1]]
              for i in range(min(len(g2), len(g3) // 2))]
    return warm, rounds


def prime_dim_inputs():
    """The frozen inputs and their quadratic twists P(-T).

    A twist has the same Newton polygon, degree and lattice dimension, so it
    doubles the work of a run without repeating an input.
    """
    out = []
    for name, q, coeffs in PRIME_DIM_INPUTS:
        out.append((name, q, coeffs))
        out.append((name + "-twist", q,
                    tuple(c if i % 2 == 0 else -c for i, c in enumerate(coeffs))))
    return out


def draw_prime_dim(seed):
    """Every prime-dimension input once, in a seeded order."""
    inputs = prime_dim_inputs()
    return _rng("prime-dim", seed).sample(inputs, len(inputs))


# ---------------------------------------------------------------------------
# one call per workload item; each returns None when the output is right and
# a short reason otherwise


def run_verify(P, row):
    got = cli._verify_one(P, W.DEFAULT_PRECISION)
    if got["status"] != row["status"]:
        return "verify mismatch %r" % (got,)
    if (list(got["structural"]) != [row["s_delta"], row["s_m"]]
            or list(got["numeric"]) != [row["n_delta"], row["n_m"]]):
        return "(delta, m) differs from expected: %r" % (got,)
    return None


def run_report(P, row):
    rep = W.report(P)
    if digest(rep) != row["report_sha256"]:
        return "report JSON differs from expected: %s" % canonical(rep)
    return None


def run_traces(P, row):
    """Paper-scale histogram and moments, checked by invariants."""
    n, b = TRACE_SAMPLES, TRACE_BUCKETS
    h = W.histogram(P, n, b)
    mr = W.moment_report(P, MOMENT_SAMPLES, MOMENT_ORDER)
    if (h.g, h.sample_count, h.bucket_count) != (row["g"], n, b):
        return "histogram shape %r" % ((h.g, h.sample_count, h.bucket_count),)
    if len(h.counts) != b or sum(h.counts) != n or min(h.counts) < 0:
        return "histogram counts do not sum to N"
    reason = check_atoms(h.atoms, parse_atoms(row["atoms"]), row["s_m"])
    if reason is not None:
        return reason
    if tuple(mr.orders) != tuple(range(1, MOMENT_ORDER + 1)):
        return "moment orders %r" % (mr.orders,)
    for k, emp, exa in zip(mr.orders, mr.empirical, mr.exact):
        if abs(emp - exa) > MOMENT_RTOL * moment_scale(mr.exact, k):
            return "moment %d: empirical %r vs exact %r" % (k, emp, exa)
    for k, got in histogram_moments(h):
        exa = mr.exact[k - 1]
        if abs(got - exa) > HIST_RTOL * moment_scale(mr.exact, k):
            return "histogram moment %d: %r vs exact %r" % (k, got, exa)
    return None


def check_atoms(atoms, expected, m):
    """Same atom values as expected, each of mass k/m for its coset count k."""
    if len(atoms) != len(expected):
        return "atoms %r, expected %r" % (atoms, expected)
    for (value, frac), (want, k) in zip(atoms, expected):
        # each coset on which the trace is constant carries mass 1/m
        if abs(value - want) > 1e-9 or abs(frac - k / m) > ATOM_TOL:
            return "atom %r with mass %r, expected %r with mass %d/%d" % (
                value, frac, want, k, m)
    return None


def histogram_moments(h):
    """E x^k for k = 1..MOMENT_ORDER from the bucket counts at bucket midpoints."""
    w = h.bucket_width
    mid = -2.0 * h.g + (np.arange(h.bucket_count) + 0.5) * w
    p = np.asarray(h.counts, dtype=np.float64) / h.sample_count
    return [(k, float(np.dot(p, mid ** k))) for k in range(1, MOMENT_ORDER + 1)]


def moment_scale(exact, k):
    """Size of x^k: |E x^k| for even k, sqrt(E x^(k-1) E x^(k+1)) for odd k.

    Odd moments are often exactly 0, so a purely relative test is undefined.
    """
    ex = (1.0,) + tuple(exact)
    if k % 2 == 0:
        return abs(ex[k])
    return math.sqrt(abs(ex[k - 1]) * abs(ex[k + 1]))


def run_prime_dim(P, expected):
    out = W.classify(P).to_json()
    if out != expected:
        return "classify output %r differs from %r" % (out, expected)
    return None

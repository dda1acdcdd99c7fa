"""Deterministic trace sequences, histograms and moment comparisons.

The normalized trace of the r-th Frobenius power is
x_r = sum_j 2 cos(2 pi r theta_j) in [-2g, 2g].  The sequence is evaluated
for r = 1..N with the angles frozen to 64-bit fixed point (theta ~ M/2^64),
so r*theta mod 1 is computed by exact wraparound of uint64 products; the
resulting angle error is below 2^-40 even at the full paper sampling scale,
far inside every tolerance used here.  No randomness anywhere: the sequence,
the bucketing and the summation order are all fixed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import mpmath as mp
import numpy as np

from ._intpoly import InvariantError
from .anglerank import angle_rank_numeric
from .classify import SerreFrobeniusGroup
from .newton import newton_polygon
from .polyarith import supersingular_torsion_order
from .weilpoly import DEFAULT_PRECISION, WeilError, roots

CHUNK = 1 << 20
ATOM_THRESHOLD = 0.01           # single values carrying > 1% of the mass
ATOM_MATCH_TOL = 1e-9
QUAD_NODES = 1 << 12            # trapezoid nodes per torus dimension

_TWO_PI_OVER_2_64 = 2.0 * math.pi / 2.0 ** 64


class PrecisionLoss(WeilError):
    pass


class EmbeddingMissing(WeilError):
    pass


def _fixed_point_angles(P, precision):
    rs = roots(P, precision)
    with mp.workprec(precision + 32):
        scale = mp.mpf(2) ** 64
        return [int(mp.nint(t * scale)) % (1 << 64) for t in rs.thetas]


def _check_precision(N, precision):
    eff = min(precision, 64)
    if N > 1 << (eff - 32):
        raise PrecisionLoss(
            "N = %d loses angle accuracy at precision %d" % (N, precision))


def _chunk_traces(ms, start, stop):
    """x_r for r in [start, stop) from fixed-point angles, float64."""
    r = np.arange(start, stop, dtype=np.uint64)
    x = np.zeros(len(r), dtype=np.float64)
    with np.errstate(over="ignore"):
        for m_j in ms:
            phases = r * np.uint64(m_j)
            x += 2.0 * np.cos(phases.astype(np.float64) * _TWO_PI_OVER_2_64)
    return x


def trace_sequence(P, N, precision=DEFAULT_PRECISION):
    """The vector (x_1, ..., x_N); deterministic for fixed (P, N, precision)."""
    if N < 1:
        raise WeilError("N must be positive")
    _check_precision(N, precision)
    ms = _fixed_point_angles(P, precision)
    out = np.empty(N, dtype=np.float64)
    for start in range(1, N + 1, CHUNK):
        stop = min(start + CHUNK, N + 1)
        out[start - 1:stop - 1] = _chunk_traces(ms, start, stop)
    return out


# ---------------------------------------------------------------------------
# histograms


@dataclass(frozen=True)
class TraceHistogram:
    g: int
    sample_count: int
    bucket_count: int
    counts: tuple            # length bucket_count, sums to sample_count
    atoms: tuple             # ((value, fraction), ...) masses above 1%

    @property
    def bucket_width(self):
        return 4.0 * self.g / self.bucket_count

    def bucket_edges(self):
        b, g = self.bucket_count, self.g
        return [(-2.0 * g + i * self.bucket_width,
                 -2.0 * g + (i + 1) * self.bucket_width) for i in range(b)]

    def to_json(self):
        return {"g": self.g, "sample_count": self.sample_count,
                "bucket_count": self.bucket_count, "counts": list(self.counts),
                "atoms": [{"value": v, "fraction": f} for v, f in self.atoms]}

    def to_csv(self):
        lines = ["bucket_left,bucket_right,count"]
        for (lo, hi), c in zip(self.bucket_edges(), self.counts):
            lines.append("%.12g,%.12g,%d" % (lo, hi, c))
        return "\n".join(lines) + "\n"


def _bucket_chunk(x, g, B, counts):
    idx = np.floor((x + 2.0 * g) * (B / (4.0 * g))).astype(np.int64)
    np.clip(idx, 0, B - 1, out=idx)
    counts += np.bincount(idx, minlength=B)


def _atom_candidates(P, lattice, precision):
    """Values where a whole component of the group maps to one point.

    An atom of the pushforward arises exactly from a coset on which the trace
    map is constant; each such coset contributes mass 1/m.
    """
    if lattice.delta == lattice.g and lattice.torsion_order == 1:
        return []
    mat, phases = lattice.embedding()
    g = lattice.g
    delta = lattice.delta
    out = {}
    grid = np.linspace(0.0, 1.0, 33)[:-1]
    mesh = np.meshgrid(*([grid] * delta)) if delta else []
    for f in phases:
        x = np.zeros_like(mesh[0]) if delta else np.zeros(1)
        for j in range(g):
            ang = 2.0 * math.pi * float(f[j])
            if delta:
                arg = np.full_like(mesh[0], ang)
                for l in range(delta):
                    arg = arg + 2.0 * math.pi * mat[j][l] * mesh[l]
            else:
                arg = np.array([ang])
            x = x + 2.0 * np.cos(arg)
        if float(np.ptp(x)) < 1e-9:
            v = round(float(x.flat[0]), 9)
            out[v] = out.get(v, 0) + 1
    m = lattice.torsion_order
    return [(v, cnt / m) for v, cnt in sorted(out.items())]


def histogram(P, N, B, precision=DEFAULT_PRECISION):
    """Bucketed counts of (x_r)_{r<=N} over [-2g, 2g], plus detected atoms.

    Buckets are half-open with the last one closed.  For supersingular
    inputs the sequence is periodic and the counts are assembled exactly
    from one period; atoms are then exact value classes.  Otherwise atoms
    are counted empirically against the coset values predicted by the
    relation lattice.
    """
    if N < 1 or B < 1:
        raise WeilError("N and B must be positive")
    g = P.g
    if newton_polygon(P).is_supersingular():
        m = supersingular_torsion_order(P)
        period = trace_sequence(P, m, precision)
        counts = np.zeros(B, dtype=np.int64)
        atom_counter = {}
        for j, val in enumerate(period, start=1):
            reps = (N - j) // m + 1 if j <= N else 0
            idx = min(int(math.floor((val + 2.0 * g) * (B / (4.0 * g)))), B - 1)
            idx = max(idx, 0)
            counts[idx] += reps
            key = round(float(val), 9)
            atom_counter[key] = atom_counter.get(key, 0) + reps
        atoms = tuple((v, c / N) for v, c in sorted(atom_counter.items())
                      if c / N > ATOM_THRESHOLD)
        return TraceHistogram(g=g, sample_count=N, bucket_count=B,
                              counts=tuple(int(c) for c in counts), atoms=atoms)

    _check_precision(N, precision)
    lattice = angle_rank_numeric(P, precision)
    cands = _atom_candidates(P, lattice, precision)
    ms = _fixed_point_angles(P, precision)
    counts = np.zeros(B, dtype=np.int64)
    atom_counts = [0] * len(cands)
    for start in range(1, N + 1, CHUNK):
        stop = min(start + CHUNK, N + 1)
        x = _chunk_traces(ms, start, stop)
        _bucket_chunk(x, g, B, counts)
        for i, (v, _) in enumerate(cands):
            atom_counts[i] += int(np.count_nonzero(np.abs(x - v) < ATOM_MATCH_TOL))
    atoms = tuple((v, c / N) for (v, _), c in zip(cands, atom_counts)
                  if c / N > ATOM_THRESHOLD)
    return TraceHistogram(g=g, sample_count=N, bucket_count=B,
                          counts=tuple(int(c) for c in counts), atoms=atoms)


# ---------------------------------------------------------------------------
# moments


def empirical_moments(xs, K):
    """Means of x^k for k = 1..K with compensated summation.

    Partial sums are accumulated per fixed-size chunk and merged with
    math.fsum, so results are bit-stable regardless of the total length.
    """
    xs = np.asarray(xs, dtype=np.float64)
    n = len(xs)
    if n == 0:
        raise WeilError("empty sequence")
    partials = [[] for _ in range(K)]
    for start in range(0, n, CHUNK):
        chunk = xs[start:start + CHUNK]
        p = np.ones_like(chunk)
        for k in range(K):
            p = p * chunk
            partials[k].append(float(np.sum(p)))
    return [math.fsum(parts) / n for parts in partials]


def _single_cosine_moments(K):
    """E[(2 cos theta)^k] for Haar theta: central binomials at even k."""
    return [math.comb(k, k // 2) if k % 2 == 0 else 0 for k in range(K + 1)]


def _full_torus_moments(g, K):
    """Moments of a sum of g independent 2-cosines, exact integers."""
    base = _single_cosine_moments(K)
    total = [1] + [0] * K   # moments of the empty sum
    for _ in range(g):
        new = [0] * (K + 1)
        for k in range(K + 1):
            new[k] = sum(math.comb(k, i) * base[i] * total[k - i]
                         for i in range(k + 1))
        total = new
    return total


def _auto_nodes(mat, K, delta):
    """Nodes per dimension: the trapezoid rule on n points integrates the
    circle exactly for frequencies strictly below n, so n only has to beat
    the largest frequency K * sum_j |M_jl| appearing in x^K."""
    needed = 1
    for l in range(delta):
        needed = max(needed, K * sum(abs(row[l]) for row in mat) + 1)
    n = QUAD_NODES if delta == 1 else 512
    while n < needed:
        n *= 2
    return n


def exact_moments(group, K):
    """E[x^k], k = 1..K, for the Haar pushforward of the classified group.

    delta = g needs no embedding (the full torus moments are a closed-form
    convolution of central binomials); otherwise the relation lattice must
    be attached to the group.  Quadrature uses the trapezoid rule, exact for
    the trigonometric polynomials integrated here, averaged over the m
    component cosets.
    """
    g, delta, m = group.g, group.delta, group.m
    if delta == g:
        full = _full_torus_moments(g, K)
        return [float(v) for v in full[1:]]
    lattice = group.embedding
    if lattice is None:
        raise EmbeddingMissing("delta < g needs the relation lattice")
    mat, phases = lattice.embedding()
    if len(phases) != m:
        raise InvariantError("%d phases for torsion order %d" % (len(phases), m))
    if delta == 0:
        vals = [math.fsum(2.0 * math.cos(2.0 * math.pi * float(fj)) for fj in f)
                for f in phases]
        return [math.fsum(v ** k for v in vals) / m for k in range(1, K + 1)]
    n = _auto_nodes(mat, K, delta)
    grid = np.arange(n, dtype=np.float64) / n
    mesh = np.meshgrid(*([grid] * delta), indexing="ij")
    acc = [0.0] * K
    for f in phases:
        x = np.zeros_like(mesh[0])
        for j in range(g):
            arg = np.full_like(mesh[0], 2.0 * math.pi * float(f[j]))
            for l in range(delta):
                arg = arg + (2.0 * math.pi * mat[j][l]) * mesh[l]
            x = x + 2.0 * np.cos(arg)
        p = np.ones_like(x)
        for k in range(K):
            p = p * x
            acc[k] += float(np.mean(p))
    return [a / m for a in acc]


@dataclass(frozen=True)
class MomentReport:
    orders: tuple
    empirical: tuple
    exact: tuple
    abs_error: tuple

    def to_json(self):
        return [{"k": k, "empirical": e, "exact": x, "abs_error": a}
                for k, e, x, a in zip(self.orders, self.empirical,
                                      self.exact, self.abs_error)]


def moment_report(P, N, K, precision=DEFAULT_PRECISION, group=None):
    """Empirical moments of (x_r)_{r<=N} against the exact group moments."""
    from .classify import classify
    if group is None:
        group = classify(P, precision)
    if not isinstance(group, SerreFrobeniusGroup):
        raise WeilError("moment comparison needs a full classification")
    if group.embedding is None and group.delta < group.g:
        group = replace(group, embedding=angle_rank_numeric(P, precision))
    xs = trace_sequence(P, N, precision)
    emp = empirical_moments(xs, K)
    exa = exact_moments(group, K)
    return MomentReport(orders=tuple(range(1, K + 1)),
                        empirical=tuple(emp), exact=tuple(exa),
                        abs_error=tuple(abs(e - x) for e, x in zip(emp, exa)))

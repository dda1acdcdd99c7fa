"""Deterministic trace sequences, histograms and moment comparisons.

The normalized trace of the r-th Frobenius power is
x_r = sum_j 2 cos(2 pi r theta_j) in [-2g, 2g].  The sequence is evaluated
for r = 1..N with the angles frozen to 64-bit fixed point (theta ~ M/2^64),
so r*theta mod 1 is computed by exact wraparound of uint64 products; the
resulting angle error is below 2^-40 even at the full paper sampling scale,
far inside every tolerance used here.  No randomness anywhere: the sequence,
the bucketing and the summation order are all fixed.

Memory: the trace kernel works BLOCK samples at a time on buffers it
allocates once per call.  `histogram` and `moment_report` stream BLOCK-sized
slices, so they hold one BLOCK of samples (`moment_report` also one of
powers, summed per BLOCK and merged with math.fsum) whatever N is;
`trace_sequence` alone builds all N samples.  `exact_moments` holds no
grid: it counts walks of ceil(K/2) steps on Z^g modulo the relation lattice
in a dict of exact integers.  The atoms are decided exactly as well, from the
same Smith coordinates of the relation lattice, by division by a cyclotomic
polynomial; only their values are floats.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from ._intpoly import InvariantError, Record, cyclotomic, poly_div_if_exact
from .anglerank import angle_rank_numeric, smith_normal_form
from .classify import SerreFrobeniusGroup
from .newton import newton_polygon
from .polyarith import supersingular_torsion_order
from .weilpoly import WeilError, roots

BLOCK = 1 << 16                 # samples per kernel pass and partial sum
ATOM_THRESHOLD = 0.01           # single values carrying > 1% of the mass
ATOM_MATCH_TOL = 1e-9

_TWO_PI_OVER_2_64 = 2.0 * math.pi / 2.0 ** 64


class PrecisionLoss(WeilError):
    pass


def _fixed_point_angles(thetas, N):
    """The angles as 64-bit fixed point, once N <= 2^32 samples are known to
    keep their accuracy in it (the angles are solved at 256 bits or more)."""
    if N < 1:
        raise WeilError("N must be positive")
    if N > 1 << 32:
        raise PrecisionLoss("N = %d loses angle accuracy in 64-bit fixed point" % N)
    return [round(t * (1 << 64)) % (1 << 64) for t in thetas]


def _trace_chunks(ms, N):
    """x_1, ..., x_N as consecutive slices of one reused buffer of at most
    BLOCK samples, each overwritten by the next.  Every x_r sees the same
    float operations in the same order whatever the block size."""
    n = min(BLOCK, N)
    r = np.arange(1, n + 1, dtype=np.uint64)
    ph = np.empty(n, dtype=np.uint64)
    w = np.empty(n, dtype=np.float64)
    buf = np.empty(n, dtype=np.float64)
    for lo in range(0, N, BLOCK):
        k = min(BLOCK, N - lo)
        x, rb, pb, wb = buf[:k], r[:k], ph[:k], w[:k]
        x.fill(0.0)
        with np.errstate(over="ignore"):
            for m_j in ms:
                np.multiply(rb, np.uint64(m_j), out=pb)
                np.multiply(pb, _TWO_PI_OVER_2_64, out=wb)
                np.cos(wb, out=wb)
                wb *= 2.0
                x += wb
            r += np.uint64(BLOCK)
        yield x


def trace_sequence(P, N):
    """The vector (x_1, ..., x_N); deterministic for fixed (P, N)."""
    ms = _fixed_point_angles(roots(P).thetas, N)
    out = np.empty(N, dtype=np.float64)
    for lo, x in zip(range(0, N, BLOCK), _trace_chunks(ms, N)):
        out[lo:lo + len(x)] = x
    return out


# ---------------------------------------------------------------------------
# histograms


class TraceHistogram(Record):
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


def _bucket_index(x, g, B):
    """Bucket of each sample as int64, clipped to [0, B); overwrites x."""
    np.add(x, 2.0 * g, out=x)
    x *= B / (4.0 * g)
    np.floor(x, out=x)
    idx = x.astype(np.int64)
    np.clip(idx, 0, B - 1, out=idx)
    return idx


def _smith_coordinates(basis, g, delta, m):
    """(d, V) = smith_normal_form(basis, g) for the relation lattice of
    U(1)^delta x C_m, once g - len(d) = delta and d_r = m are checked."""
    divisors, v = smith_normal_form(basis, g)
    if g - len(divisors) != delta or (divisors[-1] if divisors else 1) != m:
        raise InvariantError("divisors %r for delta %d, torsion order %d"
                             % (divisors, delta, m))
    return divisors, v


def _vanishes(exponents, m):
    """Whether the sum of exp(2 pi i a / m) over the integers a is 0: exactly
    when Phi_m divides sum T^(a mod m)."""
    c = [0] * m
    for a in exponents:
        c[-1 - a % m] += 1
    return poly_div_if_exact(tuple(c), cyclotomic(m)) is not None


def _atom_candidates(lattice):
    """Values where a whole component of the group maps to one point, with
    mass 1/m per component.

    With (d, V) = smith_normal_form(basis, g) and M = V[:, r:], the group is
    the union over k in Z/d_1 x ... x Z/d_r of the cosets theta = f + M t,
    f_j = sum_i k_i V[j][i] / d_i.  On a coset, x = sum_j 2 cos(2 pi theta_j)
    has at each frequency +-w != 0 the coefficient sum_(M_j = w) e(f_j) +
    sum_(M_j = -w) e(-f_j), a sum of m-th roots of unity, so x is constant
    there exactly when every such sum vanishes.  The value is summed in
    floats, left to right from 0.0, from the unreduced phases f_j: reducing
    them mod 1 can turn a value of 0.0 into -0.0.
    """
    g, m = lattice.g, lattice.torsion_order
    divisors, v = _smith_coordinates(lattice.basis, g, lattice.delta, m)
    if math.prod(divisors) != m:
        raise InvariantError("%d cosets for torsion order %d"
                             % (math.prod(divisors), m))
    r = len(divisors)
    classes = {}            # w up to sign -> [(j, sign of M_j against w)]
    for j, row in enumerate(v):
        w, neg = tuple(row[r:]), tuple(-x for x in row[r:])
        if any(w):
            classes.setdefault(max(w, neg), []).append((j, 1 if w > neg else -1))
    # e_j = m f_j as integers
    scales = [m // d for d in divisors]
    out = {}
    for k in itertools.product(*map(range, divisors)):
        e = [sum(a * b * s for a, b, s in zip(k, row, scales)) for row in v]
        if all(_vanishes([s * e[j] for j, s in cls], m) for cls in classes.values()):
            x = 0.0
            for ej in e:
                x += 2.0 * math.cos(2.0 * math.pi * (ej / m))
            val = round(x, 9)
            out[val] = out.get(val, 0) + 1
    return [(val, cnt / m) for val, cnt in sorted(out.items())]


def histogram(P, N, B):
    """Bucketed counts of (x_r)_{r<=N} over [-2g, 2g], plus detected atoms,
    for 1 <= B <= N buckets.

    Buckets are half-open with the last one closed.  For supersingular
    inputs the sequence is periodic and the counts are assembled exactly
    from one period; atoms are then exact value classes.  Otherwise the
    atom values are those of the cosets of the group on which the trace is
    constant, decided exactly by `_atom_candidates`, and their masses are
    counted empirically.
    """
    if N < 1 or B < 1:
        raise WeilError("N and B must be positive")
    if B > N:
        raise WeilError("B = %d buckets exceed the N = %d samples" % (B, N))
    g = P.g
    counts = np.zeros(B, dtype=np.int64)
    if newton_polygon(P).is_supersingular():
        m = supersingular_torsion_order(P.coeffs, P.q)
        period = trace_sequence(P, m)
        # x_j recurs at r = j, j + m, ...; (N - j) // m + 1 is 0 for j > N
        reps = (N - np.arange(1, m + 1, dtype=np.int64)) // m + 1
        atom_counter = {}
        for val, c in zip(period, reps.tolist()):
            key = round(float(val), 9)
            atom_counter[key] = atom_counter.get(key, 0) + c
        np.add.at(counts, _bucket_index(period, g, B), reps)
        atoms = tuple((v, c / N) for v, c in sorted(atom_counter.items())
                      if c / N > ATOM_THRESHOLD)
        return TraceHistogram(g=g, sample_count=N, bucket_count=B,
                              counts=tuple(int(c) for c in counts), atoms=atoms)

    lattice = angle_rank_numeric(P)
    ms = _fixed_point_angles(lattice.thetas, N)
    cands = _atom_candidates(lattice)
    atom_counts = [0] * len(cands)
    for x in _trace_chunks(ms, N):
        for i, (v, _) in enumerate(cands):
            atom_counts[i] += int(np.count_nonzero(np.abs(x - v) < ATOM_MATCH_TOL))
        counts += np.bincount(_bucket_index(x, g, B), minlength=B)
    atoms = tuple((v, c / N) for (v, _), c in zip(cands, atom_counts)
                  if c / N > ATOM_THRESHOLD)
    return TraceHistogram(g=g, sample_count=N, bucket_count=B,
                          counts=tuple(int(c) for c in counts), atoms=atoms)


# ---------------------------------------------------------------------------
# moments


def _mean_powers(blocks, n, K):
    """Means of x^k, k = 1..K, over the n samples given as blocks of at
    most BLOCK: one np.sum per block and power, merged with math.fsum."""
    partials = [[] for _ in range(K)]
    p = np.empty(min(n, BLOCK), dtype=np.float64)
    for block in blocks:
        q = p[:len(block)]
        q.fill(1.0)
        for parts in partials:
            np.multiply(q, block, out=q)
            parts.append(float(np.sum(q)))
    return [math.fsum(parts) / n for parts in partials]


def empirical_moments(xs, K):
    """Means of x^k for k = 1..K with compensated summation.

    Partial sums are accumulated per BLOCK and merged with math.fsum, as in
    `moment_report`, so both give the same bits for the same samples.
    """
    xs = np.asarray(xs, dtype=np.float64)
    n = len(xs)
    if n == 0:
        raise WeilError("empty sequence")
    return _mean_powers((xs[s:s + BLOCK] for s in range(0, n, BLOCK)), n, K)


def _walk_step(walks, steps, mods):
    """Walk counts one step further: each state moves by each step, with
    entry i reduced mod mods[i] (kept as an integer where mods[i] is 0)."""
    out = {}
    for s, c in walks.items():
        for t in steps:
            u = tuple((a + b) % d if d else a + b for a, b, d in zip(s, t, mods))
            out[u] = out.get(u, 0) + c
    return out


def exact_moments(group, K, lattice=None):
    """E[x^k], k = 1..K, for the Haar pushforward of the classified group,
    whose relation lattice `lattice` (from `angle_rank_numeric`) it needs
    when delta < g: without one, `_smith_coordinates` raises InvariantError.

    A character prod u_j^(c_j) is trivial on the group exactly when c lies
    in the relation lattice L, so by Haar orthogonality E[x^k] is the number
    of k-step walks on Z^g with steps +-e_j that end in L: an integer.  With
    (d, V) = smith_normal_form(basis, g), c is in L iff cV lies in
    d_1 Z + ... + d_r Z + 0, so a walk's state is cV with entry i reduced
    mod d_i.  The steps are symmetric, so W_b(-s) = W_b(s) for the counts
    W_b of b-step walks, and walks of ceil(K/2) steps give every moment:
    E[x^(a+b)] = sum_s W_a(s) W_b(s).  delta = g (L = 0) needs no lattice.
    """
    g, delta, m = group.g, group.delta, group.m
    divisors, v = _smith_coordinates(lattice.basis if lattice else (),
                                     g, delta, m)
    mods = divisors + [0] * delta
    # the step +-e_j moves the state by +-(row j of V)
    steps = [tuple(sign * x % d if d else sign * x for x, d in zip(row, mods))
             for row in v for sign in (1, -1)]
    walks, out = {(0,) * g: 1}, []
    for _ in range((K + 1) // 2):
        prev, walks = walks, _walk_step(walks, steps, mods)
        out.append(sum(c * prev.get(s, 0) for s, c in walks.items()))
        out.append(sum(c * c for c in walks.values()))
    return [float(c) for c in out[:K]]


class MomentReport(Record):
    orders: tuple
    empirical: tuple
    exact: tuple
    abs_error: tuple

    def to_json(self):
        return [{"k": k, "empirical": e, "exact": x, "abs_error": a}
                for k, e, x, a in zip(self.orders, self.empirical,
                                      self.exact, self.abs_error)]


def moment_report(P, N, K):
    """Empirical moments of (x_r)_{r<=N} against the exact group moments."""
    from .classify import classify
    if K < 1:
        raise WeilError("K must be positive")
    group = classify(P)
    if not isinstance(group, SerreFrobeniusGroup):
        raise WeilError("moment comparison needs a full classification")
    # the oracle runs only where the lattice is needed, and then its
    # angles serve the trace kernel too
    lattice = angle_rank_numeric(P) if group.delta < group.g else None
    ms = _fixed_point_angles((lattice or roots(P)).thetas, N)
    emp = _mean_powers(_trace_chunks(ms, N), N, K)
    exa = exact_moments(group, K, lattice)
    return MomentReport(orders=tuple(range(1, K + 1)),
                        empirical=tuple(emp), exact=tuple(exa),
                        abs_error=tuple(abs(e - x) for e, x in zip(emp, exa)))

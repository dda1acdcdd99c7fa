"""Deterministic trace sequences, histograms and moment comparisons.

The normalized trace of the r-th Frobenius power is
x_r = sum_j 2 cos(2 pi r theta_j) in [-2g, 2g].  The trace kernel evaluates
it for r <= N with the angles frozen to 64-bit fixed point (theta ~ M/2^64),
so r*theta mod 1 is computed by exact wraparound of uint64 products; the
resulting angle error is below 2^-40 even at the full paper sampling scale,
far inside every tolerance used here.  No randomness anywhere: the sequence,
the bucketing and the summation order are all fixed.

Memory: the kernel yields SLICE samples at a time from one buffer it
allocates once per call, beside its scratch (r, phases, cosines) of SLICE
entries each; `histogram` turns each slice into bucket indices in place,
and `trace_sequence` alone builds all N samples.  The atoms depend only on
r mod m, since u^m lies in the identity component of U(1)^delta x C_m:
`histogram` decides them once per residue, exactly, and counts and buckets
them by arithmetic; the kernel runs only at the other residues.
`exact_moments` walks on Z^g modulo the relation lattice, in the Smith
coordinates the oracle keeps with it, with exact integer counts, and
`moment_report` takes its means over r <= N from the same walk in closed
form, at a cost that grows with g and K but not N, as long as that costs
less than sampling; past that it samples.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from ._intpoly import InvariantError, Record, cyclotomic
from .anglerank import angle_rank_numeric
from .classify import SerreFrobeniusGroup, classify
from .newton import newton_polygon
from .polyarith import supersingular_torsion_order
from .weilpoly import WeilError, _cis, _integers, _pi, roots

# Samples per kernel sweep and bucketing, and per partial sum of the
# sampled moments.  The kernel's four arrays of a slice (r, phase,
# cosine, sum) take 32 * SLICE bytes, 256 KiB here, well inside a 2 MiB L2.
# A sweep of 2^11 ... 2^16 on a 2-vCPU Xeon kept the kernel time flat from
# 2^13 up and slower below it, where the g numpy calls per slice start to
# cost; 2^13 is the smallest width on the flat part, so it saves the most
# memory (BENCH_kernel.json).
SLICE = 1 << 13
ATOM_THRESHOLD = 0.01           # single values carrying > 1% of the mass
_COS_SUM_ERROR = 2              # units of 2^-64 in a non-integer atom value
# The closed form of `moment_report` takes 1.5-3.5 us per move (a walk
# state taking one step) and 0.5 KB per state; sampling takes 30-130 ns per
# sample, about (8 g + K) / 1536 of a move on the same host.  So it walks
# while its moves stay within N (8 g + K) / MOVE_COST, about the time
# sampling would take, and within MAX_MOVES (3 s, 20 MB), and samples past
# either (BENCH_closedform.json).
MOVE_COST = 1536
MAX_MOVES = 1 << 20

_TWO_PI_OVER_2_64 = 2.0 * math.pi / 2.0 ** 64


class PrecisionLoss(WeilError):
    pass


def _positive(name, *values):
    """values as ints; WeilError unless each is a positive integer."""
    values = _integers(values, WeilError, name)
    if min(values) < 1:
        raise WeilError("%s must be positive" % name)
    return values


def _check_samples(N):
    """N <= 2^32, past which the 64-bit fixed-point angles lose accuracy."""
    if N > 1 << 32:
        raise PrecisionLoss("N = %d loses angle accuracy in 64-bit fixed point" % N)


def _fixed_point_angles(thetas):
    return [round(t * (1 << 64)) % (1 << 64) for t in thetas]


def _trace_chunks(ms, N, j, m):
    """x_r for r = j, j + m, ... <= N as consecutive slices of one reused
    buffer of at most SLICE samples, each overwritten by the next.  Every
    x_r sees the same float operations in the same order whatever the slice
    width and the stride."""
    count = (N - j) // m + 1
    n = min(SLICE, count)
    r = np.arange(j, j + m * n, m, dtype=np.uint64)
    ph = np.empty(n, dtype=np.uint64)
    w = np.empty(n, dtype=np.float64)
    buf = np.empty(n, dtype=np.float64)
    for lo in range(0, count, SLICE):
        k = min(SLICE, count - lo)
        x, rs, ps, ws = buf[:k], r[:k], ph[:k], w[:k]
        x.fill(0.0)
        with np.errstate(over="ignore"):
            for m_j in ms:
                np.multiply(rs, np.uint64(m_j), out=ps)
                np.multiply(ps, _TWO_PI_OVER_2_64, out=ws)
                np.cos(ws, out=ws)
                ws *= 2.0
                x += ws
        r += np.uint64(m * SLICE)
        yield x


def trace_sequence(P, N):
    """The vector (x_1, ..., x_N); deterministic for fixed (P, N)."""
    (N,) = _positive("N", N)
    _check_samples(N)
    ms = _fixed_point_angles(roots(P).thetas)
    out = np.empty(N, dtype=np.float64)
    for lo, x in zip(range(0, N, SLICE), _trace_chunks(ms, N, 1, 1)):
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
    """Bucket of each sample, clipped to [0, B), as an int64 view of x,
    which it overwrites: the slice buffer is the index buffer too."""
    np.add(x, 2.0 * g, out=x)
    x *= B / (4.0 * g)
    np.floor(x, out=x)
    idx = x.view(np.int64)
    np.copyto(idx, x, casting="unsafe")
    np.clip(idx, 0, B - 1, out=idx)
    return idx


def _smith_rows(lattice, g):
    """Rows of the oracle's Smith transform V; the identity with no lattice or R = 0."""
    return (lattice and lattice.smith) or [[int(i == j) for j in range(g)] for i in range(g)]


def _cyclotomic_residue(exponents, m):
    """sum T^(a mod m) over the integers a, mod Phi_m: sum exp(2 pi i a / m)
    in Z[zeta_m], highest power first, so it is 0 exactly when the tuple is
    and the integer n exactly when the tuple is (0, ..., 0, n)."""
    phi, c = cyclotomic(m), [0] * m
    for a in exponents:
        c[-1 - a % m] += 1
    d = len(phi) - 1
    for i in range(m - d):
        for k in range(1, d + 1):
            c[i + k] -= c[i] * phi[k]
    return tuple(c[m - d:])


def _atom_residues(m, thetas, torus):
    """{j: (key, v, err)} over the j in Z/m where x_r is an atom for r = j
    mod m: key is the atom exactly, 2^-64 v is it within err units (0 for an
    integer).  The angles lie on a coset f + M t of the torus (M = torus,
    m f integral), and r theta on r f + M t, where x has at each frequency
    +-w != 0 of t the coefficient sum e(r s_i f_i) over M_i = s_i w: a unit
    times sum e(r b_i / m), b_i = m (s_i theta_i - s_1 theta_1).  So x is an
    atom exactly when Phi_m divides each sum T^(j b_i), and the atom is
    sum 2 cos(2 pi j a_i / m) over the a_i = m theta_i with M_i = 0."""
    classes = {}        # w up to sign -> (s_1 theta_1, [b_i]); (0, [a_i]) for w = 0
    for theta, row in zip(thetas, torus):
        w, neg = tuple(row), tuple(-x for x in row)
        st = theta if w >= neg else -theta
        anchor, bs = classes.setdefault(max(w, neg), (st if any(w) else 0, []))
        b = round(m * (st - anchor))
        if abs(m * (st - anchor) - b) >= Fraction(1, 1 << 64):
            raise InvariantError("angle %s is not in Z/%d" % (float(st - anchor), m))
        bs.append(b)
    fixed = classes.pop((0,) * len(torus[0]), (0, []))[1]
    pi, out = _pi(96), {}
    for j in range(m):
        if any(any(_cyclotomic_residue([j * b for b in bs], m))
               for _, bs in classes.values()):
            continue
        exps = [j * a for a in fixed]
        key = _cyclotomic_residue(exps + [-e for e in exps], m)
        # each cosine within a few units of 2^-96, then floored to 2^-64
        v = 2 * sum(_cis(2 * pi * (e % m) // m, 96)[0] for e in exps) >> 32
        out[j] = (key, v, _COS_SUM_ERROR) if any(key[:-1]) else (key, key[-1] << 64, 0)
    return out


def _atom_bucket(v, err, g, B):
    """Bucket of 2^-64 v, known within err units; InvariantError if an edge
    lies within err of it."""
    lo, hi = (((v + e + (2 * g << 64)) * B) // (4 * g << 64) for e in (-err, err))
    if lo != hi:
        raise InvariantError("atom %r is within 2^-64 of a bucket edge" % (v / 2 ** 64))
    return min(lo, B - 1)


def histogram(P, N, B):
    """Bucketed counts of (x_r)_{r<=N} over [-2g, 2g], plus the atoms above
    ATOM_THRESHOLD, for 1 <= B <= N buckets, half-open but the last.

    The oracle's lattice gives m, the angles and the torus rows of the
    Smith transform it keeps (none, and no oracle run, for a supersingular
    input).  An atom residue j of `_atom_residues` counts its
    (N - j) // m + 1 samples (j = m for 0) in its `_atom_bucket`; the
    kernel evaluates and buckets only the r of the other residues,
    r = j, j + m, ... <= N for each.
    """
    N, B = _positive("N and B", N, B)
    if B > N:
        raise WeilError("B = %d buckets exceed the N = %d samples" % (B, N))
    g = P.g
    if newton_polygon(P).is_supersingular():
        m, thetas = supersingular_torsion_order(P.coeffs, P.q), roots(P).thetas
        torus = [()] * g
    else:
        lattice = angle_rank_numeric(P)
        m, thetas = lattice.torsion_order, lattice.thetas
        torus = [row[lattice.rank:] for row in _smith_rows(lattice, g)]
    atoms = _atom_residues(m, thetas, torus)
    counts, masses = np.zeros(B, dtype=np.int64), {}
    for j, (key, v, err) in atoms.items():
        c = (N - (j or m)) // m + 1          # 0 for j > N
        counts[_atom_bucket(v, err, g, B)] += c
        masses.setdefault(key, [v, 0])[1] += c
    if len(atoms) < m:
        _check_samples(N)
        ms = _fixed_point_angles(thetas)
        for j in range(1, min(m, N) + 1):
            if j % m not in atoms:
                for x in _trace_chunks(ms, N, j, m):
                    np.add.at(counts, _bucket_index(x, g, B), 1)
    atoms = tuple(sorted((v / 2 ** 64, c / N) for v, c in masses.values()
                         if c / N > ATOM_THRESHOLD))
    return TraceHistogram(g=g, sample_count=N, bucket_count=B,
                          counts=tuple(int(c) for c in counts), atoms=atoms)


# ---------------------------------------------------------------------------
# moments


def _mean_powers(slices, n, K):
    """Means of x^k, k = 1..K, over n finite samples given as slices: each
    power summed per slice with np.sum, and its slice sums with math.fsum,
    which folds them into one every 1024 slices so the list stays short.
    A power whose sum leaves the float range, within a slice or across
    slices, raises WeilError."""
    sums, p = [[] for _ in range(K)], np.empty(min(n, SLICE))
    try:
        for x in slices:
            if not np.isfinite(x).all():
                raise WeilError("samples must be finite")
            q = p[:len(x)]
            q.fill(1.0)
            with np.errstate(over="ignore", invalid="ignore"):
                for s in sums:
                    q *= x
                    s.append(float(np.sum(q)))
                    if not math.isfinite(s[-1]):
                        raise OverflowError     # as math.fsum does past the range
                    if len(s) == 1024:
                        s[:] = [math.fsum(s)]
        return [math.fsum(s) / n for s in sums]
    except OverflowError:
        raise WeilError("a power of the samples overflows") from None


def empirical_moments(xs, K):
    """Means of x^k, k = 1..K, of a caller's finite samples xs, one SLICE at a time."""
    (K,) = _positive("K", K)
    try:
        xs = np.asarray(xs, dtype=np.float64)
    except (TypeError, ValueError):
        xs = None
    if xs is None or xs.ndim != 1:
        raise WeilError("samples must be a 1-D sequence of numbers")
    n = len(xs)
    if n == 0:
        raise WeilError("empty sequence")
    return _mean_powers((xs[lo:lo + SLICE] for lo in range(0, n, SLICE)), n, K)


def _walk_steps(group, lattice):
    """(steps, mods) of the walks on Z^g modulo the relation lattice L of
    rank r, once the group and the lattice (L = 0 without one) agree on
    (delta, m): L V = Z^(r-1) + m Z + 0 for the Smith transform V, so a
    state is cV with entry i mod mods[i] (kept whole where it is 0), and
    the steps +e_1, -e_1, +e_2, ... add +-(row j of V).  A Partial has no
    group to walk on: WeilError."""
    if not isinstance(group, SerreFrobeniusGroup):
        raise WeilError("moment comparison needs a full classification")
    found = (lattice.delta, lattice.torsion_order) if lattice else (group.g, 1)
    if (group.delta, group.m) != found:
        raise InvariantError("classified (delta, m) = %r but the lattice gives %r"
                             % ((group.delta, group.m), found))
    r = group.g - group.delta
    mods = ([1] * (r - 1) + [group.m] if r else []) + [0] * group.delta
    steps = [tuple(sign * x % d if d else sign * x for x, d in zip(row, mods))
             for row in _smith_rows(lattice, group.g) for sign in (1, -1)]
    return steps, mods


def _moves(s, steps, mods):
    """The states one step from state s, in the order of steps."""
    return (tuple((a + b) % d if d else a + b for a, b, d in zip(s, t, mods))
            for t in steps)


def exact_moments(group, K, lattice=None):
    """E[x^k], k = 1..K, for the Haar pushforward of the classified group,
    whose relation lattice `lattice` (from `angle_rank_numeric`) it needs
    when delta < g: `_walk_steps` checks that they agree on (delta, m).

    A character prod u_j^(c_j) is trivial on the group exactly when c lies
    in the relation lattice L, so by Haar orthogonality E[x^k] is the number
    of k-step walks of `_walk_steps` that end in state 0, an integer.  The
    steps are symmetric, so W_b(-s) = W_b(s) for the counts W_b of b-step
    walks, and ceil(K/2) steps give E[x^(a+b)] = sum_s W_a(s) W_b(s).
    """
    (K,) = _positive("K", K)
    steps, mods = _walk_steps(group, lattice)
    walks, out = {(0,) * group.g: 1}, []
    for _ in range((K + 1) // 2):
        prev, walks = walks, {}
        for s, c in prev.items():
            for u in _moves(s, steps, mods):
                walks[u] = walks.get(u, 0) + c
        out.append(sum(c * prev.get(s, 0) for s, c in walks.items()))
        out.append(sum(c * c for c in walks.values()))
    return [float(c) for c in out[:K]]


def _sin_pi(u, one):
    """sin(pi u / one), its argument reduced in integers to [0, 1/2]."""
    sign, u = -1.0 if u % (2 * one) >= one else 1.0, u % one
    return sign * math.sin(math.pi * (min(u, one - u) / one))


def _dirichlet(a, one, N):
    """D_N(phi) = (1/N) sum_{r<=N} cos(2 pi r phi) at phi = a / one, which
    is sin(pi N phi) cos(pi (N + 1) phi) / (N sin(pi phi)), or 1 for phi in Z."""
    if not a % one:
        return 1.0
    return (_sin_pi(N * a, one) * _sin_pi(2 * (N + 1) * a + one, 2 * one)
            / (N * _sin_pi(a, one)))


def _closed_form_moments(steps, mods, thetas, N, K):
    """Means of x_r^k over r <= N, k = 1..K: x_r^k sums e(r <c, theta>) over
    the ends c of the k-step walks on Z^g, and L has integral phases, so the
    mean is sum_s W_k(s) D_N(<c, theta>) over the states s of `_walk_steps`,
    the phase an integer in units of 1/one from the state that first reached
    s.  None as soon as the steps left, at the moves (a state taking a step)
    of this one, would pass the budget of MOVE_COST; each step moves at least
    as many states as the last, as they translate into its ends.  The moves
    grow with g and K, not with N."""
    budget = min(N * (8 * len(mods) + K) // MOVE_COST, MAX_MOVES)
    one = math.lcm(*(t.denominator for t in thetas))
    turns = [sign * int(t * one) for t in thetas for sign in (1, -1)]
    walks, seen, out = {(0,) * len(mods): 1}, {(0,) * len(mods): (0, 1.0)}, []
    for left in range(K, 0, -1):
        if left * len(walks) * len(steps) > budget:
            return None
        budget -= len(walks) * len(steps)
        nxt = {}
        for s, c in walks.items():
            phase = seen[s][0]
            for u, turn in zip(_moves(s, steps, mods), turns):
                nxt[u] = nxt.get(u, 0) + c
                if u not in seen:
                    seen[u] = (phase + turn, _dirichlet(phase + turn, one, N))
        walks = nxt
        out.append(math.fsum(c * seen[s][1] for s, c in walks.items()))
    return out


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
    """Means of x_r^k over r <= N against the exact group moments, k = 1..K,
    on the oracle's angles where the lattice is needed (delta < g) and on
    those of `roots` otherwise: in closed form while the walk is within
    MOVE_COST's budget, and else from the kernel's samples, for N <= 2^32."""
    (K,), (N,) = _positive("K", K), _positive("N", N)
    if N >= 1 << 1023:               # N is a float in D_N
        raise WeilError("N must be below 2^1023")
    group = classify(P)
    lattice = angle_rank_numeric(P) if group.delta < group.g else None
    thetas = (lattice or roots(P)).thetas
    emp = _closed_form_moments(*_walk_steps(group, lattice), thetas, N, K)
    if emp is None:
        _check_samples(N)
        emp = _mean_powers(_trace_chunks(_fixed_point_angles(thetas), N, 1, 1), N, K)
    exa = exact_moments(group, K, lattice)
    return MomentReport(orders=tuple(range(1, K + 1)),
                        empirical=tuple(emp), exact=tuple(exa),
                        abs_error=tuple(abs(e - x) for e, x in zip(emp, exa)))

"""Numeric determination of the angle rank and torsion order.

The multiplicative group U generated by the normalized Frobenius eigenvalues
u_j = alpha_j/sqrt(q) is Z^delta + Z/m.  Writing theta_j for the angles,
an element c of the relation lattice R = {c in Z^g : sum c_j theta_j in Z}
is detected numerically: integral LLL reduction of the rows [e_j | N theta_j]
and [0 | N], N = 2^(precision/2), makes integer relations show up as short
vectors.  Candidates are verified to 2^-precision.  As rows of an LLL basis
they span a primitive lattice, so they are a basis of R.  Their one Smith
form R V = d_1 Z + ... + d_r Z + 0 gives delta = g - r, m = d_r, the V the
trace functions read, and the saturation S = Z^r V^-1, presented in Hermite
normal form: on S, sum c_j theta_j is a/m mod 1.

The angles are solved once, at 2 * precision: exact dyadic Fractions
within 2^-(2 precision + 32) of the true ones.  The LLL rows, the checks
and the rational parts all read them, and everything after them is exact
integer/rational linear algebra, so the only numeric trust lives in the
residuals.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from ._intpoly import InvariantError, Record
from .weilpoly import DEFAULT_PRECISION, NonConvergence, WeilError, _integers, roots

DENOMINATOR_BOUND = 72
COEFF_BOUND_PRESENTED = 12         # relations in the saturated presentation
COEFF_BOUND_RAW = 12 * DENOMINATOR_BOUND


# Oracle failures are numeric or invariant failures, never bad input.

class UnverifiedRelation(NonConvergence):
    pass


class DenominatorBoundExceeded(NonConvergence):
    pass


class InconsistentLattice(InvariantError):
    pass


# ---------------------------------------------------------------------------
# integral LLL on integer row bases


def _nearest(a, b):
    """The integer nearest a / b for b > 0, ties to even."""
    r, rem = divmod(a, b)
    return r + (2 * rem > b or 2 * rem == b and r & 1)


def lll_reduce(rows):
    """LLL with Lovasz's delta = 99/100 on linearly independent integer rows,
    in integers throughout (Cohen, GTM 138, Alg. 2.6.7).

    With Gram-Schmidt vectors b*_j, B_j = |b*_j|^2 and mu_ij, d_j =
    B_0 ... B_j (d_(-1) = 1) and lam[i][j] = d_j mu_ij are integers.  Each
    step size-reduces row k against rows k-1, ..., 0 (mu rounded to the
    nearest integer, ties to even), then tests Lovasz's condition and either
    moves on or swaps rows k-1 and k.  A zero B_j, from dependent rows,
    raises InvariantError; the oracle's rows [e_j | N theta_j] and [0 | N]
    are upper triangular with determinant N, so independent.
    """
    b = [list(map(int, r)) for r in rows]
    n = len(b)
    d = [1] * (n + 1)      # d[j] is d_(j-1): d[0] = d_(-1) = 1
    lam = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            u = sum(x * y for x, y in zip(b[i], b[j]))
            for t in range(j):
                u = (d[t + 1] * u - lam[i][t] * lam[j][t]) // d[t]
            if j < i:
                lam[i][j] = u
            elif u:
                d[i + 1] = u
            else:
                raise InvariantError("LLL rows are linearly dependent")

    k = 1
    while k < n:
        lk = lam[k]
        for j in range(k - 1, -1, -1):
            if 2 * abs(lk[j]) > d[j + 1]:
                r = _nearest(lk[j], d[j + 1])
                b[k] = [x - r * y for x, y in zip(b[k], b[j])]
                for t in range(j):
                    lk[t] -= r * lam[j][t]
                lk[j] -= r * d[j + 1]
        lm = lk[k - 1]
        if 100 * (d[k + 1] * d[k - 1] + lm * lm) >= 99 * d[k] ** 2:
            k += 1
            continue
        b[k], b[k - 1] = b[k - 1], b[k]
        lam[k][:k - 1], lam[k - 1][:k - 1] = lam[k - 1][:k - 1], lam[k][:k - 1]
        old = d[k]
        new = (d[k - 1] * d[k + 1] + lm * lm) // old
        for i in range(k + 1, n):
            t = lam[i][k]
            lam[i][k] = (d[k + 1] * lam[i][k - 1] - lm * t) // old
            lam[i][k - 1] = (new * t + lm * lam[i][k]) // d[k + 1]
        d[k] = new
        k = max(k - 1, 1)
    return b


# ---------------------------------------------------------------------------
# small exact integer linear algebra: Smith form, saturation


def smith_normal_form(rows, n):
    """(divisors, V, W) for the row lattice L of `rows` inside Z^n: V is
    unimodular with L*V = {(t_1 d_1, ..., t_r d_r, 0, ...)}, W = V^-1 and
    d_1 | d_2 | ... | d_r (Cohen, GTM 138, 2.4).  Each column operation runs
    over the matrix and V alike and its inverse row operation over W, and
    post-conditions re-check the transformed rows and W V = I."""
    a = [list(map(int, r)) for r in rows]
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    w = [row[:] for row in v]

    def col_op(c, j, f, swap):
        """Column j -= f * column c, then columns c and j swap if swap."""
        for mat in (a, v):
            for row in mat:
                row[j] -= f * row[c]
                if swap:
                    row[c], row[j] = row[j], row[c]
        # on W: row c += f * row j (negated if c = j), then rows c, j swap
        w[c] = [-x for x in w[c]] if c == j else [x + f * y for x, y in zip(w[c], w[j])]
        if swap:
            w[c], w[j] = w[j], w[c]

    def eliminate():
        """Diagonalize a, each pivot the smallest entry left; their number."""
        for k in range(min(len(a), n)):
            best = None
            for i in range(k, len(a)):
                for j in range(k, n):
                    if a[i][j] and (best is None or abs(a[i][j]) < best[0]):
                        best = abs(a[i][j]), i, j
            if best is None:
                return k
            _, i, j = best
            a[k], a[i] = a[i], a[k]
            if j != k:
                col_op(k, j, 0, True)
            # Euclid against the pivot clears row k, then column k: an old
            # pivot left in either would grow at each later pass
            while any(a[k][k + 1:]) or any(row[k] for row in a[k + 1:]):
                for j in range(k + 1, n):
                    while a[k][j]:
                        f, rest = divmod(a[k][j], a[k][k])
                        col_op(k, j, f, rest)
                for i in range(k + 1, len(a)):
                    while a[i][k]:
                        f, rest = divmod(a[i][k], a[k][k])
                        a[i] = [x - f * y for x, y in zip(a[i], a[k])]
                        if rest:
                            a[k], a[i] = a[i], a[k]
            if a[k][k] < 0:
                col_op(k, k, 2, False)      # column k -= 2 column k: negated
        return min(len(a), n)

    # enforce d_1 | d_2 | ...: fold column k + 1 into column k at the first
    # k that breaks it, and eliminate again
    rank, k = eliminate(), 0
    while k < rank - 1:
        if a[k + 1][k + 1] % a[k][k]:
            col_op(k + 1, k, -1, False)
            rank, k = eliminate(), 0
        else:
            k += 1
    divisors = [a[k][k] for k in range(rank)]
    # post-conditions: each row times V lies in span{d_i e_i}, and W V = I
    for row in rows:
        t = [sum(row[k] * v[k][j] for k in range(n)) for j in range(n)]
        if any(t[j] % divisors[j] if j < rank else t[j] for j in range(n)):
            raise InvariantError("SNF transform drifted")
    if any(sum(x * y for x, y in zip(w[i], col)) != (i == j)
           for i in range(n) for j, col in enumerate(zip(*v))):
        raise InvariantError("SNF inverse drifted")
    return divisors, v, w


def saturate_lattice(inverse, r):
    """The saturation S = span_Q(L) cap Z^n of a rank-r lattice L, read off
    W = V^-1 of its Smith form (L V = d_1 Z + ... + d_r Z + 0, so S V = Z^r
    + 0 and rows 0..r-1 of W span S), in Hermite normal form: each row's
    pivot is its last nonzero entry and is positive, the other rows' entries
    in its column lie in [0, pivot), and the rows go by pivot column, ascending."""
    h, top = inverse[:r], r        # h[top:] have pivots; rows are replaced, not edited
    for j in reversed(range(len(inverse))):
        for i in range(top - 1):    # Euclid of rows i and top - 1 on column j
            while h[i][j]:
                f = h[top - 1][j] // h[i][j]
                h[i], h[top - 1] = [x - f * y for x, y in zip(h[top - 1], h[i])], h[i]
        if top and h[top - 1][j]:
            top -= 1
            if h[top][j] < 0:
                h[top] = [-x for x in h[top]]
            for i in range(top + 1, r):
                f = h[i][j] // h[top][j]
                h[i] = [x - f * y for x, y in zip(h[i], h[top])]
    return h


# ---------------------------------------------------------------------------
# the relation lattice itself


class RelationLattice(Record):
    """Verified multiplicative relations among the normalized eigenvalues.

    ``basis`` is the verified LLL rows, a basis of R, and ``relations`` its
    saturation in Hermite normal form.  ``thetas`` (roots(P, 2 * precision))
    and ``smith`` (the V of smith_normal_form(basis, g), () for R = 0) are
    read by the trace functions, outside equality, repr and JSON.
    """

    _hidden = ("thetas", "smith")
    g: int
    precision: int
    relations: tuple          # ((c tuple, numer, denom), ...): sum c th = n/d mod 1
    rank: int                 # = g - delta
    torsion_order: int        # = m
    thetas: tuple
    smith: tuple = ()         # rows of V: R V = d_1 Z + ... + d_r Z + 0
    basis: tuple = ()         # a basis of R = {c : sum c th in Z}

    @property
    def delta(self):
        return self.g - self.rank

    def to_json(self):
        return {"delta": self.delta, "m": self.torsion_order,
                "relations": [{"c": list(c), "frac": "%d/%d" % (a, b)}
                              for c, a, b in self.relations]}


def _residual_to_int(thetas, c):
    x = sum(ci * t for ci, t in zip(c, thetas))
    return abs(x - round(x))


def angle_rank_numeric(P, precision=DEFAULT_PRECISION):
    """RelationLattice of P: delta and m via LLL-certified angle relations."""
    if not isinstance(precision, int):   # a numpy integer, say, or an error
        (precision,) = _integers((precision,), WeilError, "precision")
    if precision < 64:
        raise WeilError("precision must be at least 64 bits")
    g = P.g
    thetas = roots(P, 2 * precision).thetas
    n_scale = 1 << (precision // 2)
    rows = []
    for j in range(g):
        row = [0] * g + [round(thetas[j] * n_scale)]
        row[j] = 1
        rows.append(row)
    rows.append([0] * g + [n_scale])
    accept_tol = Fraction(1, 1 << (precision // 4))
    candidates = []
    for row in lll_reduce(rows):
        c = tuple(row[:g])
        if not any(c) or max(abs(x) for x in c) > COEFF_BOUND_RAW:
            continue
        if _residual_to_int(thetas, c) < accept_tol * sum(abs(x) for x in c):
            candidates.append(c)
    if not candidates:
        return RelationLattice(g=g, precision=precision, relations=(),
                               rank=0, torsion_order=1, thetas=thetas, basis=())
    verify_tol = Fraction(1, 1 << precision)
    for c in candidates:
        if _residual_to_int(thetas, c) >= verify_tol:
            raise UnverifiedRelation(
                "candidate %r fails to 2^-%d; raise precision" % (c, precision))
    # the one Smith form of R: delta, m, V for the trace functions, V^-1 for S
    divisors, smith, inverse = smith_normal_form(candidates, g)
    if len(divisors) != len(candidates):
        raise InconsistentLattice("verified relations are dependent")
    if any(d != 1 for d in divisors[:-1]):
        raise InconsistentLattice("torsion is not cyclic: divisors %r" % (divisors,))
    m = divisors[-1]
    if m > DENOMINATOR_BOUND:
        raise DenominatorBoundExceeded("torsion order %d > %d" % (m, DENOMINATOR_BOUND))
    # present the saturation S: m S lies in R, so each value is a/m mod 1
    presented = []
    for vec in saturate_lattice(inverse, len(divisors)):
        x = sum(ci * t for ci, t in zip(vec, thetas))
        a = round(m * x) % m
        err = x - Fraction(a, m)
        if abs(err - round(err)) >= verify_tol:
            raise DenominatorBoundExceeded(
                "relation %r is not a multiple of 1/%d" % (vec, m))
        if max(abs(t) for t in vec) > COEFF_BOUND_PRESENTED:
            raise InconsistentLattice(
                "presented relation %r exceeds the coefficient bound" % (vec,))
        k = gcd(a, m)
        presented.append((tuple(vec), a // k, m // k))
    return RelationLattice(g=g, precision=precision, relations=tuple(presented),
                           rank=len(candidates), torsion_order=m, thetas=thetas,
                           smith=tuple(map(tuple, smith)), basis=tuple(candidates))


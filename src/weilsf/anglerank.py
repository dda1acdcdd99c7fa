"""Numeric determination of the angle rank and torsion order.

The multiplicative group U generated by the normalized Frobenius eigenvalues
u_j = alpha_j/sqrt(q) is Z^delta + Z/m.  Writing theta_j for the angles,
an element c of the relation lattice R = {c in Z^g : sum c_j theta_j in Z}
is detected numerically: exact LLL reduction of the rows [e_j | N theta_j]
and [0 | N] makes integer relations show up as short vectors.  Candidates are
re-verified at doubled precision, the found lattice is saturated and its
rational parts normalized with a denominator bound, and the Smith normal
form of R then gives delta = g - rank(R) and m = largest elementary divisor.

Everything after the angle computation is exact integer/rational linear
algebra, so the only numeric trust lives in the (doubly checked) residuals.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from ._intpoly import InvariantError, Record
from .weilpoly import DEFAULT_PRECISION, NonConvergence, WeilError, mp, roots

DENOMINATOR_BOUND = 72
COEFF_BOUND_PRESENTED = 12         # relations in the saturated presentation
COEFF_BOUND_RAW = 12 * DENOMINATOR_BOUND
LOVASZ = Fraction(99, 100)         # the delta of lll_reduce's Lovasz condition


# Oracle failures are numeric or invariant failures, never bad input.

class UnverifiedRelation(NonConvergence):
    pass


class DenominatorBoundExceeded(NonConvergence):
    pass


class InconsistentLattice(InvariantError):
    pass


# ---------------------------------------------------------------------------
# exact LLL on integer row bases


def lll_reduce(rows):
    """Exact LLL; Gram-Schmidt computed once, updated in place (Cohen, GTM 138, 2.6.3)."""
    b = [list(map(int, r)) for r in rows]
    n = len(b)
    mu = [[Fraction(0)] * n for _ in range(n)]
    B = [Fraction(0)] * n
    for i in range(n):
        for j in range(i + 1):
            s = sum(x * y for x, y in zip(b[i], b[j])) - sum(
                mu[i][t] * mu[j][t] * B[t] for t in range(j))
            if j == i:
                B[i] = Fraction(s)
            elif B[j]:
                mu[i][j] = s / B[j]

    k = 1
    while k < n:
        for j in range(k - 1, -1, -1):
            if abs(mu[k][j]) > Fraction(1, 2):
                r = round(mu[k][j])
                b[k] = [x - r * y for x, y in zip(b[k], b[j])]
                for t in range(j):
                    mu[k][t] -= r * mu[j][t]
                mu[k][j] -= r
        m = mu[k][k - 1]
        if B[k] >= (LOVASZ - m ** 2) * B[k - 1]:
            k += 1
        else:
            bn = B[k] + m ** 2 * B[k - 1]   # 0 only for a dependent b_k with m = 0
            if bn:
                mu[k][k - 1] = m * B[k - 1] / bn
            B[k], B[k - 1] = B[k - 1] * B[k] / bn if bn else B[k - 1], bn
            b[k], b[k - 1] = b[k - 1], b[k]
            mu[k][:k - 1], mu[k - 1][:k - 1] = mu[k - 1][:k - 1], mu[k][:k - 1]
            for i in range(k + 1, n):
                t = mu[i][k]
                mu[i][k] = mu[i][k - 1] - m * t
                mu[i][k - 1] = t + mu[k][k - 1] * mu[i][k]
                if not B[k]:    # dependent b_k: keep mu[i][j] = 0 where B[j] = 0
                    mu[i][k] = Fraction(0)
            k = max(k - 1, 1)
    return b


# ---------------------------------------------------------------------------
# small exact integer linear algebra: kernels, saturation, Smith form


def integer_kernel(rows, n):
    """Z-basis of {x in Z^n : M x^T = 0} for the integer matrix M.

    With U M V = [D | 0] in Smith form, the kernel is spanned by the columns
    of the unimodular V past the nonzero divisors, so the result is a genuine
    Z-basis (not merely a spanning set of the rational kernel).
    """
    rows = [r for r in rows if any(r)]
    if not rows:
        return [[1 if j == i else 0 for j in range(n)] for i in range(n)]
    divisors, v = smith_normal_form(rows, n)
    r = len(divisors)
    return [[v[i][j] for i in range(n)] for j in range(r, n)]


def saturate_lattice(rows, n):
    """Z-basis of (span_Q(rows) intersect Z^n) via a double integer kernel.

    The integer kernel of an integer matrix is always saturated, so applying
    it twice lands exactly on the saturation of the row span.
    """
    rows = [r for r in rows if any(r)]
    if not rows:
        return []
    return integer_kernel(integer_kernel(rows, n), n)


def smith_normal_form(rows, n):
    """(divisors, V) for the row lattice L of `rows` inside Z^n.

    V is unimodular with L*V = {(t_1 d_1, ..., t_r d_r, 0, ...)}; divisors
    satisfy d_1 | d_2 | ... | d_r.  All column operations are mirrored on V
    so that the pair stays consistent (the exact moments and atoms read the
    group from these coordinates), and a post-condition re-checks the
    transformed rows.
    """
    original = [list(map(int, r)) for r in rows]
    a = [row[:] for row in original]
    m = len(a)
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def col_op(c1, c2, f):
        for row in a:
            row[c2] -= f * row[c1]
        for row in v:
            row[c2] -= f * row[c1]

    def col_swap(c1, c2):
        for row in a:
            row[c1], row[c2] = row[c2], row[c1]
        for row in v:
            row[c1], row[c2] = row[c2], row[c1]

    def col_neg(c):
        for row in a:
            row[c] = -row[c]
        for row in v:
            row[c] = -row[c]

    def eliminate():
        rank = 0
        top = 0
        left = 0
        while top < m and left < n:
            piv = None
            best = None
            for i in range(top, m):
                for j in range(left, n):
                    if a[i][j] != 0 and (best is None or abs(a[i][j]) < best):
                        best = abs(a[i][j])
                        piv = (i, j)
            if piv is None:
                break
            pi, pj = piv
            a[top], a[pi] = a[pi], a[top]
            if pj != left:
                col_swap(left, pj)
            while True:
                done = True
                for j in range(left + 1, n):
                    if a[top][j]:
                        f = a[top][j] // a[top][left]
                        col_op(left, j, f)
                        if a[top][j]:
                            col_swap(left, j)
                            done = False
                for i in range(top + 1, m):
                    if a[i][left]:
                        f = a[i][left] // a[top][left]
                        a[i] = [x - f * y for x, y in zip(a[i], a[top])]
                        if a[i][left]:
                            a[top], a[i] = a[i], a[top]
                            done = False
                if done:
                    break
            if a[top][left] < 0:
                col_neg(left)
            rank += 1
            top += 1
            left += 1
        return rank

    rank = eliminate()
    # enforce d_1 | d_2 | ... by folding offending columns together and
    # re-eliminating; V tracks every operation
    while True:
        bad = None
        for i in range(rank - 1):
            if a[i + 1][i + 1] % a[i][i]:
                bad = i
                break
        if bad is None:
            break
        col_op(bad + 1, bad, -1)   # column bad += column bad+1
        rank = eliminate()
    divisors = [a[i][i] for i in range(rank)]
    # post-condition: each original row, transformed by V, lies in the
    # diagonal lattice span{d_i e_i}
    for row in original:
        t = [sum(row[k] * v[k][j] for k in range(n)) for j in range(n)]
        if any(t[j] % divisors[j] if j < rank else t[j] for j in range(n)):
            raise InvariantError("SNF transform drifted")
    return divisors, v


# ---------------------------------------------------------------------------
# the relation lattice itself


class RelationLattice(Record):
    """Verified multiplicative relations among the normalized eigenvalues.

    ``thetas`` are the angles roots(P, precision).thetas that the LLL rows
    came from, kept for the trace functions; they take no part in equality,
    repr or JSON.
    """

    _hidden = ("thetas",)
    g: int
    precision: int
    relations: tuple          # ((c tuple, numer, denom), ...): sum c th = n/d mod 1
    rank: int                 # = g - delta
    torsion_order: int        # = m
    thetas: tuple
    basis: tuple = ()         # rows of R = {c : sum c th in Z}

    @property
    def delta(self):
        return self.g - self.rank

    def to_json(self):
        return {"delta": self.delta, "m": self.torsion_order,
                "relations": [{"c": list(c), "frac": "%d/%d" % (a, b)}
                              for c, a, b in self.relations]}


def _residual_to_int(thetas, c):
    x = mp.fsum(ci * t for ci, t in zip(c, thetas))
    return abs(x - mp.nint(x))


def _nearest_fraction(x, max_den):
    """Closest a/b to x mod 1 with 1 <= b <= max_den; (a, b, error).

    The fraction comes from the exact binary value of x mod 1 by continued
    fractions (Fraction.limit_denominator), in lowest terms.
    """
    xf = x - mp.floor(x)
    man, exp = xf.man_exp
    exact = Fraction(int(man) << max(exp, 0), 1 << max(-exp, 0))
    best = exact.limit_denominator(max_den)
    a, b = best.numerator, best.denominator
    return a % b, b, abs(xf - mp.mpf(a) / b)


def angle_rank_numeric(P, precision=DEFAULT_PRECISION):
    """RelationLattice of P: delta and m via LLL-certified angle relations."""
    if precision < 64:
        raise WeilError("precision must be at least 64 bits")
    g = P.g
    rs = roots(P, precision)
    with mp.workprec(precision + 32):
        thetas = [mp.mpf(t) for t in rs.thetas]
        n_scale = 1 << (precision // 2)
        rows = []
        for j in range(g):
            row = [0] * g + [int(mp.nint(thetas[j] * n_scale))]
            row[j] = 1
            rows.append(row)
        rows.append([0] * g + [n_scale])
        reduced = lll_reduce(rows)
        accept_tol = mp.mpf(2) ** (-(precision // 4))
        candidates = []
        for row in reduced:
            c = tuple(row[:g])
            if not any(c):
                continue
            norm1 = sum(abs(x) for x in c)
            if max(abs(x) for x in c) > COEFF_BOUND_RAW:
                continue
            if _residual_to_int(thetas, c) < accept_tol * max(norm1, 1):
                candidates.append(c)
    if not candidates:
        return RelationLattice(g=g, precision=precision, relations=(),
                               rank=0, torsion_order=1, thetas=rs.thetas, basis=())
    # doubled-precision verification of every accepted candidate
    rs2 = roots(P, 2 * precision)
    with mp.workprec(2 * precision + 32):
        thetas2 = [mp.mpf(t) for t in rs2.thetas]
        verify_tol = mp.mpf(2) ** (-precision)
        for c in candidates:
            if _residual_to_int(thetas2, c) >= verify_tol:
                raise UnverifiedRelation(
                    "candidate %r fails at doubled precision; raise precision" % (c,))
        # saturate and attach rational parts
        sat = saturate_lattice(candidates, g)
        rank = len(sat)
        presented = []
        scaled_rows = []
        denoms = []
        for vec in sat:
            x = mp.fsum(ci * t for ci, t in zip(vec, thetas2))
            a, b, err = _nearest_fraction(x, DENOMINATOR_BOUND)
            if err >= verify_tol:
                raise DenominatorBoundExceeded(
                    "relation %r has no denominator <= %d" % (vec, DENOMINATOR_BOUND))
            if max(abs(t) for t in vec) > COEFF_BOUND_PRESENTED:
                raise InconsistentLattice(
                    "presented relation %r exceeds the coefficient bound" % (vec,))
            presented.append((tuple(vec), a, b))
            denoms.append(b)
        # R = {c in span : value is an integer}: kernel of t -> sum t_i a_i/b_i mod 1
        big_d = lcm(*denoms) if denoms else 1
        kernel_rows = [[(presented[i][1] * big_d) // presented[i][2]
                        for i in range(rank)] + [big_d]]
        tker = integer_kernel(kernel_rows, rank + 1)
        rbasis = []
        for tv in tker:
            coeffs = tv[:rank]
            vec = [sum(coeffs[i] * sat[i][j] for i in range(rank)) for j in range(g)]
            if any(vec):
                rbasis.append(vec)
        divisors, _ = smith_normal_form(rbasis, g)
        if len(divisors) != rank:
            raise InconsistentLattice("relation lattice rank drifted")
        for d in divisors[:-1]:
            if d != 1:
                raise InconsistentLattice(
                    "torsion is not cyclic: divisors %r" % (divisors,))
        m = divisors[-1] if divisors else 1
        if m > DENOMINATOR_BOUND:
            raise DenominatorBoundExceeded("torsion order %d > %d" % (m, DENOMINATOR_BOUND))
    return RelationLattice(g=g, precision=precision,
                           relations=tuple(presented), rank=rank,
                           torsion_order=m, thetas=rs.thetas,
                           basis=tuple(tuple(r) for r in rbasis))


"""Exact algebra on Weil polynomials: factorization, base change, and
recognition of supersingular minimal polynomials.

Factorization works by reconstructing candidate monic divisors from subsets
of high-precision roots and certifying them by exact integer division; with
degrees at most 12 and all roots on a circle of radius sqrt(q) <= 8 this is
both fast and provably correct (a spurious candidate never divides exactly,
and every true factor is a product over a root subset).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import isqrt

import mpmath as mp

from . import _intpoly as ip
from .newton import newton_class
from .weilpoly import (DEFAULT_PRECISION, WeilPolynomial, WeilError,
                       factor_prime_power, validate)

MAX_FACTOR_DEGREE = 16   # covers 2g <= 6 plus base changes, and g = 7, 8 inputs
TORSION_SEARCH_BOUND = 72


class BoundExceeded(WeilError):
    pass


class NoSupersingularMatch(WeilError):
    """Raised when a factor presented as supersingular matches no known family."""


@dataclass(frozen=True)
class IsogenyFactorization:
    """P = prod h_i^{e_i} with h_i monic irreducible over Z."""

    q: int
    factors: tuple  # ((coeffs, e, newton_class_str), ...)

    @property
    def is_irreducible(self):
        return len(self.factors) == 1 and self.factors[0][1] == 1

    def to_json(self):
        return [{"h": list(h), "e": e, "newton": cls}
                for h, e, cls in self.factors]


def _round_to_int(x, slack):
    n = mp.nint(x)
    if abs(x - n) > slack:
        return None
    return int(n)


def _factor_squarefree(coeffs, precision=DEFAULT_PRECISION):
    """Irreducible monic integer factors of a squarefree monic polynomial."""
    n = ip.degree(coeffs)
    if n <= 1:
        return [coeffs] if n == 1 else []
    with mp.workprec(precision):
        rts = mp.polyroots([mp.mpf(c) for c in coeffs],
                           maxsteps=200, extraprec=precision // 2)
        rts = sorted((mp.mpc(r) for r in rts),
                     key=lambda z: (mp.nstr(z.real, 25), mp.nstr(z.imag, 25)))
        found = []
        remaining = list(range(n))
        current = tuple(coeffs)
        slack = mp.mpf("0.25")
        k = 1
        while k <= ip.degree(current) // 2:
            hit = None
            for subset in itertools.combinations(remaining, k):
                cand = [mp.mpc(1)]
                for i in subset:
                    cand = [a - rts[i] * b for a, b in
                            zip(cand + [mp.mpc(0)], [mp.mpc(0)] + cand)]
                    # cand = cand * (T - root); the zip above multiplies in place
                ints = []
                ok = True
                for c in cand:
                    if abs(c.imag) > slack:
                        ok = False
                        break
                    v = _round_to_int(c.real, slack)
                    if v is None:
                        ok = False
                        break
                    ints.append(v)
                if not ok or ints[0] != 1:
                    continue
                q = ip.poly_div_if_exact(current, tuple(ints))
                if q is not None:
                    hit = (tuple(ints), q, subset)
                    break
            if hit is None:
                k += 1
                continue
            fac, current, used = hit
            found.append(fac)
            remaining = [i for i in remaining if i not in used]
            k = 1
        if ip.degree(current) > 0:
            found.append(current)
        return found


def factor_coeffs(coeffs, precision=DEFAULT_PRECISION):
    """[(h, e)] irreducible factorization of a monic integer polynomial."""
    coeffs = ip.normalize(tuple(int(c) for c in coeffs))
    if ip.degree(coeffs) > MAX_FACTOR_DEGREE:
        raise WeilError("factorization supports degree <= %d" % MAX_FACTOR_DEGREE)
    out = {}
    for part, mult in ip.squarefree_decomposition(coeffs):
        for h in _factor_squarefree(part, precision):
            out[h] = out.get(h, 0) + mult
    pairs = sorted(out.items(), key=lambda he: (ip.degree(he[0]), he[0]))
    total = (1,)
    for h, e in pairs:
        total = ip.poly_mul(total, ip.poly_pow(h, e))
    if total != coeffs:
        raise ip.InvariantError("factorization of %r failed to certify" % (coeffs,))
    return pairs


def factor(P, precision=DEFAULT_PRECISION):
    """IsogenyFactorization of a validated WeilPolynomial."""
    pairs = factor_coeffs(P.coeffs, precision)
    facs = tuple((h, e, newton_class(h, P.p, P.d)) for h, e in pairs)
    return IsogenyFactorization(q=P.q, factors=facs)


def base_change(P, r):
    """Extension of scalars: the q^r-Weil polynomial with roots alpha^r."""
    out = ip.base_change_coeffs(P.coeffs, r)
    return validate(out, P.q ** r)


# ---------------------------------------------------------------------------
# supersingular torsion order: smallest r with (alpha/sqrt(q))^r = 1 for all
# roots, found by comparing power sums against those of (T - q^(r/2))^n


def supersingular_torsion_order(P_or_coeffs, q=None, bound=TORSION_SEARCH_BOUND):
    """Order of the group generated by the normalized roots of a polynomial
    all of whose roots have angle a rational multiple of 2 pi.

    This is the smallest r <= bound with base_change(P, r) = (T - q^(r/2))^n,
    checked through exact power sums.  Raises BoundExceeded past the bound,
    which signals a non-supersingular input.
    """
    if isinstance(P_or_coeffs, WeilPolynomial):
        coeffs, q = P_or_coeffs.coeffs, P_or_coeffs.q
    else:
        coeffs = ip.normalize(tuple(P_or_coeffs))
        if q is None:
            raise ValueError("q is required with raw coefficients")
    n = ip.degree(coeffs)
    _, d = factor_prime_power(q)
    sums = ip.power_sums(coeffs, n * bound)
    for r in range(1, bound + 1):
        if (r * d) % 2:
            continue  # q^(r/2) is not an integer
        s = isqrt(q ** r)
        if all(sums[k * r - 1] == n * s ** k for k in range(1, n + 1)):
            return r
    raise BoundExceeded(
        "no torsion order <= %d; input is not supersingular" % bound)


# ---------------------------------------------------------------------------
# recognition of the minimal polynomials of supersingular Weil numbers


@dataclass(frozen=True)
class SupersingularMatch:
    zhu_type: str            # "Z1" | "Z2" | "Z3"
    m: int                   # order of the normalized-root group
    normalized_family: str   # e.g. "Phi_8(T)", "Phi_3(T^2)", "Psi_{2,3}(-T)"

    def to_json(self):
        return {"zhu_type": self.zhu_type, "m": self.m,
                "family": self.normalized_family}


def _scaled_cyclotomic(m, scale):
    """scale^phi(m) * Phi_m(T/scale), an integer polynomial."""
    phi = ip.cyclotomic(m)
    return tuple(c * scale ** i for i, c in enumerate(phi))


def _cyclotomic_in_t2_scaled(n_param, q):
    """q^phi(n) * Phi_n(T^2/q) as a polynomial in T."""
    phi = ip.cyclotomic(n_param)
    deg = ip.degree(phi)
    out = [0] * (2 * deg + 1)
    for i, c in enumerate(phi):
        out[2 * i] = c * q ** i
    return tuple(out)


def _z3_families(q, p, d):
    """Integer forms of the exceptional degree-4/6 families, when they exist."""
    if d % 2 == 0:
        return []
    out = []

    def alt(h):
        return tuple(c * (-1) ** i for i, c in enumerate(h))

    if p == 5:
        s = isqrt(5 * q)
        h = (1, s, 3 * q, s * q, q ** 2)
        out.append((h, 10, "Psi_{5,1}(T)"))
        out.append((alt(h), 10, "Psi_{5,1}(-T)"))
    if p == 2:
        s = isqrt(2 * q)
        h = (1, s, q, s * q, q ** 2)
        out.append((h, 24, "Psi_{2,3}(T)"))
        out.append((alt(h), 24, "Psi_{2,3}(-T)"))
    if p == 7:
        s = isqrt(7 * q)
        h = (1, s, 3 * q, s * q, 3 * q ** 2, s * q ** 2, q ** 3)
        out.append((h, 28, "h_{7,1}(T)"))
        out.append((alt(h), 28, "h_{7,1}(-T)"))
    if p == 3:
        s = isqrt(3 * q)
        h = (1, 0, 0, s * q, 0, 0, q ** 3)
        out.append((h, 36, "h_{3,3}(T)"))
        out.append((alt(h), 36, "h_{3,3}(-T)"))
    return out


def supersingular_match(h, q, p=None, d=None, bound=TORSION_SEARCH_BOUND):
    """Identify an irreducible all-slope-1/2 factor among the known families.

    Returns a SupersingularMatch carrying the Zhu type, the torsion order m
    of its normalized roots, and the name of the normalized polynomial.
    Raises NoSupersingularMatch if nothing fits, which means the caller's
    supersingularity precondition was violated.
    """
    h = ip.normalize(tuple(h))
    if p is None or d is None:
        p, d = factor_prime_power(q)
    deg = ip.degree(h)
    if d % 2 == 0:
        root = isqrt(q)
        for m in range(1, bound + 1):
            if ip.euler_phi(m) != deg:
                continue
            if h == _scaled_cyclotomic(m, root):
                return SupersingularMatch("Z1", m, "Phi_%d(T)" % m)
    else:
        if deg % 2 == 0:
            half = deg // 2
            for n_param in range(1, bound + 1):
                if ip.euler_phi(n_param) != half:
                    continue
                if h == _cyclotomic_in_t2_scaled(n_param, q):
                    m = 2 * n_param
                    return SupersingularMatch("Z2", m, "Phi_%d(T^2)" % n_param)
        for fam, m, name in _z3_families(q, p, d):
            if h == fam:
                return SupersingularMatch("Z3", m, name)
    raise NoSupersingularMatch(
        "factor %r over q=%d matches no supersingular family" % (h, q))

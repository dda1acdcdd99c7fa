"""Exact algebra on Weil polynomials: factorization, base change, and
recognition of supersingular minimal polynomials.

Factorization works on the real Weil transform H of P (degree g, real
roots in [-2 sqrt(q), 2 sqrt(q)]): candidate monic divisors of H are
reconstructed from subsets of its high-precision real roots, kept only when
they divide exactly, and pulled back to the factors of P, whose product is
checked against P.  Every true factor of H is a product over a root subset,
and with g <= 8 there are at most 162 subsets of size at most g/2.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import isqrt

import mpmath as mp

from . import _intpoly as ip
from .newton import newton_class
from .weilpoly import (DEFAULT_PRECISION, WeilPolynomial, WeilError, _real_roots,
                       factor_prime_power, real_weil_transform, validate,
                       weil_pullback)

MAX_FACTOR_DEGREE = 16   # 2g <= 16: the corpora (g <= 3) and the g = 5, 7 inputs
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


def _split_real_rooted(h, precision):
    """Monic irreducible integer factors of a squarefree real-rooted h.

    Subsets of the numeric roots are tried smallest first; the product over
    a subset is rounded to integers and kept only if it divides what is left
    of h exactly.  The k roots where a kept factor of degree k is smallest
    (its own roots) then leave the search, so every kept factor has the least
    degree of any factor left and is irreducible, and so is a remainder with
    no factor of at most half its degree.
    """
    found = []
    with mp.workprec(precision + 32):
        ys = _real_roots(h, precision)
        k = 1
        while k <= ip.degree(h) // 2:
            for subset in itertools.combinations(ys, k):
                cand = [mp.mpf(1)]
                for y in subset:   # cand *= (T - y)
                    cand = [a - y * b for a, b in zip(cand + [0], [0] + cand)]
                d = tuple(int(mp.nint(c)) for c in cand)
                rest = ip.poly_div_if_exact(h, d)
                if rest is not None:
                    break
            else:
                k += 1
                continue
            found.append(d)
            h = rest
            ys = sorted(ys, key=lambda y: abs(mp.polyval(d, y)))[k:]
            k = 1
    return found + [h]


def factor(P, precision=DEFAULT_PRECISION):
    """IsogenyFactorization of a validated WeilPolynomial.

    Factors the real Weil transform H of P (degree g, real roots
    y = alpha + q/alpha) and pulls each irreducible factor h of H back to
    f = T^k h(T + q/T), k = deg h.  For a root y of h other than +-2 sqrt(q)
    the roots of f are a non-real alpha and q/alpha = conj(alpha), with
    [Q(alpha):Q(y)] = 2, so f is irreducible; otherwise h divides y^2 - 4q
    and f is (T -+ sqrt(q))^2 or (T^2 - q)^2.  The squarefree split of f
    is therefore its factorization.
    """
    if 2 * P.g > MAX_FACTOR_DEGREE:
        raise WeilError("factorization supports degree <= %d" % MAX_FACTOR_DEGREE)
    pairs = []
    for part, e in ip.squarefree_decomposition(real_weil_transform(P.coeffs, P.q, P.g)):
        for h in _split_real_rooted(part, precision):
            pairs += [(f, kf * e) for f, kf in
                      ip.squarefree_decomposition(weil_pullback(h, P.q))]
    pairs.sort(key=lambda fe: (ip.degree(fe[0]), fe[0]))
    total = (1,)
    for f, e in pairs:
        total = ip.poly_mul(total, ip.poly_pow(f, e))
    if total != P.coeffs:
        raise ip.InvariantError("factorization of %r failed to certify" % (P.coeffs,))
    facs = tuple((f, e, newton_class(f, P.p, P.d)) for f, e in pairs)
    return IsogenyFactorization(q=P.q, factors=facs)


def base_change(P, r):
    """Extension of scalars: the q^r-Weil polynomial with roots alpha^r."""
    if r < 1:
        raise WeilError("extension degree must be >= 1, got %d" % r)
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

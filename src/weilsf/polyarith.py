"""Exact algebra on Weil polynomials: factorization, base change, and
recognition of supersingular minimal polynomials.

Factorization works on the real Weil transform H of P (degree g, real
roots in [-2 sqrt(q), 2 sqrt(q)]) that `validate` stores as P.h.  Linear
factors of H are its integer roots a with a^2 <= 4q, isolated by Sturm
bisection; a remainder of degree <= 3 without them is irreducible, so for
g <= 3 no root is approximated.  A remainder of degree n >= 4 is split by
rounding products over subsets of its fixed-point real roots, kept only
when they divide exactly.  The roots are solved to a width proven from n
and q, at which rounding recovers every integer factor from its roots, so
"no candidate divides" proves irreducibility and the factorization is exact
for every g.  The factors of H are pulled back to the factors of P, whose
product is checked against P.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import isqrt, lcm

from . import _intpoly as ip
from .newton import newton_class
from .weilpoly import (NotPrimePower, WeilError, _integers, factor_prime_power,
                       real_roots_bound, real_weil_transform, validate, weil_pullback)

MAX_FACTOR_DEGREE = 16   # 2g <= 16: the corpora (g <= 3) and the g = 5, 7 inputs


class BoundExceeded(WeilError):
    pass


class NoSupersingularMatch(WeilError):
    """Raised when a factor presented as supersingular matches no known family."""


class IsogenyFactorization(ip.Record):
    """P = prod h_i^{e_i} with h_i monic irreducible over Z."""

    q: int
    factors: tuple  # ((coeffs, e, newton_class_str), ...)

    @property
    def is_irreducible(self):
        return len(self.factors) == 1 and self.factors[0][1] == 1

    def to_json(self):
        return [{"h": list(h), "e": e, "newton": cls}
                for h, e, cls in self.factors]


def _split_real_rooted(h, q):
    """Monic irreducible integer factors of a squarefree h whose roots are
    real and lie in [-2 sqrt(q), 2 sqrt(q)].

    A linear factor y - a of the monic h has an integer root a with
    a^2 <= 4q.  `_intpoly.isolate` bisects (-isqrt(4q) - 1, isqrt(4q)] by
    the Sturm chain of h down to the unit spans (a - 1, a] that hold a root,
    so a division by y - a only there strips every linear factor exactly,
    with O(g log q) chain evaluations (a linear remainder takes no
    division: it is a factor).  What is left has no linear factor, so it
    is irreducible when its degree is at most 3.

    A remainder of degree n >= 4 is searched on its fixed-point roots
    Y / 2^b, each within 2^(1-b) of a root y with |y| < B =
    `real_roots_bound(q)`.  The product over k of them differs from the
    product over the k true roots by at most j C(k, j) 2^(1-b) (B + 1)^(j-1)
    <= k 2^(k-b) (B + 1)^(k-1) in its coefficient of degree k - j, which
    b = (n // 2) (bitlen(B + 1) + 2) + 2 keeps below 1/2 for every
    k <= n / 2.  Rounding therefore recovers every monic integer factor of
    degree k exactly from its roots.  Subsets are tried by size k from 2,
    and a rounded product is kept when it divides h exactly; the roots of
    the quotient are solved again.  Every factor of degree less than k has
    been ruled out, so each kept factor is irreducible, and a remainder
    with no factor of at most half its degree is proven irreducible.
    """
    found = []
    for _, a, _ in ip.isolate(ip._sturm_chain(h), -isqrt(4 * q) - 1, isqrt(4 * q),
                              unit=True):
        if ip.degree(h) > 1 and (rest := ip.poly_div_if_exact(h, (1, -a))) is not None:
            found.append((1, -a))
            h = rest
    bound = real_roots_bound(q)
    k, ys = 2, None
    while 2 * k <= ip.degree(h):
        if ys is None:
            bits = ip.degree(h) // 2 * ((bound + 1).bit_length() + 2) + 2
            ys = ip.real_roots(h, bound, bits)
        # a product over k roots is 2^(-k bits) prod (2^bits T - Y)
        half = 1 << (k * bits - 1)
        for subset in itertools.combinations(ys, k):
            cand = (1,)
            for y in subset:
                cand = ip.poly_mul(cand, (1 << bits, -y))
            d = tuple([(c + half) >> (k * bits) for c in cand])
            rest = ip.poly_div_if_exact(h, d)
            if rest is not None:
                found.append(d)
                h, ys = rest, None
                break
        else:
            k += 1
    return found + [h]


def factor(P):
    """IsogenyFactorization of a validated WeilPolynomial.

    Factors the real Weil transform H = P.h (degree g, real roots
    y = alpha + q/alpha; exactly for every g, see `_split_real_rooted`) and
    pulls each irreducible factor h of H back to f = T^k h(T + q/T),
    k = deg h.  For a root y of h other than +-2 sqrt(q) the roots of f are
    a non-real alpha and q/alpha = conj(alpha), with [Q(alpha):Q(y)] = 2,
    so f is irreducible; otherwise h divides y^2 - 4q and f is
    (T -+ sqrt(q))^2 or (T^2 - q)^2.  The squarefree split of f is
    therefore its factorization.
    """
    if 2 * P.g > MAX_FACTOR_DEGREE:
        raise WeilError("factorization supports degree <= %d" % MAX_FACTOR_DEGREE)
    pairs = []
    for part, e in ip.squarefree_decomposition(P.h):
        for h in _split_real_rooted(part, P.q):
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
    (r,) = _integers((r,), WeilError, "extension degree")
    if r < 1:
        raise WeilError("extension degree must be >= 1, got %d" % r)
    return validate(ip.base_changes(P.coeffs, r)[-1], P.q ** r)


def exterior_relation(P):
    """(delta, m) of an irreducible, non-supersingular P whose relation
    lattice has rank <= 1, by exact division.

    Write u_j = alpha_j / sqrt(q) for one root alpha_j of each pair
    {alpha_j, q/alpha_j}.  The Galois group of P permutes the g pairs
    transitively, and it acts on the angles modulo Q by signed
    permutations (a sigma with sigma(sqrt q) = -sqrt q only shifts every
    angle by 1/2).  So the lattice of c in Z^g with sum c_j theta_j in Q is
    stable under a transitive group of signed permutations; when it has
    rank 1 its generator c has sigma c = +-c for every sigma, so all |c_j|
    are equal.  Hence delta = g - 1 exactly when a sign monomial
    v = prod u_j^(+-1) is a root of unity, m is then its order, and v and
    1/v are the only such monomials.  (For g = 3 a lattice of rank 2 has
    two-term relations instead, which the caller rules out first.)

    Lambda_g, of degree 2^g, has the roots q^(g/2) v: the products of one
    root from each pair, i.e. wedge^2 P / (T - q)^2 for g = 2 and
    wedge^3 P / P_q^2 for g = 3, where P_q has the roots q alpha.  Its power
    sums are prod_j (alpha_j^r + (q/alpha_j)^r) = (-1)^g H_r(0), with H_r
    the real Weil transform of the base change of P to F_(q^r).  When
    q^(g/2) is an integer, v has order m exactly when
    q^(g phi(m)/2) Phi_m(T / q^(g/2)) divides Lambda_g.

    For g odd over a non-square q, m is even.  Suppose some v has odd order
    b.  Then q^(gb/2) = (q^(g/2) v)^b is irrational and lies in the field of
    the root q^(g/2) v of Lambda_g, so a sigma with sigma(sqrt q) = -sqrt q
    gives a root sigma(q^(g/2) v) = q^(g/2) v' of Lambda_g with v'^b = -1.
    But v' is then a sign monomial that is a root of unity, so v' is v or
    1/v, whose b-th powers are 1: a contradiction.  So the test divides
    Lambda_g^(2), whose roots are q^g v^2, by q^(g phi(n)) Phi_n(T / q^g),
    and m = 2n for the order n of v^2.
    """
    g, q = P.g, P.q
    n = 1 << g
    sums = [(-1) ** g * real_weil_transform(bc, q ** r, g)[-1]
            for r, bc in enumerate(ip.base_changes(P.coeffs, n), 1)]
    orders, mult = _sqrt_orders(ip.poly_from_power_sums(sums, n), q ** g)
    # v = +-1 is a double root: v and 1/v are then two monomials of one value
    orders = sorted(set(orders))
    if len(orders) > 1:
        raise WeilError("sign monomials of orders %r: the relation lattice of %r "
                        "has rank > 1" % (orders, P.coeffs))
    return (g - 1, mult * orders[0]) if orders else (g, 1)


# ---------------------------------------------------------------------------
# supersingular torsion order


def _sqrt_orders(c, q):
    """(orders, k) for the roots sqrt(q) zeta of c, zeta a root of unity:
    over a square q, the orders of the zeta, with multiplicity, read at
    scale sqrt(q), and k = 1; over a non-square q, the orders of the zeta^2,
    read on the base change of c to q^2 at scale q, and k = 2.  Each caller
    says why its order is then k times one of these."""
    root = isqrt(q)
    if root * root == q:
        return cyclotomic_orders(c, root), 1
    return cyclotomic_orders(ip.base_changes(c, 2)[1], q), 2


def supersingular_torsion_order(coeffs, q):
    """Order of the group generated by the normalized roots of the monic
    integer polynomial `coeffs` over F_q, all of whose roots have angles in
    2 pi Q: the least r, even over a non-square q, with alpha^r = q^(r/2),
    k times the lcm of the orders of `_sqrt_orders`.  The search is complete
    (see `cyclotomic_orders`), so it raises BoundExceeded only when the
    orders miss a root: the input is not supersingular."""
    if not isinstance(q, int):   # a numpy integer, say, or an error
        (q,) = _integers((q,), NotPrimePower, "q")
    factor_prime_power(q)   # NotPrimePower unless q = p^d
    orders, mult = _sqrt_orders(coeffs, q)
    if sum(map(ip.euler_phi, orders)) < ip.degree(coeffs):
        raise BoundExceeded("a root is not sqrt(q) times a root of unity; "
                            "input is not supersingular")
    return mult * lcm(*orders)


# ---------------------------------------------------------------------------
# recognition of the minimal polynomials of supersingular Weil numbers


class SupersingularMatch(ip.Record):
    zhu_type: str            # "Z1" | "Z2" | "Z3"
    m: int                   # order of the normalized-root group
    normalized_family: str   # e.g. "Phi_8(T)", "Phi_3(T^2)", "Psi_{2,3}(-T)"


def _scaled_cyclotomic(m, scale):
    """scale^phi(m) * Phi_m(T/scale), an integer polynomial.  Built from a
    list: a tuple of known length reuses CPython's tuple free list."""
    phi = ip.cyclotomic(m)
    return tuple([c * scale ** i for i, c in enumerate(phi)])


@lru_cache(maxsize=None)
def _orders_upto(bound):
    """(n, phi(n)) for every n with phi(n) <= bound, ascending.  A prime
    power p^k exactly dividing n contributes p^(k-1) (p - 1) >= p^(k/2) to
    phi(n), or 2^((k-1)/2) if p = 2, so phi(n) >= sqrt(n/2): n <= 2 bound^2.
    One sieve gives phi over that range: each prime p takes phi(m) to
    phi(m) (1 - 1/p) at its multiples m."""
    top = 2 * bound * bound
    phi = list(range(top + 1))
    for p in range(2, top + 1):
        if phi[p] == p:
            for m in range(p, top + 1, p):
                phi[m] -= phi[m] // p
    return tuple([(n, phi[n]) for n in range(1, top + 1) if phi[n] <= bound])


def cyclotomic_orders(c, scale):
    """Each n once per factor scale^phi(n) Phi_n(T/scale) of the monic
    integer polynomial c, ascending: the orders, with multiplicity, of the
    roots of unity zeta with c(scale zeta) = 0.  As zeta has degree phi(n)
    over Q, `_orders_upto` lists them all, and the degree left bounds the rest."""
    orders = []
    for n, phi in _orders_upto(ip.degree(c)):
        while phi <= ip.degree(c) and (rest := ip.poly_div_if_exact(
                c, _scaled_cyclotomic(n, scale))) is not None:
            orders.append(n)
            c = rest
    return orders


# the exceptional degree-4/6 families over q = p^d, d odd, by p: (name, c) with
# h_i = c_i s^(i mod 2) q^(i // 2) = c_i (+-1)^i p^((d i + 1) // 2), s = +-sqrt(p q)
_Z3_FAMILIES = {5: ("Psi_{5,1}", (1, 1, 3, 1, 1)),
                2: ("Psi_{2,3}", (1, 1, 1, 1, 1)),
                7: ("h_{7,1}", (1, 1, 3, 1, 3, 1, 1)),
                3: ("h_{3,3}", (1, 0, 0, 1, 0, 0, 1))}


def supersingular_match(h, q):
    """Identify an irreducible all-slope-1/2 factor among the known families.

    Returns a SupersingularMatch carrying the Zhu type, the torsion order
    m = k n of its normalized roots and the name of the normalized
    polynomial: `_sqrt_orders` reads one order n, j times with
    j phi(n) = deg h, and Z1 is k = j = 1, Z2 is k = j = 2 (the roots
    +-alpha), Z3 is k = 2, j = 1, named by its coefficients.  No fit
    raises NoSupersingularMatch: h breaks the caller's precondition.
    """
    if not isinstance(q, int):   # a numpy integer, say, or an error
        (q,) = _integers((q,), NotPrimePower, "q")
    h = tuple(h)
    p, d = factor_prime_power(q)
    orders, k = _sqrt_orders(h, q)
    if len(set(orders)) == 1 and len(orders) * ip.euler_phi(orders[0]) == ip.degree(h):
        n, j = orders[0], len(orders)
        if (k, j) == (1, 1):
            return SupersingularMatch("Z1", k * n, "Phi_%d(T)" % n)
        if (k, j) == (2, 2) and not any(h[1::2]):   # roots +-alpha, not alpha twice
            return SupersingularMatch("Z2", k * n, "Phi_%d(T^2)" % n)
        if (k, j) == (2, 1):
            name, c = _Z3_FAMILIES.get(p, ("", ()))
            c = [x * p ** ((d * i + 1) // 2) for i, x in enumerate(c)]
            for sign, twist in ((1, "(T)"), (-1, "(-T)")):
                if h == tuple([x * sign ** i for i, x in enumerate(c)]):
                    return SupersingularMatch("Z3", k * n, name + twist)
    raise NoSupersingularMatch(
        "factor %r over q=%d matches no supersingular family" % (h, q))

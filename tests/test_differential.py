"""The exact layer against sympy, on seeded inputs beyond the corpus.

The corpus pins cover g <= 3 and q <= 5.  These tests compare
`smith_normal_form`, `factor`, `cyclotomic_orders` and the power sums of
`exterior_relation`'s Lambda_g, the base changes and the sqrt(q) rule of
the supersingular torsion order with an independent implementation on
seeded random inputs of every size the package supports; each states its
seed and count.  They skip where sympy is not installed.
"""

import math
import random
from math import isqrt

import pytest

from weilsf import _intpoly as ip
from weilsf.anglerank import smith_normal_form
from weilsf.cli import enumerate_weil
from weilsf.polyarith import (MAX_FACTOR_DEGREE, _sqrt_orders, cyclotomic_orders,
                              factor, supersingular_torsion_order)
from weilsf.weilpoly import real_weil_transform, validate, weil_pullback


def test_smith_divisors_are_sympys_invariant_factors():
    # 2,000 matrices, seed 1716: 1-6 rows and columns, entries in [-20, 20],
    # each with its own share of zeros, so many are rank-deficient
    sp = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors
    rng = random.Random(1716)
    for _ in range(2000):
        n, k, zero = rng.randint(1, 6), rng.randint(1, 6), rng.random()
        rows = [[0 if rng.random() < zero else rng.randint(-20, 20) for _ in range(n)]
                for _ in range(k)]
        want = [int(d) for d in invariant_factors(sp.Matrix(rows), domain=sp.ZZ) if d]
        assert smith_normal_form(rows, n)[0] == want, rows


def _irreducible_real_rooted(sp, rng, k, q):
    """A random irreducible h of degree k with every root in [-2 sqrt q,
    2 sqrt q], or None: the characteristic polynomial of a symmetric integer
    matrix whose rows have absolute sum <= 2 sqrt q (Gershgorin)."""
    bound = isqrt(4 * q) // k
    if k == 1:
        return (1, -rng.randint(-bound, bound))
    for _ in range(20):
        a = [[0] * k for _ in range(k)]
        for i in range(k):
            for j in range(i, k):
                a[i][j] = a[j][i] = rng.randint(-bound, bound)
        h = sp.Matrix(a).charpoly()
        if h.is_irreducible:
            return tuple(int(c) for c in h.all_coeffs())
    return None


def _random_product(sp, rng, bits):
    """(P, want): a random product of pulled-back irreducible factors of H,
    some repeated, of total degree g <= 7 over q = p^e of about `bits` bits,
    with sympy's factorization of P as sorted (monic factor, multiplicity)
    pairs."""
    p = rng.choice([2, 3, 5, 7, 11, 13])
    e = max(1, round(bits / math.log2(p)))
    q = p ** e
    g, hs = rng.randint(1, 7), []
    if e % 2 == 0 and rng.random() < 0.5:
        # y -+ 2 sqrt q pulls back to (T -+ sqrt q)^2
        hs.append(((1, rng.choice([2, -2]) * p ** (e // 2)), 1))
    left = g - len(hs)
    while left > 0:
        h = (_irreducible_real_rooted(sp, rng, rng.randint(1, left), q)
             or _irreducible_real_rooted(sp, rng, 1, q))
        k = len(h) - 1
        m = rng.randint(1, min(3, left // k))
        hs.append((h, m))
        left -= k * m
    coeffs = (1,)
    for h, m in hs:
        coeffs = ip.poly_mul(coeffs, ip.poly_pow(weil_pullback(h, q), m))
    T = sp.Symbol("T")
    _, facs = sp.factor_list(sp.Poly(coeffs, T))
    want = []
    for f, m in facs:
        c = [int(x) for x in f.all_coeffs()]
        want.append((tuple(-x for x in c) if c[0] < 0 else tuple(c), m))
    return validate(coeffs, q), sorted(want)


def test_factor_is_sympys_factor_list():
    # 60 products, seed 2000: g from 1 to 7, q a prime power of 2000^(i/59)
    # bits for i = 0..59, repeated factors, and for square q the factors
    # y -+ 2 sqrt q
    sp = pytest.importorskip("sympy")
    rng = random.Random(2000)
    dims, repeated, edges = set(), 0, 0
    for i in range(60):
        P, want = _random_product(sp, rng, 2000 ** (i / 59))
        assert 2 * P.g <= MAX_FACTOR_DEGREE
        got = sorted((f, e) for f, e, _ in factor(P).factors)
        assert got == want, (P.coeffs, P.q)
        dims.add(P.g)
        repeated += any(e > 1 for _, e in want)
        edges += any(len(f) == 2 and f[1] ** 2 == P.q for f, _ in want)
    assert dims == set(range(1, 8)) and P.q.bit_length() > 1990
    assert repeated > 10 and edges > 3


def test_cyclotomic_orders_are_sympys_cyclotomic_factors():
    # 500 monic products, seed 3911, of degree 1-24 over scales 1, 2, 3 and
    # up to 2^40: factors scale^phi(n) Phi_n(T/scale), repeated ones, small
    # polynomials scaled the same way (some of them cyclotomic) and unscaled
    # ones.  The orders are those of the cyclotomic factors of
    # c(scale T) / scale^deg c, whose primitive factors are those of c(scale T)
    sp = pytest.importorskip("sympy")
    T = sp.Symbol("T")
    orders = [(n, int(sp.totient(n))) for n in range(1, 91) if sp.totient(n) <= 24]
    cyclotomic = {n: sp.Poly(sp.cyclotomic_poly(n, T), T) for n, _ in orders}
    rng = random.Random(3911)
    found, repeated, wide = 0, 0, 0
    for _ in range(500):
        scale = rng.choice([1, 2, 3, rng.randint(2, 2 ** rng.randint(1, 40))])
        c, factors, left = (1,), [], rng.randint(1, 24)
        while left:
            r = rng.random()
            if factors and r < 0.2:
                f = rng.choice(factors)
                if len(f) - 1 > left:
                    continue
            elif r < 0.6:
                n, _ = rng.choice([o for o in orders if o[1] <= left])
                f = tuple(int(a) * scale ** i
                          for i, a in enumerate(cyclotomic[n].all_coeffs()))
            else:
                k = rng.randint(1, min(4, left))
                unit = 1 if rng.random() < 0.25 else scale
                f = (1,) + tuple(rng.randint(-3, 3) * unit ** i for i in range(1, k + 1))
            factors.append(f)
            c = ip.poly_mul(c, f)
            left -= len(f) - 1
        d, want = len(c) - 1, []
        scaled = sp.Poly([a * scale ** (d - i) for i, a in enumerate(c)], T)
        for h, m in scaled.factor_list()[1]:
            h = -h if h.LC() < 0 else h
            if h.LC() == 1 and h.is_cyclotomic:
                want += [n for n, _ in orders if cyclotomic[n] == h] * m
        got = cyclotomic_orders(c, scale)
        assert got == sorted(want), (c, scale)
        found += bool(got)
        repeated += len(set(got)) < len(got)
        wide += scale > 2 ** 30
    assert found > 400 and repeated > 100 and wide > 10


def test_exterior_power_sums_are_dickson_resultants():
    # 120 labels, seed 2306: 30 each of the enumerated (1, 125), (2, 25),
    # (3, 5) and (4, 2).  exterior_relation takes the r-th power sum of
    # Lambda_g, r = 1..2^g, as (-1)^g H_r(0), with H_r the real Weil
    # transform of the base change to F_(q^r).  It is prod_j D_r(y_j, q)
    # over the roots y_j = alpha_j + q/alpha_j of H, where D_r is the
    # Dickson polynomial, D_r(a + q/a, q) = a^r + (q/a)^r; for monic H that
    # product is Res(H, D_r rem H).  (sympy 1.14's Poly.resultant(H, D_r)
    # has the wrong sign for H = y^3 - 3y^2 - y + 5 at r = 5: -25, not 25.)
    sp = pytest.importorskip("sympy")
    y = sp.Symbol("y")
    rng = random.Random(2306)
    for g, q in [(1, 125), (2, 25), (3, 5), (4, 2)]:
        dickson = [sp.Poly(2, y), sp.Poly(y, y)]
        while len(dickson) <= 2 ** g:
            dickson.append(sp.Poly(y, y) * dickson[-1] - q * dickson[-2])
        for P in rng.sample(list(enumerate_weil(g, q)), 30):
            H = sp.Poly(P.h, y)
            for r, bc in enumerate(ip.base_changes(P.coeffs, 2 ** g), 1):
                got = (-1) ** g * real_weil_transform(bc, q ** r, g)[-1]
                assert got == H.resultant(dickson[r].rem(H)), (P.label, r)


def test_base_changes_are_sympys_resultants():
    # 300 monic polynomials, seed 4417, of degree 0-8 (the first is the
    # constant 1) with coefficients in [-5, 5], and r from 1 to 8: the base
    # change prod (T - alpha^r) is Res_x(c(x), T - x^r).  sympy 1.14 gives
    # that resultant times (-1)^(r deg c), so its monic form is compared.
    sp = pytest.importorskip("sympy")
    x, T = sp.symbols("x T")
    rng = random.Random(4417)
    for i in range(300):
        deg, r = (0 if i == 0 else rng.randint(1, 8)), rng.randint(1, 8)
        c = (1,) + tuple(rng.randint(-5, 5) for _ in range(deg))
        res = sp.Poly(sp.resultant(sp.Poly(c, x).as_expr(), T - x ** r, x), T)
        lc, *rest = [int(a) for a in res.all_coeffs()]
        assert lc in (1, -1), (c, r)
        want = (1,) + tuple(lc * a for a in rest)
        assert ip.base_changes(c, r)[r - 1] == want, (c, r)


def test_sqrt_q_rule_on_scaled_cyclotomic_products():
    # 200 products, seed 4518, of 1-4 factors with phi(n) <= 6, Phi_n from
    # sympy.  Over a square q = Q^2 the factors Q^phi(n) Phi_n(T/Q) have the
    # orders n, k = 1; over a non-square q the factors q^phi(n) Phi_n(T^2/q)
    # have the base change (q^phi(n) Phi_n(T/q))^2 to q^2, so each n comes
    # twice, k = 2.  The torsion order is k times the lcm of the n.
    sp = pytest.importorskip("sympy")
    T = sp.Symbol("T")
    cyclotomic = {n: [int(a) for a in sp.Poly(sp.cyclotomic_poly(n, T), T).all_coeffs()]
                  for n in range(1, 19) if sp.totient(n) <= 6}
    rng = random.Random(4518)
    for i in range(200):
        square = i % 2 == 0
        p = rng.choice([2, 3, 5, 7])
        d = 2 * rng.randint(1, 3) - (not square)
        q = p ** d
        ns = sorted(rng.choice(list(cyclotomic)) for _ in range(rng.randint(1, 4)))
        c = (1,)
        for n in ns:
            if square:
                f = [a * p ** (d // 2 * j) for j, a in enumerate(cyclotomic[n])]
            else:
                f = [0] * (2 * len(cyclotomic[n]) - 1)
                f[::2] = [a * q ** j for j, a in enumerate(cyclotomic[n])]
            c = ip.poly_mul(c, tuple(f))
        k = 1 if square else 2
        assert _sqrt_orders(c, q) == (sorted(ns * k), k), (c, q)
        assert supersingular_torsion_order(c, q) == k * math.lcm(*ns), (c, q)

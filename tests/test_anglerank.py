import hashlib
import json
import math
import random
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from conftest import PAPER_EXAMPLES
from weilsf import _intpoly as ip
from weilsf.anglerank import (COEFF_BOUND_RAW, DenominatorBoundExceeded,
                              RelationLattice, angle_rank_numeric, lll_reduce,
                              saturate_lattice, smith_normal_form)
from weilsf.polyarith import base_change
from weilsf.weilpoly import WeilError, parse_label, roots, validate


def _relation_lattice_rows(P, precision):
    """The rows [e_j | N theta_j] and [0 | N] that angle_rank_numeric reduces:
    N = 2^(precision/2), on the angles it solves at 2 * precision."""
    n_scale = 1 << (precision // 2)
    rows = [[int(i == j) for i in range(P.g)] + [round(t * n_scale)]
            for j, t in enumerate(roots(P, 2 * precision).thetas)]
    return rows + [[0] * P.g + [n_scale]]


def _gram_schmidt(rows):
    """(mu, B) from explicit Gram-Schmidt vectors, exact; mu = 0 where B = 0."""
    star, mu = [], []
    for row in rows:
        v = [Fraction(x) for x in row]
        coeffs = []
        for s in star:
            ss = sum(x * x for x in s)
            c = sum(x * y for x, y in zip(row, s)) / ss if ss else Fraction(0)
            coeffs.append(c)
            v = [x - c * y for x, y in zip(v, s)]
        star.append(v)
        mu.append(coeffs)
    return mu, [sum(x * x for x in s) for s in star]


def _divisors(rows, n):
    return smith_normal_form([r for r in rows if any(r)], n)[0]


def _product(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _inverse_and_det(m):
    """(m^-1, det m) of an invertible square matrix, exact (Gauss-Jordan)."""
    n = len(m)
    a = [[Fraction(x) for x in row] + [Fraction(i == j) for j in range(n)]
         for i, row in enumerate(m)]
    det = Fraction(1)
    for k in range(n):
        p = next(i for i in range(k, n) if a[i][k])
        if p != k:
            a[k], a[p], det = a[p], a[k], -det
        det *= a[k][k]
        a[k] = [x / a[k][k] for x in a[k]]
        for i in range(n):
            if i != k and a[i][k]:
                a[i] = [x - a[i][k] * y for x, y in zip(a[i], a[k])]
    return [row[n:] for row in a], det


def _transform(rows, red):
    """The U with U rows = red, for linearly independent rows, exact:
    U = red rows^T (rows rows^T)^-1."""
    cols = [list(c) for c in zip(*rows)]
    u = _product(_product(red, cols), _inverse_and_det(_product(rows, cols))[0])
    assert _product(u, rows) == red
    return u


class TestLinearAlgebra:
    def test_lll_finds_short_relation(self):
        # lattice encoding 4*theta = 1 for theta = 1/4 at scale 2^40
        n = 1 << 40
        rows = [[1, n // 4], [0, n]]
        red = lll_reduce(rows)
        assert any(abs(r[0]) == 4 and abs(r[1]) <= 4 for r in red)

    def test_lll_corpus_bases_are_pinned(self, corpus):
        # reduced bases of the 215 g=3, q=2 lattices at 256 bits, digest
        # taken from the Gram-Schmidt-rebuilding implementation
        reduced = [lll_reduce(_relation_lattice_rows(P, 256)) for P in corpus[(3, 2)]]
        digest = hashlib.sha256(json.dumps(reduced, separators=(",", ":")).encode())
        assert len(reduced) == 215
        assert digest.hexdigest() == (
            "4ba9adda120ac956eb39a973ef360574b173c8ac295103748f8e3aa08cb2845a")

    def test_lll_output_is_reduced_and_spans_the_input(self):
        def check(rows):
            n, dim = len(rows), len(rows[0])
            red = lll_reduce(rows)
            assert len(red) == n
            assert (_divisors(red, dim) == _divisors(rows, dim)
                    == _divisors(rows + red, dim)), rows
            mu, B = _gram_schmidt(red)
            assert all(abs(x) <= Fraction(1, 2) for r in mu for x in r), rows
            assert all(B[k] >= (Fraction(99, 100) - mu[k][k - 1] ** 2) * B[k - 1]
                       for k in range(1, n)), rows
            # red = U rows with U unimodular
            u = _transform(rows, red)
            assert all(x.denominator == 1 for r in u for x in r), rows
            assert abs(_inverse_and_det(u)[1]) == 1, rows
            return red

        rng = random.Random(20231018)
        for trial in range(200):
            n, dim = rng.randint(1, 5), rng.randint(1, 5)
            rows = [[rng.randint(-20, 20) for _ in range(dim)] for _ in range(n)]
            if trial % 2:
                # integer combinations of earlier rows make the input dependent
                for i in range(1, n):
                    a, b = rng.randint(-3, 3), rng.randint(-3, 3)
                    rows[i] = [a * x + b * y for x, y in
                               zip(rows[rng.randrange(i)], rows[rng.randrange(i)])]
            if len(_divisors(rows, dim)) < n:
                with pytest.raises(ip.InvariantError, match="linearly dependent"):
                    lll_reduce(rows)
                continue
            check(rows)

        # 60 lattices of the oracle's shape, seed 128: rows [e_j | round(theta_j N)]
        # and [0 | N] for g = 1..7, N = 2^40..2^128; the odd ones plant the
        # relation sum c_j theta_j = 0 mod 1 with c_g = 1, which makes
        # [c | 0] a lattice vector, and the first reduced row is then within
        # LLL's bound (4 / (4 delta - 1))^(n-1) of its squared length
        rng = random.Random(128)
        for trial in range(60):
            g, n_scale = 1 + trial % 7, 1 << rng.randint(40, 128)
            scaled = [rng.randrange(n_scale) for _ in range(g)]
            c = [rng.randint(-3, 3) for _ in range(g - 1)] + [1]
            if trial % 2:
                scaled[-1] = -sum(x * y for x, y in zip(c[:-1], scaled)) % n_scale
            rows = [[int(i == j) for i in range(g)] + [x] for j, x in enumerate(scaled)]
            red = check(rows + [[0] * g + [n_scale]])
            if trial % 2:
                bound = Fraction(400, 296) ** g * sum(x * x for x in c)
                assert sum(x * x for x in red[0]) <= bound, rows

    @pytest.mark.parametrize("rows,reduced", [
        ([[1, 2], [2, 4]], [[0, 0], [1, 2]]),
        ([[2, 4], [1, 2], [0, 1]], [[0, 0], [0, 1], [1, 0]]),
        ([[0, 0], [1, 1]], [[0, 0], [1, 1]]),
        ([[1, 0], [0, 1], [1, 1]], [[0, 0], [1, 0], [0, 1]])])
    def test_lll_dependent_rows(self, rows, reduced):
        # `reduced` is the MLLL (Alg. 2.6.8) output: dependent rows are
        # refused, and its nonzero rows are an independent reduced basis
        # of the same lattice that lll_reduce returns unchanged
        with pytest.raises(ip.InvariantError, match="linearly dependent"):
            lll_reduce(rows)
        basis = [r for r in reduced if any(r)]
        dim = len(rows[0])
        assert len(_divisors(basis, dim)) == len(basis)
        assert _divisors(basis, dim) == _divisors(rows, dim)
        assert lll_reduce(basis) == basis

    def test_oracle_rows_are_independent(self, corpus):
        # [e_j | round(N theta_j)] and [0 | N] are upper triangular with
        # determinant N: rank g + 1 and Smith divisors of product N
        for P in corpus[(3, 2)]:
            divisors = _divisors(_relation_lattice_rows(P, 256), P.g + 1)
            assert len(divisors) == P.g + 1 and math.prod(divisors) == 1 << 128

    def test_snf_divisor_chain(self):
        assert smith_normal_form([[2, 0], [0, 3]], 2)[0] == [1, 6]

    def test_snf_transform_consistency(self):
        rows = [[2, 2], [0, 4]]
        divisors, v, w = smith_normal_form(rows, 2)
        # the post-conditions inside smith_normal_form already assert
        assert divisors == [2, 4]
        assert _product(w, v) == [[1, 0], [0, 1]]

    def test_snf_keeps_small_entries_small(self):
        # a 6 x 5 matrix whose entries grew to millions of bits while each
        # pass left the old pivot in row or column k for the next one
        rows = [[-5, -2, -19, -7, 13], [-10, 0, 0, -10, -5], [-12, -14, -6, -8, -11],
                [-3, 0, 2, 8, 13], [-14, 15, -12, 0, -12], [-15, 0, 5, 14, 0]]
        assert smith_normal_form(rows[:5], 5)[0] == [1, 1, 1, 1, 1594760]
        divisors, v, w = smith_normal_form(rows, 5)
        assert divisors == [1, 1, 1, 1, 1]
        assert max(abs(x) for row in v + w for x in row).bit_length() < 64

    def test_saturation(self):
        def saturate(rows, n):
            divisors, _, w = smith_normal_form(rows, n)
            return saturate_lattice(w, len(divisors))
        assert saturate([[2, 2]], 2) == [[1, 1]]
        assert saturate([[2, 0], [0, 2]], 2) == [[1, 0], [0, 1]]
        assert saturate([[6, 2, 7]], 3) == [[6, 2, 7]]
        assert saturate([[0, 4, 6], [2, 0, 0]], 3) == [[1, 0, 0], [0, 2, 3]]


KNOWN = [
    ("2.5.a_ab", 1, 2),
    ("1.2.a", 0, 4),
    ("2.2.ab_b", 2, 1),
    ("1.2.ab", 1, 1),
    ("3.2.a_a_ac", 1, 3),
    ("3.8.ai_bk_aeq", 1, 7),
    ("3.2.ad_f_ah", 3, 1),
    ("2.2.ab_a", 2, 1),
    ("3.2.ac_d_ag", 2, 8),
]


class TestAngleRank:
    @pytest.mark.parametrize("label,delta,m", KNOWN)
    def test_known_pairs(self, label, delta, m):
        lat = angle_rank_numeric(parse_label(label))
        assert (lat.delta, lat.torsion_order) == (delta, m)
        assert lat.rank == lat.g - delta

    def test_relation_of_paper_example(self):
        lat = angle_rank_numeric(parse_label("2.5.a_ab"))
        assert lat.to_json() == {
            "delta": 1, "m": 2,
            "relations": [{"c": [1, 1], "frac": "1/2"}]}

    @pytest.mark.parametrize("label", ["2.5.a_ab", "2.2.ab_b"])   # relations, none
    def test_solves_the_roots_once(self, count_calls, label):
        # the LLL rows, the checks and the rational parts all read the
        # angles of one solve at twice the precision
        calls = count_calls("roots")
        angle_rank_numeric(parse_label(label), 256)
        assert [(P.label, precision) for P, precision in calls] == [(label, 512)]

    @pytest.mark.parametrize("label", ["2.5.a_ab", "2.2.ab_b"])   # relations, none
    def test_keeps_its_angles_out_of_sight(self, label):
        P = parse_label(label)
        lat = angle_rank_numeric(P, 192)
        assert lat.thetas == roots(P, 384).thetas
        copy = RelationLattice(g=lat.g, precision=lat.precision,
                               relations=lat.relations, rank=lat.rank,
                               torsion_order=lat.torsion_order, thetas=(),
                               basis=lat.basis)
        assert copy == lat
        assert "thetas" not in repr(lat) and "thetas" not in lat.to_json()

    def test_precision_is_an_integer(self):
        # a numpy integer is a precision, a float is not, and the floor
        # applies to the integer
        P = parse_label("2.2.ab_b")
        assert angle_rank_numeric(P, np.int64(128)) == angle_rank_numeric(P, 128)
        with pytest.raises(WeilError, match="expected integer precision"):
            angle_rank_numeric(P, 100.5)
        with pytest.raises(WeilError, match="precision must be at least 64 bits"):
            angle_rank_numeric(P, np.int16(63))

    def test_supersingular_c24(self):
        lat = angle_rank_numeric(validate((1, 2, 2, 4, 4), 2))
        assert (lat.delta, lat.torsion_order) == (0, 24)

    def test_torsion_order_above_the_bound_is_refused(self):
        # 5.4.c_a_a_q_bg = 2^6 Phi_7(T/2) 2^4 Phi_12(T/2): m = 84 > 72
        with pytest.raises(DenominatorBoundExceeded, match="torsion order 84 > 72"):
            angle_rank_numeric(parse_label("5.4.c_a_a_q_bg"))

    def test_trace_minus_two_sqrt_q_has_order_two(self):
        lat = angle_rank_numeric(parse_label("1.4.e"))
        assert (lat.delta, lat.torsion_order) == (0, 2)

    def test_non_cyclic_looking_product(self):
        # (T+2)^2 (T^2+2T+4)^2 over F_4: u = (-1, zeta_3): torsion C_6
        c = ip.poly_mul(ip.poly_pow((1, 2), 2), ip.poly_pow((1, 2, 4), 2))
        lat = angle_rank_numeric(validate(c, 4))
        assert (lat.delta, lat.torsion_order) == (0, 6)

    def test_stability_under_precision(self):
        for label in ["2.5.a_ab", "3.2.a_a_ac", "2.2.ab_b"]:
            P = parse_label(label)
            a = angle_rank_numeric(P, 192)
            b = angle_rank_numeric(P, 320)
            assert (a.delta, a.torsion_order) == (b.delta, b.torsion_order)

    def test_relations_verify_to_double_precision(self):
        P = parse_label("3.2.a_a_ac")
        lat = angle_rank_numeric(P, 256)
        rs = roots(P, 512)
        assert lat.relations
        for c, a, b in lat.relations:
            x = sum(ci * t for ci, t in zip(c, rs.thetas)) - Fraction(a, b)
            assert abs(x - round(x)) < Fraction(1, 2 ** 256)

    def test_presented_coefficient_bound(self):
        for label, _, _ in KNOWN:
            lat = angle_rank_numeric(parse_label(label))
            for c, _, b in lat.relations:
                assert max(abs(x) for x in c) <= 12
                assert 1 <= b <= 72


@pytest.fixture(scope="module")
def corpus_lattices(corpus):
    return [angle_rank_numeric(P) for key in sorted(corpus) for P in corpus[key]]


def test_oracle_json_over_the_corpus_is_pinned(corpus_lattices):
    # delta, m and the presented relations of every corpus label, these in
    # the Hermite normal form of the saturation
    out = [lat.to_json() for lat in corpus_lattices]
    digest = hashlib.sha256(json.dumps(out, separators=(",", ":")).encode())
    assert len(out) == 1220
    assert digest.hexdigest() == (
        "40b09383e76985d32baba4ad38472972ba857d24220afa1ad2ad35461b08f2f6")


def _snf_matrices(count, seed):
    """Seeded integer matrices of 1-5 rows and 1-5 columns with entries in
    [-9, 9], each with its own share of zeros."""
    rng = random.Random(seed)
    for _ in range(count):
        n, k, zero = rng.randint(1, 5), rng.randint(1, 5), rng.random()
        yield [[0 if rng.random() < zero else rng.randint(-9, 9) for _ in range(n)]
               for _ in range(k)], n


def test_smith_normal_form_is_pinned(corpus_lattices):
    # (divisors, V) of the 608 nonzero oracle bases of the corpus, digest
    # taken when every column operation was written out twice, once for the
    # matrix and once for V; and of 5,000 seeded matrices, digest taken when
    # Euclid cleared row k and column k of each pivot in full.  The lattice
    # keeps V of its basis, and () for R = 0
    bases = [(lat.basis, lat.g) for lat in corpus_lattices if lat.basis]
    assert len(bases) == 608
    for cases, want in [
            (bases, "3ef09714945e6040aab50c5efbbb18f1e2e7ccd6d5b5c142987902654cecdb8c"),
            (_snf_matrices(5000, "smith"),
             "4b328b1eb38615655ad52e080647f1a4d6dda532469babf301c126940f580e17")]:
        digest = hashlib.sha256()
        for rows, n in cases:
            digest.update(repr(smith_normal_form(rows, n)[:2]).encode())
        assert digest.hexdigest() == want
    assert all(lat.smith == (tuple(map(tuple, smith_normal_form(lat.basis, lat.g)[1]))
                             if lat.basis else ()) for lat in corpus_lattices)


def _is_hermite(h):
    """Pivots (last nonzero entries) positive and in ascending columns, and
    the other rows' entries in each pivot column in [0, pivot)."""
    pivots = [max(j for j, x in enumerate(row) if x) for row in h]
    return (pivots == sorted(set(pivots))
            and all(row[p] > 0 for row, p in zip(h, pivots))
            and all(0 <= row[p] < h[i][p] for i, p in enumerate(pivots)
                    for k, row in enumerate(h) if k != i))


def _check_saturation(rows, n):
    """W V = I for the Smith form of `rows`, and S = saturate_lattice(W, r)
    is saturated, holds the row lattice R, lies in (1/m) R for the largest
    divisor m, and is in Hermite normal form; returns S."""
    divisors, v, w = smith_normal_form(rows, n)
    r = len(divisors)
    assert _product(w, v) == [[int(i == j) for j in range(n)] for i in range(n)]
    sat = saturate_lattice(w, r)
    assert len(sat) == r and _divisors(sat, n) == [1] * r
    assert _is_hermite(sat), sat
    # R <= S and m S <= R: adding either to the other leaves its divisors
    assert _divisors(sat + rows, n) == [1] * r
    m = divisors[-1] if r else 1
    assert _divisors(rows + [[m * x for x in s] for s in sat], n) == divisors
    return sat


def _scaled_matrices(count, seed):
    """_snf_matrices with the rows scaled by 1, 2 and 6 in turn, so that few
    of the row lattices are saturated."""
    for i, (rows, n) in enumerate(_snf_matrices(count, seed)):
        yield [[(1, 2, 6)[i % 3] * x for x in row] for row in rows], n


def test_saturation_over_the_corpus_bases(corpus_lattices):
    # the 608 nonzero bases of the corpus: the presented relations are the
    # saturation in Hermite normal form, entries -1, 0 or 1
    bases = [lat for lat in corpus_lattices if lat.basis]
    assert len(bases) == 608
    for lat in bases:
        sat = _check_saturation([list(c) for c in lat.basis], lat.g)
        assert [list(c) for c, _, _ in lat.relations] == sat
        assert all(abs(x) <= 1 for row in sat for x in row)


def test_saturation_over_seeded_matrices():
    # 1,500 matrices, seed "saturation"
    for rows, n in _scaled_matrices(1500, "saturation"):
        _check_saturation(rows, n)


def test_saturation_is_sympys_hermite_normal_form(corpus_lattices):
    # sympy's hermite_normal_form(Matrix(S).T), read column by column, with
    # S given by the rows 0..r-1 of W as they come, on the 608 corpus bases
    # and 1,500 seeded matrices (seed "saturation")
    sp = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import hermite_normal_form
    cases = [([list(c) for c in lat.basis], lat.g) for lat in corpus_lattices if lat.basis]
    for rows, n in [*cases, *_scaled_matrices(1500, "saturation")]:
        divisors, _, w = smith_normal_form(rows, n)
        sat = saturate_lattice(w, len(divisors))
        if sat:
            want = hermite_normal_form(sp.Matrix(w[:len(divisors)]).T)
            assert sat == [[int(x) for x in want.col(j)] for j in range(want.cols)], rows


def test_basis_is_verified_lll_rows(corpus):
    # the relation lattice is spanned by the verified rows of the reduced
    # basis themselves, not rebuilt from its saturation
    for P in [P for key in sorted(corpus) for P in corpus[key]]:
        lat = angle_rank_numeric(P, 256)
        rows = {tuple(r[:P.g]) for r in lll_reduce(_relation_lattice_rows(P, 256))}
        assert len(lat.basis) == lat.rank and set(lat.basis) <= rows, P.label


@pytest.mark.parametrize("label", ["2.5.a_ab", "3.2.a_a_ac"])
def test_oracle_calls_each_traced_layer(count_calls, label):
    # one Smith form of the basis, whose V^-1 the saturation reads: the
    # layers the benchmark traces must keep their calls
    saturations = count_calls("saturate_lattice")
    smith_forms = count_calls("smith_normal_form")
    angle_rank_numeric(parse_label(label))
    assert (len(saturations), len(smith_forms)) == (1, 1)


@pytest.mark.parametrize("label", sorted(PAPER_EXAMPLES))
def test_pslq_agrees_with_the_lattice(label):
    # PSLQ (Ferguson-Bailey-Arno) on [theta_1..theta_g, 1] finds an integer
    # relation exactly when the LLL oracle finds a nonzero relation lattice,
    # and its relation lies in that lattice
    P = parse_label(label)
    lat = angle_rank_numeric(P, 256)
    with mp.workprec(256):
        thetas = [mp.mpf(t.numerator) / t.denominator for t in roots(P, 256).thetas]
        # enough steps that None means no relation within maxcoeff
        rel = mp.pslq(thetas + [mp.mpf(1)], maxcoeff=COEFF_BOUND_RAW, maxsteps=10 ** 4)
    assert (rel is None) == (lat.rank == 0)
    if rel is not None:
        c = rel[:P.g]
        assert _divisors(list(lat.basis) + [c], P.g) == _divisors(lat.basis, P.g)


class TestStructuralTorsion:
    def test_delta_invariant_under_base_change(self):
        for label in ["2.5.a_ab", "3.2.a_a_ac"]:
            P = parse_label(label)
            d0 = angle_rank_numeric(P).delta
            for r in (2, 3, 4):
                assert angle_rank_numeric(base_change(P, r)).delta == d0

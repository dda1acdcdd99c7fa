import csv
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from weilsf import _intpoly as ip
from weilsf.anglerank import angle_rank_numeric
from weilsf.classify import BASE_CHANGE_RANGE, _split_degree, classify
from weilsf.cli import enumerate_weil
from weilsf.newton import Stratum, newton_polygon, stratify
from weilsf.polyarith import (MAX_FACTOR_DEGREE, BoundExceeded,
                              IsogenyFactorization, NoSupersingularMatch,
                              base_change, exterior_relation, factor,
                              supersingular_match, supersingular_torsion_order)
from weilsf.weilpoly import _real_roots as real_roots
from weilsf.weilpoly import WeilError, parse_label, validate

CORPUS = Path(__file__).resolve().parent.parent / "perfbench" / "data" / "corpus.tsv"


def _pairs(P):
    return [(h, e) for h, e, _ in factor(P).factors]


def _no_numeric_roots(*args):
    raise AssertionError("numeric roots of a part of H of degree <= 3")


class TestFactor:
    def test_irreducible_quartic(self):
        fac = factor(parse_label("2.5.a_ab"))
        assert fac.is_irreducible
        assert fac.factors[0][2] == "ordinary"

    def test_square_detected(self):
        c = ip.poly_pow((1, -1, 2), 2)
        assert _pairs(validate(c, 2)) == [((1, -1, 2), 2)]

    def test_base_changed_square_is_elliptic_square(self):
        # 2.25.ac_bz must come out as h^2 for the quadratic of 1.25.ab
        fac = factor(parse_label("2.25.ac_bz"))
        assert fac.factors == (((1, -1, 25), 2, "ordinary"),)

    def test_biquadratic_split(self):
        assert _pairs(validate((1, 0, 0, 0, 4), 2)) == [((1, -2, 2), 1), ((1, 2, 2), 1)]

    def test_deterministic_order(self):
        c = ip.poly_mul((1, 2, 2), ip.poly_mul((1, -1, 2), (1, 0, 2)))
        fac = _pairs(validate(c, 2))
        assert fac == sorted(fac, key=lambda he: (ip.degree(he[0]), he[0]))

    def test_factor_expand_roundtrip_random_products(self):
        # irreducible 2-Weil atoms, and the edge square (T^2 - 2)^2 whose
        # real Weil transform y^2 - 8 has the roots +-2 sqrt(2)
        rng = random.Random(7)
        square = ((1, 0, -4, 0, 4), (1, 0, -2), 2)
        atoms = [(h, h, 1) for h in [(1, -1, 2), (1, 0, 2), (1, 2, 2), (1, -2, 2),
                                     (1, 2, 2, 4, 4)]] + [square]
        for _ in range(25):
            c = (1,)
            want = []
            for atom, h, k in rng.sample(atoms, rng.randint(1, 3)):
                e = rng.randint(1, 2)
                c = ip.poly_mul(c, ip.poly_pow(atom, e))
                want.append((h, k * e))
            if ip.degree(c) > MAX_FACTOR_DEGREE:
                continue
            got = _pairs(validate(c, 2))
            assert got == sorted(want, key=lambda he: (ip.degree(he[0]), he[0]))

    @pytest.mark.parametrize("label, want", [
        ("2.2.a_ae", [((1, 0, -2), 2)]),
        ("1.4.ae", [((1, -2), 2)]),
        ("1.4.e", [((1, 2), 2)]),
        ("2.4.a_ai", [((1, -2), 2), ((1, 2), 2)]),
        ("3.2.b_ac_ae", [((1, 0, -2), 2), ((1, 1, 2), 1)]),
    ])
    def test_edge_squares(self, label, want):
        # real roots alpha = +-sqrt(q): the factor of H at y = +-2 sqrt(q)
        # pulls back to a square
        assert _pairs(parse_label(label)) == want

    @pytest.mark.parametrize("label, want", [
        ("2.5.a_j", [((1, -1, 5), 1), ((1, 1, 5), 1)]),   # H = y^2 - 1 splits
        ("2.5.a_ab", [((1, 0, -1, 0, 25), 1)]),           # H = y^2 - 11 does not
        ("2.25.ac_bz", [((1, -1, 25), 2)]),               # H = (y - 1)^2
        # H = y^3 - 3y^2 - y + 5 has no integer root, so it is irreducible
        ("3.2.ad_f_ah", [((1, -3, 5, -7, 10, -12, 8), 1)]),
        ("3.2.ab_b_b", [((1, -1, 2), 1), ((1, 0, -1, 0, 4), 1)]),  # (y - 1)(y^2 - 5)
        ("3.3.af_r_abi", [((1, -2, 3), 2), ((1, -1, 3), 1)]),     # (y - 1)(y - 2)^2
    ])
    def test_parts_of_H_up_to_degree_3_are_exact(self, monkeypatch, label, want):
        monkeypatch.setattr("weilsf.polyarith._real_roots", _no_numeric_roots)
        assert _pairs(parse_label(label)) == want

    def test_corpus_factors_without_numeric_roots(self, monkeypatch, corpus):
        # every part of H has degree <= g <= 3 here
        monkeypatch.setattr("weilsf.polyarith._real_roots", _no_numeric_roots)
        for polys in corpus.values():
            for P in polys:
                factor(P)

    def test_subset_search_splits_a_quartic_part(self, monkeypatch):
        # H = y^4 - 8y^2 + 4 has no integer root but splits into two
        # quadratics, which only the root-subset search finds
        calls = []

        def counted(h, precision):
            calls.append(h)
            return real_roots(h, precision)
        monkeypatch.setattr("weilsf.polyarith._real_roots", counted)
        P = validate(ip.poly_mul((1, 2, 2, 4, 4), (1, -2, 2, -4, 4)), 2)
        assert P.h == (1, 0, -8, 0, 4)
        assert _pairs(P) == [((1, -2, 2, -4, 4), 1), ((1, 2, 2, 4, 4), 1)]
        assert calls == [P.h]

    def test_json_schema(self):
        fac = factor(parse_label("2.25.ac_bz"))
        assert isinstance(fac, IsogenyFactorization)
        assert fac.to_json() == [{"h": [1, -1, 25], "e": 2, "newton": "ordinary"}]


class TestBaseChange:
    def test_paper_golden_quadratic(self):
        assert base_change(parse_label("2.5.a_ab"), 2).coeffs == \
            parse_label("2.25.ac_bz").coeffs

    def test_imaginary_quadratic_square(self):
        # roots +-i sqrt(q) square to -q
        assert base_change(parse_label("1.2.a"), 2).coeffs == (1, 4, 4)

    def test_composition(self):
        P = parse_label("1.2.ab")
        assert base_change(base_change(P, 2), 3).coeffs == base_change(P, 6).coeffs

    def test_identity(self):
        P = parse_label("2.2.ab_b")
        assert base_change(P, 1).coeffs == P.coeffs

    def test_output_is_validated_weil(self):
        for label in ["2.2.ab_b", "3.2.a_a_ac", "2.3.ac_c"]:
            P = parse_label(label)
            for r in (2, 3, 5):
                Q = base_change(P, r)
                assert Q.q == P.q ** r
                assert Q.g == P.g

    def test_degree7_golden(self):
        got = base_change(parse_label("3.8.ai_bk_aeq"), 7).coeffs
        assert got == ip.poly_pow((1, -1664, 2097152), 3)


class TestSupersingular:
    def test_torsion_orders(self):
        assert supersingular_torsion_order(parse_label("1.2.a")) == 4
        assert supersingular_torsion_order((1, -4, 4), 4) == 1
        assert supersingular_torsion_order((1, 4, 4), 4) == 2
        assert supersingular_torsion_order((1, 2, 2, 4, 4), 2) == 24
        assert supersingular_torsion_order((1, 0, 0, 9, 0, 0, 27), 3) == 36

    def test_torsion_order_rejects_non_ss(self):
        with pytest.raises(BoundExceeded):
            supersingular_torsion_order(parse_label("1.2.ab"))

    def test_match_z2_quartic(self):
        m = supersingular_match((1, 0, 0, 0, 25), 5)
        assert (m.zhu_type, m.m) == ("Z2", 8)

    def test_match_z1_linear(self):
        assert supersingular_match((1, 2), 4).m == 2
        assert supersingular_match((1, -2), 4).m == 1

    def test_match_z3_integer_form(self):
        m = supersingular_match((1, 2, 2, 4, 4), 2)
        assert (m.zhu_type, m.m, m.normalized_family) == ("Z3", 24, "Psi_{2,3}(T)")

    def test_match_agrees_with_torsion_everywhere(self):
        cases = [((1, 0, 2), 2), ((1, 2, 2, 4, 4), 2), ((1, -2, 2, -4, 4), 2),
                 ((1, 0, 0, 0, 25), 5), ((1, 0, 3, 0, 9), 3),
                 ((1, 0, -5, 0, 25), 5), ((1, 5, 15, 25, 25), 5),
                 ((1, -5, 15, -25, 25), 5), ((1, 2), 4), ((1, -2), 4),
                 ((1, 0, 4), 4), ((1, 2, 4), 4), ((1, -2, 4), 4),
                 ((1, 0, 0, 9, 0, 0, 27), 3), ((1, 0, 0, -9, 0, 0, 27), 3),
                 ((1, 0, 0, 0, 16), 4), ((1, 7, 21, 49, 147, 343, 343), 7),
                 ((1, -7, 21, -49, 147, -343, 343), 7),
                 ((1, 2, 4, 8, 16, 32, 64), 4)]
        for h, q in cases:
            assert supersingular_match(h, q).m == supersingular_torsion_order(h, q)

    def test_no_match_is_an_error(self):
        with pytest.raises(NoSupersingularMatch):
            supersingular_match((1, -1, 2), 2)


class TestExteriorRelation:
    @pytest.mark.parametrize("label, want", [
        ("2.2.ab_b", (2, 1)), ("2.5.a_ab", (1, 2)), ("2.3.ac_c", (1, 4)),
        ("3.2.ad_f_ah", (3, 1)), ("3.2.ac_d_ag", (2, 8)),
        ("3.3.ae_k_av", (2, 12)),
        # square q: the order of v itself, here 1
        ("3.4.a_c_ai", (2, 1)),
    ])
    def test_examples(self, label, want):
        assert exterior_relation(parse_label(label)) == want

    def test_rank_two_lattice_is_refused(self):
        # supersingular: every sign monomial is a root of unity
        with pytest.raises(WeilError, match="rank > 1"):
            exterior_relation(validate((1, 0, 0, 0, 4), 2))

    def test_corpus_agrees_with_recorded_oracle(self):
        # the oracle's (delta, m) of every corpus label is recorded in
        # corpus.tsv.  On an irreducible, non-supersingular P the exterior
        # test gives it whenever delta >= g - 1, and for g = 3 a smaller
        # delta always shows as a two-term relation
        with open(CORPUS, newline="") as fh:
            rows = list(csv.DictReader(fh, delimiter="\t"))
        seen = {}
        for row in rows:
            P = parse_label(row["label"])
            if row["supersingular"] == "1" or not factor(P).is_irreducible:
                continue
            oracle = (int(row["n_delta"]), int(row["n_m"]))
            split = _split_degree(P.coeffs, BASE_CHANGE_RANGE) if P.g == 3 else None
            if oracle[0] >= P.g - 1:
                assert split is None and exterior_relation(P) == oracle, row["label"]
            else:
                assert split is not None, row["label"]
            key = (P.g, oracle[0] >= P.g - 1)
            seen[key] = seen.get(key, 0) + 1
        assert seen == {(2, True): 177, (3, True): 402, (3, False): 24}

    def test_new_nodes_agree_with_oracle(self):
        # the irreducible inputs of (2, 8), (2, 16) and (3, 4) at the nodes
        # that call the exterior test: g = 2 stratum OTHER raised
        # UnclassifiedNode before it, and X-I gave (3, 1) whatever the input
        nodes = {}
        x_i_not_full_rank = 0
        for g, q, strata in [(2, 8, {Stratum.OTHER}), (2, 16, {Stratum.OTHER}),
                             (3, 4, {Stratum.ALMOST_ORDINARY, Stratum.OTHER,
                                     Stratum.P_RANK_ZERO_NON_SS})]:
            for P in enumerate_weil(g, q):
                stratum = stratify(newton_polygon(P), g)
                if stratum not in strata:
                    continue
                fac = factor(P)
                if not fac.is_irreducible:
                    continue
                sf = classify(P, fac=fac, stratum=stratum)
                if sf.provenance.startswith("X-H"):
                    continue   # Xing's shapes: no exterior test
                lat = angle_rank_numeric(P)
                assert sf.pair() == (lat.delta, lat.torsion_order), P.label
                key = (g, sf.provenance)
                nodes[key] = nodes.get(key, 0) + 1
                x_i_not_full_rank += sf.provenance == "X-I" and sf.pair() != (3, 1)
        assert nodes == {(2, "S-NA(exterior)"): 76, (3, "X-D:Table6:oracle"): 194,
                         (3, "X-I"): 102, (3, "X-NA(exterior)"): 54}
        assert x_i_not_full_rank == 8


class TestIntpolyOracles:
    def test_power_sums_match_brute_force(self):
        # brute force with explicit roots of (T-1)(T-2)(T+3)
        c = ip.poly_mul(ip.poly_mul((1, -1), (1, -2)), (1, 3))
        roots = [1, 2, -3]
        s = ip.power_sums(c, 8)
        for k in range(1, 9):
            assert s[k - 1] == sum(r ** k for r in roots)

    def test_from_power_sums_inverts(self):
        c = (1, -2, 51, -50, 625)
        s = ip.power_sums(c, 4)
        assert ip.poly_from_power_sums(s, 4) == c

    def test_cyclotomics(self):
        assert ip.cyclotomic(1) == (1, -1)
        assert ip.cyclotomic(8) == (1, 0, 0, 0, 1)
        assert ip.cyclotomic(12) == (1, 0, -1, 0, 1)
        prod = (1,)
        for d in (1, 2, 3, 6):
            prod = ip.poly_mul(prod, ip.cyclotomic(d))
        assert prod == (1, 0, 0, 0, 0, 0, -1)   # T^6 - 1

    def test_sturm_counts(self):
        assert ip.chain_count(ip._sturm_chain((1, 0, -8))) == 2
        assert ip.chain_count(ip._sturm_chain((1, 0, -8)), -1, 8) == 1
        assert ip.chain_count(ip._sturm_chain((1, 0, 1))) == 0


class TestIntegerCoreAgainstSympy:
    """poly_gcd, squarefree_decomposition and the Sturm counts against sympy."""

    @staticmethod
    def _sympy():
        sp = pytest.importorskip("sympy")
        return sp, sp.Symbol("y")

    @staticmethod
    def _random_poly(rng, deg, monic=False):
        c = [rng.randint(-9, 9) for _ in range(deg + 1)]
        if monic:
            c[0] = 1
        elif c[0] == 0:
            c[0] = rng.choice([-3, -2, -1, 1, 2, 5])
        return tuple(c)

    def test_gcd_is_primitive_sympy_gcd(self):
        sp, y = self._sympy()
        rng = random.Random(11)
        for _ in range(200):
            common = self._random_poly(rng, rng.randint(0, 3))
            a = ip.poly_mul(self._random_poly(rng, rng.randint(0, 3)), common)
            b = ip.poly_mul(self._random_poly(rng, rng.randint(0, 3)), common)
            want = sp.Poly(a, y).gcd(sp.Poly(b, y)).primitive()[1].all_coeffs()
            if want[0] < 0:
                want = [-x for x in want]
            assert ip.poly_gcd(a, b) == tuple(int(x) for x in want), (a, b)
        # non-monic and negative-leading inputs keep a positive leading coefficient
        assert ip.poly_gcd((-4, 2), (-6, 3, 0)) == (2, -1)
        assert ip.poly_gcd((-2, 1), (3, 1)) == (1,)

    def test_squarefree_decomposition_is_sqf_list(self):
        sp, y = self._sympy()
        rng = random.Random(12)
        for _ in range(100):
            c = (1,)
            for e in range(1, 4):
                c = ip.poly_mul(c, ip.poly_pow(self._random_poly(rng, rng.randint(0, 2), True), e))
            if ip.degree(c) == 0:
                continue
            got = {(tuple(f), e) for f, e in ip.squarefree_decomposition(c)}
            _, parts = sp.sqf_list(sp.Poly(c, y))
            want = {(tuple(int(x) for x in f.all_coeffs()), e) for f, e in parts}
            assert got == want, c

    def test_sturm_count_matches_real_roots(self):
        sp, y = self._sympy()
        rng = random.Random(13)
        for _ in range(100):
            roots = rng.sample(range(-6, 7), rng.randint(1, 3))
            c = (1,)
            for r in roots:
                c = ip.poly_mul(c, (1, -r))
            c = ip.poly_mul(c, self._random_poly(rng, rng.randint(1, 3), True))
            if ip.degree(ip.poly_gcd(c, ip.poly_derivative(c))) > 0:
                continue
            real = sp.real_roots(sp.Poly(c, y))
            # the chain of the squarefree part of c (y - r), which has r twice
            doubled = ip.poly_mul(c, (1, -roots[0]))
            chain = ip.squarefree_sturm_chain(doubled)
            assert chain[0] == c
            # Euclid's sequence on (c (y - r), its derivative) ends in y - r
            euclid = ip._euclid(doubled, ip.poly_derivative(doubled))
            # interval ends on roots, between them and unbounded
            ends = [None] + roots + [Fraction(rng.randint(-20, 20), rng.randint(1, 4))]
            for lo in ends:
                for hi in ends:
                    if lo is not None and hi is not None and lo >= hi:
                        continue
                    want = sum(1 for r in real
                               if (lo is None or r > lo) and (hi is None or r <= hi))
                    assert ip.chain_count(ip._sturm_chain(c), lo, hi) == want, (c, lo, hi)
                    assert ip.chain_count(chain, lo, hi) == want, (c, lo, hi)
                    if roots[0] in (lo, hi):
                        with pytest.raises(ValueError):
                            ip.chain_count(euclid, lo, hi)
                    else:
                        assert ip.chain_count(euclid, lo, hi) == want, (c, lo, hi)

    def test_rem_is_signed_primitive_prem(self):
        # sympy's prem(a, b) = lc(b)^(deg a - deg b + 1) a mod b
        sp, y = self._sympy()
        rng = random.Random(14)
        for _ in range(400):
            a = self._random_poly(rng, rng.randint(0, 7))
            b = self._random_poly(rng, rng.randint(0, 4), monic=rng.random() < 0.3)
            prem = [int(x) for x in sp.prem(sp.Poly(a, y), sp.Poly(b, y)).all_coeffs()]
            sign = (-1 if b[0] < 0 else 1) ** max(len(a) - len(b) + 1, 0)
            want = tuple(sign * x // math.gcd(*prem) for x in prem) if any(prem) else (0,)
            assert ip._rem(a, b) == want, (a, b)

    def test_sturm_count_rejects_repeated_roots(self):
        with pytest.raises(ValueError):
            ip.chain_count(ip._sturm_chain((1, 0, -2, 0, 1)))   # (T^2 - 1)^2
        with pytest.raises(ValueError):
            ip.chain_count(ip._sturm_chain(ip.poly_mul((1, -1), (1, -2, 1))), 0, 5)

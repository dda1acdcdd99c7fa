import hashlib
import math
import sys

import pytest

from weilsf import _intpoly as ip
from weilsf.anglerank import angle_rank_numeric
from weilsf.classify import (InconsistentInputs, InvalidTrace, NotOrdinary,
                             NotSimple, Partial, SerreFrobeniusGroup,
                             UnclassifiedNode, _has_ratio_of_order,
                             _simple_threefold_relation, _split_degree,
                             classify, geometric_decomposition,
                             howe_zhu_split_degree, report, sf_of_product)
from weilsf.cli import enumerate_weil
from weilsf.newton import Stratum, newton_polygon, stratify
from weilsf.polyarith import factor
from weilsf.weilpoly import (WeilError, _is_prime, from_middle, parse_label,
                             validate)

from conftest import PAPER_EXAMPLES


def _elliptic(q, trace):
    return validate((1, -trace, q), q)


class TestElliptic:
    def test_ordinary(self):
        sf = classify(_elliptic(2, -1))
        assert sf.group == "U(1)" and sf.pair() == (1, 1)

    def test_rational_traces(self):
        assert classify(_elliptic(4, 4)).group == "C_1"
        assert classify(_elliptic(4, -4)).group == "C_2"

    def test_sqrt_q_traces(self):
        assert classify(_elliptic(4, 2)).group == "C_6"
        assert classify(_elliptic(4, -2)).group == "C_3"

    def test_trace_zero(self):
        assert classify(_elliptic(2, 0)).group == "C_4"
        assert classify(_elliptic(4, 0)).group == "C_4"

    def test_char_2_and_3(self):
        assert classify(_elliptic(2, 2)).group == "C_8"
        assert classify(_elliptic(2, -2)).group == "C_8"
        assert classify(_elliptic(3, 3)).group == "C_12"
        assert classify(_elliptic(3, -3)).group == "C_12"

    def test_waterhouse_rejections(self):
        with pytest.raises(InvalidTrace):
            classify(_elliptic(8, 2))    # p | a but no case applies
        with pytest.raises(InvalidTrace):
            classify(_elliptic(25, 0))   # p = 5 = 1 mod 4, d even

    def test_group_matches_torsion_oracle(self):
        # the supersingular order must equal the base-change torsion order
        from weilsf.polyarith import supersingular_torsion_order
        for q in (2, 3, 4, 5, 7, 8, 9, 16, 25, 49):
            bound = math.isqrt(4 * q)
            for t in range(-bound, bound + 1):
                try:
                    P = _elliptic(q, t)
                    sf = classify(P)
                except Exception:
                    continue
                if sf.delta == 0:
                    assert sf.m == supersingular_torsion_order(P.coeffs, P.q)


class TestSurface:
    def test_howe_zhu_tests(self):
        assert howe_zhu_split_degree(0, -3, 2) == 2
        assert howe_zhu_split_degree(-1, -1, 2) == 3
        assert howe_zhu_split_degree(-2, 2, 3) == 4
        assert howe_zhu_split_degree(-3, 5, 2) == 6
        assert howe_zhu_split_degree(-1, 1, 2) is None

    def test_nodes(self):
        assert classify(parse_label("2.2.a_ad")).provenance == "S-A(b)"
        assert classify(parse_label("2.2.ab_b")).provenance == "S-A(a)"
        assert classify(parse_label("2.2.ac_f")).provenance == "S-C(m=1)"
        assert classify(parse_label("2.2.ab_a")).provenance == "S-D"

    def test_supersingular_simple_table_rows(self):
        sf = classify(validate((1, 2, 2, 4, 4), 2))
        assert sf.group == "C_24"
        assert sf.provenance.startswith("S-F:Z3")
        sf2 = classify(validate((1, 0, -4, 0, 4), 2))   # (T^2-q)^2
        assert sf2.group == "C_2"
        assert sf2.provenance.startswith("S-F:Z2")

    def test_supersingular_split(self):
        sf = classify(validate((1, 0, 0, 0, 4), 2))   # two C_8 curves
        assert sf.group == "C_8" and sf.provenance == "S-G:lcm"

    def test_howe_zhu_agrees_with_the_split_degree(self, corpus):
        # the coefficient tests are a fast path for ordinary quartics; the
        # split degree answers the same question for every h
        polys = [P for polys in corpus.values() for P in polys]
        for g, q in [(2, 7), (2, 8), (2, 9), (2, 16), (3, 4)]:
            polys += list(enumerate_weil(g, q))
        quartics = {(h, P.q) for P in polys for h, _, cls in factor(P).factors
                    if ip.degree(h) == 4 and cls == "ordinary"}
        assert len(quartics) == 837
        for h, q in quartics:
            assert howe_zhu_split_degree(h[1], h[2], q) == _split_degree(h, q), (h, q)

    def test_almost_ordinary_split(self):
        c = ip.poly_mul((1, -1, 2), (1, 0, 2))
        sf = classify(validate(c, 2))
        assert sf.group == "U(1) x C_4" and sf.provenance == "S-E"

    def test_formal_quarter_slope_inputs(self):
        sf = classify(validate((1, 0, 2, 0, 16), 4))
        assert sf.pair() == (1, 2)
        lat = angle_rank_numeric(validate((1, 0, 2, 0, 16), 4))
        assert sf.pair() == (lat.delta, lat.torsion_order)

    def test_reducible_formal_inputs_take_the_product_rule(self):
        # every reducible p-rank 0, non-supersingular g = 2 input of (2, 8)
        # and (2, 16); S-NA took them for simple surfaces before
        seen = 0
        for q in (8, 16):
            for P in enumerate_weil(2, q):
                fac = factor(P)
                stratum = stratify(newton_polygon(P), 2)
                if fac.is_irreducible or stratum is not Stratum.P_RANK_ZERO_NON_SS:
                    continue
                sf = classify(P, fac=fac, stratum=stratum)
                lat = angle_rank_numeric(P)
                assert sf.provenance == "S-NA(product)", P.label
                assert sf.pair() == (lat.delta, lat.torsion_order), P.label
                seen += 1
        assert seen == 39


class TestThreefold:
    def test_cubic_pattern(self):
        sf = classify(parse_label("3.2.a_a_ad"))
        assert sf.group == "U(1) x C_3" and sf.provenance == "X-B(3)"

    def test_degree7_splitting(self):
        sf = classify(parse_label("3.2.ae_j_ap"))
        assert sf.group == "U(1) x C_7" and sf.provenance == "X-B(7)"

    def test_xing_cases(self):
        assert classify(parse_label("3.2.a_a_ac")).pair() == (1, 3)
        assert classify(parse_label("3.8.ag_bk_aea")).pair() == (1, 1)
        assert classify(parse_label("3.8.ai_bk_aeq")).pair() == (1, 7)

    @pytest.mark.parametrize("label", ["3.8.a_a_abo", "3.8.a_a_bo"])
    def test_reducible_xing_shape(self, label):
        # (T^2 -+ 2T + 8)(T^4 +- 2T^3 - 4T^2 +- 16T + 64) is a cube over F_(8^3):
        # the quartic meets the quadratic there, which the product rule
        # would miss (delta = 2)
        P = parse_label(label)
        sf = classify(P)
        lat = angle_rank_numeric(P)
        assert sf.provenance == "X-H:xing(m=3)"
        assert sf.pair() == (lat.delta, lat.torsion_order) == (1, 3)

    def test_k3_simple(self, corpus):
        from weilsf.newton import Stratum, newton_polygon, stratify
        from weilsf.polyarith import factor
        hits = 0
        for P in corpus[(3, 2)]:
            if stratify(newton_polygon(P), 3) is not Stratum.K3_TYPE:
                continue
            if not factor(P).is_irreducible:
                continue
            sf = classify(P)
            assert sf.pair() == (3, 1) and sf.provenance == "X-F"
            hits += 1
        assert hits > 0

    def test_simple_ao_oracle_node(self):
        sf = classify(parse_label("3.2.ac_d_ag"))
        assert sf.pair() == (2, 8)
        assert sf.provenance == "X-D:Table6:oracle"

    @pytest.mark.parametrize("error", [InconsistentInputs, UnclassifiedNode])
    def test_exterior_nodes_refuse_two_term_relations(self, error):
        # delta = 1: P gains a factor over F_8, and Lambda_3 would not see it
        P = parse_label("3.2.a_a_ad")
        with pytest.raises(error, match="F_\\(q\\^3\\)"):
            _simple_threefold_relation(P, error, None)

    def test_supersingular_simple_sextic(self):
        sf = classify(validate((1, 0, 0, 9, 0, 0, 27), 3))
        assert sf.group == "C_36"
        assert sf.provenance.startswith("X-ss-simple:Z3")


@pytest.mark.parametrize("label, node, m", [
    ("2.2.c_c", "S-F:Z3", 24), ("2.5.a_f", "S-F:Z2", 6),
    ("3.3.a_a_j", "X-ss-simple", 36)])
def test_simple_supersingular_nodes_read_m_from_the_match(count_calls, label, node, m):
    calls = count_calls("supersingular_torsion_order")
    sf = classify(parse_label(label))
    assert sf.provenance.startswith(node + ":") and sf.m == m
    assert calls == []


class TestPaperExamples:
    @pytest.mark.parametrize("label,group", sorted(PAPER_EXAMPLES.items()))
    def test_label(self, label, group):
        assert classify(parse_label(label)).group == group


PRODUCTS_BEYOND_CORPORA_SHA256 = (
    "9da14f7005949285c6462559ef8386be4c19f53bc7ce940be307c7f3a05456df")


class TestProducts:
    def test_isogenous_at_cubic_degree(self):
        # the two elliptic factors of 2.7.af_s merge over the cubic extension
        delta, m, _ = sf_of_product(factor(parse_label("2.7.af_s")).factors, 7, 7, 1)
        assert (delta, m) == (1, 3)

    def test_ordinary_times_supersingular_c12(self):
        c = ip.poly_mul((1, -1, 3), (1, -3, 3))
        P = validate(c, 3)
        sf = classify(P)
        assert sf.group == "U(1) x C_12"

    def test_three_independent_elliptic_curves(self):
        c = ip.poly_mul(ip.poly_mul((1, -1, 5), (1, -2, 5)), (1, -3, 5))
        P = validate(c, 5)
        sf = classify(P)
        assert sf.group == "U(1)^3" and sf.pair() == (3, 1)
        assert angle_rank_numeric(P).delta == 3

    @pytest.mark.parametrize("label,result", [
        # a quadratic and a split quartic in one class
        ("3.2.ac_c_ad", (1, 6, (("ordinary_class", 6),))),
        # two quadratics that merge at r = 3
        ("2.7.af_s", (1, 3, (("ordinary_class", 3),))),
        # three classes
        ("3.5.ai_bi_ado", (3, 1, (("ordinary_class", 1),) * 3)),
    ])
    def test_one_tower_per_piece(self, count_calls, label, result):
        # the classes come from composed products with the class opener;
        # no piece builds a base-change tower
        P = parse_label(label)
        fac = factor(P)
        calls = count_calls("base_changes")
        assert sf_of_product(fac.factors, P.q, P.p, P.d) == result
        assert calls == []

    def test_reducible_inputs_beyond_the_corpora(self):
        # (label, delta, m, rule) of every reducible input of (2, 7), (2, 8),
        # (2, 9), (2, 16) and (3, 4), 1047 of them, as computed by the
        # base-change towers before the composed-product rewrite of
        # sf_of_product; they hold the formal reducible inputs too
        digest = hashlib.sha256()
        count = 0
        for g, q in [(2, 7), (2, 8), (2, 9), (2, 16), (3, 4)]:
            for P in enumerate_weil(g, q):
                fac = factor(P)
                if not fac.is_irreducible:
                    result = sf_of_product(fac.factors, P.q, P.p, P.d)
                    digest.update(repr((P.label,) + result).encode() + b"\n")
                    count += 1
        assert count == 1047
        assert digest.hexdigest() == PRODUCTS_BEYOND_CORPORA_SHA256


def _reference_split_degree(c):
    # the base-change search up to F_(q^24) that the Sym^2 test replaced
    limit = 24
    bcs = ip.base_changes(c, limit)
    return next((r for r in range(2, limit + 1) if math.gcd(
        *(k for _, k in ip.squarefree_decomposition(bcs[r - 1]))) > 1), None)


def _reference_power_index(c, r):
    # the largest k with base_change(c, r) a k-th power, from Yun's
    # algorithm: the test the split-degree nodes replaced
    return math.gcd(*(k for _, k in ip.squarefree_decomposition(
        ip.base_changes(c, r)[-1])))


class TestSplitDegree:
    def test_equals_the_base_change_search(self, corpus):
        # the irreducible inputs of the corpora, (2, 8) and (2, 16), and the
        # prime-dimension inputs with their twists P(-T).  A quartic factor
        # of a reducible g = 3 input (the quartic branch of sf_of_product) is
        # an irreducible g = 2 input over the same field, so it is among them
        # when its field is
        polys = [P for polys in corpus.values() for P in polys]
        polys += list(enumerate_weil(2, 8)) + list(enumerate_weil(2, 16))
        inputs = {(P.coeffs, P.q) for P in polys if factor(P).is_irreducible}
        for c, q in PRIME_DIM_INPUTS:
            inputs.update({(c, q), (_twist(c), q)})
        assert len(inputs) == 1374
        for h, q in sorted(inputs):
            assert _split_degree(h, q) == _reference_split_degree(h), (h, q)

    def test_builds_no_tower(self, count_calls):
        fac = factor(parse_label("3.2.ad_f_ah"))
        yun = count_calls("squarefree_decomposition")
        towers = count_calls("base_changes")
        assert geometric_decomposition(fac).split_degree == 0
        assert yun == [] and towers == []

    def test_report_computes_it_once(self, count_calls, corpus):
        # X-D, X-I and S-NA took it in the classifier node and again in
        # geometric_decomposition; the X-A and X-B nodes now take it too
        calls = count_calls("_split_degree")
        total = 0
        for polys in corpus.values():
            for P in polys:
                calls.clear()
                report(P)
                assert calls in ([], [(P.coeffs, P.q)]), P.label
                total += len(calls)
        assert total == 620

    def test_nodes_equal_the_power_index(self):
        # X-A, X-B(3), X-B(7) and X-H read the split degree; they took the
        # power index of base changes to F_(q^3) and F_(q^7) before
        seen = {}
        for q in (2, 3, 4):
            for P in enumerate_weil(3, q):
                stratum = stratify(newton_polygon(P), 3)
                fac = factor(P)
                if stratum is Stratum.ORDINARY and fac.is_irreducible:
                    if P.a(1) == 0 and P.a(2) == 0:
                        assert _reference_power_index(P.coeffs, 3) % 3 == 0
                        want = "X-B(3)"
                    elif _reference_power_index(P.coeffs, 7) % 3 == 0:
                        want = "X-B(7)"
                    else:
                        want = "X-A"
                elif stratum is Stratum.P_RANK_ZERO_NON_SS:
                    want = next(("X-H:xing(m=%d)" % r for r in (1, 3, 7) if
                                 _reference_power_index(P.coeffs, r) % 3 == 0), "")
                else:
                    continue
                got = classify(P, fac=fac, stratum=stratum).provenance
                if want:
                    assert got == want, P.label
                else:
                    assert not got.startswith("X-H"), P.label
                seen[want] = seen.get(want, 0) + 1
        assert seen == NODES_BY_POWER_INDEX

    def test_prime_dimension_tests_equal_the_power_index(self):
        # ThmD(2) and ThmD(3): one division of Sym^2 P at a prime r against
        # the power index of the base change to F_(q^r)
        splits = []
        for c, q in PRIME_DIM_INPUTS + [(_twist(c), q) for c, q in PRIME_DIM_INPUTS]:
            P = validate(c, q)
            for r in (P.g, 2 * P.g + 1):
                if _is_prime(r):
                    k = _reference_power_index(c, r)
                    assert k in (1, P.g)
                    assert _has_ratio_of_order(P, r) == (k == P.g), (c, r)
                    splits.append(k == P.g)
        assert splits.count(True) == 4 and len(splits) == 14


# provenance by the old power-index rule over the g = 3 inputs of q = 2, 3, 4
# that reach it ("" for a p-rank 0 input that is not a Xing shape)
NODES_BY_POWER_INDEX = {"X-A": 864, "X-B(3)": 26, "X-B(7)": 8,
                        "X-H:xing(m=3)": 18, "": 164}


# the Sophie Germain witness: roots zeta_11^j * beta with beta = (1+sqrt(-11))/2
# twisted by the quadratic character mod 11; frozen after exact construction
PRIME_DIM_G5_SPLIT11 = (1, 6, 14, 7, -46, -133, -138, 63, 378, 486, 243)
# Jacobi-sum Weil number for p = 23 and an order-11 character: absolutely simple
PRIME_DIM_G5_ABS = (1, 21, 243, 1913, 11771, 60543, 270733, 1011977,
                    2956581, 5876661, 6436343)
# the four frozen inputs, (coeffs, q); the twists P(-T) are built from them
PRIME_DIM_INPUTS = [((1, 0, 0, 0, 0, -3, 0, 0, 0, 0, 32), 2),
                    (PRIME_DIM_G5_SPLIT11, 3), (PRIME_DIM_G5_ABS, 23),
                    (from_middle(7, 2, (-1, 0, 0, 0, 0, 0, -3)).coeffs, 2)]


def _twist(c):
    return tuple(x * (-1) ** i for i, x in enumerate(c))


class TestPrimeDimension:
    def test_splits_at_degree_g(self):
        P = validate((1, 0, 0, 0, 0, -3, 0, 0, 0, 0, 32), 2)
        sf = classify(P)
        assert sf.group == "U(1) x C_5" and sf.provenance == "ThmD(2)"

    def test_sophie_germain_split(self):
        P = validate(PRIME_DIM_G5_SPLIT11, 3)
        sf = classify(P)
        assert sf.group == "U(1) x C_11" and sf.provenance == "ThmD(3)"
        bc = ip.base_changes(P.coeffs, 11)[-1]
        assert bc == ip.poly_pow((1, -67, 177147), 5)

    def test_absolutely_simple_partial(self):
        P = validate(PRIME_DIM_G5_ABS, 23)
        out = classify(P)
        assert isinstance(out, Partial)
        assert out.absolutely_simple and not out.certified
        assert out.delta == 5

    def test_g7_partial_without_checking_15(self):
        P = from_middle(7, 2, (-1, 0, 0, 0, 0, 0, -3))
        out = classify(P)
        assert isinstance(out, Partial) and out.absolutely_simple
        assert out.delta == 7

    def test_split_degrees(self):
        # the exact split test on degree 10: a split at g, at 2g + 1,
        # and none up to the search bound for the absolutely simple input
        for coeffs, q, split in [((1, 0, 0, 0, 0, -3, 0, 0, 0, 0, 32), 2, 5),
                                 (PRIME_DIM_G5_SPLIT11, 3, 11),
                                 (PRIME_DIM_G5_ABS, 23, 0)]:
            dec = geometric_decomposition(factor(validate(coeffs, q)))
            assert dec.split_degree == split

    def test_frozen_inputs_factor_as_one_ordinary_factor(self):
        for P in [validate((1, 0, 0, 0, 0, -3, 0, 0, 0, 0, 32), 2),
                  validate(PRIME_DIM_G5_SPLIT11, 3),
                  validate(PRIME_DIM_G5_ABS, 23),
                  from_middle(7, 2, (-1, 0, 0, 0, 0, 0, -3))]:
            assert factor(P).factors == ((P.coeffs, 1, "ordinary"),)

    def test_preconditions(self):
        with pytest.raises(NotSimple):
            classify(validate(ip.poly_pow((1, -1, 2), 5), 2))
        # irreducible supersingular degree 10: 2^10 Phi_11(T/2) over F_4
        h11 = tuple(2 ** i for i in range(11))
        with pytest.raises(NotOrdinary):
            classify(validate(h11, 4))


class TestInvariants:
    def test_outputs_in_allowed_tables(self):
        for label in PAPER_EXAMPLES:
            sf = classify(parse_label(label))
            assert sf.in_allowed_tables(), label

    def test_base_change_coherence(self):
        from weilsf.polyarith import base_change
        for label in ["2.5.a_ab", "2.3.ac_c", "3.2.a_a_ac", "2.2.ad_f"]:
            P = parse_label(label)
            sf = classify(P)
            sf2 = classify(base_change(P, sf.m))
            assert sf2.m == 1 and sf2.delta == sf.delta

    def test_group_strings(self):
        assert SerreFrobeniusGroup(2, 0, 24, "x").group == "C_24"
        assert SerreFrobeniusGroup(2, 1, 1, "x").group == "U(1)"
        assert SerreFrobeniusGroup(3, 2, 6, "x").group == "U(1)^2 x C_6"
        assert SerreFrobeniusGroup(1, 0, 1, "x").group == "C_1"

    def test_report_schema(self):
        rep = report(parse_label("2.5.a_ab"))
        for key in ("schema_version", "label", "g", "q", "stratum", "delta",
                    "m", "group", "provenance", "split_degree", "factors"):
            assert key in rep
        assert rep["group"] == "U(1) x C_2"
        assert rep["split_degree"] == 2

    @pytest.mark.parametrize("P", [
        parse_label("1.2.ab"), parse_label("2.7.af_s"), parse_label("3.2.ad_f_ah"),
        from_middle(7, 2, (-1, 0, 0, 0, 0, 0, -3))], ids=lambda P: P.label)
    def test_report_factors_once(self, monkeypatch, P):
        calls = []

        def counting_factor(*args, **kwargs):
            calls.append(args[0].label)
            return factor(*args, **kwargs)

        # the package re-exports classify(), which hides the module
        monkeypatch.setattr(sys.modules["weilsf.classify"], "factor", counting_factor)
        report(P)
        assert calls == [P.label]

    @pytest.mark.parametrize("label", ["2.5.a_ab", "3.2.ad_f_ah"])
    def test_report_computes_newton_polygon_once(self, monkeypatch, label):
        calls = []

        def counting_newton_polygon(P):
            calls.append(P.label)
            return newton_polygon(P)

        monkeypatch.setattr(sys.modules["weilsf.classify"], "newton_polygon",
                            counting_newton_polygon)
        report(parse_label(label))
        assert calls == [label]

    @pytest.mark.parametrize("g", [4, 9])
    def test_report_rejects_unclassified_dimension_before_factoring(self, g):
        # g = 9 is beyond factor's degree bound; the error names the classifier
        with pytest.raises(WeilError, match="no classification implemented for g = %d" % g):
            report(from_middle(g, 2, (0,) * g))

    def test_needs_no_oracle_for_g_up_to_3(self, monkeypatch, corpus):
        def no_oracle(*args):
            raise AssertionError("the classifier called the oracle")
        monkeypatch.setattr(sys.modules["weilsf.classify"], "angle_rank_numeric",
                            no_oracle)
        assert sum(map(len, corpus.values())) == 1220
        for polys in corpus.values():
            for P in polys:
                classify(P)

    def test_split_degrees(self):
        assert geometric_decomposition(factor(parse_label("2.2.ab_b"))).split_degree == 0
        assert geometric_decomposition(factor(parse_label("3.2.a_a_ad"))).split_degree == 3
        assert geometric_decomposition(factor(parse_label("2.2.a_d"))).split_degree == 1

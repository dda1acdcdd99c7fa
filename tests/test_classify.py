import math
import sys

import pytest

from weilsf import _intpoly as ip
from weilsf.anglerank import angle_rank_numeric
from weilsf.classify import (InconsistentInputs, InvalidTrace, NotOrdinary,
                             NotSimple, Partial, SerreFrobeniusGroup,
                             UnclassifiedNode, _simple_threefold_relation,
                             classify, classify_elliptic, classify_prime_dim,
                             classify_surface, classify_threefold,
                             geometric_decomposition, howe_zhu_split_degree,
                             report, sf_of_product)
from weilsf.newton import newton_polygon
from weilsf.polyarith import factor
from weilsf.weilpoly import WeilError, from_middle, parse_label, validate

from conftest import PAPER_EXAMPLES


def _elliptic(q, trace):
    return validate((1, -trace, q), q)


class TestElliptic:
    def test_ordinary(self):
        sf = classify_elliptic(_elliptic(2, -1))
        assert sf.group == "U(1)" and sf.pair() == (1, 1)

    def test_rational_traces(self):
        assert classify_elliptic(_elliptic(4, 4)).group == "C_1"
        assert classify_elliptic(_elliptic(4, -4)).group == "C_2"

    def test_sqrt_q_traces(self):
        assert classify_elliptic(_elliptic(4, 2)).group == "C_6"
        assert classify_elliptic(_elliptic(4, -2)).group == "C_3"

    def test_trace_zero(self):
        assert classify_elliptic(_elliptic(2, 0)).group == "C_4"
        assert classify_elliptic(_elliptic(4, 0)).group == "C_4"

    def test_char_2_and_3(self):
        assert classify_elliptic(_elliptic(2, 2)).group == "C_8"
        assert classify_elliptic(_elliptic(2, -2)).group == "C_8"
        assert classify_elliptic(_elliptic(3, 3)).group == "C_12"
        assert classify_elliptic(_elliptic(3, -3)).group == "C_12"

    def test_waterhouse_rejections(self):
        with pytest.raises(InvalidTrace):
            classify_elliptic(_elliptic(8, 2))    # p | a but no case applies
        with pytest.raises(InvalidTrace):
            classify_elliptic(_elliptic(25, 0))   # p = 5 = 1 mod 4, d even

    def test_group_matches_torsion_oracle(self):
        # the supersingular order must equal the base-change torsion order
        from weilsf.polyarith import supersingular_torsion_order
        for q in (2, 3, 4, 5, 7, 8, 9, 16, 25, 49):
            bound = math.isqrt(4 * q)
            for t in range(-bound, bound + 1):
                try:
                    P = _elliptic(q, t)
                    sf = classify_elliptic(P)
                except Exception:
                    continue
                if sf.delta == 0:
                    assert sf.m == supersingular_torsion_order(P)


class TestSurface:
    def test_howe_zhu_tests(self):
        assert howe_zhu_split_degree(0, -3, 2) == 2
        assert howe_zhu_split_degree(-1, -1, 2) == 3
        assert howe_zhu_split_degree(-2, 2, 3) == 4
        assert howe_zhu_split_degree(-3, 5, 2) == 6
        assert howe_zhu_split_degree(-1, 1, 2) is None

    def test_nodes(self):
        assert classify_surface(parse_label("2.2.a_ad")).provenance == "S-A(b)"
        assert classify_surface(parse_label("2.2.ab_b")).provenance == "S-A(a)"
        assert classify_surface(parse_label("2.2.ac_f")).provenance == "S-C(m=1)"
        assert classify_surface(parse_label("2.2.ab_a")).provenance == "S-D"

    def test_supersingular_simple_table_rows(self):
        sf = classify_surface(validate((1, 2, 2, 4, 4), 2))
        assert sf.group == "C_24"
        assert sf.provenance.startswith("S-F:Z3")
        sf2 = classify_surface(validate((1, 0, -4, 0, 4), 2))   # (T^2-q)^2
        assert sf2.group == "C_2"
        assert sf2.provenance.startswith("S-F:Z2")

    def test_supersingular_split(self):
        sf = classify_surface(validate((1, 0, 0, 0, 4), 2))   # two C_8 curves
        assert sf.group == "C_8" and sf.provenance == "S-G:lcm"

    def test_almost_ordinary_split(self):
        c = ip.poly_mul((1, -1, 2), (1, 0, 2))
        sf = classify_surface(validate(c, 2))
        assert sf.group == "U(1) x C_4" and sf.provenance == "S-E"

    def test_formal_quarter_slope_inputs(self):
        sf = classify_surface(validate((1, 0, 2, 0, 16), 4))
        assert sf.pair() == (1, 2)
        lat = angle_rank_numeric(validate((1, 0, 2, 0, 16), 4))
        assert sf.pair() == (lat.delta, lat.torsion_order)


class TestThreefold:
    def test_cubic_pattern(self):
        sf = classify_threefold(parse_label("3.2.a_a_ad"))
        assert sf.group == "U(1) x C_3" and sf.provenance == "X-B(3)"

    def test_degree7_splitting(self):
        sf = classify_threefold(parse_label("3.2.ae_j_ap"))
        assert sf.group == "U(1) x C_7" and sf.provenance == "X-B(7)"

    def test_xing_cases(self):
        assert classify_threefold(parse_label("3.2.a_a_ac")).pair() == (1, 3)
        assert classify_threefold(parse_label("3.8.ag_bk_aea")).pair() == (1, 1)
        assert classify_threefold(parse_label("3.8.ai_bk_aeq")).pair() == (1, 7)

    def test_k3_simple(self, corpus):
        from weilsf.newton import Stratum, newton_polygon, stratify
        from weilsf.polyarith import factor
        hits = 0
        for P in corpus[(3, 2)]:
            if stratify(newton_polygon(P), 3) is not Stratum.K3_TYPE:
                continue
            if not factor(P).is_irreducible:
                continue
            sf = classify_threefold(P)
            assert sf.pair() == (3, 1) and sf.provenance == "X-F"
            hits += 1
        assert hits > 0

    def test_simple_ao_oracle_node(self):
        sf = classify_threefold(parse_label("3.2.ac_d_ag"))
        assert sf.pair() == (2, 8)
        assert sf.provenance == "X-D:Table6:oracle"

    @pytest.mark.parametrize("error", [InconsistentInputs, UnclassifiedNode])
    def test_exterior_nodes_refuse_two_term_relations(self, error):
        # delta = 1: P gains a factor over F_8, and Lambda_3 would not see it
        P = parse_label("3.2.a_a_ad")
        with pytest.raises(error, match="F_\\(q\\^3\\)"):
            _simple_threefold_relation(P, error)

    def test_supersingular_simple_sextic(self):
        sf = classify_threefold(validate((1, 0, 0, 9, 0, 0, 27), 3))
        assert sf.group == "C_36"
        assert sf.provenance.startswith("X-ss-simple:Z3")


class TestPaperExamples:
    @pytest.mark.parametrize("label,group", sorted(PAPER_EXAMPLES.items()))
    def test_label(self, label, group):
        assert classify(parse_label(label)).group == group


class TestProducts:
    def test_isogenous_at_cubic_degree(self):
        # the two elliptic factors of 2.7.af_s merge over the cubic extension
        delta, m, _ = sf_of_product(factor(parse_label("2.7.af_s")).factors, 7, 7, 1)
        assert (delta, m) == (1, 3)

    def test_ordinary_times_supersingular_c12(self):
        c = ip.poly_mul((1, -1, 3), (1, -3, 3))
        P = validate(c, 3)
        sf = classify_surface(P)
        assert sf.group == "U(1) x C_12"

    def test_three_independent_elliptic_curves(self):
        c = ip.poly_mul(ip.poly_mul((1, -1, 5), (1, -2, 5)), (1, -3, 5))
        P = validate(c, 5)
        sf = classify_threefold(P)
        assert sf.group == "U(1)^3" and sf.pair() == (3, 1)
        assert angle_rank_numeric(P).delta == 3


# the Sophie Germain witness: roots zeta_11^j * beta with beta = (1+sqrt(-11))/2
# twisted by the quadratic character mod 11; frozen after exact construction
PRIME_DIM_G5_SPLIT11 = (1, 6, 14, 7, -46, -133, -138, 63, 378, 486, 243)
# Jacobi-sum Weil number for p = 23 and an order-11 character: absolutely simple
PRIME_DIM_G5_ABS = (1, 21, 243, 1913, 11771, 60543, 270733, 1011977,
                    2956581, 5876661, 6436343)


class TestPrimeDimension:
    def test_splits_at_degree_g(self):
        P = validate((1, 0, 0, 0, 0, -3, 0, 0, 0, 0, 32), 2)
        sf = classify_prime_dim(P)
        assert sf.group == "U(1) x C_5" and sf.provenance == "ThmD(2)"

    def test_sophie_germain_split(self):
        P = validate(PRIME_DIM_G5_SPLIT11, 3)
        sf = classify_prime_dim(P)
        assert sf.group == "U(1) x C_11" and sf.provenance == "ThmD(3)"
        bc = ip.base_change_coeffs(P.coeffs, 11)
        assert bc == ip.poly_pow((1, -67, 177147), 5)

    def test_absolutely_simple_partial(self):
        P = validate(PRIME_DIM_G5_ABS, 23)
        out = classify_prime_dim(P)
        assert isinstance(out, Partial)
        assert out.absolutely_simple and not out.certified
        assert out.delta == 5

    def test_g7_partial_without_checking_15(self):
        P = from_middle(7, 2, (-1, 0, 0, 0, 0, 0, -3))
        out = classify_prime_dim(P)
        assert isinstance(out, Partial) and out.absolutely_simple
        assert out.delta == 7

    def test_split_degrees(self):
        # the exact base-change search on degree 10: a split at g, at 2g + 1,
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
            classify_prime_dim(validate(ip.poly_pow((1, -1, 2), 5), 2))
        # irreducible supersingular degree 10: 2^10 Phi_11(T/2) over F_4
        h11 = tuple(2 ** i for i in range(11))
        with pytest.raises(NotOrdinary):
            classify_prime_dim(validate(h11, 4))


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

"""Property suites over the enumerated corpora: exactness of the functional
equation, base-change laws, the supersingular triple equivalence, p-rank
additivity and the mutual exclusivity of the surface splitting tests."""

import random
from math import gcd

from weilsf import _intpoly as ip
from weilsf.anglerank import angle_rank_numeric
from weilsf.classify import InvalidTrace, classify
from weilsf.cli import enumerate_weil
from weilsf.newton import Stratum, newton_polygon, stratify
from weilsf.polyarith import base_change, factor
from weilsf.weilpoly import parse_label, validate

from conftest import CORPUS_RANGES, PAPER_EXAMPLES


def _sample(polys, k, seed):
    rng = random.Random(seed)
    return rng.sample(polys, min(k, len(polys)))


def test_functional_equation_on_corpus_and_base_changes(corpus):
    for (g, q), polys in corpus.items():
        for P in _sample(polys, 12, 41):
            for r in (1, 2, 3):
                Q = base_change(P, r)
                for i in range(g + 1):
                    assert Q.coeffs[2 * g - i] == Q.q ** (g - i) * Q.coeffs[i]


def test_base_change_composition_up_to_12(corpus):
    for (g, q), polys in corpus.items():
        for P in _sample(polys, 6, 17):
            for r, s in [(2, 2), (2, 3), (3, 2), (2, 4), (3, 4), (2, 6), (4, 3)]:
                if r * s <= 12:
                    assert base_change(base_change(P, r), s).coeffs == \
                        base_change(P, r * s).coeffs


def test_base_change_validates_as_weil(corpus):
    for (g, q), polys in corpus.items():
        for P in _sample(polys, 5, 29):
            for r in range(1, 13):
                Q = base_change(P, r)
                assert Q.q == q ** r


def test_delta_invariant_under_base_change():
    labels = ["2.5.a_ab", "2.2.ab_b", "3.2.a_a_ac", "2.3.ac_c", "1.2.ab",
              "3.2.ad_f_ah", "2.2.ab_a"]
    for label in labels:
        P = parse_label(label)
        d0 = angle_rank_numeric(P).delta
        for r in range(2, 7):
            assert angle_rank_numeric(base_change(P, r)).delta == d0, (label, r)


def test_base_change_law(corpus):
    # SF(P^(r)) = U(1)^delta x C_(m / gcd(m, r)): base change takes each
    # normalized root to its r-th power, which keeps the free rank and maps
    # C_m onto its r-th powers.  The law is group theory, so it holds for
    # formal inputs too and no label is left out.  (delta, m) is classify(P).
    # The classifier is checked at r = 2, 3 and m on every label and every
    # elliptic curve over q <= 9; the oracle at r = m (a torsion-free base
    # change) on every label with m > 1, at r = 2, 3 on every 8th label, and
    # at r = 2..6 on eight paper examples and the curves 1.2.ab and 1.2.a.
    labels = [(P, classify(P)) for gq in CORPUS_RANGES for P in corpus[gq]]
    elliptic = []
    for q in (2, 3, 4, 5, 7, 8, 9):
        for P in enumerate_weil(1, q):
            try:
                elliptic.append((P, classify(P)))
            except InvalidTrace:   # 1.8.ac and 1.8.c: no elliptic curve
                pass
    examples = [(P, classify(P)) for P in map(parse_label, (
        "2.5.a_ab", "2.2.ab_b", "3.2.a_a_ac", "2.3.ac_c", "1.2.ab", "1.2.a",
        "3.2.ad_f_ah", "2.2.ab_a", "2.2.ad_f", "3.2.ac_b_a"))]
    checks = [(P, sf, r, classify) for P, sf in labels + elliptic
              for r in {2, 3, sf.m}]
    checks += [(P, sf, sf.m, angle_rank_numeric) for P, sf in labels if sf.m > 1]
    checks += [(P, sf, r, angle_rank_numeric) for P, sf in labels[::8] for r in (2, 3)]
    checks += [(P, sf, r, angle_rank_numeric) for P, sf in examples for r in range(2, 7)]
    violations = []
    for P, sf, r, route in checks:
        got = route(base_change(P, r))
        m = got.m if route is classify else got.torsion_order
        if (got.delta, m) != (sf.delta, sf.m // gcd(sf.m, r)):
            violations.append((P.label, r, route.__name__))
    assert len(checks) == 4625 and violations == []


def test_supersingular_triple_equivalence(corpus):
    # all slopes 1/2  <=>  delta = 0  <=>  classified stratum supersingular
    for (g, q), polys in corpus.items():
        for P in _sample(polys, 25, 59):
            npd = newton_polygon(P)
            ss_np = npd.is_supersingular()
            ss_stratum = stratify(npd, g) is Stratum.SUPERSINGULAR
            delta0 = angle_rank_numeric(P).delta == 0
            assert ss_np == ss_stratum == delta0, P.label


def test_p_rank_additive_over_products(corpus):
    rng = random.Random(99)
    quads2 = [P for P in corpus[(2, 2)] if True]
    ell2 = ["1.2.a", "1.2.ab", "1.2.b", "1.2.c"]
    for _ in range(12):
        S = rng.choice(quads2)
        E = parse_label(rng.choice(ell2))
        prod = validate(ip.poly_mul(S.coeffs, E.coeffs), 2)
        assert newton_polygon(prod).p_rank == \
            newton_polygon(S).p_rank + newton_polygon(E).p_rank


def test_howe_zhu_cases_mutually_exclusive(corpus):
    for (g, q) in [(2, 2), (2, 3), (2, 4), (2, 5)]:
        for P in corpus[(g, q)]:
            if stratify(newton_polygon(P), 2) is not Stratum.ORDINARY:
                continue
            if not factor(P).is_irreducible:
                continue
            hits = sum([P.a(1) == 0,
                        P.a(1) ** 2 == q + P.a(2),
                        P.a(1) ** 2 == 2 * P.a(2),
                        P.a(1) ** 2 == 3 * P.a(2) - 3 * q])
            assert hits <= 1, P.label


def test_slope_multiset_invariant_under_base_change(corpus):
    for (g, q), polys in corpus.items():
        for P in _sample(polys, 6, 3):
            s0 = sorted(newton_polygon(P).slopes)
            for r in (2, 3):
                assert sorted(newton_polygon(base_change(P, r)).slopes) == s0


def test_label_roundtrip_on_corpus(corpus):
    for polys in corpus.values():
        for P in _sample(polys, 40, 11):
            assert parse_label(P.label).coeffs == P.coeffs


def test_supersingular_match_agrees_with_torsion_on_corpus(corpus):
    from weilsf.polyarith import (NoSupersingularMatch, supersingular_match,
                                  supersingular_torsion_order)
    for (g, q), polys in corpus.items():
        for P in polys:
            npd = newton_polygon(P)
            if not npd.is_supersingular():
                continue
            for h, e, cls in factor(P).factors:
                assert cls == "ss"
                try:
                    m = supersingular_match(h, P.q)
                except NoSupersingularMatch:
                    # only the named exceptional families are recognized; the
                    # remaining cases are quadratics of elliptic curves with
                    # irrational trace over odd-power fields, whose torsion
                    # order is still computed exactly
                    assert ip.degree(h) == 2 and P.d % 2 == 1 and h[1] != 0
                    assert supersingular_torsion_order(h, P.q) in (8, 12)
                    continue
                assert m.m == supersingular_torsion_order(h, P.q)


def test_classification_determinism():
    for label in list(PAPER_EXAMPLES)[:8]:
        P = parse_label(label)
        a = classify(P)
        b = classify(P)
        assert (a.delta, a.m, a.provenance) == (b.delta, b.m, b.provenance)

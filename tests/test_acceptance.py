"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured runtime.  Run with `pytest -v tests/test_acceptance.py` (add -s
to see the per-criterion lines as they complete)."""

import math
import time

import numpy as np
import pytest

from weilsf import _intpoly as ip
from weilsf.anglerank import angle_rank_numeric
from weilsf.classify import ALLOWED_TORSION, InvalidTrace, classify
from weilsf.cli import enumerate_weil
from weilsf.distribution import (empirical_moments, histogram, trace_sequence)
from weilsf.newton import Stratum, newton_polygon, stratify
from weilsf.polyarith import base_change, supersingular_torsion_order
from weilsf.weilpoly import parse_label, validate

from conftest import CORPUS_RANGES, PAPER_EXAMPLES

PRIME_POWERS_64 = [q for q in range(2, 65)
                   if len({p for p in range(2, q + 1) if q % p == 0 and
                           all(p % r for r in range(2, p))}) == 1]

# whole fields beyond the acceptance corpora that criterion 4 also compares
# (4,842 inputs)
WIDER_RANGES = [(2, 7), (2, 9), (2, 25), (3, 5)]


def _expected_elliptic(q, p, d, t):
    """Frozen trace table (independent statement of the expected mapping).

    The two rational traces are kept separate: the normalized eigenvalue of
    trace -2 sqrt(q) is -1, of order two.
    """
    if t * t > 4 * q:
        return None
    if math.gcd(t, p) == 1:
        return "U(1)"
    even = d % 2 == 0
    if even and t * t == 4 * q:
        return "C_1" if t > 0 else "C_2"
    if even and t * t == q and p % 3 != 1:
        return "C_6" if t > 0 else "C_3"
    if t == 0 and (not even or p % 4 != 1):
        return "C_4"
    if not even and p == 2 and t * t == 2 * q:
        return "C_8"
    if not even and p == 3 and t * t == 3 * q:
        return "C_12"
    return None   # not the trace of an elliptic curve


@pytest.fixture(scope="module")
def classified_corpus(corpus):
    """classify + numeric oracle over the whole acceptance corpus and the
    WIDER_RANGES fields, once."""
    started = time.monotonic()
    out = {}
    fields = {**corpus, **{key: enumerate_weil(*key) for key in WIDER_RANGES}}
    for key, polys in fields.items():
        rows = []
        for P in polys:
            sf = classify(P)
            lat = angle_rank_numeric(P)
            rows.append((P, sf, lat))
        out[key] = rows
    out["elapsed"] = time.monotonic() - started
    return out


def test_criterion_1_elliptic_table():
    t0 = time.monotonic()
    checked = 0
    for q in PRIME_POWERS_64:
        p, d = None, None
        from weilsf.weilpoly import factor_prime_power
        p, d = factor_prime_power(q)
        bound = math.isqrt(4 * q)
        for t in range(-bound, bound + 1):
            want = _expected_elliptic(q, p, d, t)
            if want is None:
                with pytest.raises(InvalidTrace):
                    classify(validate((1, -t, q), q))
                continue
            P = validate((1, -t, q), q)
            sf = classify(P)
            assert sf.group == want, (q, t, sf.group, want)
            if sf.delta == 0:
                # independent oracle: exact base-change torsion order
                assert sf.m == supersingular_torsion_order(P.coeffs, P.q), (q, t)
            checked += 1
    elapsed = time.monotonic() - t0
    assert checked > 450
    assert elapsed < 1.0, "criterion 1 must run in under a second"
    print("ACCEPTANCE 1 elliptic-table: PASS (%d traces, %.2fs)" % (checked, elapsed))


def test_criterion_2_paper_example_corpus():
    t0 = time.monotonic()
    for label, want in PAPER_EXAMPLES.items():
        got = classify(parse_label(label)).group
        assert got == want, (label, got, want)
    elapsed = time.monotonic() - t0
    assert len(PAPER_EXAMPLES) >= 25
    assert elapsed < 5.0
    print("ACCEPTANCE 2 paper-examples: PASS (%d labels, %.2fs)"
          % (len(PAPER_EXAMPLES), elapsed))


def test_criterion_3_base_change_goldens():
    t0 = time.monotonic()
    assert base_change(parse_label("2.5.a_ab"), 2).coeffs == \
        parse_label("2.25.ac_bz").coeffs
    assert base_change(parse_label("3.8.ai_bk_aeq"), 7).coeffs == \
        ip.poly_pow((1, -1664, 2097152), 3)
    print("ACCEPTANCE 3 base-change-goldens: PASS (%.2fs)" % (time.monotonic() - t0))


def test_criterion_4_oracle_agreement(classified_corpus):
    mismatches = []
    total = 0
    for key in CORPUS_RANGES + WIDER_RANGES:
        g, q = key
        for P, sf, lat in classified_corpus[key]:
            total += 1
            if (sf.delta, sf.m) != (lat.delta, lat.torsion_order):
                mismatches.append((P.label, sf.pair(),
                                   (lat.delta, lat.torsion_order)))
            if lat.torsion_order not in ALLOWED_TORSION[g][lat.delta]:
                mismatches.append((P.label, "outside-theorem-table"))
    assert mismatches == [], mismatches[:20]
    assert classified_corpus["elapsed"] < 600.0
    print("ACCEPTANCE 4 oracle-agreement: PASS (%d polynomials, 0 mismatches,"
          " %.0fs)" % (total, classified_corpus["elapsed"]))


def test_criterion_5_table_realizability(classified_corpus):
    t0 = time.monotonic()
    witnessed = {2: set(), 3: set()}
    for key in CORPUS_RANGES:
        g = key[0]
        if g in witnessed:
            for _, sf, _ in classified_corpus[key]:
                witnessed[g].add(sf.pair())
    for label in PAPER_EXAMPLES:
        P = parse_label(label)
        if P.g in witnessed:
            witnessed[P.g].add(classify(P).pair())
    # dimension-3 rows over prime fields cannot show the square-field and
    # char-7 supersingular orders; extend with F_4 and one F_7 witness.
    # Pairs seen only here are confirmed against the numeric oracle before
    # being counted (the F_4 sweep includes non-realizable formal inputs).
    extension = {}
    for P in enumerate_weil(3, 4):
        pair = classify(P).pair()
        if pair not in witnessed[3]:
            extension.setdefault(pair, P)
    P7 = validate((1, 7, 21, 49, 147, 343, 343), 7)
    pair7 = classify(P7).pair()
    if pair7 not in witnessed[3]:
        extension.setdefault(pair7, P7)
    for pair, P in sorted(extension.items()):
        lat = angle_rank_numeric(P)
        assert (lat.delta, lat.torsion_order) == pair, (P.label, pair)
        witnessed[3].add(pair)

    b_rows = {(d, m) for d, ms in ALLOWED_TORSION[2].items() for m in ms}
    c_rows = {(d, m) for d, ms in ALLOWED_TORSION[3].items() for m in ms}
    missing_b = sorted(b_rows - witnessed[2])
    assert missing_b == [], missing_b
    hit_c = c_rows & witnessed[3]
    coverage = len(hit_c) / len(c_rows)
    missing_c = sorted(c_rows - witnessed[3])
    assert coverage >= 0.80, (coverage, missing_c)
    print("ACCEPTANCE 5 realizability: PASS (B: all %d rows; C: %d/%d = %.0f%%;"
          " unwitnessed rows need larger q: %s; %.0fs)"
          % (len(b_rows), len(hit_c), len(c_rows), 100 * coverage,
             missing_c, time.monotonic() - t0))


def test_criterion_6_distribution_checks():
    t0 = time.monotonic()
    # (a) half of the mass of 2.5.a_ab sits in an atom at zero
    h = histogram(parse_label("2.5.a_ab"), 10 ** 6, 4 ** 3)
    atom = dict(h.atoms)
    assert len(atom) == 1
    (v, f), = atom.items()
    assert abs(v) < 1e-9 and abs(f - 0.5) <= 0.002

    # (b) ordinary elliptic curve moments against (2, 6, 20)
    xs = trace_sequence(parse_label("1.2.ab"), 10 ** 6)
    m = empirical_moments(xs, 6)
    for k, want in ((2, 2.0), (4, 6.0), (6, 20.0)):
        assert abs(m[k - 1] - want) < 0.05, (k, m[k - 1])

    # (c) supersingular C_4 curve: exact atom masses at N = 0 mod 4
    h4 = histogram(parse_label("1.2.a"), 10 ** 6, 64)
    assert dict(h4.atoms) == {0.0: 0.5, -2.0: 0.25, 2.0: 0.25}

    # (d) trace identity under quadratic base change, r <= 10^4
    P = parse_label("2.5.a_ab")
    a = trace_sequence(base_change(P, 2), 10 ** 4)
    b = trace_sequence(P, 2 * 10 ** 4)[1::2]
    assert float(np.max(np.abs(a - b))) < 1e-9

    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    print("ACCEPTANCE 6 distributions: PASS (%.1fs)" % elapsed)


def test_criterion_7_property_suites(classified_corpus):
    t0 = time.monotonic()
    violations = []

    # functional equation on every corpus polynomial (already validated) and
    # on constructed base changes
    for key in CORPUS_RANGES:
        g, q = key
        for P, _, _ in classified_corpus[key][::5]:
            Q = base_change(P, 2)
            for i in range(g + 1):
                if Q.coeffs[2 * g - i] != Q.q ** (g - i) * Q.coeffs[i]:
                    violations.append(("functional", P.label))

    # base-change composition for rs <= 12
    for key in CORPUS_RANGES:
        for P, _, _ in classified_corpus[key][::25]:
            for r, s in ((2, 3), (3, 4), (2, 6), (2, 2)):
                if base_change(base_change(P, r), s).coeffs != \
                        base_change(P, r * s).coeffs:
                    violations.append(("composition", P.label, r, s))

    # delta invariance under base change r <= 6
    probe = ["2.5.a_ab", "2.2.ab_b", "3.2.a_a_ac", "2.2.ab_a", "1.2.ab",
             "3.2.ad_f_ah", "2.3.ac_c"]
    for label in probe:
        P = parse_label(label)
        d0 = angle_rank_numeric(P).delta
        for r in range(2, 7):
            if angle_rank_numeric(base_change(P, r)).delta != d0:
                violations.append(("delta-invariance", label, r))

    # triple equivalence on the whole classified corpus
    for key in CORPUS_RANGES:
        g = key[0]
        for P, sf, lat in classified_corpus[key]:
            npd = newton_polygon(P)
            ss = npd.is_supersingular()
            if not (ss == (stratify(npd, g) is Stratum.SUPERSINGULAR)
                    == (lat.delta == 0) == (sf.delta == 0)):
                violations.append(("triple-equivalence", P.label))

    # p-rank additivity over products
    ell = [parse_label(x) for x in ("1.2.a", "1.2.ab", "1.2.c")]
    for P, _, _ in classified_corpus[(2, 2)][::4]:
        for E in ell:
            prod = validate(ip.poly_mul(P.coeffs, E.coeffs), 2)
            if newton_polygon(prod).p_rank != \
                    newton_polygon(P).p_rank + newton_polygon(E).p_rank:
                violations.append(("p-rank-additivity", P.label, E.label))

    assert violations == [], violations[:20]
    print("ACCEPTANCE 7 property-suites: PASS (%.1fs)" % (time.monotonic() - t0))

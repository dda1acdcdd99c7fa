import csv
import itertools
import math
import random
import time
from dataclasses import replace
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from weilsf import _intpoly as ip
from weilsf.weilpoly import (FunctionalEquationViolated, MalformedLabel,
                             NonConvergence, NotIntegral, NotMonic,
                             NotPrimePower, RootOffCircle, WeilError,
                             WeilPolynomial, factor_prime_power, format_label,
                             from_middle, parse_label, real_weil_transform,
                             roots, validate, weil_pullback)

CORPUS = Path(__file__).resolve().parent.parent / "perfbench" / "data" / "corpus.tsv"


def _mirror(g, q, middle):
    coeffs = [1, *middle]
    return coeffs + [q ** (g - i) * coeffs[i] for i in range(g - 1, -1, -1)]


def _accepts(g, q, middle):
    try:
        from_middle(g, q, middle)
        return True
    except RootOffCircle:
        return False


def _sympy_accepts(sp, h, q):
    """P is valid iff H has g real roots y, each with y^2 <= 4q."""
    real = sp.real_roots(sp.Poly(h, sp.Symbol("y")))
    return len(real) == len(h) - 1 and all(r ** 2 <= 4 * q for r in real)


def _weil_box(g, q):
    """Every (a_1, ..., a_g) one past the Weil bounds |a_i| <= C(2g, i) q^(i/2)."""
    bounds = [math.isqrt(math.comb(2 * g, i) ** 2 * q ** i) + 1 for i in range(1, g + 1)]
    return itertools.product(*(range(-b, b + 1) for b in bounds))


class TestLabels:
    def test_paper_example_decodes(self):
        P = parse_label("2.5.a_ab")
        assert P.coeffs == (1, 0, -1, 0, 25)
        assert (P.g, P.q, P.p, P.d) == (2, 5, 5, 1)

    def test_zero_coefficient(self):
        assert parse_label("1.2.a").coeffs == (1, 0, 2)

    def test_signed_two_letter_tokens(self):
        P = parse_label("2.25.ac_bz")
        assert P.coeffs == (1, -2, 51, -50, 625)

    def test_format_is_inverse(self):
        for label in ["2.5.a_ab", "1.2.a", "2.25.ac_bz", "3.8.ai_bk_aeq",
                      "3.2.a_a_ac", "1.117649.la", "3.7.ao_di_alk"]:
            assert format_label(parse_label(label)) == label

    def test_roundtrip_random_encodable_values(self):
        # every integer in a wide window round-trips through the token codec
        from weilsf.weilpoly import _decode_token, _encode_token
        for n in range(-2000, 2001):
            assert _decode_token(_encode_token(n)) == n

    def test_malformed_tokens_rejected(self):
        for bad in ["2.5.a", "2.5.a_ab_c", "x.5.a_ab", "2.5.a_aB",
                    "2.5.a_a1", "2.5.a_aab", "2.5", "1.6.a"]:
            with pytest.raises((MalformedLabel, NotPrimePower)):
                parse_label(bad)

    @pytest.mark.parametrize("label", ["1.1_1.a", "1.\u0662.a", "01.2.a",
                                       "1.+2.a", "1. 2.a"])
    def test_non_canonical_numbers_rejected(self, label):
        # int() reads these as 1.11.a and 1.2.a; format_label never writes them
        with pytest.raises(MalformedLabel):
            parse_label(label)

    def test_non_prime_power_q(self):
        with pytest.raises(NotPrimePower):
            parse_label("1.6.ab")

    def test_off_circle_label_rejected(self):
        # a_1 = -5 violates the Weil bound over F_2
        with pytest.raises(RootOffCircle):
            parse_label("1.2.af")


class TestValidate:
    def test_ordinary_elliptic(self):
        P = validate((1, -1, 2), 2)
        assert P.label == "1.2.ab"
        assert P.trace == 1

    def test_paper_quartic(self):
        assert validate((1, 0, -1, 0, 25), 5).g == 2

    def test_weil_bound_violation(self):
        with pytest.raises(RootOffCircle):
            validate((1, 5, 2), 2)

    def test_functional_equation_violation(self):
        with pytest.raises(FunctionalEquationViolated):
            validate((1, 1, 3), 2)
        with pytest.raises(FunctionalEquationViolated):
            validate((1, 0, -2), 2)   # T^2 - q

    def test_not_monic(self):
        with pytest.raises(NotMonic):
            validate((2, 0, 2), 2)

    def test_functional_equation_exact_on_validated(self):
        for label in ["2.5.a_ab", "3.2.ad_f_ah", "2.2.ab_b"]:
            P = parse_label(label)
            g, q = P.g, P.q
            for i in range(g + 1):
                assert P.coeffs[2 * g - i] == q ** (g - i) * P.coeffs[i]

    def test_boundary_double_real_roots_accepted(self):
        # (T - 2)^2 over F_4 and (T^2 - 2)^2 over F_2 sit on the interval edge
        assert validate((1, -4, 4), 4).g == 1
        assert validate((1, 0, -4, 0, 4), 2).g == 2

    def test_non_integers_rejected(self):
        # int() used to truncate the first two to 1.2.ab and 2.2.a_a
        with pytest.raises(NotIntegral):
            validate((1, -1.5, 2), 2)
        with pytest.raises(NotIntegral):
            from_middle(2, 2, (0.9, 0.2))
        with pytest.raises(NotPrimePower):
            validate((1, 0, 2), 4.0)
        with pytest.raises(NotPrimePower):
            from_middle(1, 4.0, (0,))
        P = validate([1, np.int64(-1), 2], np.int64(2))
        assert P.label == "1.2.ab" and type(P.q) is int and type(P.coeffs[1]) is int

    def test_from_middle_mirrors(self):
        P = from_middle(2, 5, (0, -1))
        assert P.coeffs == (1, 0, -1, 0, 25)

    def test_agrees_with_sympy_real_roots(self):
        sp = pytest.importorskip("sympy")
        T, y = sp.symbols("T y")
        rng = random.Random(5)

        def sympy_accepts(g, q, middle):
            coeffs = _mirror(g, q, middle)
            h = real_weil_transform(coeffs, q, g)
            H = sp.Poly(h, y).as_expr()
            assert sp.expand(T ** g * H.subs(y, T + q / T)) == sp.Poly(coeffs, T).as_expr()
            return _sympy_accepts(sp, h, q)

        cases = [(1, 2, (0,)), (2, 2, (0, -4)), (1, 4, (-4,)), (2, 4, (0, -8))]
        for g, q in [(1, 2), (1, 4), (2, 2), (2, 3), (2, 4), (3, 2), (3, 3)]:
            # a box one past the Weil bounds |a_i| <= C(2g, i) q^(i/2)
            bounds = [math.floor(math.comb(2 * g, i) * q ** (i / 2)) + 1
                      for i in range(1, g + 1)]
            cases += [(g, q, tuple(rng.randint(-b, b) for b in bounds))
                      for _ in range(40)]
        accepted = 0
        for g, q, middle in cases:
            ok = _accepts(g, q, middle)
            assert ok == sympy_accepts(g, q, middle), (g, q, middle)
            accepted += ok
        assert 20 < accepted < len(cases) - 20

    @pytest.mark.parametrize("g, q", [(1, q) for q in (2, 3, 4, 5, 7, 8, 9, 16, 25)]
                             + [(2, 4)])
    def test_whole_box_agrees_with_sympy(self, g, q):
        sp = pytest.importorskip("sympy")
        accepted = 0
        for middle in _weil_box(g, q):
            h = real_weil_transform(_mirror(g, q, middle), q, g)
            ok = _accepts(g, q, middle)
            assert ok == _sympy_accepts(sp, h, q), middle
            accepted += ok
        assert accepted > 0

    @pytest.mark.parametrize("q, pool", [
        # y - a for a = 0, +-2 sqrt(q) puts a root of E at 0 or 4q
        (4, [(1, 0), (1, -4), (1, 4), (1, -1), (1, 2), (1, 0, -2), (1, -5), (1, 0, 1)]),
        (2, [(1, 0), (1, 0, -8), (1, -1), (1, 2), (1, 0, -2), (1, -3), (1, 0, 1)]),
    ])
    def test_roots_of_E_at_both_ends(self, q, pool, count_calls):
        # g = 4 products of H; Euclid's sequence on (E, E') decides each one
        # unless E has a repeated root at 0 or 4q
        sp = pytest.importorskip("sympy")
        y = sp.Symbol("y")
        calls = count_calls("squarefree_sturm_chain")
        seen = set()
        for n in range(1, 5):
            for parts in itertools.combinations_with_replacement(pool, n):
                h = (1,)
                for part in parts:
                    h = ip.poly_mul(h, part)
                if ip.degree(h) != 4:
                    continue
                before = len(calls)
                ok = _accepts(4, q, weil_pullback(h, q)[1:5])
                assert ok == _sympy_accepts(sp, h, q), parts
                mult = sp.roots(sp.Poly(h, y))
                # E(z) = prod (z - y_i^2) has a repeated root at 0 or 4q
                at_4q = mult.get(2 * sp.sqrt(q), 0) + mult.get(-2 * sp.sqrt(q), 0)
                repeated = mult.get(0, 0) > 1 or at_4q > 1
                assert (len(calls) > before) == repeated, parts
                seen.add((ok, repeated))
        assert seen == {(True, True), (True, False), (False, True), (False, False)}


def _trial_division(q):
    # the reference: the smallest factor of q and its exponent
    p = next(c for c in range(2, q + 1) if q % c == 0)
    d = 0
    while q % p == 0:
        q, d = q // p, d + 1
    return (p, d) if q == 1 else None


class TestPrimePower:
    def test_small_q_match_trial_division(self):
        for q in range(-2, 1001):
            want = _trial_division(q) if q >= 2 else None
            if want is None:
                with pytest.raises(NotPrimePower):
                    factor_prime_power(q)
            else:
                assert factor_prime_power(q) == want, q

    def test_large_prime_q_is_fast(self):
        m = 2 ** 61 - 1
        factor_prime_power.cache_clear()
        start = time.perf_counter()
        assert factor_prime_power(m) == (m, 1)
        assert factor_prime_power(m * m) == (m, 2)
        assert parse_label("1.100000000000031.a").q == 100000000000031
        assert time.perf_counter() - start < 0.1
        with pytest.raises(NotPrimePower):
            factor_prime_power(3 * m)

    def test_strong_pseudoprimes_are_composite(self):
        # the least strong pseudoprimes to every prime base up to 31 and 37
        for n in (3825123056546413051, 318665857834031151167461):
            with pytest.raises(NotPrimePower):
                factor_prime_power(n)
            with pytest.raises(NotPrimePower):
                factor_prime_power(n ** 3)

    def test_prime_powers_below_1e5(self):
        # smallest prime factor by a sieve; q is a prime power p^d iff
        # dividing out p leaves 1
        n = 10 ** 5
        spf = list(range(n))
        for i in range(2, math.isqrt(n) + 1):
            if spf[i] == i:
                for j in range(i * i, n, i):
                    spf[j] = min(spf[j], i)
        for q in range(2, n):
            want = _trial_division(q) if q < 1000 else None
            if want is None:
                p, d, rest = spf[q], 0, q
                while rest % p == 0:
                    rest, d = rest // p, d + 1
                want = (p, d) if rest == 1 else None
            if want is not None:
                assert factor_prime_power(q) == want, q

    def test_small_factor_rejects_at_once(self):
        # 11 divides 10^4299 + 1: no d-th root needs to be taken
        start = time.perf_counter()
        with pytest.raises(NotPrimePower):
            factor_prime_power(10 ** 4299 + 1)
        assert factor_prime_power(2 ** 4000) == (2, 4000)
        assert time.perf_counter() - start < 0.5

    def test_is_prime_small(self):
        from weilsf.weilpoly import _is_prime
        for n in range(51):
            assert _is_prime(n) == (n >= 2 and all(n % f for f in range(2, n))), n

    def test_beyond_certified_range(self):
        with pytest.raises(WeilError, match="cannot certify"):
            factor_prime_power(2 ** 89 - 1)   # prime, but past the proven bases
        assert factor_prime_power((2 ** 61 - 1) ** 7) == (2 ** 61 - 1, 7)


class TestWeilPullback:
    def test_matches_naive_expansion(self):
        # sum_i h_i T^i (T^2 + q)^(k - i), term by term
        rng = random.Random(12)
        for q in (2, 3, 4, 5, 9, 16, 23):
            for k in range(9):
                for _ in range(4):
                    h = (1,) + tuple(rng.randint(-4 * q, 4 * q) for _ in range(k))
                    want = [0] * (2 * k + 1)
                    for i, c in enumerate(h):
                        term = ip.poly_mul((c,) + (0,) * i, ip.poly_pow((1, 0, q), k - i))
                        for j, t in enumerate(reversed(term)):   # add from T^0 up
                            want[-1 - j] += t
                    assert weil_pullback(h, q) == tuple(want), (h, q)

    def test_inverts_real_weil_transform_on_corpus(self):
        with open(CORPUS, newline="") as fh:
            labels = [row["label"] for row in csv.DictReader(fh, delimiter="\t")]
        assert len(labels) == 1220
        for label in labels:
            P = parse_label(label)
            h = real_weil_transform(P.coeffs, P.q, P.g)
            assert weil_pullback(h, P.q) == P.coeffs, label


class TestRoots:
    def test_pure_imaginary_angles(self):
        rs = roots(parse_label("1.2.a"), 128)
        assert [mp.nstr(a, 6) for a in rs.angles] == ["0.25", "0.75"]
        with mp.workprec(160):
            u = rs.roots[0] / mp.sqrt(2)
            assert abs(u - mp.mpc(0, 1)) < mp.mpf(2) ** -100

    def test_quartic_angles_and_half_sum(self):
        # derived by the power-sum identity: cos(4 pi theta_1) = s_2 / (2 q) = 1/10
        rs = roots(parse_label("2.5.a_ab"), 256)
        t1, t2 = rs.thetas
        with mp.workprec(300):
            expected = mp.acos(mp.mpf(1) / 10) / (4 * mp.pi)
            assert abs(t1 - expected) < mp.mpf(2) ** -200
            assert abs(t1 + t2 - mp.mpf("0.5")) < mp.mpf(2) ** -200

    def test_arccos_closed_form(self):
        rs = roots(parse_label("1.2.ab"), 192)
        with mp.workprec(256):
            expected = mp.acos(1 / (2 * mp.sqrt(2))) / (2 * mp.pi)
            assert abs(rs.thetas[0] - expected) < mp.mpf(2) ** -150

    def test_angle_ordering_and_pairing(self):
        for label in ["3.2.ad_f_ah", "2.2.ab_b", "3.8.ai_bk_aeq"]:
            P = parse_label(label)
            rs = roots(P, 192)
            g = P.g
            for j in range(g - 1):
                assert rs.thetas[j] <= rs.thetas[j + 1]
            for j in range(g):
                assert abs(rs.roots[j] * rs.roots[g + j] - P.q) < mp.mpf(2) ** -90

    def test_angle_sum_and_trace_identity(self):
        # sum of all 2g angles is 0 mod 1; sum of cosines recovers -a_1
        for label in ["2.2.ad_f", "3.2.ae_j_ap"]:
            P = parse_label(label)
            rs = roots(P, 192)
            with mp.workprec(224):
                total = mp.fsum(rs.angles)
                assert abs(total - mp.nint(total)) < mp.mpf(2) ** -150
                cos_sum = mp.fsum(2 * mp.sqrt(P.q) * mp.cos(2 * mp.pi * t)
                                  for t in rs.thetas)
                assert abs(cos_sum + P.a(1)) < mp.mpf(2) ** -120

    def test_repeated_roots(self):
        P = validate((1, -2, 51, -50, 625), 25)   # (T^2 - T + 25)^2
        rs = roots(P, 192)
        assert abs(rs.thetas[0] - rs.thetas[1]) < mp.mpf(2) ** -150

    def test_determinism(self):
        a = roots(parse_label("3.2.ad_f_ah"), 256)
        b = roots(parse_label("3.2.ad_f_ah"), 256)
        assert [mp.nstr(t, 60) for t in a.angles] == [mp.nstr(t, 60) for t in b.angles]

    def test_precision_floor(self):
        with pytest.raises(Exception):
            roots(parse_label("1.2.a"), 32)

    @pytest.mark.parametrize("coeffs, q, thetas", [
        ((1, -4, 4), 4, (0,)),                  # (T - 2)^2
        ((1, 4, 4), 4, (mp.mpf(0.5),)),         # (T + 2)^2
        ((1, 0, -4, 0, 4), 2, (0, mp.mpf(0.5))),  # (T^2 - 2)^2
        ((1, 0, -6, 0, 9), 3, (0, mp.mpf(0.5))),  # (T^2 - 3)^2
    ])
    @pytest.mark.parametrize("precision", [256, 512])
    def test_real_roots_have_exact_angles(self, coeffs, q, thetas, precision):
        assert roots(validate(coeffs, q), precision).thetas == thetas

    def test_residual_failure_raises(self, monkeypatch):
        solve = mp.polyroots

        def shifted(*args, **kwargs):
            return [r + mp.mpf("1e-3") for r in solve(*args, **kwargs)]
        monkeypatch.setattr(mp, "polyroots", shifted)
        with pytest.raises(NonConvergence):
            roots(parse_label("2.5.a_ab"), 256)


def test_json_emission():
    P = parse_label("2.5.a_ab")
    assert P.to_json() == {"g": 2, "q": 5, "p": 5, "d": 1,
                           "coeffs": [1, 0, -1, 0, 25]}
    assert isinstance(P, WeilPolynomial)


class TestCarriedTransform:
    def test_h_is_kept_but_invisible(self):
        P = parse_label("3.2.ab_b_b")
        assert P.h == real_weil_transform(P.coeffs, P.q, P.g) == (1, -1, -5, 5)
        Q = replace(P, h=(1,))
        assert Q == P and hash(Q) == hash(P) and repr(Q) == repr(P)
        assert "h=" not in repr(P) and "h" not in P.to_json()

    def test_transform_runs_once_per_polynomial(self, count_calls):
        from weilsf.cli import _verify_one
        from weilsf.polyarith import factor
        calls = count_calls("real_weil_transform")
        P = parse_label("3.2.ad_f_ah")
        factor(P)
        roots(P)
        assert _verify_one(P, 256)["status"] == "ok"
        assert len(calls) == 1

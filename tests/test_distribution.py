import csv
import hashlib
import importlib.util
import itertools
import math
import random
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from weilsf import distribution
from weilsf._intpoly import InvariantError
from weilsf.anglerank import angle_rank_numeric, smith_normal_form
from weilsf.classify import classify
from weilsf.distribution import (SLICE, PrecisionLoss, _atom_bucket,
                                 _atom_residues, _fixed_point_angles,
                                 _trace_chunks, empirical_moments,
                                 exact_moments, histogram, moment_report,
                                 trace_sequence)
from weilsf.polyarith import base_change
from weilsf.weilpoly import WeilError, from_middle, parse_label, roots, validate

from conftest import PAPER_EXAMPLES

CORPUS = Path(__file__).resolve().parent.parent / "perfbench" / "data" / "corpus.tsv"


def _atoms_per_component(P):
    """[(value, k / m)] for the atoms of P over one period r = 1..m, where
    each value of the trace on k of the m components of the group is an
    atom: histogram(P, m, 1) counts every residue once."""
    m = angle_rank_numeric(P).torsion_order
    return list(histogram(P, m, 1).atoms)


class TestTraceSequence:
    def test_period_four_pattern(self):
        xs = trace_sequence(parse_label("1.2.a"), 8)
        assert np.allclose(xs, [0, -2, 0, 2, 0, -2, 0, 2], atol=1e-9)

    def test_odd_traces_vanish(self):
        xs = trace_sequence(parse_label("2.5.a_ab"), 101)
        assert np.max(np.abs(xs[::2])) < 1e-9

    def test_maximum_when_unit_roots_align(self):
        # (T - 2)^2 over F_4: theta = 0, x_r = 2g identically
        xs = trace_sequence(validate((1, -4, 4), 4), 10)
        assert np.allclose(xs, 2.0, atol=1e-9)

    def test_matches_direct_mpmath_evaluation(self):
        P = parse_label("1.2.ab")
        theta = roots(P, 256).thetas[0]
        xs = trace_sequence(P, 50)
        with mp.workprec(128):
            for r in (1, 7, 23, 50):
                ref = 2 * mp.cos(2 * mp.pi * r * theta)
                assert abs(xs[r - 1] - float(ref)) < 1e-10

    def test_block_boundary_matches_direct_evaluation(self):
        # x_r from the exact fixed-point phase (r M mod 2^64) one r at a time,
        # over many slices and a ragged last one
        P = parse_label("3.2.ad_f_ah")
        n = (1 << 16) + 3
        with mp.workprec(288):
            ms = [int(mp.nint(t * 2 ** 64)) % 2 ** 64 for t in roots(P, 256).thetas]
        xs = trace_sequence(P, n)
        scale = 2.0 * math.pi / 2.0 ** 64
        ref = [sum(2.0 * math.cos(float(r * m % 2 ** 64) * scale) for m in ms)
               for r in range(1, n + 1)]
        assert np.max(np.abs(xs - ref)) < 1e-12

    def test_precision_guard(self):
        with pytest.raises(PrecisionLoss):
            trace_sequence(parse_label("1.2.ab"), 1 << 33)

    def test_determinism(self):
        a = trace_sequence(parse_label("2.2.ab_b"), 1000)
        b = trace_sequence(parse_label("2.2.ab_b"), 1000)
        assert np.array_equal(a, b)


class TestHistogram:
    def test_supersingular_exact_atoms(self):
        h = histogram(parse_label("1.2.a"), 4000, 16)
        assert sum(h.counts) == 4000
        assert dict(h.atoms) == {0.0: 0.5, -2.0: 0.25, 2.0: 0.25}

    def test_supersingular_counts_off_period(self):
        # N = 6 over the period (0, -2, 0, 2): zeros at r = 1, 3, 5
        h = histogram(parse_label("1.2.a"), 6, 4)
        assert sum(h.counts) == 6
        atoms = dict(h.atoms)
        assert atoms[0.0] == pytest.approx(3 / 6)
        assert atoms[-2.0] == pytest.approx(2 / 6)
        assert atoms[2.0] == pytest.approx(1 / 6)

    def test_edge_atoms_land_in_one_bucket(self):
        # x_r = 0, -2, 0, 2: the atoms 0 and 2 sit on bucket edges, where
        # the float noise of the kernel would split the zeros over buckets
        # 1 and 2
        assert histogram(parse_label("1.2.a"), 100, 4).counts == (25, 0, 50, 25)

    def test_atoms_exact_and_the_rest_from_the_kernel(self):
        # x_r = 0 exactly at odd r: all 5000 in [0, 2), and the even r as
        # the trace sequence buckets them
        P, n = parse_label("2.5.a_ab"), 10 ** 4
        h = histogram(P, n, 4)
        even = trace_sequence(P, n)[1::2]
        want = np.bincount(np.clip(np.floor((even + 4.0) * 0.5).astype(int), 0, 3),
                           minlength=4)
        want[2] += 5000
        assert list(h.counts) == want.tolist()

    def test_kernel_runs_only_at_non_atom_residues(self, monkeypatch):
        # m = 2 and x_r = 0 exactly at odd r: the kernel evaluates the N/2
        # even r alone, each to the bits of the trace sequence
        real, seen = distribution._trace_chunks, []

        def chunks(*args):
            for x in real(*args):
                seen.append(x.copy())
                yield x
        monkeypatch.setattr(distribution, "_trace_chunks", chunks)
        P, n = parse_label("2.5.a_ab"), 2 * (1 << 16) + 10
        histogram(P, n, 4)
        assert np.concatenate(seen).tobytes() == trace_sequence(P, n)[1::2].tobytes()

    def test_atom_masses_are_residue_counts(self):
        h = histogram(parse_label("2.5.a_ab"), 10001, 8)
        assert h.atoms == ((0.0, 5001 / 10001),)

    @pytest.mark.parametrize("label", ["1.2.a", "2.2.ae_i"])
    def test_supersingular_runs_no_oracle_and_no_kernel(self, count_calls, label):
        oracle, kernel = count_calls("angle_rank_numeric"), count_calls("_trace_chunks")
        h = histogram(parse_label(label), 1000, 8)
        assert (oracle, kernel, sum(h.counts)) == ([], [], 1000)

    def test_supersingular_torsion_order_84(self):
        # 5.4.c_a_a_q_bg = 2^6 Phi_7(T/2) 2^4 Phi_12(T/2), period lcm(7, 12)
        h = histogram(parse_label("5.4.c_a_a_q_bg"), 1000, 8)
        assert sum(h.counts) == 1000

    @pytest.mark.parametrize("label", ["1.2.a", "1.2.ab"])
    def test_more_buckets_than_samples_is_an_input_error(self, label):
        with pytest.raises(WeilError, match="B = 1001 buckets exceed the N = 1000"):
            histogram(parse_label(label), 1000, 1001)

    def test_half_mass_atom(self):
        h = histogram(parse_label("2.5.a_ab"), 100000, 64)
        assert len(h.atoms) == 1
        v, f = h.atoms[0]
        assert abs(v) < 1e-9 and abs(f - 0.5) < 1e-3

    def test_continuous_case_has_no_atoms(self):
        h = histogram(parse_label("1.2.ab"), 20000, 32)
        assert h.atoms == ()
        assert sum(h.counts) == 20000

    def test_mass_conservation_and_range(self, corpus):
        for P in corpus[(2, 3)][::17]:
            h = histogram(P, 5000, 16)
            assert sum(h.counts) == 5000

    def test_csv_format(self):
        h = histogram(parse_label("1.2.a"), 100, 4)
        lines = h.to_csv().strip().split("\n")
        assert lines[0] == "bucket_left,bucket_right,count"
        assert len(lines) == 5
        assert sum(int(l.split(",")[2]) for l in lines[1:]) == 100

    def test_last_bucket_closed(self):
        h = histogram(validate((1, -4, 4), 4), 10, 8)   # all mass at x = +2 = 2g
        assert h.counts[-1] == 10

    def test_ordinary_elliptic_matches_arcsine_law(self):
        # dx / (pi sqrt(4 - x^2)) on [-2, 2]; bucket mass via arcsin
        n, b = 10 ** 6, 64
        h = histogram(parse_label("1.2.ab"), n, b)
        edges = h.bucket_edges()
        tv = 0.0
        for (lo, hi), c in zip(edges, h.counts):
            exact = (math.asin(min(hi, 2.0) / 2) - math.asin(max(lo, -2.0) / 2)) / math.pi
            tv += abs(c / n - exact)
        assert tv / 2 < 0.02


class TestMoments:
    def test_constant_sequence(self):
        xs = np.full(100, 4.0)
        assert empirical_moments(xs, 3) == [4.0, 16.0, 64.0]

    def test_periodic_average(self):
        xs = trace_sequence(parse_label("1.2.a"), 4000)
        m = empirical_moments(xs, 2)
        assert abs(m[1] - 2.0) < 1e-12

    def test_full_torus_moments(self):
        g1 = classify(parse_label("1.2.ab"))
        assert exact_moments(g1, 6) == [0.0, 2.0, 0.0, 6.0, 0.0, 20.0]
        g2 = classify(parse_label("2.2.ab_b"))
        # E[x^2] = 4, E[x^4] = 2*6 + 6*2*2 = 36 for two independent cosines
        assert exact_moments(g2, 4) == [0.0, 4.0, 0.0, 36.0]

    def test_finite_group_moments(self):
        P = parse_label("1.2.a")
        assert exact_moments(classify(P), 4, angle_rank_numeric(P)) == [0.0, 2.0, 0.0, 8.0]

    def test_split_torus_phase_average(self):
        # angles (u, +-u): half the phases give 4cos, half cancel
        P = parse_label("2.5.a_ab")
        assert exact_moments(classify(P), 4, angle_rank_numeric(P)) == [0.0, 4.0, 0.0, 48.0]

    def test_lattice_missing(self):
        grp = classify(parse_label("2.5.a_ab"))
        with pytest.raises(InvariantError,
                           match=r"\(delta, m\) = \(1, 2\) but the lattice gives \(2, 1\)"):
            exact_moments(grp, 2)

    def test_lattice_of_another_group(self):
        # U(1) x C_2 against the lattice of U(1) x C_3, both of rank 1
        grp = classify(parse_label("2.5.a_ab"))
        lattice = angle_rank_numeric(parse_label("2.2.ab_ab"))
        with pytest.raises(InvariantError,
                           match=r"\(delta, m\) = \(1, 2\) but the lattice gives \(1, 3\)"):
            exact_moments(grp, 2, lattice)

    def test_partial_classification_has_no_moments(self):
        # the g = 7 Partial: no (delta, m) to walk on, so the same WeilError
        # from exact_moments as from moment_report
        P = from_middle(7, 2, (-1, 0, 0, 0, 0, 0, -3))
        with pytest.raises(WeilError, match="needs a full classification"):
            exact_moments(classify(P), 4)
        with pytest.raises(WeilError, match="needs a full classification"):
            moment_report(P, 100, 4)

    @pytest.mark.parametrize("K", [0, -2, -3])
    def test_empirical_moments_need_positive_order(self, K):
        with pytest.raises(WeilError, match="K must be positive"):
            empirical_moments(np.ones(10), K)

    @pytest.mark.parametrize("K", [0, -2, -3])
    def test_exact_moments_need_positive_order(self, K):
        with pytest.raises(WeilError, match="K must be positive"):
            exact_moments(classify(parse_label("1.2.ab")), K)

    def test_orders_must_be_integers(self):
        with pytest.raises(WeilError, match="expected integer K"):
            exact_moments(classify(parse_label("1.2.ab")), 4.0)
        with pytest.raises(WeilError, match="expected integer K"):
            empirical_moments(np.ones(10), 2.0)

    @pytest.mark.parametrize("xs", [[], np.ones(0)], ids=["list", "array"])
    def test_empirical_moments_refuse_empty_samples(self, xs):
        with pytest.raises(WeilError, match="empty sequence"):
            empirical_moments(xs, 2)

    # a 2-D array, a scalar, strings and ragged rows are not samples
    @pytest.mark.parametrize("xs", [np.ones((3, 2)), 5.0, ["a"], [[1.0], [1.0, 2.0]]],
                             ids=["2-D", "scalar", "string", "ragged"])
    def test_empirical_moments_refuse_non_samples(self, xs):
        with pytest.raises(WeilError, match="samples must be a 1-D sequence of numbers"):
            empirical_moments(xs, 2)

    # opposite infinities in one slice and SLICE samples apart, and a NaN
    # in the first and in the second slice
    @pytest.mark.parametrize("gap", [1, SLICE], ids=["one-slice", "two-slices"])
    @pytest.mark.parametrize("first, last", [(math.inf, -math.inf), (math.nan, 0.0),
                                             (0.0, math.nan)],
                             ids=["infinities", "nan-first", "nan-last"])
    def test_empirical_moments_refuse_non_finite_samples(self, gap, first, last):
        xs = np.zeros(gap + 1)
        xs[0], xs[gap] = first, last
        with pytest.raises(WeilError, match="samples must be finite"):
            empirical_moments(xs, 1)

    # finite samples whose powers, or whose sum, leave the float range: in
    # one slice and SLICE samples apart, with no numpy warning
    @pytest.mark.parametrize("gap", [1, SLICE], ids=["one-slice", "two-slices"])
    @pytest.mark.parametrize("first, last, K", [(1e200, -1e200, 3), (1e200, 1e200, 2),
                                                (1e308, 1e308, 1)],
                             ids=["cube", "square", "sum"])
    def test_empirical_moments_refuse_overflow(self, gap, first, last, K):
        xs = np.zeros(gap + 1)
        xs[0], xs[gap] = first, last
        with pytest.raises(WeilError, match="a power of the samples overflows"):
            empirical_moments(xs, K)
        assert empirical_moments(xs / 1e200, K)[0] == (first / 1e200 + last / 1e200) / (gap + 1)

    def test_moment_report_converges(self):
        rep = moment_report(parse_label("2.5.a_ab"), 50000, 4)
        assert all(a < 0.05 for a in rep.abs_error)

    # delta = g, delta < g, U(1)^2 x C_2, supersingular, and the g = 5
    # ThmD(2) input T^10 - 3 T^5 + 32 over F_2, a sum of whose angles is
    # within 2^-540 of 1 (a reduction mod 1 by floor alone turns that phase
    # into the float 1.0).  On 2.2.ae_i (C_8, 8 | N) N phi can lie just
    # below an even integer, where a reduction mod 2 alone gives the float
    # 2.0 and sin(2 pi) = -2.4e-16: E x^15 came out 3.7e-11 instead of 0.
    @pytest.mark.parametrize("label", ["3.2.ad_f_ah", "2.5.a_ab", "3.2.ab_b_b",
                                       "2.2.ae_i", "5.2.a_a_a_a_ad"])
    def test_moment_report_matches_mpmath(self, monkeypatch, label):
        # the closed form (at this N the walk's budget would sample) against
        # the mean of x_r^k over r <= N at 200 bits, from the same angles
        monkeypatch.setattr(distribution, "MOVE_COST", 1)
        P, n, K = parse_label(label), 5000, 16
        lattice = angle_rank_numeric(P)
        thetas = lattice.thetas if lattice.delta < P.g else roots(P).thetas
        got = moment_report(P, n, K).empirical
        with mp.workprec(200):
            sums = [mp.mpf(0)] * K
            for r in range(1, n + 1):
                x = mp.fsum(2 * mp.cospi(2 * mp.mpf((r * t % 1).numerator)
                                         / (r * t % 1).denominator) for t in thetas)
                p = mp.mpf(1)
                for k in range(K):
                    p *= x
                    sums[k] += p
            ref = [float(s / n) for s in sums]
        for a, b in zip(got, ref):
            assert abs(a - b) <= 1e-12 * max(1.0, abs(b))

    def test_slice_sums_fold_every_1024_slices(self, monkeypatch):
        # 1,500 slices of 2: the first 1,024 slice sums fold into one
        monkeypatch.setattr(distribution, "SLICE", 2)
        xs = np.random.default_rng(1).uniform(-4.0, 4.0, 3000)
        p = np.ones_like(xs)
        for m_k in empirical_moments(xs, 4):
            p *= xs
            ref = math.fsum(p.tolist()) / len(xs)
            assert abs(m_k - ref) <= 1e-15 * math.fsum(np.abs(p).tolist()) / len(xs)

    def test_odd_moments_vanish_for_connected_groups(self):
        xs = trace_sequence(parse_label("1.2.ab"), 200000)
        m = empirical_moments(xs, 5)
        assert abs(m[0]) < 0.01 and abs(m[2]) < 0.05 and abs(m[4]) < 0.3

    # delta = g and delta < g; many slices ending on a ragged one
    @pytest.mark.parametrize("label", ["3.2.ad_f_ah", "2.5.a_ab"])
    @pytest.mark.parametrize("n", [3 * (1 << 16) + 123, (1 << 16) - 1])
    def test_streamed_moments_match_array_path(self, monkeypatch, label, n):
        P = parse_label(label)
        xs = trace_sequence(P, n)
        got = empirical_moments(xs, 8)
        # past the walk's budget moment_report sums the same slices of the
        # same samples, bit for bit
        monkeypatch.setattr(distribution, "MAX_MOVES", 0)
        assert list(moment_report(P, n, 8).empirical) == got
        # the closed form against the sampled moments of the 64-bit kernel,
        # within a bound on the kernel's error (at most 7.3e-12 measured),
        # relative to the size of x^k: |E x^k| for even k and
        # sqrt(E x^(k-1) E x^(k+1)) for odd k, as perfbench's moment_scale
        monkeypatch.setattr(distribution, "MAX_MOVES", 1 << 20)
        monkeypatch.setattr(distribution, "MOVE_COST", 1)
        rep = moment_report(P, n, 8)
        ex = (1.0,) + rep.exact
        for k, (a, b) in enumerate(zip(rep.empirical, got), 1):
            scale = abs(ex[k]) if k % 2 == 0 else math.sqrt(abs(ex[k - 1] * ex[k + 1]))
            assert abs(a - b) <= 1e-10 * scale
        # against a correctly rounded sum of the same float products
        p = np.ones_like(xs)
        for m_k in got:
            p *= xs
            ref = math.fsum(p.tolist()) / n
            scale = math.fsum(np.abs(p).tolist()) / n
            assert abs(m_k - ref) <= 1e-12 * scale

    def test_exact_moments_pinned(self):
        # exact_moments(group, 8, lattice), and the SHA-256 of the repr of
        # the atoms per component (a list of (value, k / m)) taken before the
        # quadrature grid was built in place: delta = 1 with C_2, delta = 2
        # with C_2, delta = 2
        pinned = {
            "2.5.a_ab": ([0.0, 4.0, 0.0, 48.0, 0.0, 640.0, 0.0, 8960.0],
                         "085996ebfe77ceeae742c7f65a0934e9a769df8062966ab83ce965214f6a4e3e"),
            "3.2.ab_b_b": ([0.0, 6.0, 0.0, 102.0, 0.0, 2460.0, 0.0, 67270.0],
                           "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
            "3.3.af_r_abi": ([0.0, 10.0, 0.0, 198.0, 0.0, 4900.0, 0.0, 134470.0],
                             "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
        }
        for label, (moments, atoms) in pinned.items():
            P = parse_label(label)
            lattice = angle_rank_numeric(P)
            assert exact_moments(classify(P), 8, lattice) == moments
            assert _digest(_atoms_per_component(P)) == atoms

    @pytest.mark.parametrize("label", sorted(PAPER_EXAMPLES))
    def test_walk_counts_match_plain_relations(self, label):
        # the same walks on Z^g itself, with no Smith form: c is a relation
        # when sum c_j theta_j is within 2^-100 of an integer at 256 bits
        P = parse_label(label)
        grp, lattice = classify(P), angle_rank_numeric(P)
        thetas = roots(P, 256).thetas
        K, g = 6, P.g
        steps = [tuple(s if i == j else 0 for i in range(g))
                 for j in range(g) for s in (1, -1)]

        def is_relation(c):
            with mp.workprec(256):
                x = mp.fsum(cj * t for cj, t in zip(c, thetas))
                return abs(x - mp.nint(x)) < mp.mpf(2) ** -100

        walks, want = {(0,) * g: 1}, []
        for _ in range(K):
            nxt = {}
            for c, n in walks.items():
                for t in steps:
                    u = tuple(a + b for a, b in zip(c, t))
                    nxt[u] = nxt.get(u, 0) + n
            walks = nxt
            want.append(float(sum(n for c, n in walks.items() if is_relation(c))))
        assert exact_moments(grp, K, lattice) == want

    def test_large_order_odd_moments_vanish(self):
        # U(1)^2 x C_2 has odd moments 0 at every order; a trapezoid
        # quadrature gave -128 at k = 25 and -4.7e6 at k = 31
        P = parse_label("3.2.ab_b_b")
        vals = exact_moments(classify(P), 32, angle_rank_numeric(P))
        assert vals[24] == 0.0 and vals[30] == 0.0


# SHA-256 of repr((counts, atoms)) of histogram(P, PIN_N, 4096) and of
# repr(moment_report(P, PIN_N, 8).to_json()).  The histogram digests were
# taken before the trace kernel worked in blocks.  The moment digests were
# taken once the moments were summed per 2^16 instead of per 2^20 samples,
# which moves the last bits of the empirical moments of 2.2.ab_b, 3.2.ad_f_ah
# and 2.5.a_ab.  The moment digests of 2.5.a_ab and 2.2.ae_i were re-taken
# once the exact moments became integer walk counts: their odd `exact`
# entries are now 0.0 and their odd `abs_error` entries follow.  The
# histogram digests of 2.5.a_ab and 2.2.ae_i were re-taken once the atoms
# were counted per residue of r mod m and bucketed exactly: the atom at 0,
# split before by float noise over buckets 2047 and 2048, is now all in
# 2048, and the atoms +-2 sqrt 2 of 2.2.ae_i are no longer rounded to 9
# decimals; the atom masses did not move.  The moment digests were re-taken
# once the moments were summed per slice of 2^13 instead of per 2^16
# samples (the odd moments moved by at most 4e-16), and again once the
# empirical moments came in closed form from the exact angles instead of
# from the samples of the 64-bit kernel: they moved by at most 2.7e-13
# (2.2.ab_b), 7.3e-12 (3.2.ad_f_ah), 1.8e-12 (2.5.a_ab) and 6.8e-13
# (2.2.ae_i).  PIN_N spans many slices and ends on a ragged one.  The
# histograms depend on numpy's float64 cos and the moments on math.sin to
# the last bit, so these digests hold for one numpy and libm build and CPU
# family.
PIN_N = (1 << 21) + 12345
PINNED = {
    # g = 2, U(1)^2, no atoms
    "2.2.ab_b": ("b25d2be2a1d5a46bb91f86d7bda143fbb74a0d65ae05f0bc7ab8b85963153ea5",
                 "f33139e9c8fb82ece54d4033c34471d43f1390aee8630ea0c957c7a59b247705"),
    # g = 3, U(1)^3
    "3.2.ad_f_ah": ("817e1e4d8e55c0bab96423a9c3bb38959fe6073e1e0f7315e9da3cdfcbe0fb9f",
                    "32fe587f3022ef652ab0a9ebf01d2bcb9955eee2e9530f4e80ee803a23765311"),
    # U(1) x C_2, one atom at 0
    "2.5.a_ab": ("7d816f6cf3990ae4164522747bdf29500e6044090842197994c8b398ec014fd8",
                 "73c78c0fc72bf021a9a0fdf66f371a7a11029fa73d5fe7b13489526ecc9cba32"),
    # supersingular, C_8, five atoms
    "2.2.ae_i": ("37110c382a6d4947907416aec562702b63a29441d6a0dd9da97085e11b1569f9",
                 "7bcf4217b63a8fbd5530bf67ffbba682fb9e88549829d31fde93a23dc91a7993"),
}


def _digest(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()


@pytest.mark.parametrize("run", [lambda P: histogram(P, 1000, 16),
                                 lambda P: moment_report(P, 1000, 4)],
                         ids=["histogram", "moment_report"])
def test_trace_kernel_reads_the_oracle_angles(count_calls, run):
    # U(1)^2 x C_2: the oracle solves the angles once, at 512 bits, and
    # the kernel and the closed-form moments take them from its lattice
    # instead of a second solve
    calls = count_calls("roots")
    run(parse_label("3.2.ab_b_b"))
    assert [precision for _, precision in calls] == [512]


@pytest.mark.parametrize("run, error, message", [
    (lambda P: moment_report(P, 0, 8), WeilError, "N must be positive"),
    (lambda P: moment_report(P, 1 << 1023, 8), WeilError, r"below 2\^1023"),
    (lambda P: trace_sequence(P, 0), WeilError, "N must be positive"),
    (lambda P: trace_sequence(P, 1 << 33), PrecisionLoss, "loses angle accuracy"),
    # a float N would enter the closed-form moments as a float and shift
    # them in the last digits
    (lambda P: moment_report(P, 1e6, 8), WeilError, "expected integer N"),
    (lambda P: moment_report(P, 1000, 8.0), WeilError, "expected integer K"),
    (lambda P: histogram(P, 1e6, 4), WeilError, "expected integer N and B"),
    (lambda P: histogram(P, 2.5, 4), WeilError, "expected integer N and B"),
    (lambda P: histogram(P, 1000, 4.0), WeilError, "expected integer N and B"),
    (lambda P: trace_sequence(P, 1e3), WeilError, "expected integer N"),
], ids=["moments-0", "moments-2^1023", "sequence-0", "sequence-2^33",
        "moments-float-N", "moments-float-K", "histogram-float-N", "histogram-2.5",
        "histogram-float-B", "sequence-float-N"])
def test_sample_count_checked_before_any_solve(count_calls, run, error, message):
    P = parse_label("3.2.ab_b_b")
    oracle, solves = count_calls("angle_rank_numeric"), count_calls("roots")
    with pytest.raises(error, match=message):
        run(P)
    assert (oracle, solves) == ([], [])


def test_numpy_integers_are_counts():
    P = parse_label("3.2.ab_b_b")
    group, lattice = classify(P), angle_rank_numeric(P)
    assert histogram(P, np.int64(1000), np.int32(16)) == histogram(P, 1000, 16)
    assert moment_report(P, np.int64(1000), np.uint8(4)) == moment_report(P, 1000, 4)
    assert np.array_equal(trace_sequence(P, np.int64(100)), trace_sequence(P, 100))
    assert exact_moments(group, np.int64(4), lattice) == exact_moments(group, 4, lattice)
    assert empirical_moments(np.ones(10), np.int16(3)) == [1.0, 1.0, 1.0]


@pytest.mark.parametrize("run", [lambda P: histogram(P, 1000, 16),
                                 lambda P: moment_report(P, 1000, 8)],
                         ids=["histogram", "moment_report"])
@pytest.mark.parametrize("label, smith_forms", [
    ("2.5.a_ab", 1), ("3.2.ab_b_b", 1), ("3.2.ad_f_ah", 0), ("2.2.ab_b", 0)])
def test_trace_layer_reads_the_oracles_smith_form(count_calls, run, label, smith_forms):
    # the only Smith form is the oracle's one of its basis when R != 0, none
    # when delta = g; the torus rows and the walk states read the transform
    # that the lattice keeps
    calls = count_calls("smith_normal_form")
    run(parse_label(label))
    assert len(calls) == smith_forms


@pytest.mark.parametrize("label", ["3.2.ad_f_ah", "3.2.ab_b_b", "2.2.ae_i"])
def test_moment_report_samples_no_trace(count_calls, label):
    # delta = g, 0 < delta < g and delta = 0 at perfbench's N and K: the
    # walk is within its budget, so no kernel, and at most one solve of the
    # angles
    kernel = count_calls("_trace_chunks")
    oracle, solves = count_calls("angle_rank_numeric"), count_calls("roots")
    moment_report(parse_label(label), 10 ** 6, 8)
    assert len(kernel) == 0
    assert len(oracle) <= 1 and len(solves) <= 1


def test_moment_report_samples_past_the_budget(count_calls, monkeypatch):
    # U(1)^3 at K = 8 walks 5,256 moves, more than the 1,365 that N = 2^16
    # samples cost: the kernel runs once, over r = 1..N
    P = parse_label("3.2.ad_f_ah")
    kernel = count_calls("_trace_chunks")
    moment_report(P, 1 << 16, 8)
    assert [args[1:] for args in kernel] == [(1 << 16, 1, 1)]
    # past 2^32 samples lose angle accuracy, so a walk past its budget
    # there is an error
    monkeypatch.setattr(distribution, "MAX_MOVES", 0)
    with pytest.raises(PrecisionLoss, match="loses angle accuracy"):
        moment_report(P, 1 << 33, 8)


class TestTraceKernelBlocks:
    @pytest.mark.parametrize("label", sorted(PINNED))
    def test_outputs_bit_identical(self, label):
        P = parse_label(label)
        h = histogram(P, PIN_N, 4096)
        rep = moment_report(P, PIN_N, 8)
        assert (_digest((h.counts, h.atoms)), _digest(rep.to_json())) == PINNED[label]

    # the histogram buckets each slice as it comes: the counts and atoms do
    # not move with the width
    @pytest.mark.parametrize("label", ["3.2.ad_f_ah", "2.5.a_ab"])
    def test_slice_width_moves_no_count(self, monkeypatch, label):
        P, n = parse_label(label), 3 * (1 << 16) + 123
        h = histogram(P, n, 4096)
        for width in (1 << 10, 1 << 15):
            monkeypatch.setattr(distribution, "SLICE", width)
            got = histogram(P, n, 4096)
            assert repr((got.counts, got.atoms)) == repr((h.counts, h.atoms))

    # many slices ending on a ragged one, less than one slice, exactly two,
    # and a single sample (m > N - j)
    @pytest.mark.parametrize("N, j, m", [((1 << 16) + SLICE + 3, 1, 1),
                                         (3 * (1 << 16) + 5, 2, 3),
                                         (SLICE - 1, 1, 1), (2 * SLICE, 4, 7),
                                         (SLICE + 10, 3, SLICE + 8)])
    def test_slices_match_per_sample_evaluation(self, N, j, m):
        # x_r one r at a time with the kernel's float operations: uint64
        # wraparound product, times 2 pi / 2^64, cos, times 2, summed over
        # the angles in order
        P = parse_label("3.2.ad_f_ah")
        ms = _fixed_point_angles(roots(P).thetas)
        chunks = [x.copy() for x in _trace_chunks(ms, N, j, m)]
        assert all(len(x) == SLICE for x in chunks[:-1]) and len(chunks[-1]) <= SLICE
        got = np.concatenate(chunks)
        angles, scale = np.array(ms, dtype=np.uint64), 2.0 * math.pi / 2.0 ** 64
        want = []
        for r in range(j, N + 1, m):
            x = 0.0
            for c in np.cos(angles * np.uint64(r) * scale) * 2.0:
                x += float(c)
            want.append(x)
        assert got.tobytes() == np.array(want).tobytes()

    @staticmethod
    def _peak_mb(f):
        tracemalloc.start()
        try:
            f()
            return tracemalloc.get_traced_memory()[1] / 2 ** 20
        finally:
            tracemalloc.stop()

    # the kernel's four arrays of SLICE entries (256 KiB) and numpy's cast
    # buffer for the uint64 phases (64 KiB); the histogram's bucket indices
    # overwrite the samples
    def test_histogram_holds_one_slice(self):
        P = parse_label("3.2.ad_f_ah")
        histogram(P, 100, 16)   # one-time imports and caches stay out of the peak
        assert self._peak_mb(lambda: histogram(P, 1 << 22, 4096)) < 0.75

    # the closed form holds the walk states and their phases, whatever N
    def test_moment_report_cost_does_not_grow_with_n(self):
        P = parse_label("3.2.ad_f_ah")
        moment_report(P, 100, 8)
        for n in (1 << 21, 1 << 40):
            assert self._peak_mb(lambda: moment_report(P, n, 8)) < 0.5

    # past the walk's budget: the kernel's slice, one slice of powers and
    # K lists of slice sums
    def test_moment_report_holds_one_slice(self, monkeypatch):
        P = parse_label("3.2.ad_f_ah")
        moment_report(P, 100, 8)
        monkeypatch.setattr(distribution, "MAX_MOVES", 0)
        assert self._peak_mb(lambda: moment_report(P, 1 << 21, 8)) < 0.75

    def test_mean_powers_memory_is_bounded(self):
        # 2^16 one-sample slices, the slice count of N = 2^29: a float per
        # slice and power peaks at 4.1 MB here (K = 2), and the fold every
        # 1,024 slice sums keeps 0.14 MB
        xs = np.round(np.sin(np.arange(1 << 16)) * 3 * 1024) / 1024
        slices = [xs[r:r + 1] for r in range(len(xs))]
        distribution._mean_powers(iter(slices[:2]), 2, 2)   # numpy's first-call setup
        assert self._peak_mb(lambda: distribution._mean_powers(iter(slices), len(xs), 2)) < 1

    def test_exact_moments_walk_counts_stay_small(self):
        # delta = 2: the walk counts of 4 steps on Z^2 x Z/2 are under a
        # hundred dict entries, not a grid
        P = parse_label("3.2.ab_b_b")
        grp, lattice = classify(P), angle_rank_numeric(P)
        exact_moments(grp, 8, lattice)
        assert self._peak_mb(lambda: exact_moments(grp, 8, lattice)) < 1


class TestBaseChangeTraceIdentity:
    def test_quadratic_identity(self):
        P = parse_label("2.5.a_ab")
        a = trace_sequence(base_change(P, 2), 2000)
        b = trace_sequence(P, 4000)[1::2]
        assert np.max(np.abs(a - b)) < 1e-9

    def test_cubic_identity(self):
        P = parse_label("3.2.a_a_ac")
        a = trace_sequence(base_change(P, 3), 500)
        b = trace_sequence(P, 1500)[2::3]
        assert np.max(np.abs(a - b)) < 1e-9


class TestExactAtoms:
    def test_atoms_match_corpus(self):
        # atom values within 1e-9 and the same component counts as the
        # corpus `atoms` column, on every label with 0 < delta < g
        with open(CORPUS, newline="") as fh:
            rows = [row for row in csv.DictReader(fh, delimiter="\t")
                    if 0 < int(row["n_delta"]) < int(row["g"])]
        assert len(rows) == 516
        differing = []
        for row in rows:
            m = int(row["n_m"])
            want = [] if row["atoms"] == "none" else [
                (float(v), int(k)) for v, k in
                (item.split(":") for item in row["atoms"].split(";"))]
            got = _atoms_per_component(parse_label(row["label"]))
            if (len(got) != len(want)
                    or any(abs(v - w) > 1e-9 or round(f * m) != k
                           for (v, f), (w, k) in zip(got, want))):
                differing.append(row["label"])
        assert differing == []

    @pytest.mark.parametrize("label", sorted(
        label for label, grp in PAPER_EXAMPLES.items()
        if grp != "U(1)^" + label.split(".")[0]))
    def test_constant_cosets_at_200_bits(self, label):
        # every coset f + M t of the group, at three seeded rational t and
        # 200 bits: a coset is constant to 2^-150 or varies by more than
        # 1e-6, and the constant ones give the atoms with their counts
        lattice = angle_rank_numeric(parse_label(label))
        g, m = lattice.g, lattice.torsion_order
        divisors, v, _ = smith_normal_form(lattice.basis, g)
        r = len(divisors)
        rng = random.Random(label)
        ts = [[Fraction(rng.randrange(1000), 1000) for _ in range(g - r)]
              for _ in range(3)]
        found = {}
        with mp.workprec(200):
            for k in itertools.product(*map(range, divisors)):
                xs = []
                for t in ts:
                    x = mp.mpf(0)
                    for row in v:
                        th = sum(Fraction(a * b, d) for a, b, d in zip(k, row, divisors))
                        th += sum(c * u for c, u in zip(row[r:], t))
                        x += 2 * mp.cos(2 * mp.pi * mp.mpf(th.numerator) / th.denominator)
                    xs.append(x)
                spread = max(xs) - min(xs)
                if spread < mp.mpf(2) ** -150:
                    val = round(float(xs[0]), 9)
                    found[val] = found.get(val, 0) + 1
                else:
                    assert spread > 1e-6, (label, k)
        atoms = _atoms_per_component(parse_label(label))
        assert [c / m for _, c in sorted(found.items())] == [f for _, f in atoms]
        for (want, _), (got, _) in zip(sorted(found.items()), atoms):
            assert abs(want - got) < 1e-9

    def test_atom_step_uses_no_numpy(self, monkeypatch):
        # U(1) x C_3: x_r is the atom 0 exactly when 3 does not divide r
        monkeypatch.setattr(distribution, "np", None)
        lattice = angle_rank_numeric(parse_label("3.2.a_a_ac"))
        divisors, v, _ = smith_normal_form(lattice.basis, 3)
        atoms = _atom_residues(3, lattice.thetas, [row[len(divisors):] for row in v])
        values = {(val / 2 ** 64, err) for _, val, err in atoms.values()}
        assert repr((values, len(atoms) / 3)) == "({(0.0, 0)}, 0.6666666666666666)"

    def test_non_integer_atom_off_the_edges(self):
        # 2.2.ae_i: x_r = 4 cos(pi r / 4), so +-2 sqrt 2 at odd r, each in
        # the bucket of its value, and the integers 4, 0, -4 on edges go up
        h = histogram(parse_label("2.2.ae_i"), 8 * 1000, 16)
        want = [0] * 16
        for x, c in [(-4, 1000), (-2 * math.sqrt(2), 2000), (0, 2000),
                     (2 * math.sqrt(2), 2000), (4, 1000)]:
            want[min(math.floor((x + 4) * 2), 15)] += c
        assert list(h.counts) == want

    def test_atom_near_an_edge_is_refused(self):
        # values 2^-64 v within err units, g = 1 and B = 4: the edge 0 is
        # the left end of bucket 2, and 2 = 2g falls in the closed last one
        assert _atom_bucket(0, 0, 1, 4) == 2
        assert _atom_bucket(2 << 64, 0, 1, 4) == 3
        assert (_atom_bucket(-3, 2, 1, 4), _atom_bucket(3, 2, 1, 4)) == (1, 2)
        with pytest.raises(InvariantError, match="bucket edge"):
            _atom_bucket(1, 2, 1, 4)


def test_benchmark_trace_checks_pass(monkeypatch):
    # the `traces` benchmark's own checks (paper-scale histogram, moments,
    # atoms and the histogram moments at bucket midpoints) on the labels
    # with edge atoms and the tightest histogram-moment margins; the module
    # is loaded from perfbench/ as it is, and writes no bytecode there
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    path = CORPUS.parent.parent / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    wl = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(wl)
    rows = {row["label"]: row for row in wl.load_corpus()}
    for label in ("2.3.a_ac", "3.3.a_a_f", "3.3.d_h_m"):
        assert wl.run_traces(parse_label(label), rows[label]) is None, label

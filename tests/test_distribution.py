import csv
import hashlib
import itertools
import math
import random
import tracemalloc
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from weilsf import distribution
from weilsf.anglerank import angle_rank_numeric, smith_normal_form
from weilsf.classify import classify
from weilsf.distribution import (BLOCK, LatticeMissing, PrecisionLoss,
                                 _atom_candidates, empirical_moments,
                                 exact_moments, histogram, moment_report,
                                 trace_sequence)
from weilsf.polyarith import base_change
from weilsf.weilpoly import parse_label, roots, validate

from conftest import PAPER_EXAMPLES

CORPUS = Path(__file__).resolve().parent.parent / "perfbench" / "data" / "corpus.tsv"


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
        # across the first BLOCK boundary
        P = parse_label("3.2.ad_f_ah")
        n = BLOCK + 3
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
        with pytest.raises(LatticeMissing):
            exact_moments(grp, 2)

    def test_moment_report_converges(self):
        rep = moment_report(parse_label("2.5.a_ab"), 50000, 4)
        assert all(a < 0.05 for a in rep.abs_error)

    def test_odd_moments_vanish_for_connected_groups(self):
        xs = trace_sequence(parse_label("1.2.ab"), 200000)
        m = empirical_moments(xs, 5)
        assert abs(m[0]) < 0.01 and abs(m[2]) < 0.05 and abs(m[4]) < 0.3

    # delta = g and delta < g; several BLOCKs ending on a ragged one, and
    # less than one BLOCK
    @pytest.mark.parametrize("label", ["3.2.ad_f_ah", "2.5.a_ab"])
    @pytest.mark.parametrize("n", [3 * BLOCK + 123, BLOCK - 1])
    def test_streamed_moments_match_array_path(self, label, n):
        P = parse_label(label)
        xs = trace_sequence(P, n)
        got = empirical_moments(xs, 8)
        assert moment_report(P, n, 8).empirical == tuple(got)
        # against a correctly rounded sum of the same float products
        p = np.ones_like(xs)
        for m_k in got:
            p *= xs
            ref = math.fsum(p.tolist()) / n
            scale = math.fsum(np.abs(p).tolist()) / n
            assert abs(m_k - ref) <= 1e-12 * scale

    def test_exact_moments_pinned(self):
        # exact_moments(group, 8, lattice), and the SHA-256 of
        # repr(_atom_candidates(lattice)) taken before the quadrature grid
        # was built in place: delta = 1 with C_2, delta = 2 with C_2, delta = 2
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
            assert _digest(_atom_candidates(lattice)) == atoms

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
# taken once the moments were summed per BLOCK instead of per 2^20 samples,
# which moves the last bits of the empirical moments of 2.2.ab_b, 3.2.ad_f_ah
# and 2.5.a_ab.  The moment digests of 2.5.a_ab and 2.2.ae_i were re-taken
# once the exact moments became integer walk counts: their odd `exact`
# entries are now 0.0 and their odd `abs_error` entries follow.  PIN_N spans
# many BLOCKs and ends on a ragged block.  The moments depend on numpy's
# float64 cos to the last bit, so these digests hold for one numpy build and
# CPU family.
PIN_N = (1 << 21) + 12345
PINNED = {
    # g = 2, U(1)^2, no atoms
    "2.2.ab_b": ("b25d2be2a1d5a46bb91f86d7bda143fbb74a0d65ae05f0bc7ab8b85963153ea5",
                 "9f6fc1deee53acb70070625b2f770b85524f4e255ea0c82cbd673bcb6092b653"),
    # g = 3, U(1)^3
    "3.2.ad_f_ah": ("817e1e4d8e55c0bab96423a9c3bb38959fe6073e1e0f7315e9da3cdfcbe0fb9f",
                    "c3f7c0d82449263b410f105695131bac246db91bdca18671d81863159499ace5"),
    # U(1) x C_2, one atom at 0
    "2.5.a_ab": ("330abf609843f03c2ac7e1164bdf5d374c12e70ac6fe077ce4d34bf9ae2948d9",
                 "2bd0543071c6ff7d5f9203909a61e003bbef57616911ab3a6ebedbdb5e570b59"),
    # supersingular, C_8, five atoms
    "2.2.ae_i": ("1d2b6f4d6a319eff01eaf4f367ba47c3a27887c903fa7beaeb278212ae554e2d",
                 "c37cb5860c31f882fd9a6cc8f73a8b1b8a8693cabee067a3ef7341d48cf2f0ed"),
}


def _digest(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()


@pytest.mark.parametrize("run", [lambda P: histogram(P, 1000, 16),
                                 lambda P: moment_report(P, 1000, 4)],
                         ids=["histogram", "moment_report"])
def test_trace_kernel_reads_the_oracle_angles(count_calls, run):
    # U(1)^2 x C_2: the oracle solves the angles at 256 and 512 bits, and
    # the kernel takes them from its lattice instead of a third solve
    calls = count_calls("roots")
    run(parse_label("3.2.ab_b_b"))
    assert [precision for _, precision in calls] == [256, 512]


class TestTraceKernelBlocks:
    @pytest.mark.parametrize("label", sorted(PINNED))
    def test_outputs_bit_identical(self, label):
        P = parse_label(label)
        h = histogram(P, PIN_N, 4096)
        rep = moment_report(P, PIN_N, 8)
        assert (_digest((h.counts, h.atoms)), _digest(rep.to_json())) == PINNED[label]

    @staticmethod
    def _peak_mb(f):
        tracemalloc.start()
        try:
            f()
            return tracemalloc.get_traced_memory()[1] / 2 ** 20
        finally:
            tracemalloc.stop()

    def test_histogram_holds_one_block(self):
        P = parse_label("3.2.ad_f_ah")
        histogram(P, 100, 16)   # one-time imports and caches stay out of the peak
        assert self._peak_mb(lambda: histogram(P, 1 << 22, 4096)) < 8

    def test_moment_report_holds_one_block(self):
        P = parse_label("3.2.ad_f_ah")
        moment_report(P, 100, 8)
        assert self._peak_mb(lambda: moment_report(P, 1 << 21, 8)) < 8

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
        # atom values, coset counts and the sign of zero as in the corpus
        # `atoms` column, on every label with 0 < delta < g
        with open(CORPUS, newline="") as fh:
            rows = [row for row in csv.DictReader(fh, delimiter="\t")
                    if 0 < int(row["n_delta"]) < int(row["g"])]
        assert len(rows) == 516
        differing = []
        for row in rows:
            m = int(row["n_m"])
            atoms = _atom_candidates(angle_rank_numeric(parse_label(row["label"])))
            text = ";".join("%.9f:%d" % (v, round(f * m)) for v, f in atoms) or "none"
            if text != row["atoms"]:
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
        divisors, v = smith_normal_form(lattice.basis, g)
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
        atoms = _atom_candidates(lattice)
        assert [c / m for _, c in sorted(found.items())] == [f for _, f in atoms]
        for (want, _), (got, _) in zip(sorted(found.items()), atoms):
            assert abs(want - got) < 1e-9

    def test_atom_step_uses_no_numpy(self, monkeypatch):
        monkeypatch.setattr(distribution, "np", None)
        lattice = angle_rank_numeric(parse_label("3.2.a_a_ac"))
        assert repr(_atom_candidates(lattice)) == "[(-0.0, 0.6666666666666666)]"

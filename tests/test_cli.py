import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from weilsf import cli
from weilsf.anglerank import (DenominatorBoundExceeded, InconsistentLattice,
                              UnverifiedRelation)
from weilsf.cli import main
from weilsf.weilpoly import NonConvergence


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def fresh_python(script, *flags):
    """Run `script` in a new interpreter that imports weilsf from this tree."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *flags, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)


def test_parse(capsys):
    code, out, _ = run(capsys, "parse", "2.5.a_ab")
    assert code == 0
    data = json.loads(out)
    assert data["coeffs"] == [1, 0, -1, 0, 25]
    assert data["schema_version"] == 1


def test_classify_single(capsys):
    code, out, _ = run(capsys, "classify", "2.5.a_ab")
    assert code == 0
    data = json.loads(out)
    assert data["group"] == "U(1) x C_2"


def test_classify_c1_rational_trace(capsys):
    code, out, _ = run(capsys, "classify", "1.4.ae")
    assert code == 0
    assert json.loads(out)["group"] == "C_1"


def test_classify_batch_order_preserved(capsys, tmp_path):
    f = tmp_path / "corpus.txt"
    f.write_text("2.5.a_ab\n# a comment line\n2.2.ab_b\n1.2.a\n")
    code, out, _ = run(capsys, "classify", "--file", str(f))
    assert code == 0
    labels = [json.loads(line)["label"] for line in out.strip().split("\n")]
    assert labels == ["2.5.a_ab", "2.2.ab_b", "1.2.a"]


def test_classify_coeffs_input(capsys):
    code, out, _ = run(capsys, "classify", "--coeffs", "1,0,-1,0,25", "--q", "5")
    assert code == 0
    assert json.loads(out)["label"] == "2.5.a_ab"


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "classify", "2.5.zz_!!")
    assert code == 1
    assert "error" in err


def test_partial_exit_code(capsys):
    # an absolutely simple ordinary g=5 input yields a partial result
    code, out, _ = run(capsys, "classify", "--coeffs",
                       "1,21,243,1913,11771,60543,270733,1011977,2956581,5876661,6436343",
                       "--q", "23")
    assert code == 2
    assert json.loads(out)["partial"] is True


def test_factor(capsys):
    code, out, _ = run(capsys, "factor", "2.25.ac_bz")
    assert code == 0
    assert json.loads(out)["factors"] == [{"h": [1, -1, 25], "e": 2,
                                           "newton": "ordinary"}]


def test_newton(capsys):
    code, out, _ = run(capsys, "newton", "3.2.a_a_ac")
    data = json.loads(out)
    assert data["slopes"] == ["1/3", "1/3", "1/3", "2/3", "2/3", "2/3"]
    assert data["stratum"] == "p_rank_zero_non_ss"


def test_base_change(capsys):
    code, out, _ = run(capsys, "base-change", "-r", "2", "2.5.a_ab")
    assert json.loads(out)["label"] == "2.25.ac_bz"


def test_angle_rank(capsys):
    code, out, _ = run(capsys, "angle-rank", "2.5.a_ab", "--structural-m")
    data = json.loads(out)
    assert (data["delta"], data["m"], data["m_structural"]) == (1, 2, 2)


def test_histogram_csv(capsys):
    code, out, _ = run(capsys, "histogram", "1.2.a", "-N", "400", "-B", "4",
                       "--format", "csv")
    lines = out.strip().split("\n")
    assert lines[0] == "bucket_left,bucket_right,count"
    assert sum(int(l.split(",")[2]) for l in lines[1:]) == 400


def test_moments(capsys):
    code, out, _ = run(capsys, "moments", "1.2.ab", "-N", "20000", "-K", "2")
    data = json.loads(out)
    assert data["moments"][1]["exact"] == 2.0
    assert data["moments"][1]["abs_error"] < 0.05


def test_enumerate_counts(capsys):
    code, out, _ = run(capsys, "enumerate", "-g", "1", "-q", "2")
    labels = out.strip().split("\n")
    assert code == 0 and len(labels) == 5
    code, out, _ = run(capsys, "enumerate", "-g", "1", "-q", "4")
    assert len(out.strip().split("\n")) == 9


@pytest.mark.parametrize("verb", ["enumerate", "verify"])
def test_non_prime_power_q_rejected(capsys, verb):
    code, out, err = run(capsys, verb, "-g", "1", "-q", "6")
    assert code == 1 and out == ""
    assert err.startswith("error:") and "not a prime power" in err


def test_enumerate_g2_q2_classifies_cleanly(capsys):
    code, out, _ = run(capsys, "enumerate", "-g", "2", "-q", "2")
    labels = out.strip().split("\n")
    assert len(labels) == 35
    code2, out2, _ = run(capsys, "classify", *labels)
    assert code2 == 0
    assert len(out2.strip().split("\n")) == 35


def test_verify_corpus(capsys):
    code, out, _ = run(capsys, "verify", "-g", "1", "-q", "4")
    assert code == 0
    assert json.loads(out.strip().split("\n")[-1])["mismatches"] == 0


def test_verify_bad_label_keeps_the_rest(capsys, monkeypatch):
    real = cli.angle_rank_numeric

    def angle_rank(P, precision):
        if P.label == "1.2.ab":
            raise NonConvergence("residual too large")
        return real(P, precision)
    monkeypatch.setattr("weilsf.cli.angle_rank_numeric", angle_rank)
    code, out, err = run(capsys, "verify", "--verbose", "1.2.zz", "1.2.a", "1.2.ab")
    records = [json.loads(line) for line in out.splitlines()]
    assert [r.get("label") for r in records] == ["1.2.zz", "1.2.a", "1.2.ab", None]
    assert [r.get("kind") for r in records[:3]] == ["input", None, "internal"]
    assert records[1]["status"] == "ok"
    assert records[3] == {"schema_version": 1, "checked": 1, "mismatches": 0,
                          "not_realizable": 0, "per_node": {"Table2:2-(v)": 1}}
    assert code == 3 and err.startswith("error: 1.2.zz:") and err.count("error:") == 2


def test_verify_summary_counts_per_node(capsys):
    # 1.8.ac is outside the Waterhouse list; the g = 5 input is partial
    code, out, _ = run(capsys, "verify", "--verbose", "1.8.ac", "1.8.ab",
                       "5.23.v_jj_cvp_rkt_dlop", "3.2.ac_b_a", "3.2.ad_f_ah", "1.2.a")
    *entries, summary = [json.loads(line) for line in out.splitlines()]
    assert code == 0
    assert summary["per_node"] == {"not_realizable": 1, "Table2:(1)": 1, "partial": 1,
                                   "X-D:Table6:oracle": 1, "X-A": 1, "Table2:2-(v)": 1}
    assert summary["checked"] == 6 and summary["not_realizable"] == 1
    # the per-input records carry no node
    assert [e["status"] for e in entries] == ["not_realizable", "ok", "partial", "ok", "ok", "ok"]
    assert not any("node" in e for e in entries)


def test_verify_runs_the_oracle_once(count_calls):
    # the classifier decides g <= 3 exactly, X-D included, so the oracle
    # runs once per input: in the comparison, never in the classifier
    from weilsf.weilpoly import parse_label
    calls = count_calls("angle_rank_numeric")
    for label, node, numeric in [("3.2.ac_d_ag", "X-D:Table6:oracle", [2, 8]),
                                 ("3.2.ad_f_ah", "X-A", [3, 1]),
                                 ("2.5.a_ab", "S-A(b)", [1, 2])]:
        calls.clear()
        entry = cli._verify_one(parse_label(label), 256)
        assert entry["status"] == "ok" and entry["numeric"] == numeric
        assert entry["node"] == node
        assert [P.label for P, _ in calls] == [label]


def test_verify_flags_corruption(capsys, tmp_path):
    f = tmp_path / "bad.txt"
    f.write_text("1.2.zz\n")
    code, _, err = run(capsys, "verify", "--file", str(f))
    assert code == 1


def test_classify_golden_output_stable(capsys):
    # byte-stable golden record; any schema drift must be deliberate
    golden = ('{"delta": 1, "factors": [{"dim": 2, "e": 1, '
              '"h": [1, 0, -1, 0, 25], "newton": "ordinary"}], "g": 2, '
              '"group": "U(1) x C_2", "label": "2.5.a_ab", "m": 2, '
              '"provenance": "S-A(b)", "q": 5, "schema_version": 1, '
              '"split_degree": 2, "stratum": "ordinary"}')
    _, out1, _ = run(capsys, "classify", "2.5.a_ab")
    _, out2, _ = run(capsys, "classify", "2.5.a_ab")
    assert out1.strip() == golden
    assert out1 == out2


def test_conflicting_input_sources_rejected(capsys, tmp_path):
    f = tmp_path / "x.txt"
    f.write_text("1.2.a\n")
    code, _, err = run(capsys, "classify", "1.2.a", "--file", str(f))
    assert code == 1 and "exactly one input source" in err


@pytest.mark.parametrize("verb", ["classify", "verify", "parse"])
@pytest.mark.parametrize("name", ["absent.txt", None])
def test_unreadable_file_is_input_error(capsys, tmp_path, verb, name):
    # a missing path or a directory ends in one error line, not a traceback
    path = tmp_path / name if name else tmp_path
    code, out, err = run(capsys, verb, "--file", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error: cannot read --file")


def test_precision_below_64_rejected(capsys):
    code, out, err = run(capsys, "classify", "--precision", "32", "1.2.a")
    assert code == 1 and out == ""
    assert err.startswith("error:") and "precision must be >= 64" in err


def test_malformed_coeffs_is_input_error(capsys):
    code, out, err = run(capsys, "classify", "--coeffs", "1,x,3", "--q", "5")
    assert code == 1 and out == ""
    assert err.startswith("error:") and "comma-separated integers" in err


def test_nonconvergence_is_internal_error(capsys, monkeypatch):
    def fail(P, precision):
        raise NonConvergence("residual too large")
    monkeypatch.setattr("weilsf.cli.angle_rank_numeric", fail)
    code, _, err = run(capsys, "angle-rank", "2.5.a_ab")
    assert code == 3
    assert err.startswith("error:") and "residual too large" in err


@pytest.mark.parametrize("error", [UnverifiedRelation, DenominatorBoundExceeded,
                                   InconsistentLattice])
def test_oracle_failure_is_internal_error(capsys, monkeypatch, error):
    def fail(P, precision):
        raise error("oracle gave up")
    monkeypatch.setattr("weilsf.cli.angle_rank_numeric", fail)
    code, _, err = run(capsys, "angle-rank", "2.5.a_ab")
    assert code == 3
    assert err.startswith("error:") and "oracle gave up" in err


def test_format_is_a_histogram_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--format", "json", "1.2.a"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --format" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["-g", "1", "-q", "2", "1.3.a"],
    ["-g", "1", "-q", "2", "--coeffs", "1,0,2", "--q", "2"],
    ["-g", "1", "-q", "2", "--file", "-"],
    ["-g", "2", "1.3.a"],
    ["-g", "1"],
])
def test_verify_takes_one_input_source(capsys, argv):
    code, out, err = run(capsys, "verify", *argv)
    assert code == 1 and out == "" and err.startswith("error:")


def test_verify_coeffs_with_short_q(capsys):
    # -q and --q share one destination
    code, out, _ = run(capsys, "verify", "--coeffs", "1,0,2", "-q", "2")
    assert code == 0 and json.loads(out)["checked"] == 1


@pytest.mark.parametrize("argv", [
    ["classify", "--q", "5", "1.2.a"],
    ["classify", "--q", "5", "--file", "-"],
    ["verify", "-q", "3", "1.2.a", "--verbose"],
    ["verify", "--q", "3", "--file", "-"],
])
def test_q_without_coeffs_is_input_error(capsys, argv):
    # a label names its own field; a q beside it must not be dropped silently
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == "" and "--q is for --coeffs only" in err


@pytest.mark.parametrize("k", ["0", "-1"])
def test_moments_order_below_one_is_input_error(capsys, k):
    code, out, err = run(capsys, "moments", "-K", k, "1.2.a", "1.2.ab")
    records = [json.loads(line) for line in out.splitlines()]
    assert [rec["label"] for rec in records] == ["1.2.a", "1.2.ab"]
    assert all(rec["kind"] == "input" for rec in records)
    assert code == 1 and err.count("error:") == 2


def test_classify_batch_isolates_failures(capsys, monkeypatch):
    real_report = cli.report

    def report(P, precision):
        if P.label == "1.2.ab":
            raise NonConvergence("residual too large")
        return real_report(P, precision=precision)
    monkeypatch.setattr("weilsf.cli.report", report)
    code, out, err = run(capsys, "classify", "1.2.a", "1.2.zz", "1.2.ab")
    records = [json.loads(line) for line in out.splitlines()]
    assert [r["label"] for r in records] == ["1.2.a", "1.2.zz", "1.2.ab"]
    assert records[0]["group"] == "C_4"
    assert [r.get("kind") for r in records] == [None, "input", "internal"]
    assert "absolute value" in records[1]["error"]
    assert code == 3
    assert err.count("error:") == 2


def test_classify_bad_line_keeps_the_rest(capsys):
    code, out, err = run(capsys, "classify", "1.2.a", "1.2.zz")
    records = [json.loads(line) for line in out.splitlines()]
    assert [r["label"] for r in records] == ["1.2.a", "1.2.zz"]
    assert records[1]["kind"] == "input" and code == 1
    assert err.startswith("error: 1.2.zz:")


@pytest.mark.parametrize("verb", [["parse"], ["factor"], ["newton"],
                                  ["base-change", "-r", "2"], ["angle-rank"],
                                  ["moments", "-N", "100", "-K", "2"]],
                         ids=lambda verb: verb[0])
def test_bad_line_keeps_the_rest(capsys, verb):
    code, out, err = run(capsys, *verb, "1.2.zz", "1.2.a")
    records = [json.loads(line) for line in out.splitlines()]
    # a base-change record is labelled by its result and names the input as source
    assert [r.get("source", r["label"]) for r in records] == ["1.2.zz", "1.2.a"]
    assert records[0]["kind"] == "input" and "error" not in records[1]
    assert code == 1 and err.startswith("error: 1.2.zz:") and err.count("error:") == 1


@pytest.mark.parametrize("r", ["0", "-1"])
def test_base_change_degree_below_one_is_input_error(capsys, r):
    code, out, err = run(capsys, "base-change", "-r", r, "1.2.a", "1.2.ab")
    records = [json.loads(line) for line in out.splitlines()]
    assert [rec["label"] for rec in records] == ["1.2.a", "1.2.ab"]
    assert all(rec["kind"] == "input" and "extension degree" in rec["error"]
               for rec in records)
    assert code == 1 and err.count("error:") == 2


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_histogram_bad_line_keeps_the_rest(capsys, fmt):
    argv = ["histogram", "-N", "400", "-B", "4", "--format", fmt]
    _, good, _ = run(capsys, *argv, "1.2.a")
    code, out, err = run(capsys, *argv, "1.2.zz", "1.2.a")
    assert code == 1 and err.startswith("error: 1.2.zz:") and err.count("error:") == 1
    if fmt == "csv":
        # an error record would corrupt the CSV stream: stderr only
        assert out == good and out.startswith("bucket_left,bucket_right,count\n")
    else:
        records = [json.loads(line) for line in out.splitlines()]
        assert records[0] == {"label": "1.2.zz", "kind": "input",
                              "error": records[0]["error"]}
        assert out.splitlines()[1] == good.strip()


def test_certificate_checks_survive_python_O():
    # `python -O` strips asserts; a factorization that drops a factor must
    # still be refused, with exit code 3
    script = textwrap.dedent("""
        import sys
        from weilsf import polyarith
        from weilsf.cli import main
        assert False, "asserts must be stripped in this interpreter"
        orig = polyarith._split_real_rooted
        polyarith._split_real_rooted = lambda h, q, precision: orig(h, q, precision)[1:]
        sys.exit(main(["factor", "2.2.a_d"]))
    """)
    proc = fresh_python(script, "-O")
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("error:") and "failed to certify" in proc.stderr


def test_classifier_path_loads_no_numpy():
    # numpy serves only the trace functions, which the package imports on
    # first use; a fresh interpreter shows what the classifier path loads
    script = textwrap.dedent("""
        import sys
        import weilsf, weilsf.cli
        assert "numpy" not in sys.modules, "import"
        # registered, so code that wraps functions through sys.modules finds it
        assert sys.modules["weilsf.distribution"] is weilsf.distribution
        P = weilsf.parse_label("3.2.ad_f_ah")
        weilsf.report(P)
        assert "numpy" not in sys.modules, "report"
        assert weilsf.cli._verify_one(P, weilsf.DEFAULT_PRECISION)["status"] == "ok"
        assert "numpy" not in sys.modules, "verify"
        assert weilsf.histogram is weilsf.distribution.histogram
        assert "numpy" in sys.modules, "histogram"
        names = {}
        exec("from weilsf import *", names)
        assert set(weilsf.__all__) <= set(names), "star import"
        try:
            weilsf.no_such_name
        except AttributeError:
            pass
        else:
            raise AssertionError("weilsf.no_such_name did not raise")
    """)
    proc = fresh_python(script)
    assert proc.returncode == 0, proc.stderr


def test_exact_path_loads_no_mpmath():
    # mpmath serves the numeric layer only and runs on its first use;
    # "mpmath.libmp" is imported only when mpmath's own code runs
    proc = fresh_python(textwrap.dedent("""
        import sys
        import weilsf, weilsf.cli
        assert "mpmath.libmp" not in sys.modules, "import"
        P = weilsf.parse_label("3.2.ad_f_ah")
        assert weilsf.report(P)["provenance"] == "X-A"
        assert "mpmath.libmp" not in sys.modules, "report on X-A"
        Q = weilsf.parse_label("3.2.ac_b_a")
        assert weilsf.report(Q)["provenance"] == "X-D:Table6:oracle"
        assert "mpmath.libmp" not in sys.modules, "report on X-D"
        weilsf.angle_rank_numeric(Q)
        assert "mpmath.libmp" in sys.modules, "the oracle"
        import mpmath
        assert mpmath is weilsf.weilpoly.mp, "a second mpmath"
    """))
    assert proc.returncode == 0, proc.stderr


def test_one_mpmath_when_imported_first():
    # an mpmath imported before weilsf is the one every module binds, so
    # mp.workprec in a caller governs the package
    proc = fresh_python(textwrap.dedent("""
        import sys
        import mpmath
        import weilsf, weilsf.cli
        weilsf.distribution.histogram   # run the lazily loaded trace layer too
        bound = {name: vars(m)["mp"] for name, m in list(sys.modules.items())
                 if name.startswith("weilsf") and "mp" in vars(m)}
        assert {"weilsf.weilpoly", "weilsf.polyarith", "weilsf.anglerank",
                "weilsf.distribution"} <= set(bound), bound
        assert all(m is mpmath for m in bound.values()), bound
    """))
    assert proc.returncode == 0, proc.stderr

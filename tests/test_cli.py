import hashlib
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
from weilsf.weilpoly import NonConvergence, parse_label


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
    code, out, _ = run(capsys, "angle-rank", "2.5.a_ab")
    data = json.loads(out)
    assert (data["delta"], data["m"]) == (1, 2)


def test_histogram_csv(capsys):
    code, out, _ = run(capsys, "histogram", "1.2.a", "-N", "400", "-B", "4",
                       "--format", "csv")
    lines = out.strip().split("\n")
    assert lines[0] == "bucket_left,bucket_right,count"
    assert sum(int(l.split(",")[2]) for l in lines[1:]) == 400


def test_histogram_takes_its_sizes(capsys):
    # -N and -B are honoured, and the edge atoms 0 and 2 of 1.2.a each land
    # in one bucket
    code, out, _ = run(capsys, "histogram", "1.2.a", "-N", "100", "-B", "4")
    data = json.loads(out)
    assert (code, data["sample_count"], data["bucket_count"]) == (0, 100, 4)
    code, out, _ = run(capsys, "histogram", "1.2.a", "-N", "100", "-B", "4",
                       "--format", "csv")
    assert [int(l.split(",")[2]) for l in out.strip().split("\n")[1:]] == [25, 0, 50, 25]


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


@pytest.mark.parametrize("verb", ["verify", "enumerate"])
@pytest.mark.parametrize("g", ["0", "-1"])
def test_verify_g_below_one_is_input_error(capsys, verb, g):
    code, out, err = run(capsys, verb, "-g", g, "-q", "2")
    assert (code, out, err) == (1, "", "error: g must be positive, got %s\n" % g)


def test_enumerate_bounds_are_exact_beyond_float_range():
    # |a_1| <= isqrt(4q) = 2^551: q^(1/2) is past the float range, and the
    # first polynomial is (T - 2^550)^2
    P = next(cli.enumerate_weil(1, 2 ** 1100))
    assert P.coeffs == (1, -2 ** 551, 2 ** 1100)


def test_enumerate_g2_q2_classifies_cleanly(capsys):
    code, out, _ = run(capsys, "enumerate", "-g", "2", "-q", "2")
    labels = out.strip().split("\n")
    assert len(labels) == 35
    code2, out2, _ = run(capsys, "classify", *labels)
    assert code2 == 0
    assert len(out2.strip().split("\n")) == 35


# SHA-256 of the newline-joined labels of enumerate_weil(g, q), in output
# order, with the number of labels; (4, 2) is the only field where the
# recursion reaches a_4
ENUMERATION_DIGESTS = {
    (1, 2): ("26ab4a5fc85eefc6e9e03adf80e70499e8b1105664589a8d3e09f936392c5d42", 5),
    (1, 3): ("510e4e04ade68fe1120f77c744d23fc5c6495d4adcbc507999c4ecf1dbd78bac", 7),
    (1, 4): ("919140265b55a12c4c79969b2963f6a7e398af77048d9a90373dd16d054a219c", 9),
    (1, 5): ("d863ccf3b0d539161cbca36816acfcb269710ab588e58625dc388d052485bc5f", 9),
    (1, 7): ("39a3477dfb7644b5c3513cd98c62c194137a1a6466cd4b641342f3d9ce28d63f", 11),
    (1, 8): ("06901a9ec47338a3695e93eef483b21f1daab52ad3caa2e82f2e50395e879ea2", 11),
    (1, 9): ("6cab07ef4851e8766a85320e73fe61c30ca75024e1ab1846c5761f47768921ae", 13),
    (1, 16): ("6e7763d47bb501577eab5c16cf8291b52204e78d04b3b331f1dffd69e32d5d1f", 17),
    (1, 27): ("2fa23fb37893957be673e77e16b5214d3071b31983abbe697cb38e1662cf02b0", 21),
    (1, 32): ("3c50074ef366205d43fca1d621db046f720fe8c3caa4c4a6618ca905cea260f9", 23),
    (2, 2): ("e3ec5070bfbfdc2f9b170d7de9d66df28cc891566fb1e2c62af7d62048b96409", 35),
    (2, 3): ("82d585020cbd07b59937fd1d9c35f83c1b5377b3317d68a5ce19b3499890c54b", 63),
    (2, 4): ("05f6138341ca151c57d22951da2113f3b2a106d9065463b39b80296b962df8ea", 101),
    (2, 5): ("8653c5790d0867c0c25add19b14498a0d3aa0c91267b3677a1804cf7500ff6a3", 129),
    (2, 7): ("8fe66495fdc503da5ced97410b99e6719bc7201a5ab5eefbe8cf48e795153502", 207),
    (2, 8): ("839a72dccf2150c3181150684258cc4bb7980320271990e3aa26f26f87ae8a9e", 253),
    (2, 9): ("12565054261e2756d6b2b4c4fbbde8a523c03b07d1d20239bbb4ff01719fbc64", 311),
    (2, 16): ("b9e1eb423cdbbf2939909f46374e66e1eb3fe5b4ad7812299e50a671b1a2f876", 713),
    (2, 25): ("e6b39ac32949f25ff582b9e01484b8d0c952c49c6f7214d86277533356ab7569", 1371),
    (2, 27): ("ac7775464d4ef3ab0011a9015865d6410b4d21da1a91290cfbc68fdef0b1c483", 1515),
    (2, 32): ("7760a3bc80dbc85ce591932bce3cd920152cbfe5453d5ad7de9fc620b8318f7d", 1951),
    (2, 49): ("2b9ab532d62d08c8aabe91de440dc31f75f9608d0c28f3464e2fa7d98a015473", 3711),
    (3, 2): ("d9e52a6fe49c8479c8bc16c85e478a96a7361be2ff2b93f89f561a7d9a85204f", 215),
    (3, 3): ("ccb4b8be09cc48755128eb8f8844fd2df624bd7012c9b657027bdc759c9f17fd", 677),
    (3, 4): ("a12fb0071d353c7c42a9c497296afaad22737c844f88a73d4a7162cea1ed107e", 1641),
    (3, 5): ("cf8564983a51f08656c1dac6070ad30372b4f0916e1fe3aeee0d335f38226928", 2953),
    (4, 2): ("9b62a852e4a362b35a447c493c6fb37728ef75874645b092b0acd00ca4fadeb6", 1645),
}


def test_enumeration_is_pinned():
    got = {}
    for g, q in ENUMERATION_DIGESTS:
        labels = [P.label for P in cli.enumerate_weil(g, q)]
        got[g, q] = (hashlib.sha256("\n".join(labels).encode()).hexdigest(), len(labels))
    assert got == ENUMERATION_DIGESTS


def test_verify_corpus(capsys):
    code, out, _ = run(capsys, "verify", "-g", "1", "-q", "4")
    assert code == 0
    assert json.loads(out.strip().split("\n")[-1])["mismatches"] == 0


def test_verify_summary_counts_every_input(capsys):
    # the 12 reducible surfaces of stratum OTHER over F_8 raise
    # UnclassifiedNode: error records, counted in "errors", not in "checked"
    code, out, _ = run(capsys, "verify", "-g", "2", "-q", "8")
    *errors, summary = [json.loads(line) for line in out.splitlines()]
    assert code == 1 and len(errors) == 12
    assert {e["kind"] for e in errors} == {"input"}
    assert (summary["checked"], summary["errors"]) == (241, 12)
    assert summary["checked"] + summary["errors"] == ENUMERATION_DIGESTS[2, 8][1]


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
    # the input error and the oracle failure are the summary's errors
    assert records[3] == {"schema_version": 1, "checked": 1, "errors": 2, "mismatches": 0,
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
    assert summary["errors"] == 0
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
    # an empty --file or --coeffs is a source too
    for source in [["--file", str(f)], ["--file", ""], ["--coeffs", ""]]:
        code, out, err = run(capsys, "classify", "1.2.a", *source)
        assert code == 1 and out == "" and "exactly one input source" in err, source


@pytest.mark.parametrize("verb", ["classify", "verify", "parse"])
@pytest.mark.parametrize("name", ["absent.txt", None])
def test_unreadable_file_is_input_error(capsys, tmp_path, verb, name):
    # a missing path or a directory ends in one error line, not a traceback
    path = tmp_path / name if name else tmp_path
    code, out, err = run(capsys, verb, "--file", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error: cannot read --file")


@pytest.mark.parametrize("verb", ["angle-rank", "verify"])
def test_precision_below_64_rejected(capsys, verb):
    code, out, err = run(capsys, verb, "--precision", "32", "1.2.a")
    assert code == 1 and out == ""
    assert err.startswith("error:") and "precision must be >= 64" in err


def test_malformed_coeffs_is_input_error(capsys):
    for coeffs in ["1,x,3", ""]:
        code, out, err = run(capsys, "classify", "--coeffs", coeffs, "--q", "5")
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


def usage_error(capsys, *argv):
    """stderr of a usage error, which exits 1 (input error) with no stdout."""
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "") and err.startswith("usage: weilsf ")
    return err


def test_format_is_a_histogram_option(capsys):
    err = usage_error(capsys, "classify", "--format", "json", "1.2.a")
    assert "unrecognized arguments: --format" in err
    # a malformed integer option is a usage error too
    for argv, message in [
            (["histogram", "1.2.a", "-N", "abc"], "-N/--samples: invalid int value: 'abc'"),
            (["histogram", "1.2.a", "-B", "8x"], "-B/--buckets: invalid int value: '8x'"),
            (["enumerate", "-g", "2", "-q", "x"], "-q: invalid int value: 'x'")]:
        assert message in usage_error(capsys, *argv)


@pytest.mark.parametrize("verb", ["classify", "factor", "histogram", "moments"])
def test_precision_is_an_oracle_option(capsys, verb):
    # only angle-rank and verify print what the oracle computes
    err = usage_error(capsys, verb, "--precision", "512", "1.2.a")
    assert "unrecognized arguments: --precision" in err
    err = usage_error(capsys, "angle-rank", "--precision", "1e3", "1.2.a")
    assert "--precision: invalid int value: '1e3'" in err


def test_usage_error_exits_1_and_help_exits_0(capsys):
    assert "unrecognized arguments: --bogus" in usage_error(capsys, "classify", "--bogus", "1.2.a")
    err = usage_error(capsys, "moments", "1.2.a", "-K")
    assert "-K/--max-order: expected one argument" in err
    for argv in [["--help"], ["enumerate", "--help"]]:
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "") and out.startswith("usage: weilsf")


@pytest.mark.parametrize("argv", [
    ["-g", "1", "-q", "2", "1.3.a"],
    ["-g", "1", "-q", "2", "--coeffs", "1,0,2", "--q", "2"],
    ["-g", "1", "-q", "2", "--file", "-"],
    ["-g", "2", "1.3.a"],
    ["-g", "1"],
    ["-g", "1", "-q", "2", "--coeffs", ""],
    ["-g", "1", "-q", "2", "--file", ""],
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

    def report(P):
        if P.label == "1.2.ab":
            raise NonConvergence("residual too large")
        return real_report(P)
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


def test_histogram_more_buckets_than_samples_keeps_the_batch(capsys):
    # far more buckets than the default 65536 samples: an input error for
    # each line, raised before any bucket is allocated
    code, out, err = run(capsys, "histogram", "-B", "100000000000", "1.2.a", "1.2.ab")
    records = [json.loads(line) for line in out.splitlines()]
    assert [r["label"] for r in records] == ["1.2.a", "1.2.ab"]
    assert all(r["kind"] == "input" and "buckets exceed" in r["error"]
               for r in records)
    assert code == 1 and err.count("error:") == 2 and "Traceback" not in err


def test_certificate_checks_survive_python_O():
    # `python -O` strips asserts; a factorization that drops a factor must
    # still be refused, with exit code 3
    script = textwrap.dedent("""
        import sys
        from weilsf import polyarith
        from weilsf.cli import main
        assert False, "asserts must be stripped in this interpreter"
        orig = polyarith._split_real_rooted
        polyarith._split_real_rooted = lambda h, q: orig(h, q)[1:]
        sys.exit(main(["factor", "2.2.a_d"]))
    """)
    proc = fresh_python(script, "-O")
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("error:") and "failed to certify" in proc.stderr


def test_classifier_path_loads_no_numpy():
    # numpy serves only the trace functions, which the package imports on
    # first use; a fresh interpreter shows what the classifier path loads.
    # The records need no dataclasses, and so no inspect (numpy loads inspect)
    script = textwrap.dedent("""
        import sys
        import weilsf, weilsf.cli

        def loads_none(where):
            loaded = {"numpy", "dataclasses", "inspect"} & set(sys.modules)
            assert not loaded, (where, loaded)

        loads_none("import")
        # registered, so code that wraps functions through sys.modules finds it
        assert sys.modules["weilsf.distribution"] is weilsf.distribution
        P = weilsf.parse_label("3.2.ad_f_ah")
        weilsf.report(P)
        loads_none("report")
        assert weilsf.cli._verify_one(P, weilsf.DEFAULT_PRECISION)["status"] == "ok"
        loads_none("verify")
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


def test_no_path_loads_mpmath():
    # the numeric layer works on Python integers: neither the oracle, the
    # trace functions nor the factor search for g >= 4 imports mpmath
    proc = fresh_python(textwrap.dedent("""
        import sys
        import weilsf, weilsf.cli
        P = weilsf.parse_label("3.2.ac_b_a")
        entry = weilsf.cli._verify_one(P, weilsf.DEFAULT_PRECISION)
        assert (entry["status"], entry["node"]) == ("ok", "X-D:Table6:oracle"), entry
        assert "mpmath" not in sys.modules, "verify on X-D"
        weilsf.histogram(P, 1 << 12, 16)
        weilsf.moment_report(P, 1 << 12, 4)
        assert "mpmath" not in sys.modules, "histogram and moments"
        Q = weilsf.from_middle(7, 2, (-1, 0, 0, 0, 0, 0, -3))
        assert weilsf.angle_rank_numeric(Q).delta == 7
        weilsf.factor(Q)
        assert "mpmath" not in sys.modules, "oracle and factor for g = 7"
    """))
    assert proc.returncode == 0, proc.stderr


# Every verb on one small batch with bad lines, plus the verb-specific paths;
# the digest pins (exit code, stdout, stderr) of each
PINNED_BATCH = ["1.2.a", "1.2.zz", "2.5.a_ab", "3.2.ad_f_ah", "2.2.ab_b",
                "2.5.zz_!!", "1.8.ac", "3.2.ac_d_ag", "5.23.v_jj_cvp_rkt_dlop"]
PINNED_ARGV = [
    ["parse", *PINNED_BATCH],
    ["classify", *PINNED_BATCH],
    ["factor", *PINNED_BATCH],
    ["newton", *PINNED_BATCH],
    ["base-change", "-r", "2", *PINNED_BATCH],
    ["base-change", "-r", "0", "1.2.a", "1.2.zz"],
    ["angle-rank", *PINNED_BATCH],
    ["angle-rank", "--precision", "128", "2.5.a_ab"],
    ["histogram", "-N", "256", "-B", "8", *PINNED_BATCH],
    ["histogram", "-N", "256", "-B", "8", "--format", "csv", *PINNED_BATCH],
    ["moments", "-N", "256", "-K", "3", *PINNED_BATCH],
    ["enumerate", "-g", "1", "-q", "2"],
    ["verify", *PINNED_BATCH],
    ["verify", "--verbose", *PINNED_BATCH],
    ["verify", "-g", "1", "-q", "4"],
    ["verify", "-g", "1", "-q", "4", "--verbose"],
    ["classify", "--coeffs", "1,0,-1,0,25", "--q", "5"],
    ["classify", "--coeffs", "1,x,3", "--q", "5"],
    ["classify", "--coeffs",
     "1,21,243,1913,11771,60543,270733,1011977,2956581,5876661,6436343", "--q", "23"],
    ["verify", "--coeffs", "1,0,2", "-q", "2", "--verbose"],
    ["classify"],
    ["classify", "--q", "5", "1.2.a"],
    ["verify", "--precision", "32", "1.2.a"],
    ["verify", "-g", "1", "-q", "6"],
    ["verify", "-g", "1", "-q", "2", "1.3.a"],
]
PINNED_DIGEST = "ac36871bdbe62e18f8be88257e03bb2de5ddea35e3ffafa42c220ab07c4d07df"


def test_cli_output_is_pinned(capsys):
    runs = [[argv, *run(capsys, *argv)] for argv in PINNED_ARGV]
    blob = json.dumps(runs, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == PINNED_DIGEST

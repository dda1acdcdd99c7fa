"""report() output is the refactoring contract: byte-identical JSON on every
label of the benchmark corpus (perfbench/data/corpus.tsv, written by
perfbench/make_expected.py from a reference checkout), and on every
enumerated input of the fields in FIELD_DIGESTS."""

import csv
import hashlib
import json
from pathlib import Path

import pytest

from weilsf import parse_label, report

from conftest import field_digest

CORPUS = Path(__file__).resolve().parent.parent / "perfbench" / "data" / "corpus.tsv"

# (g, q) -> field_digest(g, q): the input count and one SHA-256 over the
# report() JSON, or the error class and message, of each input.  The 196
# UnclassifiedNode errors over F_8, F_16, F_27 and F_32 (12, 32, 56 and 96,
# all reducible formal inputs) are part of the contract.
FIELD_DIGESTS = {
    (2, 7): (207, "647be9052624334213fb9551728ab3e31f00853ccf1565c9767042c6842ad56d"),
    (2, 8): (253, "cc98e7c0d7a914cc471624a0809298a8271df338894c5d044723df737c98bf89"),
    (2, 9): (311, "a69e702feb0dc3279441b9b169e857ebe43efb6148b560ea8247cd46effed1eb"),
    (2, 16): (713, "d87ca02444aabea3338e1d0b1e0663aeceac5b41e0e8482c7b91a2b3b2175fdc"),
    (2, 25): (1371, "90bbe7ca655c39ccbf8a0e480b563dcc3d3f05e1a1b14233f621b10cd806ae26"),
    (2, 27): (1515, "a5335c23aba4ed210f1177f0d78750e1021247d58ab15c38d854bff67665e6c0"),
    (2, 32): (1951, "eac037117f5ce61f849767b7837a0683e8427884cdafd89034a3ae2a361934f3"),
    (3, 4): (1641, "87b043b4ec75f26fbc4e01cc9c4bd91b28ff3da175aee5cf59301802572fac73"),
    (3, 5): (2953, "cbabab99119e75ae9a1d66d55b0ba65e9097c17dd5a046ed415d23e63a1ae7ee"),
}


def test_report_matches_corpus_digests():
    with open(CORPUS, newline="") as fh:
        rows = list(csv.DictReader(fh, delimiter="\t"))
    assert len(rows) == 1220
    differing = []
    for row in rows:
        text = json.dumps(report(parse_label(row["label"])), sort_keys=True,
                          separators=(",", ":"))
        if hashlib.sha256(text.encode()).hexdigest() != row["report_sha256"]:
            differing.append(row["label"])
    assert differing == []


@pytest.mark.parametrize("g,q", sorted(FIELD_DIGESTS))
def test_report_matches_field_digests(g, q):
    assert field_digest(g, q) == FIELD_DIGESTS[g, q]

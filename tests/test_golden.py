"""report() output is the refactoring contract: byte-identical JSON on every
label of the benchmark corpus (perfbench/data/corpus.tsv, written by
perfbench/make_expected.py from a reference checkout)."""

import csv
import hashlib
import json
from pathlib import Path

from weilsf import parse_label, report

CORPUS = Path(__file__).resolve().parent.parent / "perfbench" / "data" / "corpus.tsv"


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

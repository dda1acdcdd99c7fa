"""Write the benchmark's expected outputs from the package in this checkout.

    python3 perfbench/make_expected.py

Writes ``data/corpus.tsv`` (one row per label of the acceptance corpora,
enumerated with ``enumerate_weil``: the structural and numeric (delta, m)
and status of ``weilsf verify``, the provenance node, the supersingular
flag, the SHA-256 of the canonical ``report()`` JSON and the histogram's
atoms with their coset counts) and ``data/prime_dim.json`` (the ``classify`` output of
the frozen prime-dimension inputs and their twists).  Run it only on
a commit whose outputs are the contract; it takes a few minutes.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from weilsf import cli  # noqa: E402

import workloads as wl  # noqa: E402


def corpus_rows():
    for g, q in wl.CORPUS_RANGES:
        for P in cli.enumerate_weil(g, q):
            ver = cli._verify_one(P, wl.W.DEFAULT_PRECISION)
            sf = wl.W.classify(P)
            rep = wl.W.report(P)
            if ver["structural"] != [rep["delta"], rep["m"]]:
                raise SystemExit("report and classify disagree on %s" % P.label)
            # atom values and coset counts do not depend on the sample count
            h = wl.W.histogram(P, wl.WARMUP_SAMPLES, wl.WARMUP_BUCKETS)
            yield (P.label, g, q, sf.provenance,
                   int(wl.W.newton_polygon(P).is_supersingular()),
                   *ver["structural"], *ver["numeric"], ver["status"],
                   wl.digest(rep), wl.format_atoms(h.atoms, sf.m))


def write_corpus():
    with open(wl.CORPUS_FILE, "w") as fh:
        fh.write("\t".join(wl.CORPUS_COLUMNS) + "\n")
        for row in corpus_rows():
            fh.write("\t".join(str(x) for x in row) + "\n")


def write_prime_dim():
    if wl.W.from_middle(7, 2, (-1, 0, 0, 0, 0, 0, -3)).coeffs != wl.PRIME_DIM_INPUTS[3][2]:
        raise SystemExit("frozen g = 7 input does not match its construction")
    prime = {}
    for name, q, coeffs in wl.prime_dim_inputs():
        prime[name] = wl.W.classify(wl.W.validate(coeffs, q)).to_json()
    with open(wl.PRIME_DIM_FILE, "w") as fh:
        json.dump(prime, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    wl.DATA.mkdir(exist_ok=True)
    write_corpus()
    write_prime_dim()

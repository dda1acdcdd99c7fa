"""Command-line interface.

One verb per library capability:

    parse, classify, factor, newton, base-change, angle-rank, histogram,
    moments, enumerate, verify

Inputs are LMFDB labels (arguments, --file, or '-' for stdin; '#' starts a
comment), or a single polynomial as --coeffs "1,0,-1,0,25" --q 5.  Output is
JSON lines (histogram --format csv writes CSV blocks).  Exit codes: 0 ok,
1 input error, 2 partial classification, 3 numeric or invariant failure.
A batch of any verb writes an error record for a failing line (with
histogram --format csv only its stderr line), goes on, and exits with the
worst code seen.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import _intpoly as ip
from .anglerank import angle_rank_numeric
from .classify import InvalidTrace, Partial, classify, report
from .newton import newton_polygon, stratify
from .polyarith import base_change, factor
from .weilpoly import (DEFAULT_PRECISION, NonConvergence, NotPrimePower, RootOffCircle,
                       WeilError, _integers, factor_prime_power, from_middle,
                       parse_label, validate)

EXIT_OK, EXIT_INPUT, EXIT_PARTIAL, EXIT_INTERNAL = 0, 1, 2, 3
# what fails one input of a batch; _emit_each writes an error record for each
_FAILURES = (WeilError, NonConvergence, ip.InvariantError)


def _input_specs(args):
    """[(text, parse)] in input order; parse() is the validated
    WeilPolynomial, or raises for a bad line."""
    if sum([args.coeffs is not None, bool(args.labels), args.file is not None]) > 1:
        raise WeilError("pass exactly one input source "
                        "(labels, --file, or --coeffs)")
    if args.coeffs is not None:
        try:
            coeffs = [int(c) for c in args.coeffs.replace(" ", "").split(",")]
        except ValueError:
            raise WeilError("--coeffs must be comma-separated integers, got %r"
                            % args.coeffs) from None
        if args.q is None:
            raise WeilError("--coeffs requires --q")
        return [(args.coeffs, lambda: validate(coeffs, args.q))]
    if args.q is not None:
        raise WeilError("--q is for --coeffs only; a label carries its own q")
    labels = list(args.labels)
    if args.file is not None:
        try:
            stream = sys.stdin if args.file == "-" else open(args.file)
            try:
                for line in stream:
                    line = line.split("#", 1)[0].strip()
                    if line:
                        labels.append(line)
            finally:
                if stream is not sys.stdin:
                    stream.close()
        except (OSError, UnicodeDecodeError) as exc:
            raise WeilError("cannot read --file %s: %s" % (args.file, exc)) from None
    if not labels:
        raise WeilError("no input: pass labels, --file, or --coeffs/--q")
    return [(lab, lambda lab=lab: parse_label(lab)) for lab in labels]


def _emit(obj):
    """Write a str (a CSV block) as it is, anything else as one JSON line."""
    sys.stdout.write(obj if isinstance(obj, str) else json.dumps(obj, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# enumeration of all formally valid coefficient tuples


def enumerate_weil(g, q):
    """All validated Weil polynomials of dimension g over F_q, by ascending a_1..a_g.

    A superset of the isogeny classes that actually occur (existence of an
    abelian variety is not checked).  a_k runs over the integers in the box
    |a_k| <= C(2g, k) q^(k/2) that meet the power-sum bound |s_k| <= 2g
    q^(k/2).  By Newton's identity s_k = c - k a_k, where the prefix fixes
    c = -sum_{i<k} a_i s_(k-i); as s_k is an integer the bound holds exactly
    for a_k in [ceil((c - S)/k), floor((c + S)/k)], S = isqrt(4 g^2 q^k).
    Each a_1..a_g is then validated in full.  A g that is not a positive
    integer raises WeilError, a q that is not a prime power NotPrimePower.
    """
    (g,) = _integers((g,), WeilError, "g")
    if g < 1:
        raise WeilError("g must be positive, got %d" % g)
    if not isinstance(q, int):   # a numpy integer, say, or an error
        (q,) = _integers((q,), NotPrimePower, "q")
    factor_prime_power(q)
    box = [math.isqrt(math.comb(2 * g, k) ** 2 * q ** k) for k in range(1, g + 1)]
    sum_bound = [math.isqrt(4 * g * g * q ** k) for k in range(1, g + 1)]

    def rec(prefix, sums):
        k = len(prefix) + 1   # prefix a_1..a_(k-1), sums s_1..s_(k-1)
        c = -sum(a * s for a, s in zip(prefix, reversed(sums)))
        S = sum_bound[k - 1]
        lo = max(-box[k - 1], -((S - c) // k))
        hi = min(box[k - 1], (c + S) // k)
        for a in range(lo, hi + 1):
            if k == g:
                try:
                    yield from_middle(g, q, prefix + [a])
                except RootOffCircle:
                    pass
            else:
                yield from rec(prefix + [a], sums + [c - k * a])

    return rec([], [])


# ---------------------------------------------------------------------------
# subcommands


def _emit_each(specs, record, csv=False):
    """Emit the record of every (text, parse) input in input order and return
    the worst exit code.  record(P) gives (record or None, exit code); a
    failing input gives an error record (with csv only its stderr line, to
    keep a CSV stream parseable) and the batch goes on."""
    code = EXIT_OK
    for text, parse in specs:
        try:
            rec, rec_code = record(parse())
        except _FAILURES as exc:
            kind, rec_code = (("input", EXIT_INPUT) if isinstance(exc, WeilError)
                              else ("internal", EXIT_INTERNAL))
            if not csv:
                _emit({"label": text, "error": str(exc), "kind": kind})
            print("error: %s: %s" % (text, exc), file=sys.stderr)
            rec = None
        if rec is not None:
            _emit(rec)
        code = max(code, rec_code)
    return code


def _stamped(P, payload):
    """(payload with the fields every record carries, EXIT_OK)."""
    return {**payload, "schema_version": 1, "label": P.label}, EXIT_OK


def cmd_parse(args):
    return _emit_each(_input_specs(args), lambda P: _stamped(P, P.to_json()))


def cmd_classify(args):
    def record(P):
        rec = report(P)
        return rec, EXIT_PARTIAL if rec.get("partial") else EXIT_OK
    return _emit_each(_input_specs(args), record)


def cmd_factor(args):
    return _emit_each(_input_specs(args),
                      lambda P: _stamped(P, {"factors": factor(P).to_json()}))


def cmd_newton(args):
    def record(P):
        npd = newton_polygon(P)
        return _stamped(P, {**npd.to_json(), "stratum": stratify(npd, P.g).value})
    return _emit_each(_input_specs(args), record)


def cmd_base_change(args):
    def record(P):
        Q = base_change(P, args.r)
        return _stamped(Q, {**Q.to_json(), "source": P.label, "r": args.r})
    return _emit_each(_input_specs(args), record)


def cmd_angle_rank(args):
    return _emit_each(_input_specs(args), lambda P: _stamped(
        P, angle_rank_numeric(P, args.precision).to_json()))


def cmd_histogram(args):
    from .distribution import histogram   # numpy is loaded on first use
    csv = args.format == "csv"
    def record(P):
        h = histogram(P, args.samples, args.buckets)
        return (h.to_csv(), EXIT_OK) if csv else _stamped(P, h.to_json())
    return _emit_each(_input_specs(args), record, csv)


def cmd_moments(args):
    from .distribution import moment_report
    return _emit_each(_input_specs(args), lambda P: _stamped(
        P, {"moments": moment_report(P, args.samples, args.max_order).to_json()}))


def cmd_enumerate(args):
    for P in enumerate_weil(args.g, args.q):
        print(P.label)
    return EXIT_OK


def _verify_one(P, precision):
    """The comparison record of P; its "node" is the provenance node of the
    structural answer, or the status for a partial or unrealizable input."""
    npd = newton_polygon(P)
    try:
        sf = classify(P, stratum=stratify(npd, P.g))
    except InvalidTrace as exc:
        # the enumerated corpus is a superset of the realizable classes;
        # g = 1 inputs outside the Waterhouse list are reported, not failed
        return {"label": P.label, "status": "not_realizable", "detail": str(exc),
                "node": "not_realizable"}
    if isinstance(sf, Partial):
        return {"label": P.label, "status": "partial", "node": "partial"}
    lat = angle_rank_numeric(P, precision)
    ok_pair = (sf.delta, sf.m) == (lat.delta, lat.torsion_order)
    ok_table = sf.in_allowed_tables()
    ok_ss = (sf.delta == 0) == npd.is_supersingular()
    entry = {"label": P.label, "structural": [sf.delta, sf.m],
             "numeric": [lat.delta, lat.torsion_order],
             "in_tables": ok_table, "ss_consistent": ok_ss, "node": sf.provenance}
    entry["status"] = "ok" if (ok_pair and ok_table and ok_ss) else "mismatch"
    return entry


def cmd_verify(args):
    """Mismatches (every entry with --verbose), then a summary record; a
    failing input gives an error record, counted in the summary's "errors",
    and the exit code is the worst seen."""
    if args.g is not None:
        if (args.q is None or args.labels or args.file is not None
                or args.coeffs is not None):
            raise WeilError("-g needs -q and no other input source")
        specs = ((P.label, lambda P=P: P) for P in enumerate_weil(args.g, args.q))
    else:
        specs = _input_specs(args)
    counts = dict.fromkeys(["ok", "partial", "mismatch", "not_realizable"], 0)
    per_node = {}

    def record(P):
        entry = _verify_one(P, args.precision)
        counts[entry["status"]] += 1
        node = entry.pop("node")   # summary only, not in the stdout record
        per_node[node] = per_node.get(node, 0) + 1
        if entry["status"] == "mismatch":
            return entry, EXIT_INPUT
        return (entry if args.verbose else None), EXIT_OK

    inputs = 0

    def counted(specs):
        nonlocal inputs
        for spec in specs:
            inputs += 1
            yield spec

    code = _emit_each(counted(specs), record)
    checked = sum(counts.values())
    _emit({"schema_version": 1, "checked": checked, "errors": inputs - checked,
           "mismatches": counts["mismatch"],
           "not_realizable": counts["not_realizable"], "per_node": per_node})
    return code


# ---------------------------------------------------------------------------


def build_parser():
    top = argparse.ArgumentParser(
        prog="weilsf",
        description="Serre-Frobenius groups and trace distributions of "
                    "Weil polynomials")
    sub = top.add_subparsers(dest="command", required=True)

    def verb(name, func, help, oracle=False):
        """A verb that reads the input options; only the verbs that print
        the oracle's output take its --precision."""
        p = sub.add_parser(name, help=help)
        if oracle:
            p.add_argument("--precision", type=int, default=DEFAULT_PRECISION,
                           help="working precision in bits (>= 64)")
        p.add_argument("labels", nargs="*", help="LMFDB labels g.q.iso")
        p.add_argument("--file", help="file of labels, one per line ('-' = stdin)")
        p.add_argument("--coeffs", help="comma-separated a_0..a_2g (a_0 = 1)")
        p.add_argument("--q", type=int, help="field size for --coeffs")
        p.set_defaults(func=func)
        return p

    verb("parse", cmd_parse, "decode labels to coefficient data")
    verb("classify", cmd_classify, "Serre-Frobenius group of each input")
    verb("factor", cmd_factor, "irreducible factorization")
    verb("newton", cmd_newton, "q-Newton polygon and stratum")
    p = verb("base-change", cmd_base_change, "extension of scalars")
    p.add_argument("-r", type=int, required=True, help="extension degree")
    verb("angle-rank", cmd_angle_rank, "numeric angle rank and torsion order",
         oracle=True)

    p = verb("histogram", cmd_histogram, "bucketed counts of the trace sequence")
    p.add_argument("-N", "--samples", type=int, default=16 ** 4)
    p.add_argument("-B", "--buckets", type=int, default=4 ** 3)
    p.add_argument("--format", choices=["json", "csv"], default="json")

    p = verb("moments", cmd_moments, "empirical vs exact pushforward moments")
    p.add_argument("-N", "--samples", type=int, default=16 ** 4)
    p.add_argument("-K", "--max-order", type=int, default=8)

    p = sub.add_parser("enumerate",
                       help="all valid coefficient tuples as labels")
    p.add_argument("-g", type=int, required=True)
    p.add_argument("-q", type=int, required=True)
    p.set_defaults(func=cmd_enumerate)

    p = verb("verify", cmd_verify,
             "structural vs numeric cross-check over a corpus", oracle=True)
    p.add_argument("-g", type=int, help="enumerate dimension g instead of labels")
    p.add_argument("-q", type=int, help="enumerate over F_q instead of labels")
    p.add_argument("--verbose", action="store_true", help="print matching entries too")

    return top


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:   # argparse has printed --help (0) or a usage error
        return exc.code and EXIT_INPUT
    try:
        if getattr(args, "precision", DEFAULT_PRECISION) < 64:
            raise WeilError("precision must be >= 64")
        return args.func(args)
    except _FAILURES as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT if isinstance(exc, WeilError) else EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())

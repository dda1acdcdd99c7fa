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
from .classify import Partial, classify, report
from .newton import newton_polygon, stratify
from .polyarith import base_change, factor
from .weilpoly import (DEFAULT_PRECISION, NonConvergence, RootOffCircle, WeilError,
                       factor_prime_power, from_middle, parse_label, validate)

EXIT_OK, EXIT_INPUT, EXIT_PARTIAL, EXIT_INTERNAL = 0, 1, 2, 3
# what fails one input of a batch; _error_record maps each to a record
_FAILURES = (WeilError, NonConvergence, ip.InvariantError)


def _input_specs(args):
    """[(text, parse, parse_args)] in input order; parse(*parse_args) is the
    validated WeilPolynomial, or raises for a bad line."""
    sources = sum([bool(getattr(args, "coeffs", None)),
                   bool(getattr(args, "labels", []) or []),
                   bool(getattr(args, "file", None))])
    if sources > 1:
        raise WeilError("pass exactly one input source "
                        "(labels, --file, or --coeffs)")
    if getattr(args, "coeffs", None):
        try:
            coeffs = [int(c) for c in args.coeffs.replace(" ", "").split(",")]
        except ValueError:
            raise WeilError("--coeffs must be comma-separated integers, got %r"
                            % args.coeffs) from None
        if args.q is None:
            raise WeilError("--coeffs requires --q")
        return [(args.coeffs, validate, (coeffs, args.q))]
    if args.q is not None:
        raise WeilError("--q is for --coeffs only; a label carries its own q")
    labels = list(getattr(args, "labels", []) or [])
    if getattr(args, "file", None):
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
    return [(lab, parse_label, (lab,)) for lab in labels]


def _emit(obj):
    """Write a str (a CSV block) as it is, anything else as one JSON line."""
    sys.stdout.write(obj if isinstance(obj, str) else json.dumps(obj, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# enumeration of all formally valid coefficient tuples


def _power_sum_ok(partial, k, g, q):
    """Necessary bound |s_k| <= 2g q^(k/2) given a_1..a_k, exact arithmetic."""
    s = ip.power_sums(tuple([1] + list(partial) + [0] * (2 * g - k)), k)
    return s[k - 1] ** 2 <= 4 * g * g * q ** k


def enumerate_weil(g, q):
    """All validated Weil polynomials of dimension g over F_q.

    A superset of the isogeny classes that actually occur (existence of an
    abelian variety is not checked).  Candidate tuples are pruned by the
    exact power-sum bounds before the full root-modulus validation.  A g < 1
    raises WeilError, and a q that is not a prime power NotPrimePower.
    """
    if g < 1:
        raise WeilError("g must be positive, got %d" % g)
    factor_prime_power(q)
    bounds = [math.isqrt(math.comb(2 * g, i) ** 2 * q ** i) for i in range(1, g + 1)]

    def rec(prefix):
        k = len(prefix) + 1
        for a in range(-bounds[k - 1], bounds[k - 1] + 1):
            cand = prefix + [a]
            if not _power_sum_ok(cand, k, g, q):
                continue
            if k == g:
                try:
                    yield from_middle(g, q, cand)
                except RootOffCircle:
                    pass
            else:
                yield from rec(cand)

    return rec([])


# ---------------------------------------------------------------------------
# subcommands


def _emit_each(args, record, csv=False):
    """Emit record(P) for every input in input order and return the worst
    exit code; a failing input gives an error record and the batch goes on."""
    def results():
        for text, parse, parse_args in _input_specs(args):
            try:
                yield record(parse(*parse_args)), EXIT_OK
            except _FAILURES as exc:
                yield _error_record(text, exc)
    return _emit_records(results(), csv)


def cmd_parse(args):
    def record(P):
        out = P.to_json()
        out["label"] = P.label
        out["schema_version"] = 1
        return out
    return _emit_each(args, record)


def _error_record(text, exc):
    """(record, exit code) for an input that raised exc."""
    if isinstance(exc, WeilError):
        return {"label": text, "error": str(exc), "kind": "input"}, EXIT_INPUT
    return {"label": text, "error": str(exc), "kind": "internal"}, EXIT_INTERNAL


def cmd_classify(args):
    return _emit_each(args, report)


def _emit_records(results, csv=False):
    """Emit each (record, exit code) and return the worst code; a partial
    classification record counts as EXIT_PARTIAL."""
    code = EXIT_OK
    for rec, rec_code in results:
        failed = isinstance(rec, dict) and "error" in rec
        if not (failed and csv):   # keep a CSV stream parseable
            _emit(rec)
        if failed:
            print("error: %s: %s" % (rec["label"], rec["error"]), file=sys.stderr)
        elif isinstance(rec, dict) and rec.get("partial"):
            rec_code = max(rec_code, EXIT_PARTIAL)
        code = max(code, rec_code)
    return code


def cmd_factor(args):
    return _emit_each(args, lambda P: {"schema_version": 1, "label": P.label,
                                       "factors": factor(P).to_json()})


def cmd_newton(args):
    def record(P):
        npd = newton_polygon(P)
        out = npd.to_json()
        out.update({"schema_version": 1, "label": P.label,
                    "stratum": stratify(npd, P.g).value})
        return out
    return _emit_each(args, record)


def cmd_base_change(args):
    def record(P):
        Q = base_change(P, args.r)
        out = Q.to_json()
        out.update({"schema_version": 1, "label": Q.label,
                    "source": P.label, "r": args.r})
        return out
    return _emit_each(args, record)


def cmd_angle_rank(args):
    def record(P):
        out = angle_rank_numeric(P, args.precision).to_json()
        out.update({"schema_version": 1, "label": P.label})
        return out
    return _emit_each(args, record)


def cmd_histogram(args):
    from .distribution import histogram   # numpy is loaded on first use
    def record(P):
        h = histogram(P, args.samples, args.buckets)
        if args.format == "csv":
            return h.to_csv()
        out = h.to_json()
        out.update({"schema_version": 1, "label": P.label})
        return out
    return _emit_each(args, record, csv=args.format == "csv")


def cmd_moments(args):
    from .distribution import moment_report
    def record(P):
        repm = moment_report(P, args.samples, args.max_order)
        return {"schema_version": 1, "label": P.label, "moments": repm.to_json()}
    return _emit_each(args, record)


def cmd_enumerate(args):
    for P in enumerate_weil(args.g, args.q):
        print(P.label)
    return EXIT_OK


def _verify_one(P, precision):
    """The comparison record of P; its "node" is the provenance node of the
    structural answer, or the status for a partial or unrealizable input."""
    from .classify import InvalidTrace
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
    failing input gives an error record and the exit code is the worst seen."""
    if args.g is not None:
        if args.q is None or args.labels or args.file or args.coeffs:
            raise WeilError("-g needs -q and no other input source")
        specs = ((P.label, lambda P: P, (P,)) for P in enumerate_weil(args.g, args.q))
    else:
        specs = _input_specs(args)
    counts = dict.fromkeys(["ok", "partial", "mismatch", "not_realizable"], 0)
    per_node = {}

    def records():
        for text, parse, parse_args in specs:
            try:
                entry = _verify_one(parse(*parse_args), args.precision)
            except _FAILURES as exc:
                yield _error_record(text, exc)
                continue
            counts[entry["status"]] += 1
            node = entry.pop("node")   # summary only, not in the stdout record
            per_node[node] = per_node.get(node, 0) + 1
            if entry["status"] == "mismatch":
                yield entry, EXIT_INPUT
            elif args.verbose:
                yield entry, EXIT_OK

    code = _emit_records(records())
    _emit({"schema_version": 1, "checked": sum(counts.values()),
           "mismatches": counts["mismatch"],
           "not_realizable": counts["not_realizable"], "per_node": per_node})
    return code


# ---------------------------------------------------------------------------


def build_parser():
    # the oracle's precision, for the two verbs that print the oracle's output
    oracle = argparse.ArgumentParser(add_help=False)
    oracle.add_argument("--precision", type=int, default=DEFAULT_PRECISION,
                        help="working precision in bits (>= 64)")

    top = argparse.ArgumentParser(
        prog="weilsf",
        description="Serre-Frobenius groups and trace distributions of "
                    "Weil polynomials")
    sub = top.add_subparsers(dest="command", required=True)

    def add_inputs(p):
        p.add_argument("labels", nargs="*", help="LMFDB labels g.q.iso")
        p.add_argument("--file", help="file of labels, one per line ('-' = stdin)")
        p.add_argument("--coeffs", help="comma-separated a_0..a_2g (a_0 = 1)")
        p.add_argument("--q", type=int, help="field size for --coeffs")

    p = sub.add_parser("parse", help="decode labels to coefficient data")
    add_inputs(p)
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("classify", help="Serre-Frobenius group of each input")
    add_inputs(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("factor", help="irreducible factorization")
    add_inputs(p)
    p.set_defaults(func=cmd_factor)

    p = sub.add_parser("newton", help="q-Newton polygon and stratum")
    add_inputs(p)
    p.set_defaults(func=cmd_newton)

    p = sub.add_parser("base-change", help="extension of scalars")
    add_inputs(p)
    p.add_argument("-r", type=int, required=True, help="extension degree")
    p.set_defaults(func=cmd_base_change)

    p = sub.add_parser("angle-rank", parents=[oracle],
                       help="numeric angle rank and torsion order")
    add_inputs(p)
    p.set_defaults(func=cmd_angle_rank)

    p = sub.add_parser("histogram",
                       help="bucketed counts of the trace sequence")
    add_inputs(p)
    p.add_argument("-N", "--samples", type=int, default=16 ** 4)
    p.add_argument("-B", "--buckets", type=int, default=4 ** 3)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=cmd_histogram)

    p = sub.add_parser("moments",
                       help="empirical vs exact pushforward moments")
    add_inputs(p)
    p.add_argument("-N", "--samples", type=int, default=16 ** 4)
    p.add_argument("-K", "--max-order", type=int, default=8)
    p.set_defaults(func=cmd_moments)

    p = sub.add_parser("enumerate",
                       help="all valid coefficient tuples as labels")
    p.add_argument("-g", type=int, required=True)
    p.add_argument("-q", type=int, required=True)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("verify", parents=[oracle],
                       help="structural vs numeric cross-check over a corpus")
    add_inputs(p)
    p.add_argument("-g", type=int, help="enumerate dimension g instead of labels")
    p.add_argument("-q", type=int, help="enumerate over F_q instead of labels")
    p.add_argument("--verbose", action="store_true", help="print matching entries too")
    p.set_defaults(func=cmd_verify)

    return top


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        if getattr(args, "precision", DEFAULT_PRECISION) < 64:
            raise WeilError("precision must be >= 64")
        return args.func(args)
    except WeilError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT
    except (NonConvergence, ip.InvariantError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())

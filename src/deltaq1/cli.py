"""Command line surface: expansions, identity suites, and the bijection.

Each command only parses its arguments, calls the library and prints: the
mathematics, the comparison of the two routes included, is in the library.
All structured output is JSON on stdout; errors go to stderr as one line.
Exit codes: 0 success, 1 counterexample, invalid object or closed pipe, 2 usage.
Reports omit the wall-clock field unless asked, so default output is
byte-identical across runs with the same parameters.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .bijection import decorated_to_msequence, msequence_to_decorated
from .dyck import DecoratedDyckPath
from .msequences import MSequence, expansion_terms, osp_polynomial
from .symfunc import degree_bound
from .verify import SUITES, _UsageError, oracle_mismatches, run_suite


def _terms_json(terms):
    return [{"partition": lam.to_json(), "coeff": poly.to_json()}
            for lam, poly in terms]


def _cmd_expand(args):
    n, k = args.n, args.k
    terms = expansion_terms(n, k, args.basis)
    payload = {"n": n, "k": k, "basis": args.basis, "terms": _terms_json(terms)}
    mismatches = []
    if args.oracle:
        mismatches = [
            {"partition": lam.to_json(), "combinatorial": model.to_json(),
             "oracle": oracle.to_json()}
            for lam, model, oracle in oracle_mismatches(n, k, args.basis, terms)
        ]
        payload["oracle_match"] = not mismatches
        if mismatches:
            payload["mismatches"] = mismatches
    if args.format == "csv":
        width = 1 + max((p.degree for _, p in terms), default=0)
        lines = ["partition," + ",".join("t^%d" % i for i in range(width))]
        for lam, poly in terms:
            cells = [str(poly.coeff(i)) for i in range(width)]
            lines.append('"%s",' % list(lam.parts) + ",".join(cells))
        print("\n".join(lines))
        if mismatches:
            # the table has no room for the verdict
            print("oracle mismatch, first at partition %s"
                  % mismatches[0]["partition"], file=sys.stderr)
    else:
        print(json.dumps(payload, indent=2))
    return 1 if mismatches else 0


def _verify_options(args):
    """The verify options given on the command line."""
    return {name: getattr(args, name)
            for name in ("n_max", "k_max", "degree_max", "audit")
            if getattr(args, name) is not None}


def _cmd_verify(args):
    report = run_suite(args.suite, **_verify_options(args))
    if not args.timing:
        report.pop("duration_seconds", None)
    print(json.dumps(report, indent=2))
    return 0 if report["status"] == "pass" else 1


# json.loads raises RecursionError on deeply nested input
def _read_object(raw):
    if raw == "-":
        raw = sys.stdin.read()
    return json.loads(raw)


# The bijection's time and memory grow linearly with the rows of the path
# (2 ms per direction at 1000 rows on a 2-core Xeon VM; the whole command
# takes 0.15 s), and an M-sequence of a few bytes can ask for any number of
# rows: its budgets sum to the row count.
_MAX_ROWS = 1000

def _check_rows(rows):
    if rows > _MAX_ROWS:
        raise ValueError("a path may have at most %d rows, not %d"
                         % (_MAX_ROWS, rows))


def _cmd_phi(args):
    try:
        decorated = DecoratedDyckPath.from_json(_read_object(args.object))
        _check_rows(decorated.path.n)
        seq = decorated_to_msequence(decorated)
    except (ValueError, KeyError, TypeError, OverflowError, RecursionError) as err:
        print("invalid decorated path: %s" % err, file=sys.stderr)
        return 1
    print(json.dumps(seq.to_json()))
    return 0


def _cmd_phi_inverse(args):
    try:
        seq = MSequence.from_json(_read_object(args.object))
        _check_rows(sum(seq.bvec()))
        decorated = msequence_to_decorated(seq)
    except (ValueError, KeyError, TypeError, OverflowError, RecursionError) as err:
        print("invalid sequence: %s" % err, file=sys.stderr)
        return 1
    print(json.dumps(decorated.to_json()))
    return 0


def _cmd_hilbert(args):
    ks = [args.k] if args.k is not None else list(range(1, args.n + 1))
    rows = [
        {"k": k, "polynomial": osp_polynomial(args.n, k).to_json()} for k in ks
    ]
    print(json.dumps({"n": args.n, "rows": rows}, indent=2))
    return 0


def _cmd_schur(args):
    terms = _terms_json(expansion_terms(args.n, args.k, "s"))
    print(json.dumps({"n": args.n, "k": args.k, "terms": terms}, indent=2))
    return 0


def _positive(value):
    out = int(value)
    if out < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return out


def _nonnegative(value):
    out = int(value)
    if out < 0:
        raise argparse.ArgumentTypeError("must be a nonnegative integer")
    return out


class _Parser(argparse.ArgumentParser):
    """Usage errors as one stderr line, without the usage block."""

    def error(self, message):
        self.exit(2, "%s: error: %s\n" % (self.prog, message))


def build_parser():
    parser = _Parser(
        prog="deltaq1",
        description="Exact expansions and identity checks for the Delta "
        "operator image of e_n at q=1.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    expand = sub.add_parser("expand", help="expand the image in a basis")
    expand.add_argument("n", type=_positive)
    expand.add_argument("k", type=_positive)
    expand.add_argument("--basis", choices=("e", "f", "m", "s"), default="e")
    expand.add_argument("--format", choices=("json", "csv"), default="json")
    expand.add_argument(
        "--oracle", action="store_true",
        help="recompute via the eigenoperator route and diff",
    )
    expand.set_defaults(func=_cmd_expand)

    verify = sub.add_parser("verify", help="run an identity suite")
    verify.add_argument("suite", choices=SUITES)
    verify.add_argument("--n-max", type=_positive, default=None)
    verify.add_argument("--k-max", type=_positive, default=None)
    verify.add_argument("--degree-max", type=_nonnegative, default=None)
    verify.add_argument(
        "--audit", type=int, default=None, metavar="DEGREE",
        help="involution only: dump the pairings of one degree slice "
        "(0..degree-max)",
    )
    verify.add_argument(
        "--timing", action="store_true",
        help="include wall-clock duration in the report",
    )
    verify.set_defaults(func=_cmd_verify)

    phi = sub.add_parser(
        "phi", help="decorated path JSON -> M-sequence JSON"
    )
    phi.add_argument("object", help="JSON object, or - to read stdin")
    phi.set_defaults(func=_cmd_phi)

    phi_inv = sub.add_parser(
        "phi-inverse", help="M-sequence JSON -> decorated path JSON"
    )
    phi_inv.add_argument("object", help="JSON object, or - to read stdin")
    phi_inv.set_defaults(func=_cmd_phi_inverse)

    hilbert = sub.add_parser("hilbert", help="Hilbert series polynomials")
    hilbert.add_argument("n", type=_positive)
    hilbert.add_argument("--k", type=_positive, default=None)
    hilbert.set_defaults(func=_cmd_hilbert)

    schur = sub.add_parser("schur", help="Schur expansion of the image")
    schur.add_argument("n", type=_positive)
    schur.add_argument("k", type=_positive)
    schur.set_defaults(func=_cmd_schur)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "n", None) is not None and args.n > degree_bound():
        parser.error("need n <= %d" % degree_bound())
    if getattr(args, "k", None) is not None and args.k > args.n:
        parser.error("need k <= n")
    try:
        code = args.func(args)
        sys.stdout.flush()  # a reader that left fails here, not at exit
        return code
    except _UsageError as err:  # raised by run_suite before any case
        parser.error(str(err))
    except BrokenPipeError:  # the reader left; devnull takes the exit flush
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        print("deltaq1: stdout was closed early", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

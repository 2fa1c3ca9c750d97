"""Command line surface: expansions, identity suites, and the bijection.

All structured output is JSON on stdout; errors go to stderr as one line.
Exit codes: 0 success, 1 counterexample or invalid object, 2 usage.
Reports omit the wall-clock field unless asked, so default output is
byte-identical across runs with the same parameters.
"""

from __future__ import annotations

import argparse
import json
import sys

from .bijection import decorated_to_msequence, msequence_to_decorated
from .dyck import DecoratedDyckPath
from .msequences import (
    MSequence,
    generic_polynomial,
    monomials_of_e,
    monomials_of_h,
    monomials_of_m,
    monomials_of_s,
    osp_polynomial,
)
from .oracle import delta_e
from .partitions import partitions_of
from .symfunc import degree_bound
from .tarith import TRat
from .verify import SUITES, run_suite, suite_options


# The coefficient of each basis element of the Delta image is the budget
# polynomial of a monomial expansion in k+1 variables: e_lam pairs with
# m_lam, s_lam with s of the conjugate shape, f_lam with h_lam, m_lam with
# e_lam.
_MONOMIALS = {
    "e": monomials_of_m,
    "s": lambda lam, nvars: monomials_of_s(lam.conjugate(), nvars),
    "f": monomials_of_h,
    "m": monomials_of_e,
}


def _expansion_terms(n, k, basis):
    """Coefficient of each basis element of the Delta image, computed from
    the combinatorial models (no oracle)."""
    terms = []
    for lam in partitions_of(n):
        coeff = generic_polynomial(_MONOMIALS[basis](lam, k + 1), k)
        if not coeff.is_zero():
            terms.append((lam, coeff))
    return terms


def _cmd_expand(args):
    n, k = args.n, args.k
    terms = _expansion_terms(n, k, args.basis)
    payload = {
        "n": n,
        "k": k,
        "basis": args.basis,
        "terms": [
            {"partition": lam.to_json(), "coeff": poly.to_json()}
            for lam, poly in terms
        ],
    }
    exit_code = 0
    if args.oracle:
        oracle_expr = delta_e(n, k).convert(args.basis)
        mismatches = []
        for lam in partitions_of(n):
            combinatorial = TRat(dict(terms).get(lam, 0))
            if oracle_expr.coeff(lam) != combinatorial:
                mismatches.append(
                    {
                        "partition": lam.to_json(),
                        "combinatorial": combinatorial.to_json(),
                        "oracle": oracle_expr.coeff(lam).to_json(),
                    }
                )
        payload["oracle_match"] = not mismatches
        if mismatches:
            payload["mismatches"] = mismatches
            exit_code = 1
    if args.format == "csv":
        width = 1 + max((p.degree for _, p in terms), default=0)
        lines = ["partition," + ",".join("t^%d" % i for i in range(width))]
        for lam, poly in terms:
            cells = [str(poly.coeff(i)) for i in range(width)]
            lines.append('"%s",' % list(lam.parts) + ",".join(cells))
        print("\n".join(lines))
    else:
        print(json.dumps(payload, indent=2))
    return exit_code


def _cmd_verify(args):
    options = {name: getattr(args, name) for name in suite_options(args.suite)
               if getattr(args, name) is not None}
    report = run_suite(args.suite, **options)
    if not args.timing:
        report.pop("duration_seconds", None)
    print(json.dumps(report, indent=2))
    return 0 if report["status"] == "pass" else 1


def _read_object(raw):
    if raw == "-":
        raw = sys.stdin.read()
    return json.loads(raw)


# The bijection's time grows about quadratically with the rows of the path
# (0.9 s at 1000 rows), and an M-sequence of a few bytes can ask for any
# number of rows: its budgets sum to the row count.
_MAX_ROWS = 1000

# The involution suite enumerates every labelled diagram of weight up to
# --degree-max; their number grows 3-10x per step of k.  At the degree bound
# (--n-max 10) on a 2-core VM, --k-max 3 --degree-max 8 (the defaults) takes
# 51 s and --k-max 4 --degree-max 8 (both caps) 612 s.
_MAX_K = 4
_MAX_DEGREE = 8


def _check_rows(rows):
    if rows > _MAX_ROWS:
        raise ValueError("a path may have at most %d rows, not %d"
                         % (_MAX_ROWS, rows))


def _verify_usage(args):
    """Why the verify options are unusable (an option the suite does not
    read, or a value out of range), or None."""
    reads = suite_options(args.suite)
    degree_max = (reads.get("degree_max") if args.degree_max is None
                  else args.degree_max)
    for name, low, high in (("k_max", 1, _MAX_K), ("audit", 0, degree_max),
                            ("degree_max", 0, _MAX_DEGREE)):
        value, flag = getattr(args, name), "--" + name.replace("_", "-")
        if value is not None and name not in reads:
            return "suite %s does not read %s" % (args.suite, flag)
        if value is not None and not low <= value <= high:
            return "need %d <= %s <= %d" % (low, flag, high)
    return None


def _cmd_phi(args):
    try:
        decorated = DecoratedDyckPath.from_json(_read_object(args.object))
        _check_rows(decorated.path.n)
        seq = decorated_to_msequence(decorated)
    except (ValueError, KeyError, TypeError, OverflowError) as err:
        print("invalid decorated path: %s" % err, file=sys.stderr)
        return 1
    print(json.dumps(seq.to_json()))
    return 0


def _cmd_phi_inverse(args):
    try:
        seq = MSequence.from_json(_read_object(args.object))
        _check_rows(sum(seq.bvec()))
        decorated = msequence_to_decorated(seq)
    except (ValueError, KeyError, TypeError, OverflowError) as err:
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
    terms = [
        {"partition": lam.to_json(), "coeff": poly.to_json()}
        for lam, poly in _expansion_terms(args.n, args.k, "s")
    ]
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
    n = args.n_max if args.command == "verify" else getattr(args, "n", None)
    if n is not None and n > degree_bound():
        parser.error("need n <= %d" % degree_bound())
    if getattr(args, "k", None) is not None and args.k > args.n:
        parser.error("need k <= n")
    problem = _verify_usage(args) if args.command == "verify" else None
    if problem:
        parser.error(problem)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

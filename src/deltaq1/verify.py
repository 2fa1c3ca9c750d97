"""Identity suites over parameter ranges, with machine-readable reports.

Each row of ``SUITES`` is a suite: its options with their defaults, in
report order; its case list, a function of those options; the check of one
case, which returns the counterexample, both sides serialized, or None.
Every suite takes n up to the degree bound.  ``run_suite`` checks the
cases in order up to the first counterexample.  A suite with no cases
reports "empty", never a vacuous "pass".  The checks of one run share
``run``, a dict of what later cases reuse: eq2's Dyck paths of one n,
haglund's Delta image of one (n, k), involution's walk of one (k, lam).
Haglund's identity reads the dual side off
``specialize.forgotten_coefficient``, exact numerators divided by their
common denominator, and hilbert reads the image's e-coefficients, so no
suite takes an inner product.  ``usage_problem`` is the one check of a
suite's options, for ``run_suite`` and the command line alike; it counts
an involution run's diagrams, in all and of the audit weight, in one pass.
``oracle_mismatches`` is the one comparison of the eigenoperator route with
the models' basis expansion, for eq1, schur and ``expand --oracle``.
"""

from __future__ import annotations

import time
from math import factorial, prod
from typing import Callable, NamedTuple

from .bijection import decorated_to_msequence, msequence_to_decorated
from .diagrams import (
    diagram_count,
    diagrams_up_to,
    fixed_to_msequence,
    involution,
)
from .dyck import decoration_weights, enumerate_decorated, enumerate_paths
from .msequences import (
    expansion_terms,
    msequence_polynomial,
    msequences,
    osp_polynomial,
)
from .oracle import delta_e
from .partitions import partitions_of
from .specialize import forgotten_coefficient
from .symfunc import degree_bound
from .tarith import TPoly, TRat


def _nk_cases(n_max):
    return [(n, k) for n in range(1, n_max + 1) for k in range(1, n + 1)]


def oracle_mismatches(n, k, basis, terms):
    """(lam, models' coefficient, oracle's coefficient), both TRat, for each
    lam |- n, in ``partitions_of`` order, where ``terms`` (as from
    ``expansion_terms``) and the oracle differ on b_lam in ``basis``."""
    oracle = delta_e(n, k).convert(basis)
    models = dict(terms)
    out = []
    for lam in partitions_of(n):
        model = TRat(models.get(lam, 0))
        if oracle.coeff(lam) != model:
            out.append((lam, model, oracle.coeff(lam)))
    return out


def _eq1(case, run):
    """Elementary-basis expansion from M-sequences against the eigenoperator
    route, coefficient by coefficient."""
    n, k = case
    mismatches = oracle_mismatches(n, k, "e", expansion_terms(n, k, "e"))
    if not mismatches:
        return None
    lam, model, oracle = mismatches[0]
    return {"n": n, "k": k, "partition": lam.to_json(),
            "msequence_side": model.to_json(), "oracle_side": oracle.to_json()}


def _eq2(case, run):
    """M-sequence polynomials against area-weighted decoration sums over
    Dyck paths grouped by vertical run partition."""
    n, k = case
    if k == 1:  # the first case of n; the cases run in order
        run["paths"] = [(path.vertical_run_partition(),
                         decoration_weights(path, n - 1))
                        for path in enumerate_paths(n)]
    sums = {}
    for lam, weights in run["paths"]:
        sums[lam] = sums.get(lam, TPoly()) + weights[n - k]
    for lam in partitions_of(n):
        lhs = msequence_polynomial(lam, k)
        rhs = sums.get(lam, TPoly())
        if lhs != rhs:
            return {
                "n": n,
                "k": k,
                "partition": lam.to_json(),
                "msequence_side": lhs.to_json(),
                "path_side": rhs.to_json(),
            }
    return None


def _bijection(case, run):
    """Round trips in both directions, with weight transport and matching
    object counts for every (n, k, run partition)."""
    n, k = case
    seen = {}
    for decorated in enumerate_decorated(n, k):
        # each direction asserts that it keeps the weight
        try:
            seq = decorated_to_msequence(decorated)
        except AssertionError:
            return {"n": n, "k": k, "object": decorated.to_json(),
                    "reason": "weight not preserved"}
        try:
            back = msequence_to_decorated(seq)
        except AssertionError:
            return {"n": n, "k": k, "object": seq.to_json(),
                    "reason": "inverse weight not preserved"}
        if back != decorated:
            return {"n": n, "k": k, "object": decorated.to_json(),
                    "reason": "round trip failed"}
        lam = decorated.path.vertical_run_partition()
        seen.setdefault(lam, {})[seq] = back
    for lam in partitions_of(n):
        expected = msequences(lam, k)
        got = seen.get(lam, {})
        if len(expected) != len(got) or set(expected) != got.keys():
            return {"n": n, "k": k, "partition": lam.to_json(),
                    "reason": "image does not exhaust the M-sequences"}
    return None


def _involution_verdicts(n, k, lam, degree_max, audit):
    """The counterexample of each slice (n, k, lam, d), d <= degree_max, or
    None, from one pass over the diagrams of (k, lam) that checks each as it
    goes past.  Also the pairings of weight ``audit`` met before that
    weight's first failing diagram.

    Each pair is checked once.  The pair laws (equal weight, opposite sign,
    each the other's image) read the same from either side, so a diagram
    that passes leaves its partner in ``mates``, and when the walk reaches
    that partner it adds its sign and its pairing without another
    ``involution`` call.  Verdicts, the first failure of each weight and the
    pairing order are those of checking every diagram in full."""
    signed = [0] * (degree_max + 1)
    fixed = [[] for _ in signed]
    verdicts = [None] * len(signed)
    pairings = []
    # partner -> the diagram that passed with it, not yet met; True in place
    # of that diagram unless the audit pairings read it back
    mates = {}
    for diagram in diagrams_up_to(k, lam, degree_max):
        w = diagram.weight()
        mate = mates.pop(diagram, None)
        if verdicts[w]:
            continue
        signed[w] += diagram.sign()
        if mate is not None:
            if w == audit:
                pairings.append({"diagram": diagram.to_json(),
                                 "partner": mate.to_json()})
            continue
        partner = involution(diagram)
        reason = None
        if partner is None:
            if any(st.row_len != 1 for st in diagram.stacks):
                reason = "wide fixed point"
            else:
                try:
                    fixed[w].append(fixed_to_msequence(diagram).pairs)
                except ValueError:  # a combinable diagram left fixed
                    reason = "fixed point is not an M-sequence"
        elif partner.weight() != w:
            reason = "weight changed"
        elif partner.sign() != -diagram.sign():
            reason = "sign not reversed"
        elif involution(partner) != diagram:
            reason = "not an involution"
        else:
            mates[partner] = diagram if w == audit else True
            if w == audit:
                pairings.append({"diagram": diagram.to_json(),
                                 "partner": partner.to_json()})
        if reason:
            verdicts[w] = {"case": [n, k, lam.to_json(), w], "reason": reason,
                           "object": diagram.to_json()}
    seqs = msequences(lam, k)
    poly = msequence_polynomial(lam, k)
    for d in range(degree_max + 1):
        if verdicts[d]:
            continue
        expected = sorted(seq.pairs for seq in seqs if seq.rho() == d)
        if sorted(fixed[d]) != expected:
            reason = "fixed points differ from M-sequences"
        elif signed[d] != poly.coeff(d):
            reason = "signed count %d != coefficient %d" % (signed[d], poly.coeff(d))
        else:
            continue
        verdicts[d] = {"case": [n, k, lam.to_json(), d], "reason": reason}
    return verdicts, pairings


def _involution_cases(n_max, k_max, degree_max, audit):
    return [
        (n, k, lam, d, degree_max, audit)
        for n in range(1, n_max + 1)
        for k in range(1, k_max + 1)
        for lam in partitions_of(n)
        for d in range(degree_max + 1)
    ]


def _involution(case, run):
    """Involution laws on one degree slice: pairs have equal weight and
    opposite sign and map back; fixed points are exactly the M-sequences;
    signed counts match the M-polynomial coefficients."""
    n, k, lam, d, degree_max, audit = case
    if d == 0:  # the first of the slices of (k, lam), which run in order
        run["verdicts"], run["audited"] = _involution_verdicts(
            n, k, lam, degree_max, audit)
    if d == audit:
        run.setdefault("pairings", []).extend(run["audited"])
    return run["verdicts"][d]


def _hilbert(case, run):
    """Ordered-set-partition polynomials against the oracle inner product
    with the n-th power of the first power sum, read off the e-expansion:
    <e_lam, p_1^n> is the multinomial n! / prod_i lam_i!."""
    n, k = case
    combinatorial = osp_polynomial(n, k)
    via_oracle = sum((c.as_poly() * (factorial(n) // prod(map(factorial, lam)))
                      for lam, c in delta_e(n, k).terms()), TPoly())
    if combinatorial != via_oracle:
        return {"n": n, "k": k,
                "osp_side": TRat(combinatorial).to_json(),
                "oracle_side": TRat(via_oracle).to_json()}
    return None


def _schur(case, run):
    """Tableau-sequence polynomials against the oracle Schur coefficients,
    including nonnegativity of every coefficient."""
    n, k = case
    # s is self-dual and omega maps s_lam to s_lam', so the tableau
    # sequences of shape lam count the coefficient of s_lam' in the image
    terms = expansion_terms(n, k, "s")
    models = dict(terms)
    failing = {mu.conjugate(): oracle
               for mu, _, oracle in oracle_mismatches(n, k, "s", terms)}
    for lam in partitions_of(n):
        combinatorial = models.get(lam.conjugate(), TPoly())
        if lam in failing:
            return {"n": n, "k": k, "partition": lam.to_json(),
                    "ssyt_side": combinatorial.to_json(),
                    "oracle_side": failing[lam].to_json()}
        if any(c < 0 for c in combinatorial.coeffs):
            return {"n": n, "k": k, "partition": lam.to_json(),
                    "reason": "negative coefficient"}
    return None


def _haglund_cases(n_max):
    return [(n, k, lam) for n, k in _nk_cases(n_max) for lam in partitions_of(n)]


def _haglund(case, run):
    """The duality between pairing with a forgotten element and applying the
    Delta operator for its omega image, across all degrees and k: each
    e-coefficient of the image against the forgotten-basis coefficient, an
    exact polynomial."""
    n, k, lam = case
    if lam == [n]:  # the first case of (n, k); the cases run in order
        run["image"] = delta_e(n, k)
    try:
        series = forgotten_coefficient(lam, k)
    except ValueError:  # the series sums to no polynomial
        return {"n": n, "k": k, "partition": lam.to_json(),
                "reason": "series is not a polynomial"}
    if run["image"].coeff(lam) != TRat(series):
        return {"n": n, "k": k, "partition": lam.to_json(),
                "reason": "identity fails"}
    return None


# The involution suite walks every labelled diagram of weight up to
# degree_max; their number grows 3-10x per step of k, and each costs about
# 17-21 us on a 2-core VM.  There n_max 10, k_max 3, degree_max 8 (472,682
# diagrams) takes 8.7-10.1 s and n_max 5, k_max 4, degree_max 8 (684,633)
# 11.8-14.1 s.  A run is refused when its diagrams number more than
# _MAX_DIAGRAMS, about 20 s there: n_max 10, k_max 4, degree_max 8
# (5,910,597 diagrams) is refused at once.  The caps on k_max and
# degree_max stay, so no option alone asks for an unbounded count.
_MAX_K = 4
_MAX_DEGREE = 8
_MAX_DIAGRAMS = 1_000_000
# An --audit run keeps the pairing of every diagram of the audit weight in
# its report, about 12 KB of memory each on a 2-core VM: --audit 8 at the
# defaults (21,442 diagrams, the largest weight there) peaks at 256 MB and
# prints 29 MB in 4.9 s, and --n-max 5 --k-max 4 --audit 5 (76,501) peaks
# at 971 MB and prints 112 MB.  A run whose audit weight holds more than
# _MAX_AUDITED diagrams is refused.
_MAX_AUDITED = 25_000


def _involution_budget_problem(n_max, k_max, degree_max, audit):
    """Why the walks of an involution run are too large, or None: over
    _MAX_DIAGRAMS diagrams in all, or over _MAX_AUDITED of the audit weight.
    One ``diagram_count`` per (k, lam), in the order of the cases, counts
    both; the pass stops at the first (k, lam) past _MAX_DIAGRAMS."""
    walks = ((k, lam) for n in range(1, n_max + 1) for k in range(1, k_max + 1)
             for lam in partitions_of(n))
    total = audited = 0
    for k, lam in walks:
        counts = diagram_count(k, lam, degree_max)
        total += sum(counts)
        if total > _MAX_DIAGRAMS:
            return ("need at most %d diagrams; lower --n-max, --k-max or "
                    "--degree-max" % _MAX_DIAGRAMS)
        audited += 0 if audit is None else counts[audit]
    if audited > _MAX_AUDITED:
        return ("need at most %d diagrams of the --audit weight; lower "
                "--n-max, --k-max or --audit" % _MAX_AUDITED)
    return None


class Suite(NamedTuple):
    options: dict
    cases: Callable
    check: Callable


SUITES = {
    "eq1": Suite({"n_max": 6}, _nk_cases, _eq1),
    "eq2": Suite({"n_max": 7}, _nk_cases, _eq2),
    "bijection": Suite({"n_max": 7}, _nk_cases, _bijection),
    "involution": Suite(
        {"n_max": 5, "k_max": 3, "degree_max": 8, "audit": None},
        _involution_cases, _involution),
    "hilbert": Suite({"n_max": 5}, _nk_cases, _hilbert),
    "schur": Suite({"n_max": 5}, _nk_cases, _schur),
    "haglund": Suite({"n_max": 5}, _haglund_cases, _haglund),
}


def usage_problem(name, options):
    """Why ``options``, the options given to suite ``name``, are unusable
    (n_max above the degree bound, an option the suite does not read, a
    value out of range, or an involution run over too many diagrams, or
    over too many of the audit weight), or None.  Options are named by their
    flags."""
    suite = SUITES[name]
    if options.get("n_max", 0) > degree_bound():
        return "need n <= %d" % degree_bound()
    degree_max = options.get("degree_max", suite.options.get("degree_max"))
    for option, low, high in (("k_max", 1, _MAX_K), ("audit", 0, degree_max),
                              ("degree_max", 0, _MAX_DEGREE)):
        value, flag = options.get(option), "--" + option.replace("_", "-")
        if value is not None and option not in suite.options:
            return "suite %s does not read %s" % (name, flag)
        if value is not None and not low <= value <= high:
            return "need %d <= %s <= %d" % (low, flag, high)
    if name == "involution":
        return _involution_budget_problem(**{**suite.options, **options})
    return None


class _UsageError(ValueError):
    """Options that ``usage_problem`` refuses: a usage error on the CLI."""


def run_suite(name, **options):
    """The report of suite ``name``; an option not given takes its default.
    ``audit`` is not a parameter: it adds the pairings of one degree.
    Unusable options (``usage_problem``) raise ValueError before any case."""
    if name not in SUITES:
        raise ValueError("unknown suite %r" % (name,))
    problem = usage_problem(name, options)
    if problem:
        raise _UsageError(problem)
    suite = SUITES[name]
    started = time.monotonic()
    options = {**suite.options, **options}
    cases = suite.cases(**options)
    audit = options.pop("audit", None)
    run = {}
    failure = next(filter(None, (suite.check(case, run) for case in cases)),
                   None)
    report = {
        "identity": name,
        "parameters": options,
        "cases": len(cases),
        "status": "fail" if failure else "pass" if cases else "empty",
    }
    if failure:
        report["counterexample"] = failure
    report["duration_seconds"] = round(time.monotonic() - started, 3)
    if audit is not None:
        report["audit"] = {"degree": audit, "pairings": run.get("pairings", [])}
    return report

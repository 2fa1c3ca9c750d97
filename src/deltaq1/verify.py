"""Identity suites over parameter ranges, with machine-readable reports.

Each row of ``SUITES`` is a suite: its options with their defaults, in
report order; its case list, a function of those options; the check of one
case, which returns the counterexample, both sides serialized, or None.
Every suite takes n up to the degree bound.  ``run_suite`` checks the
cases in order up to the first counterexample.  A suite with no cases
reports "empty", never a vacuous "pass".  The checks of one run share
``run``, a dict of what later cases reuse: eq2's Dyck paths of one n,
haglund's Delta image of one (n, k), involution's verdicts of one (k, lam).
The bijection suite keeps only a count of paths per run partition, and
reports a map that raises ValueError as a counterexample.  The involution
suite checks the pair laws once per move prefix
(``diagrams._move_prefixes``), since ``diagrams._move`` reads no further,
and counts the diagrams that start with each prefix, which must number
the series' (``diagrams.diagram_count``).  Only a report and the audit
walk diagram by diagram (``diagrams._stack_walk``), in the walk's order.
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
    LabeledDiagram,
    _move,
    _move_prefixes,
    _sign_of,
    _stack_walk,
    _weight_of,
    diagram_count,
    fixed_to_msequence,
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
    """One pass over the decorated paths of (n, k).  Each image must be an
    M-sequence of k and of the path's run partition lam, of rho equal to
    the decorated area, that the inverse takes back to the path.  A fault
    fails the case on the object the failing map was given.  Then phi is
    one-to-one into the M-sequences of (lam, k), and onto them when the
    paths of lam number ``msequence_polynomial(lam, k)`` at t = 1, a count
    that lists nothing."""
    n, k = case

    def fault(obj, reason):
        return {"n": n, "k": k, "object": obj.to_json(), "reason": reason}

    counts = {}  # run partition -> its decorated paths
    for decorated in enumerate_decorated(n, k):
        try:
            seq = decorated_to_msequence(decorated)
        except ValueError:
            return fault(decorated, "image is not an M-sequence")
        lam = decorated.path.vertical_run_partition()
        if seq.k != k or seq.lam() != lam:
            return fault(decorated, "image has another run partition")
        if seq.rho() != decorated.decorated_area():
            return fault(decorated, "weight not preserved")
        try:
            back = msequence_to_decorated(seq)
        except ValueError:
            return fault(seq, "inverse rejects the image")
        if back != decorated:
            return fault(decorated, "round trip failed")
        counts[lam] = counts.get(lam, 0) + 1
    for lam in partitions_of(n):
        if counts.get(lam, 0) != msequence_polynomial(lam, k)(1):
            return {"n": n, "k": k, "partition": lam.to_json(),
                    "reason": "image does not exhaust the M-sequences"}
    return None


def _prefix_pass(k, lam, degree_max):
    """Per weight 0..degree_max, the signed count of the diagrams of (k, lam),
    their number and the pairs of the fixed points; then the broken laws
    and the partners left over, keyed by (prefix, rest) as
    (reason, weight, completions, partner), the partner None for a law.

    ``_move`` reads only the prefix, and the stacks after it add the same
    weight and sign factor to both diagrams of a pair, so the pair laws are
    checked once per prefix, the partner's weight and sign read from its
    own stacks.  A prefix that passes leaves its partner in ``mates`` with
    its rest, since one prefix recurs under many placements; the partner is
    then counted without another move, and one never met is no diagram."""
    signed = [0] * (degree_max + 1)
    walked = [0] * len(signed)
    fixed = [[] for _ in signed]
    # mates: (partner, rest) -> (prefix, weight, completions), not yet met
    broken, mates, tally = {}, {}, {}
    for prefix, rest, weight, sign, completions in _move_prefixes(
            k, lam, degree_max):
        key = weight, sign, completions
        tally[key] = tally.get(key, 0) + 1
        if mates.pop((prefix, rest), None):
            continue
        partner = _move(prefix)
        reason = None
        if partner is None:
            # every diagram that starts with the prefix has the rows of rest
            if (any(st.row_len != 1 for st in prefix)
                    or any(row_len != 1 for row_len, _ in rest)):
                reason = "wide fixed point"
            elif rest:  # the descent stopped at a merge that _move did not make
                reason = "fixed point is not an M-sequence"
            else:
                try:
                    fixed[weight].append(fixed_to_msequence(
                        LabeledDiagram._of(prefix, lam)).pairs)
                except ValueError:  # a combinable diagram left fixed
                    reason = "fixed point is not an M-sequence"
        elif _weight_of(partner) != weight:
            reason = "weight changed"
        # a sign is multiplicative over stacks: opposite signs multiply to -1
        elif _sign_of(prefix + partner) != -1:
            reason = "sign not reversed"
        elif _move(partner) != prefix:
            reason = "not an involution"
        else:
            mates[partner, rest] = prefix, weight, completions
        if reason:
            broken[prefix, rest] = reason, weight, completions, None
    for (weight, sign, completions), prefixes in tally.items():
        for w, c in enumerate(completions, weight):
            signed[w] += sign * prefixes * c
            walked[w] += prefixes * c
    left_over = {(prefix, rest): ("partner is not a diagram of the walk",
                                  weight, completions, partner)
                 for (partner, rest), (prefix, weight, completions)
                 in mates.items()}
    return signed, walked, fixed, broken, left_over


def _involution_verdicts(n, k, lam, degree_max, audit):
    """The counterexample of each slice (n, k, lam, d), d <= degree_max, or
    None; also the pairings of weight ``audit`` met before that weight's
    first failing diagram.  A weight fails on a broken law, else on a
    partner left over; else its number of diagrams must be the series',
    its fixed points the M-sequences of rho d, and its signed count the
    M-polynomial's coefficient.  Only a fault, to name the first diagram of
    its weight, and the audit walk the diagrams one by one."""
    signed, walked, fixed, broken, left_over = _prefix_pass(k, lam, degree_max)
    verdicts = [None] * len(signed)

    def diagram(stacks):
        return LabeledDiagram._of(stacks, lam)

    faults_of = [None] * len(signed)  # weight -> the faults that fail it
    for faults in (broken, left_over):
        for reason, weight, completions, _ in faults.values():
            for w, c in enumerate(completions, weight):
                if c and faults_of[w] is None:
                    faults_of[w] = faults
                    verdicts[w] = {"case": [n, k, lam.to_json(), w],
                                   "reason": reason}
    todo = {w for w, faults in enumerate(faults_of) if faults}
    listing = audit is not None
    pairings = []
    walk = (_stack_walk(k, lam, max(todo | {audit or 0}))
            if todo or listing else ())
    for stacks, w, _ in walk:
        if w in todo:
            hit = _fault_of(stacks, faults_of[w])
            if hit:
                todo.remove(w)
                j, (reason, _, _, partner) = hit
                whole = stacks if partner is None else partner + stacks[j:]
                verdicts[w]["reason"] = reason
                verdicts[w]["object"] = diagram(whole).to_json()
                # a broken law ends the audit's pairings
                listing = listing and not (w == audit and partner is None)
        if listing and w == audit:
            partner = _move(stacks)
            if partner is not None:
                pairings.append({"diagram": diagram(stacks).to_json(),
                                 "partner": diagram(partner).to_json()})
        if not (todo or listing):
            break
    counts = diagram_count(k, lam, degree_max)
    seqs = msequences(lam, k)
    poly = msequence_polynomial(lam, k)
    for d in range(degree_max + 1):
        if verdicts[d]:
            continue
        expected = sorted(seq.pairs for seq in seqs if seq.rho() == d)
        if walked[d] != counts[d]:
            reason = "diagram count %d != series count %d" % (walked[d], counts[d])
        elif sorted(fixed[d]) != expected:
            reason = "fixed points differ from M-sequences"
        elif signed[d] != poly.coeff(d):
            reason = "signed count %d != coefficient %d" % (signed[d], poly.coeff(d))
        else:
            continue
        verdicts[d] = {"case": [n, k, lam.to_json(), d], "reason": reason}
    return verdicts, pairings


def _fault_of(stacks, faults):
    """(j, fault) for the shortest prefix stacks[:j] that keys a fault in
    ``faults`` with the (row length, labels) of the stacks after it, or
    None."""
    for j in range(1, len(stacks) + 1):
        key = stacks[:j], tuple((st.row_len, st.labels) for st in stacks[j:])
        if key in faults:
            return j, faults[key]
    return None


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


# The involution suite checks each move prefix of the diagrams of weight up
# to degree_max once, at about 4-5 us each on a 2-core VM; the diagrams
# grow 3-10x per step of k, the prefixes 3.3-8.3x less.  There n_max 10,
# k_max 3, degree_max 8 (472,682 diagrams, 143,878 prefixes) takes 0.8 s
# and peaks at 21 MB, and n_max 5, k_max 4 (684,633, 82,711) 0.5 s and 19
# MB; the stack pool and tables last for the process.  A run of more than
# _MAX_DIAGRAMS diagrams is refused: n_max 10, k_max 4, degree_max 8
# (5,910,597 diagrams, 936,495 prefixes) at once.  The caps on k_max and
# degree_max stay, so no option alone asks for an unbounded count.
_MAX_K = 4
_MAX_DEGREE = 8
_MAX_DIAGRAMS = 1_000_000
# An --audit run walks its weight diagram by diagram and keeps the pairing
# of each in its report, about 12 KB of memory each on a 2-core VM: --audit
# 8 at the defaults (21,442 diagrams, the largest weight there) peaks at
# 256 MB and prints 29 MB, and --n-max 5 --k-max 4 --audit 5 (76,501)
# peaks at 971 MB and prints 112 MB.  A run whose audit weight holds more
# than _MAX_AUDITED diagrams is refused.
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

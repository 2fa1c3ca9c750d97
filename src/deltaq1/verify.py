"""Identity suites over parameter ranges, with machine-readable reports.

Each suite walks a deterministic case list in order and stops at the first
counterexample, serializing both sides.  A suite with no cases reports
"empty", never a vacuous "pass".
"""

from __future__ import annotations

import time

from .bijection import decorated_to_msequence, msequence_to_decorated
from .diagrams import diagrams_up_to, fixed_to_msequence, involution
from .dyck import enumerate_decorated, enumerate_paths, decoration_weight
from .msequences import (
    msequence_polynomial,
    msequences,
    osp_polynomial,
    ssyt_polynomial,
)
from .oracle import delta_e, haglund_check
from .partitions import Partition, partitions_of
from .symfunc import SymFuncExpr, hall_inner
from .tarith import TPoly, TRat


def _report(name, parameters, cases, run, started):
    failure = next(filter(None, map(run, cases)), None)
    if failure:
        status = "fail"
    else:
        status = "pass" if cases else "empty"
    report = {
        "identity": name,
        "parameters": parameters,
        "cases": len(cases),
        "status": status,
    }
    if failure:
        report["counterexample"] = failure
    report["duration_seconds"] = round(time.monotonic() - started, 3)
    return report


def check_eq1(n_max=6):
    """Elementary-basis expansion from M-sequences against the eigenoperator
    route, coefficient by coefficient."""
    started = time.monotonic()
    cases = [(n, k) for n in range(1, n_max + 1) for k in range(1, n + 1)]

    def run(case):
        n, k = case
        expr = delta_e(n, k)
        for lam in partitions_of(n):
            combinatorial = TRat(msequence_polynomial(lam, k))
            if expr.coeff(lam) != combinatorial:
                return {
                    "n": n,
                    "k": k,
                    "partition": lam.to_json(),
                    "msequence_side": combinatorial.to_json(),
                    "oracle_side": expr.coeff(lam).to_json(),
                }
        return None

    return _report("eq1", {"n_max": n_max}, cases, run, started)


def check_eq2(n_max=7):
    """M-sequence polynomials against area-weighted decoration sums over
    Dyck paths grouped by vertical run partition."""
    started = time.monotonic()
    cases = [(n, k) for n in range(1, n_max + 1) for k in range(1, n + 1)]
    paths_by_n = {n: enumerate_paths(n) for n in range(1, n_max + 1)}

    def run(case):
        n, k = case
        sums = {}
        for path in paths_by_n[n]:
            lam = path.vertical_run_partition()
            sums[lam] = sums.get(lam, TPoly()) + decoration_weight(path, n - k)
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

    return _report("eq2", {"n_max": n_max}, cases, run, started)


def check_bijection(n_max=7):
    """Round trips in both directions, with weight transport and matching
    object counts for every (n, k, run partition)."""
    started = time.monotonic()
    cases = [(n, k) for n in range(1, n_max + 1) for k in range(1, n + 1)]

    def run(case):
        n, k = case
        seen = {}
        for decorated in enumerate_decorated(n, k):
            seq = decorated_to_msequence(decorated)
            if seq.rho() != decorated.decorated_area():
                return {"n": n, "k": k, "object": decorated.to_json(),
                        "reason": "weight not preserved"}
            back = msequence_to_decorated(seq)
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
            for seq in expected:
                if got[seq].decorated_area() != seq.rho():
                    return {"n": n, "k": k, "object": seq.to_json(),
                            "reason": "inverse weight not preserved"}
        return None

    return _report("bijection", {"n_max": n_max}, cases, run, started)


def _involution_verdicts(n, k, lam, degree_max, audit):
    """The counterexample of each slice (n, k, lam, d), d <= degree_max, or
    None, from one pass over the diagrams of (k, lam) that checks each as it
    goes past.  Also the pairings of weight ``audit`` met before that
    weight's first failing diagram."""
    signed = [0] * (degree_max + 1)
    fixed = [[] for _ in signed]
    verdicts = [None] * len(signed)
    pairings = []
    for diagram in diagrams_up_to(k, lam, degree_max):
        w = diagram.weight()
        if verdicts[w]:
            continue
        signed[w] += diagram.sign()
        partner = involution(diagram)
        reason = None
        if partner is None:
            if any(st.row_len != 1 for st in diagram.stacks):
                reason = "wide fixed point"
            else:
                fixed[w].append(fixed_to_msequence(diagram).pairs)
        elif partner.weight() != w:
            reason = "weight changed"
        elif partner.sign() != -diagram.sign():
            reason = "sign not reversed"
        elif involution(partner) != diagram:
            reason = "not an involution"
        elif w == audit:
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


def check_involution(n_max=5, k_max=3, degree_max=8, audit=None):
    """Involution laws on every degree slice: pairs have equal weight and
    opposite sign and map back; fixed points are exactly the M-sequences;
    signed counts match the M-polynomial coefficients."""
    started = time.monotonic()
    cases = [
        (n, k, lam, d)
        for n in range(1, n_max + 1)
        for k in range(1, k_max + 1)
        for lam in partitions_of(n)
        for d in range(degree_max + 1)
    ]
    pairings = []
    verdicts = audited = None

    def run(case):
        nonlocal verdicts, audited
        n, k, lam, d = case
        if d == 0:  # the first of the slices of (k, lam), which run in order
            verdicts, audited = _involution_verdicts(n, k, lam, degree_max,
                                                     audit)
        if d == audit:
            pairings.extend(audited)
        return verdicts[d]

    report = _report(
        "involution",
        {"n_max": n_max, "k_max": k_max, "degree_max": degree_max},
        cases,
        run,
        started,
    )
    if audit is not None:
        report["audit"] = {"degree": audit, "pairings": pairings}
    return report


def check_hilbert(n_max=5):
    """Ordered-set-partition polynomials against the oracle inner product
    with the n-th power of the first power sum."""
    started = time.monotonic()
    cases = [(n, k) for n in range(1, n_max + 1) for k in range(1, n + 1)]

    def run(case):
        n, k = case
        combinatorial = TRat(osp_polynomial(n, k))
        p1n = SymFuncExpr.basis_element("p", Partition([1] * n))
        via_oracle = hall_inner(delta_e(n, k), p1n)
        if combinatorial != via_oracle:
            return {"n": n, "k": k,
                    "osp_side": combinatorial.to_json(),
                    "oracle_side": via_oracle.to_json()}
        return None

    return _report("hilbert", {"n_max": n_max}, cases, run, started)


def check_schur(n_max=5):
    """Tableau-sequence polynomials against the oracle Schur coefficients,
    including nonnegativity of every coefficient."""
    started = time.monotonic()
    cases = [(n, k) for n in range(1, n_max + 1) for k in range(1, n + 1)]

    def run(case):
        n, k = case
        image = delta_e(n, k).omega()
        for lam in partitions_of(n):
            combinatorial = ssyt_polynomial(lam, k)
            via_oracle = hall_inner(
                image, SymFuncExpr.basis_element("s", lam)
            )
            if TRat(combinatorial) != via_oracle:
                return {"n": n, "k": k, "partition": lam.to_json(),
                        "ssyt_side": combinatorial.to_json(),
                        "oracle_side": via_oracle.to_json()}
            if any(c < 0 for c in combinatorial.coeffs):
                return {"n": n, "k": k, "partition": lam.to_json(),
                        "reason": "negative coefficient"}
        return None

    return _report("schur", {"n_max": n_max}, cases, run, started)


def check_haglund(n_max=5):
    """The duality between pairing with a forgotten element and applying the
    Delta operator for its omega image, across all degrees and k."""
    started = time.monotonic()
    cases = [
        (n, k, lam)
        for n in range(1, n_max + 1)
        for k in range(1, n + 1)
        for lam in partitions_of(n)
    ]

    def run(case):
        n, k, lam = case
        fexpr = SymFuncExpr.basis_element("f", lam)
        if not haglund_check(n, k, fexpr):
            return {"n": n, "k": k, "partition": lam.to_json(),
                    "reason": "identity fails"}
        return None

    return _report("haglund", {"n_max": n_max}, cases, run, started)


_RUNNERS = {
    "eq1": check_eq1,
    "eq2": check_eq2,
    "bijection": check_bijection,
    "involution": check_involution,
    "hilbert": check_hilbert,
    "schur": check_schur,
    "haglund": check_haglund,
}
SUITES = tuple(_RUNNERS)


def suite_options(name):
    """The options a suite reads, each with its default, in order.  Every
    parameter of a check_* function has a default; reading them off the
    code object spares the CLI start-up the import of ``inspect``."""
    code = _RUNNERS[name].__code__
    names = code.co_varnames[: code.co_argcount]
    return dict(zip(names, _RUNNERS[name].__defaults__))


def run_suite(name, **options):
    if name not in _RUNNERS:
        raise ValueError("unknown suite %r" % (name,))
    return _RUNNERS[name](**options)

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import deltaq1
from deltaq1 import diagrams, oracle, specialize, symfunc, verify
from deltaq1.cli import _MAX_ROWS, main
from deltaq1.diagrams import ColumnStack, LabeledDiagram, diagram_count
from deltaq1.partitions import Partition, partitions_of
from deltaq1.specialize import forgotten_coefficient
from deltaq1.symfunc import SymFuncExpr, degree_bound, hall_inner
from deltaq1.tarith import TPoly, TRat
from deltaq1.verify import (
    _MAX_AUDITED,
    _MAX_DEGREE,
    _MAX_DIAGRAMS,
    _MAX_K,
    run_suite,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_suite_reports_pass_and_are_deterministic():
    first = run_suite("eq1", n_max=3)
    second = run_suite("eq1", n_max=3)
    assert first["status"] == "pass"
    assert first["cases"] == 6
    first.pop("duration_seconds")
    second.pop("duration_seconds")
    assert json.dumps(first) == json.dumps(second)


def test_suite_without_cases_does_not_pass():
    report = run_suite("eq1", n_max=0)
    assert report["cases"] == 0
    assert report["status"] == "empty"


@pytest.mark.parametrize("name, options, problem", [
    ("eq1", {"n_max": degree_bound() + 1}, "need n <= %d" % degree_bound()),
    ("hilbert", {"n_max": degree_bound() + 1}, "need n <= %d" % degree_bound()),
    ("haglund", {"n_max": degree_bound() + 1}, "need n <= %d" % degree_bound()),
    ("involution", {"n_max": 3, "k_max": 60, "degree_max": 3},
     "need 1 <= --k-max <= %d" % _MAX_K),
    # an audit above degree_max would report no pairings and pass
    ("involution", {"n_max": 2, "degree_max": 2, "audit": 7},
     "need 0 <= --audit <= 2"),
    # each cap alone is in range; together they ask for 5,910,597 diagrams
    ("involution", {"n_max": 10, "k_max": 4, "degree_max": 8},
     "need at most %d diagrams; lower --n-max, --k-max or --degree-max"
     % _MAX_DIAGRAMS),
    # inside the diagram budget, but 230,394 diagrams of weight 8 to report
    ("involution", {"n_max": 5, "k_max": 4, "audit": 8},
     "need at most %d diagrams of the --audit weight; lower --n-max, "
     "--k-max or --audit" % _MAX_AUDITED),
    # a bool is not an int: True would run the one case of n = 1 and pass
    ("eq1", {"n_max": True}, "need an integer --n-max, not True"),
    ("involution", {"n_max": 2, "k_max": True},
     "need an integer --k-max, not True"),
    ("eq1", {"n_max": 2.5}, "need an integer --n-max, not 2.5"),
    ("involution", {"degree_max": 1.0},
     "need an integer --degree-max, not 1.0"),
    ("haglund", {"n_max": "3"}, "need an integer --n-max, not '3'"),
    # an option name that no suite has, refused before the case list
    # (involution: before its diagram budget) is built
    ("eq1", {"foo": 1}, "suite eq1 does not read --foo"),
    ("involution", {"n_max": 2, "foo_bar": 0},
     "suite involution does not read --foo-bar"),
    ("haglund", {"foo": 1}, "suite haglund does not read --foo"),
])
def test_run_suite_refuses_unusable_options_before_any_case(
    monkeypatch, name, options, problem
):
    def no_case(*args):
        raise AssertionError("a case ran")

    for layer in ("delta_e", "_stack_walk", "_move_prefixes",
                  "forgotten_coefficient"):
        monkeypatch.setattr(verify, layer, no_case)
    with pytest.raises(ValueError) as exc:
        run_suite(name, **options)
    assert str(exc.value) == problem


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("nope")


def test_expand_json(capsys):
    code, out, _ = run_cli(capsys, "expand", "2", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["basis"] == "e"
    assert payload["terms"] == [
        {"partition": [2], "coeff": ["1", "1"]},
        {"partition": [1, 1], "coeff": ["1"]},
    ]


def test_expand_all_bases_match_oracle(capsys):
    # (8, 7) and (8, 8): the model route at k close to n, in every basis
    for n, k in ((3, 2), (8, 7), (8, 8)):
        for basis in ("e", "f", "m", "s"):
            code, out, _ = run_cli(
                capsys, "expand", str(n), str(k), "--basis", basis, "--oracle"
            )
            assert code == 0
            assert json.loads(out)["oracle_match"] is True


def test_expand_csv(capsys):
    code, out, _ = run_cli(capsys, "expand", "2", "2", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "partition,t^0,t^1"
    assert '"[2]",0,1' in lines
    assert '"[1, 1]",1,0' in lines


def test_expand_csv_reports_oracle_mismatch(capsys, monkeypatch):
    from deltaq1.symfunc import SymFuncExpr

    real = verify.delta_e

    def off_by_e_n(n, k):
        image = real(n, k)
        terms = dict(image.terms())
        terms[Partition([n])] = image.coeff([n]) + 1
        return SymFuncExpr(n, image.basis, terms)

    _, expected, _ = run_cli(capsys, "expand", "3", "2", "--format", "csv")
    monkeypatch.setattr(verify, "delta_e", off_by_e_n)
    code, out, err = run_cli(
        capsys, "expand", "3", "2", "--format", "csv", "--oracle"
    )
    assert code == 1
    assert out == expected
    assert err == "oracle mismatch, first at partition [3]\n"


def test_expand_usage_errors():
    with pytest.raises(SystemExit) as exc:
        main(["expand", "1", "2"])  # k > n
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["expand", "2"])  # missing k
    assert exc.value.code == 2


def usage_error(capsys, *argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert len(err.splitlines()) == 1 and "error:" in err
    return err


def test_usage_guards_cover_every_command(capsys):
    bound, over = "n <= %d" % degree_bound(), str(degree_bound() + 1)
    assert bound in usage_error(capsys, "hilbert", over)
    assert bound in usage_error(capsys, "verify", "eq1", "--n-max", over)
    assert bound in usage_error(capsys, "schur", over, "2")
    assert "k <= n" in usage_error(capsys, "hilbert", "3", "--k", "4")
    assert "nonnegative" in usage_error(
        capsys, "verify", "involution", "--degree-max", "-3"
    )


def test_verify_checks_its_options_once(capsys, monkeypatch):
    # the option check counts the involution's diagrams, so it runs once per
    # command, inside run_suite
    real, calls = verify._involution_budget_problem, []

    def counted(**options):
        calls.append(options)
        return real(**options)

    monkeypatch.setattr(verify, "_involution_budget_problem", counted)
    code, _, _ = run_cli(capsys, "verify", "involution", "--n-max", "2")
    assert (code, calls) == (0, [{"n_max": 2, "k_max": 3, "degree_max": 8,
                                  "audit": None}])
    # one diagram count per (k, lam) covers the total and the audit weight
    real_count, counts = verify.diagram_count, []

    def counted_count(k, lam, degree_max):
        counts.append((k, lam))
        return real_count(k, lam, degree_max)

    monkeypatch.setattr(verify, "_involution_budget_problem", real)
    monkeypatch.setattr(verify, "diagram_count", counted_count)
    assert verify.usage_problem("involution", {"audit": 3}) is None
    walks = [(k, lam) for n in range(1, 6) for k in range(1, 4)
             for lam in partitions_of(n)]
    assert counts == walks and len(counts) == 54


def test_haglund_suite_stops_below_the_degree_bound(capsys):
    # it takes n up to the degree bound, where the oracle stops
    bound = degree_bound()
    assert "n <= %d" % bound in usage_error(
        capsys, "verify", "haglund", "--n-max", str(bound + 1))
    for n in (bound - 1, bound):
        assert hall_inner(oracle.delta_e(n, n), SymFuncExpr.basis_element(
            "f", [n])) == TRat(forgotten_coefficient([n], n))


def test_haglund_and_hilbert_read_one_image_per_case(monkeypatch):
    # one Delta image per (n, k), and no inner product or Delta image of
    # another degree
    real, calls = verify.delta_e, []

    def counted(n, k):
        calls.append((n, k))
        return real(n, k)

    def no_call(*args):
        raise AssertionError("an inner product or a second oracle route")

    monkeypatch.setattr(verify, "delta_e", counted)
    monkeypatch.setattr(oracle, "delta_general", no_call)
    monkeypatch.setattr(symfunc, "hall_inner", no_call)
    for name in ("haglund", "hilbert"):
        calls.clear()
        report = run_suite(name)
        assert report["status"] == "pass"
        assert len(calls) == len(set(calls)) == 15


def test_haglund_suite_reports_a_series_that_is_no_polynomial(
    capsys, monkeypatch
):
    # a numerator off by t^(n(n-1)/2 + 1), which (t;t)_{k+1} does not
    # divide: the sum is divided exactly, and the remainder is not dropped
    real = specialize.forgotten_series_terms

    def off(lam, k):
        (mu, term), *rest = real(lam, k)
        bump = TPoly.t_power(lam.size * (lam.size - 1) // 2 + 1)
        return [(mu, term + bump), *rest]

    monkeypatch.setattr(specialize, "forgotten_series_terms", off)
    code, out, _ = run_cli(capsys, "verify", "haglund", "--n-max", "3")
    report = json.loads(out)
    assert (code, report["status"]) == (1, "fail")
    assert report["counterexample"] == {
        "n": 1, "k": 1, "partition": [1],
        "reason": "series is not a polynomial"}


def test_verify_rejects_unread_and_out_of_range_options(capsys):
    assert "eq2 does not read --k-max" in usage_error(
        capsys, "verify", "eq2", "--k-max", "3", "--degree-max", "2",
        "--audit", "4",
    )
    assert "--degree-max" in usage_error(
        capsys, "verify", "eq1", "--degree-max", "2"
    )
    assert "--audit" in usage_error(capsys, "verify", "hilbert", "--audit", "0")
    assert "1 <= --k-max <= %d" % _MAX_K in usage_error(
        capsys, "verify", "involution", "--k-max", str(_MAX_K + 1)
    )
    assert "0 <= --degree-max <= %d" % _MAX_DEGREE in usage_error(
        capsys, "verify", "involution", "--degree-max", str(_MAX_DEGREE + 1)
    )
    assert "--audit <= 8" in usage_error(
        capsys, "verify", "involution", "--audit", "-1"
    )
    assert "--audit <= 2" in usage_error(
        capsys, "verify", "involution", "--audit", "7", "--degree-max", "2"
    )
    # each cap alone is in range; together they ask for too many diagrams
    assert "need at most %d diagrams" % _MAX_DIAGRAMS in usage_error(
        capsys, "verify", "involution", "--n-max", "10", "--k-max", "4"
    )


def test_involution_suite_moves_once_per_move_prefix(monkeypatch):
    # a prefix that passes with its partner checks the partner too, so the
    # pass moves stacks twice per pair of prefixes and once per fixed point:
    # once per move prefix, and fewer times than there are diagrams
    real, calls = verify._move, []

    def counted(stacks):
        calls.append(stacks)
        return real(stacks)

    monkeypatch.setattr(verify, "_move", counted)
    report = run_suite("involution", n_max=3, k_max=2, degree_max=4)
    assert report["status"] == "pass"
    walks = [(k, lam) for n in range(1, 4) for k in (1, 2)
             for lam in partitions_of(n)]
    walked = sum(sum(diagram_count(k, lam, 4)) for k, lam in walks)
    prefixes = [prefix for k, lam in walks
                for prefix, *_ in verify._move_prefixes(k, lam, 4)]
    assert sorted(calls, key=repr) == sorted(prefixes, key=repr)
    assert len(calls) < walked


def test_verify_reports_suite_defaults_in_order(capsys):
    code, out, _ = run_cli(capsys, "verify", "involution", "--n-max", "2")
    assert code == 0
    assert list(json.loads(out)["parameters"].items()) == [
        ("n_max", 2), ("k_max", 3), ("degree_max", 8)
    ]
    code, out, _ = run_cli(
        capsys, "verify", "involution", "--n-max", "1",
        "--k-max", str(_MAX_K), "--degree-max", "1",
    )
    assert code == 0
    assert json.loads(out)["status"] == "pass"


def test_verify_cli_output_is_stable(capsys):
    code1, out1, _ = run_cli(capsys, "verify", "eq2", "--n-max", "4")
    code2, out2, _ = run_cli(capsys, "verify", "eq2", "--n-max", "4")
    assert code1 == code2 == 0
    assert out1 == out2
    assert "duration_seconds" not in out1
    report = json.loads(out1)
    assert report["status"] == "pass"


def test_verify_cli_timing_flag(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "hilbert", "--n-max", "2", "--timing"
    )
    assert code == 0
    assert "duration_seconds" in json.loads(out)
    code, out, _ = run_cli(
        capsys, "verify", "involution", "--n-max", "2", "--audit", "1",
        "--timing",
    )
    assert code == 0
    assert list(json.loads(out)) == [
        "identity", "parameters", "cases", "status", "duration_seconds",
        "audit",
    ]


# sha256 of the stdout of `verify <suite> --n-max 3`
STDOUT_DIGESTS = {
    "eq1": "cd00ca7438a17ee8ad0cc847e4e3ad8c26d7c5441d062198d6b20bc4631693a0",
    "eq2": "e451d9448697e3945a438d1c6deb9790710ae755638db1f978ace3ac2b4d8ac2",
    "bijection":
        "8480df21f251ff352fe647f4b6f95c1b6a815c0c89cc97bf440e236403e0718f",
    "involution":
        "89b1ea8c5aa45587cffec26b20eedb20271dca25d274e0805a1769da6ddccbb5",
    "hilbert":
        "dd826cf301a77562a7f77549cf8652d8835a9acbef0bcfbb5faa578eae2ad6d2",
    "schur": "a6ba37a1dba927c2df295695fadfdde01deadef1392d53429b93ec5fb0050f6d",
    "haglund":
        "8bb86752b38b0b76aaf101d34236c2f542f420ebf44c94e59a7e8fd26d8d3b16",
}


@pytest.mark.parametrize("suite", STDOUT_DIGESTS)
def test_verify_suite_stdout_is_pinned(capsys, suite):
    code, out, _ = run_cli(capsys, "verify", suite, "--n-max", "3")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == STDOUT_DIGESTS[suite]


# sha256 of the stdout of `verify involution --n-max 3 --audit <weight>`,
# the bytes that checking every diagram one by one gave: the audit lists its
# weight diagram by diagram, in the order of the walk
AUDIT_DIGESTS = {
    2: "2a2ab1e95d4448311d81b2c43e388496b9ef66c421ecc438514fb27599efd0fc",
    4: "a91178236b1fe9c7f0e6d7d6d117f66642f82ede0883569ba72d408ad25b373e",
}


@pytest.mark.parametrize("weight", AUDIT_DIGESTS)
def test_verify_involution_audit_stdout_is_pinned(capsys, weight):
    code, out, _ = run_cli(capsys, "verify", "involution", "--n-max", "3",
                           "--audit", str(weight))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == AUDIT_DIGESTS[weight]


@pytest.mark.parametrize("suite, sides", [
    ("eq1", {"msequence_side": {"num": ["2", "3", "2"], "den": ["1"]},
             "oracle_side": {"num": ["2", "3", "1"], "den": ["1"]}}),
    ("eq2", {"msequence_side": ["2", "3", "2"],
             "path_side": ["2", "3", "1"]}),
])
def test_eq_suites_report_first_mismatching_partition(
    capsys, monkeypatch, suite, sides
):
    # eq1 reads the models' e-basis terms, eq2 the M-polynomials; both get
    # the same bump at (lam, k) = ([2, 1], 2)
    real, real_terms = verify.msequence_polynomial, verify.expansion_terms

    def bumped(lam, k, poly):
        return poly + TPoly.t_power(2) if (lam, k) == ([2, 1], 2) else poly

    def changed(lam, k):
        return bumped(lam, k, real(lam, k))

    def changed_terms(n, k, basis):
        return [(lam, bumped(lam, k, poly))
                for lam, poly in real_terms(n, k, basis)]

    monkeypatch.setattr(verify, "msequence_polynomial", changed)
    monkeypatch.setattr(verify, "expansion_terms", changed_terms)
    code, out, _ = run_cli(capsys, "verify", suite, "--n-max", "3")
    report = json.loads(out)
    assert (code, report["status"], report["cases"]) == (1, "fail", 6)
    assert report["counterexample"] == {"n": 3, "k": 2, "partition": [2, 1],
                                        **sides}


def test_eq2_passes_above_the_acceptance_range():
    # every (n, k) with n <= 8: the decoration weights of the 1,430 paths
    # of n = 8, summed per run partition
    report = run_suite("eq2", n_max=8)
    assert (report["status"], report["cases"]) == ("pass", 36)


def test_schur_suite_reports_first_failing_tableau_shape(monkeypatch):
    # the coefficients of s_[3,1] and s_[2,1,1] are off at (4, 2): they are
    # the tableau shapes [2,1,1] and [3,1], and [3,1] comes first
    real = verify.expansion_terms

    def changed(n, k, basis):
        return [(mu, poly + TPoly.t_power(2)
                 if (n, k) == (4, 2) and mu in ([3, 1], [2, 1, 1]) else poly)
                for mu, poly in real(n, k, basis)]

    monkeypatch.setattr(verify, "expansion_terms", changed)
    report = run_suite("schur", n_max=4)
    assert report["counterexample"] == {
        "n": 4, "k": 2, "partition": [3, 1],
        "ssyt_side": ["9", "10", "8", "3", "1"],
        "oracle_side": {"num": ["9", "10", "7", "3", "1"], "den": ["1"]},
    }


def test_verify_involution_audit(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify",
        "involution",
        "--n-max", "2",
        "--k-max", "1",
        "--degree-max", "2",
        "--audit", "1",
    )
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "pass"
    audit = report["audit"]
    assert audit["degree"] == 1
    for entry in audit["pairings"]:
        assert set(entry) == {"diagram", "partner"}


def test_verify_involution_audit_order_is_pinned(capsys):
    # the pairings come in enumeration order: reordering the diagrams of a
    # slice changes the report, and with it this digest
    code, out, _ = run_cli(
        capsys, "verify", "involution", "--n-max", "3", "--k-max", "2",
        "--degree-max", "3", "--audit", "3",
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "ddc900287b88d91de6d5f83ef10ba1c4f254a56fc85e981cd1bbe09441d3a755"
    )


def test_involution_suite_reports_first_failing_diagram(capsys, monkeypatch):
    # one wide diagram of the slice (n, k, lam, d) = (3, 2, [2, 1], 3) made
    # its own partner: the first slice holding it fails, on that diagram
    chosen = LabeledDiagram([ColumnStack(3, [1], (1, 2, 0))], [2, 1])
    real = verify._move
    monkeypatch.setattr(
        verify, "_move", lambda s: s if s == chosen.stacks else real(s)
    )
    expected = {
        "case": [3, 2, [2, 1], 3],
        "reason": "sign not reversed",
        "object": {"stacks": [{"row_len": 3, "above": [1], "labels": [1, 2, 0]}]},
    }
    code, out, _ = run_cli(capsys, "verify", "involution", "--n-max", "3")
    report = json.loads(out)
    assert (code, report["status"], report["cases"]) == (1, "fail", 162)
    assert report["counterexample"] == expected
    # the audit holds the pairings met before the failure: the failing
    # slice's up to the broken diagram, none of later (k, lam) slices
    for audit, pairings in ((2, 148), (3, 145), (4, 182)):
        report = run_suite(
            "involution", n_max=3, k_max=2, degree_max=4, audit=audit
        )
        assert report["counterexample"] == expected
        assert len(report["audit"]["pairings"]) == pairings


def test_involution_suite_reads_the_partner_weight_from_its_stacks(
    monkeypatch
):
    # the wide diagram of test_involution_suite_reports_first_failing_diagram
    # gets a heavier partner of the same sign: its weight, summed over the
    # partner's own stacks, fails first
    chosen = LabeledDiagram([ColumnStack(3, [1], (1, 2, 0))], [2, 1])
    heavier = (ColumnStack(3, [1, 1], (1, 2, 0)),)
    real = verify._move
    monkeypatch.setattr(
        verify, "_move", lambda s: heavier if s == chosen.stacks else real(s)
    )
    report = run_suite("involution", n_max=3)
    assert (report["status"], report["cases"]) == ("fail", 162)
    assert report["counterexample"] == {
        "case": [3, 2, [2, 1], 3],
        "reason": "weight changed",
        "object": {"stacks": [{"row_len": 3, "above": [1], "labels": [1, 2, 0]}]},
    }


@pytest.mark.parametrize("name, change, case, reason", [
    ("msequence_polynomial", lambda poly: poly + TPoly.t_power(2),
     [3, 2, [2, 1], 2], "signed count 1 != coefficient 2"),
    # the last M-sequence of ([2, 1], 2) has rho 1
    ("msequences", lambda seqs: seqs[:-1],
     [3, 2, [2, 1], 1], "fixed points differ from M-sequences"),
])
def test_involution_suite_reports_model_mismatch(
    capsys, monkeypatch, name, change, case, reason
):
    real = getattr(verify, name)

    def changed(lam, k):
        return change(real(lam, k)) if (lam, k) == ([2, 1], 2) else real(lam, k)

    monkeypatch.setattr(verify, name, changed)
    code, out, _ = run_cli(capsys, "verify", "involution", "--n-max", "3")
    report = json.loads(out)
    assert (code, report["status"]) == (1, "fail")
    assert report["counterexample"] == {"case": case, "reason": reason}


def test_involution_suite_reports_fixed_point_that_is_no_msequence(
    monkeypatch
):
    # an involution that fixes everything, over the move prefixes of
    # all-width-1 diagrams only: the first fixed diagram that two columns
    # could combine fails its slice instead of escaping as the M-sequence
    # check's ValueError
    real = verify._move_prefixes
    monkeypatch.setattr(verify, "_move", lambda s: None)
    monkeypatch.setattr(verify, "_move_prefixes", lambda k, lam, d: (
        x for x in real(k, lam, d)
        if all(st.row_len == 1 for st in x[0])
        and all(row_len == 1 for row_len, _ in x[1])
    ))
    report = run_suite("involution", n_max=2, k_max=2, degree_max=3)
    assert (report["status"], report["cases"]) == ("fail", 24)
    assert report["counterexample"] == {
        "case": [1, 1, [1], 0],
        "reason": "fixed point is not an M-sequence",
        "object": {"stacks": [{"row_len": 1, "above": [], "labels": [0]},
                              {"row_len": 1, "above": [], "labels": [1]}]},
    }


def test_involution_suite_reports_partner_outside_the_walk(monkeypatch):
    # the descent of (2, [2, 1]) loses the partners of two move prefixes of
    # weight 1 and opposite signs that it meets after them: the partners
    # left over are reported before the counts that their loss changes
    real = verify._move_prefixes
    prefixes = list(real(2, [2, 1], 4))
    order = [(prefix, rest) for prefix, rest, *_ in prefixes]
    later = {}
    for i, (prefix, rest, weight, sign, _) in enumerate(prefixes):
        partner = verify._move(prefix)
        if (weight == 1 and partner is not None
                and order.index((partner, rest)) > i):
            later.setdefault(sign, (partner, rest))
    dropped = set(later.values())
    assert len(dropped) == 2
    monkeypatch.setattr(verify, "_move_prefixes", lambda k, lam, d: (
        x for x in real(k, lam, d)
        if not ((k, lam) == (2, [2, 1]) and tuple(x[:2]) in dropped)
    ))
    report = run_suite("involution", n_max=3, k_max=2, degree_max=4)
    assert (report["status"], report["cases"]) == ("fail", 60)
    assert report["counterexample"] == {
        "case": [3, 2, [2, 1], 1],
        "reason": "partner is not a diagram of the walk",
        "object": {"stacks": [{"row_len": 1, "above": [], "labels": [0]},
                              {"row_len": 2, "above": [], "labels": [2, 1]}]},
    }


def test_involution_suite_counts_every_diagram(monkeypatch):
    # the number of diagrams of each weight against the series: one more in
    # the series at weight 2 of (2, [2, 1]), or a descent that loses the
    # first fixed point of (2, [2, 1]), fails that slice on the count
    real_count = verify.diagram_count
    counts = real_count(2, [2, 1], 8)
    bumped = counts[:2] + (counts[2] + 1,) + counts[3:]
    monkeypatch.setattr(verify, "diagram_count", lambda k, lam, d: (
        bumped if (k, lam) == (2, [2, 1]) else real_count(k, lam, d)))
    report = run_suite("involution", n_max=3)
    assert report["counterexample"] == {
        "case": [3, 2, [2, 1], 2],
        "reason": "diagram count %d != series count %d" % (counts[2],
                                                          counts[2] + 1)}
    monkeypatch.setattr(verify, "diagram_count", real_count)
    real = verify._move_prefixes
    lost, weight = next((prefix, weight) for prefix, _, weight, _, _
                        in real(2, [2, 1], 8) if verify._move(prefix) is None)
    monkeypatch.setattr(verify, "_move_prefixes", lambda k, lam, d: (
        x for x in real(k, lam, d)
        if not ((k, lam) == (2, [2, 1]) and x[0] == lost)))
    report = run_suite("involution", n_max=3)
    assert report["counterexample"] == {
        "case": [3, 2, [2, 1], weight],
        "reason": "diagram count %d != series count %d" % (counts[weight] - 1,
                                                          counts[weight])}


def test_involution_run_sums_each_series_once(monkeypatch):
    # the option check and the count check read one diagram_count of each
    # (k, lam, degree_max)
    real, calls = diagrams.forgotten_series_terms, []

    def counted(lam, k):
        calls.append((k, lam))
        return real(lam, k)

    monkeypatch.setattr(diagrams, "forgotten_series_terms", counted)
    diagrams._diagram_count.cache_clear()
    assert run_suite("involution", n_max=3)["status"] == "pass"
    assert calls == [(k, lam) for n in range(1, 4) for k in range(1, 4)
                     for lam in partitions_of(n)]


def test_bijection_suite_reports_weight_faults(monkeypatch):
    # the suite compares rho with the decorated area once per path; the
    # round trip carries that comparison over to the inverse
    from deltaq1.msequences import MSequence

    rho = MSequence.rho
    monkeypatch.setattr(MSequence, "rho", lambda seq: rho(seq) + 1)
    report = run_suite("bijection", n_max=2)
    assert report["status"] == "fail"
    assert report["counterexample"] == {
        "n": 1, "k": 1, "object": {"area_seq": [0], "decorated_rows": []},
        "reason": "weight not preserved",
    }


@pytest.mark.parametrize("image", [
    [(0, 2), (1, 0)],  # run partition [2], not [1, 1]
    [(0, 1), (0, 1), (0, 0)],  # run partition [1, 1], but k = 2, not 1
])
def test_bijection_suite_reports_image_of_another_run_partition(
    capsys, monkeypatch, image
):
    # a valid M-sequence, but not one of the path's (lam, k): the first
    # path of (n, k) = (2, 1) is [0, 0], run partition [1, 1], decorated at
    # the origin
    from deltaq1.msequences import MSequence

    real = verify.decorated_to_msequence
    monkeypatch.setattr(verify, "decorated_to_msequence", lambda d: (
        MSequence(image) if d.path.area_seq == (0, 0) else real(d)))
    code, out, _ = run_cli(capsys, "verify", "bijection", "--n-max", "2")
    report = json.loads(out)
    assert (code, report["status"], report["cases"]) == (1, "fail", 3)
    assert report["counterexample"] == {
        "n": 2, "k": 1,
        "object": {"area_seq": [0, 0], "decorated_rows": [0]},
        "reason": "image has another run partition",
    }


def test_bijection_suite_counts_the_images_of_each_run_partition(
    capsys, monkeypatch
):
    # one path of (2, 1) left out, [0, 1] decorated at row 2: every image
    # still round-trips, and only the count of run partition [2] shows it
    real = verify.decorated_paths

    def one_short(n, k):
        paths = list(real(n, k))
        return paths[:-1] if (n, k) == (2, 1) else paths

    monkeypatch.setattr(verify, "decorated_paths", one_short)
    assert list(real(2, 1))[-1].to_json() == {"area_seq": [0, 1], "decorated_rows": [2]}
    code, out, _ = run_cli(capsys, "verify", "bijection", "--n-max", "2")
    report = json.loads(out)
    assert (code, report["status"], report["cases"]) == (1, "fail", 3)
    assert report["counterexample"] == {
        "n": 2, "k": 1, "partition": [2],
        "reason": "image does not exhaust the M-sequences",
    }


def test_bijection_suite_reports_two_paths_with_one_image(capsys, monkeypatch):
    # the first two paths of (3, 1) share run partition [2, 1] and weight 0;
    # a forward map that sends the second to the image of the first passes
    # every check of the image, and the inverse takes it back to the first
    from deltaq1.dyck import DecoratedDyckPath, DyckPath

    first = DecoratedDyckPath(DyckPath((0, 0, 1)), [0, 3])
    second = DecoratedDyckPath(DyckPath((0, 1, 0)), [0, 2])
    real = verify.decorated_to_msequence
    monkeypatch.setattr(verify, "decorated_to_msequence",
                        lambda d: real(first if d == second else d))
    code, out, _ = run_cli(capsys, "verify", "bijection", "--n-max", "3")
    report = json.loads(out)
    assert (code, report["status"], report["cases"]) == (1, "fail", 6)
    assert report["counterexample"] == {
        "n": 3, "k": 1, "object": second.to_json(),
        "reason": "round trip failed",
    }


@pytest.mark.parametrize("layer, rejected, reason", [
    ("decorated_to_msequence", {"area_seq": [0], "decorated_rows": []},
     "image is not an M-sequence"),
    ("msequence_to_decorated", {"pairs": [[0, 1], [0, 0]]},
     "inverse rejects the image"),
])
def test_bijection_suite_reports_rejected_objects(
    capsys, monkeypatch, layer, rejected, reason
):
    # a map that raises ValueError fails the case on the object it was
    # given: a counterexample and exit code 1, not a traceback
    def rejects(obj):
        raise ValueError("rejected %r" % (obj,))

    monkeypatch.setattr(verify, layer, rejects)
    code, out, err = run_cli(capsys, "verify", "bijection", "--n-max", "2")
    report = json.loads(out)
    assert (code, err, report["status"], report["cases"]) == (1, "", "fail", 3)
    assert report["counterexample"] == {
        "n": 1, "k": 1, "object": rejected, "reason": reason,
    }


def test_phi_round_trip_cli(capsys):
    decorated = {"area_seq": [0, 1, 2, 3, 2, 3, 4, 2, 1, 2], "decorated_rows": [4, 6, 10]}
    code, out, _ = run_cli(capsys, "phi", json.dumps(decorated))
    assert code == 0
    seq = json.loads(out)
    assert seq == {
        "pairs": [[0, 4], [2, 3], [4, 0], [2, 1], [2, 0], [1, 2], [1, 0], [0, 0]]
    }
    code, out, _ = run_cli(capsys, "phi-inverse", json.dumps(seq))
    assert code == 0
    assert json.loads(out) == {
        "area_seq": [0, 1, 2, 3, 2, 3, 4, 2, 1, 2],
        "decorated_rows": [4, 6, 10],
    }


def test_phi_rejects_bad_objects(capsys):
    code, _, err = run_cli(
        capsys, "phi", '{"area_seq": [0, 2], "decorated_rows": []}'
    )
    assert code == 1
    assert "invalid" in err
    code, _, err = run_cli(capsys, "phi-inverse", '{"pairs": [[1, 1]]}')
    assert code == 1
    assert "a_1" in err
    # the decorations are a set: a repeated row would be merged away
    code, out, err = run_cli(capsys, "phi", json.dumps(
        {"area_seq": [0, 1, 2, 3, 2, 3, 4, 2, 1, 2],
         "decorated_rows": [4, 4, 6, 10]}))
    assert (code, out) == (1, "")
    assert err == "invalid decorated path: decorated rows must be distinct\n"
    # a JSON value that is not an object, or an object without its key
    for command, raw, message in (
        ("phi", '{"area_seq": [0, 1]}',
         "invalid decorated path: missing key 'decorated_rows'"),
        ("phi", "[0, 1]", "invalid decorated path: expected a JSON object"),
        ("phi-inverse", '{"area_seq": [0, 1]}',
         "invalid sequence: missing key 'pairs'"),
        ("phi-inverse", "[[0, 1]]", "invalid sequence: expected a JSON object"),
    ):
        assert run_cli(capsys, command, raw) == (1, "", message + "\n")
    # a pair that is not two integers is named, in one line
    for raw, message in (
        ('{"pairs": [[0, 1], [0]]}', "pair [0] is not two integers"),
        ('{"pairs": [[0, 1, 2]]}', "pair [0, 1, 2] is not two integers"),
        ('{"pairs": [0, 1]}', "pair 0 is not two integers"),
        ('{"pairs": null}', "expected a list of pairs, not None"),
        # a string or an object, which Python iterates, is not a list
        ('{"pairs": ""}', "expected a list of pairs, not ''"),
        ('{"pairs": {}}', "expected a list of pairs, not {}"),
        ('{"pairs": [[0, 1], ""]}', "pair '' is not two integers"),
    ):
        assert run_cli(capsys, "phi-inverse", raw) == (
            1, "", "invalid sequence: %s\n" % message)
    # an area sequence or decorated rows that are not a list are named, in
    # one line
    for raw, message in (
        ('{"area_seq": 5, "decorated_rows": []}', "not 5"),
        ('{"area_seq": null, "decorated_rows": []}', "not None"),
        ('{"area_seq": [0, 1], "decorated_rows": 5}', "not 5"),
        ('{"area_seq": [0, 1], "decorated_rows": null}', "not None"),
        ('{"area_seq": [0], "decorated_rows": {}}', "not {}"),
        ('{"area_seq": [0], "decorated_rows": ""}', "not ''"),
        ('{"area_seq": "0", "decorated_rows": []}', "not '0'"),
    ):
        assert run_cli(capsys, "phi", raw) == (
            1, "", "invalid decorated path: expected a list of integers, %s\n"
            % message)
    # int() would truncate 2.7 and read true and "2" as numbers, so the
    # command would report success on a different object
    for command, raw, bad in (
        ("phi-inverse", '{"pairs": [[0, 2.7], [1.9, 0]]}', "2.7"),
        ("phi", '{"area_seq": [0, 1.5, true], "decorated_rows": []}', "1.5"),
        ("phi-inverse", '{"pairs": [[0, "2"], [1, 0]]}', "'2'"),
        ("phi", '{"area_seq": [0, true], "decorated_rows": [0]}', "True"),
    ):
        code, out, err = run_cli(capsys, command, raw)
        assert (code, out) == (1, "")
        assert err.splitlines() == [err.strip()]
        assert err.strip().endswith("entries must be integers, not " + bad)


def test_phi_commands_cap_rows(capsys):
    for rows, expected in ((_MAX_ROWS, 0), (_MAX_ROWS + 1, 1)):
        # one segment of every row, the origin decorated
        seq = {"pairs": [[0, rows]] + [[r, 0] for r in range(rows - 1, 0, -1)]}
        decorated = {"area_seq": list(range(rows)), "decorated_rows": [0]}
        for command, obj, image in (("phi-inverse", seq, decorated),
                                    ("phi", decorated, seq)):
            code, out, err = run_cli(capsys, command, json.dumps(obj))
            assert code == expected
            if code == 0:
                assert json.loads(out) == image
            else:
                assert err.splitlines() == [err.strip()]
                assert "at most %d rows" % _MAX_ROWS in err


def test_phi_commands_reject_deeply_nested_json(capsys, monkeypatch):
    # the JSON decoder gives up on deep nesting with a RecursionError
    nested = "[" * 200000 + "]" * 200000
    for command, prefix in (("phi", "invalid decorated path: "),
                            ("phi-inverse", "invalid sequence: ")):
        monkeypatch.setattr("sys.stdin", io.StringIO(nested))
        code, out, err = run_cli(capsys, command, "-")
        assert (code, out) == (1, "")
        assert err.splitlines() == [err.strip()]
        assert err.startswith(prefix) and "Traceback" not in err


def test_a_reader_that_leaves_early_gets_no_traceback():
    # the report is 78 KB, more than a pipe holds, so the writer meets the
    # closed pipe while it prints
    src = os.path.dirname(os.path.dirname(deltaq1.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    argv = [sys.executable, "-m", "deltaq1", "verify", "involution",
            "--n-max", "2", "--degree-max", "0", "--audit", "0"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          bufsize=0, env=env) as proc:
        assert proc.stdout.read(1) == b"{"
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 1
    assert len(err.splitlines()) == 1 and "Traceback" not in err


def test_hilbert_cli(capsys):
    code, out, _ = run_cli(capsys, "hilbert", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["rows"][2] == {"k": 3, "polynomial": ["6", "6", "3", "1"]}
    code, out, _ = run_cli(capsys, "hilbert", "3", "--k", "1")
    assert json.loads(out)["rows"] == [{"k": 1, "polynomial": ["7", "4", "1"]}]


def test_schur_cli(capsys):
    code, out, _ = run_cli(capsys, "schur", "2", "1")
    assert code == 0
    payload = json.loads(out)
    # coefficient of s_lam is the tableau polynomial of the conjugate shape:
    # e_11 + (1+t) e_2 = s_2 + (2+t) s_11
    assert payload["terms"] == [
        {"partition": [2], "coeff": ["1"]},
        {"partition": [1, 1], "coeff": ["2", "1"]},
    ]


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda children: st.lists(children, max_size=5)
    | st.dictionaries(
        st.sampled_from(["area_seq", "decorated_rows", "pairs", "x"]), children,
        max_size=3,
    ),
    max_leaves=12,
)
small = st.integers(-1, 6)
shaped_objects = st.fixed_dictionaries(
    {"area_seq": st.lists(small, max_size=8),
     "decorated_rows": st.lists(small, max_size=4)}
) | st.fixed_dictionaries(
    {"pairs": st.lists(st.lists(small, min_size=2, max_size=2), max_size=8)}
)


@given(st.sampled_from(["phi", "phi-inverse"]), json_values | shaped_objects)
@settings(max_examples=300, deadline=None)
def test_phi_commands_accept_any_json(command, value):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        # "--" keeps a value such as -1e+16 from reading as an option
        code = main([command, "--", json.dumps(value)])
    assert code in (0, 1)
    if code == 1:
        assert len(stderr.getvalue().splitlines()) == 1
        assert "Traceback" not in stderr.getvalue()

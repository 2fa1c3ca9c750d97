"""The benchmark's own tests.

    python3 perfbench/selftest.py [--workload NAME ...]

- The correctness gate: a wrong digest, a non-zero exit, a verify report
  without cases and an oracle mismatch each count as a failed operation,
  in ``check`` and through the timed loop, never as a fast pass.
- The specification: every per-layer metric in ``BENCHMARK.json`` is one
  the tracer reports, and every end-to-end metric one the loop reports.
- Count determinism: two traced passes of one seed give identical values
  for every count-type per-layer metric, on each workload (all by default).

Exits 0 when every test passes.  The file is a script, not a pytest
module, so the repository's test suite does not collect it.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import time
import traceback

import run
import workloads

COUNT_SUFFIXES = (".calls", ".objects", ".ops", ".created")
COUNT_NAMES = {"symfunc.tables.built", "verify.cases", "cli.stdout_bytes",
               "oracle.max_t_degree"}


def is_count(name):
    return name.endswith(COUNT_SUFFIXES) or name in COUNT_NAMES


def expect(condition, message):
    if not condition:
        raise AssertionError(message)


def _verify_report(status="pass", cases=3):
    return json.dumps({"identity": "eq1", "cases": cases, "status": status}).encode()


def test_check_flags_each_failure():
    argv = ["verify", "eq1"]
    good = _verify_report()
    reference = {workloads.op_key(argv): hashlib.sha256(good).hexdigest()}
    expect(run.check(argv, 0, good, reference) == [], "a correct report fails")
    expect(run.check(argv, 0, good, {workloads.op_key(argv): "0" * 64}),
           "a wrong digest passes")
    expect(run.check(argv, 1, good, reference), "exit code 1 passes")
    expect(run.check(argv, None, b"", reference), "a timeout passes")
    empty = _verify_report(cases=0)
    expect(run.check(argv, 0, empty,
                     {workloads.op_key(argv): hashlib.sha256(empty).hexdigest()}),
           "a verify report with no cases passes")
    oracle = ["expand", "2", "1", "--oracle"]
    mismatch = json.dumps({"oracle_match": False}).encode()
    expect(run.check(oracle, 0, mismatch,
                     {workloads.op_key(oracle): hashlib.sha256(mismatch).hexdigest()}),
           "an oracle mismatch passes")


def test_loop_counts_failures():
    good = ["verify", "eq2"]
    corrupted = ["verify", "eq1", "--n-max", "2"]
    exits_one = ["phi", '{"area_seq": [0, 5], "decorated_rows": []}']
    reference = dict(run.load_reference())
    reference[workloads.op_key(corrupted)] = "0" * 64
    print("    two FAILED reports follow, as this test expects")
    result = run.timed_run([good, corrupted, exits_one], reference, seconds=0)
    expect(result["attempted"] == 3, "attempted %r" % result["attempted"])
    expect(result["failed"] == 2, "failed %r, expected 2" % result["failed"])
    expect(result["correct"] is False, "a run with failures is correct")


def test_spec_names_are_reported():
    unknown = run.unreported(run.load_spec())
    expect(not unknown, "BENCHMARK.json names metrics no run reports: %s" % unknown)


def counts_repeat(workload, seed=1):
    spec = run.load_spec()
    ops = workloads.operations(workload, seed)
    reference = run.load_reference()
    passes = []
    for _ in range(2):
        _, failed, layers = run.traced_pass(
            ops, reference, run.OUT_DIR / "selftest" / workload, time.perf_counter())
        expect(failed == 0, "%d traced operations failed" % failed)
        passes.append({m["name"]: layers.get(m["name"], 0)
                       for m in spec["per_layer"] if is_count(m["name"])})
    differ = {name: (passes[0][name], passes[1][name])
              for name in passes[0] if passes[0][name] != passes[1][name]}
    expect(not differ, "counts differ between traced runs: %s" % differ)
    print("    %s: %d counts repeat" % (workload, len(passes[0])))


def main():
    names = run.workload_names(run.load_spec())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=names,
                        help="workloads for the count determinism test")
    args = parser.parse_args()

    tests = [(t.__name__, t) for t in (test_check_flags_each_failure,
                                       test_loop_counts_failures,
                                       test_spec_names_are_reported)]
    tests += [("counts_repeat[%s]" % w, functools.partial(counts_repeat, w))
              for w in args.workload or names]
    failures = 0
    for label, test in tests:
        try:
            test()
        except Exception:  # report every failing test, then exit non-zero
            failures += 1
            print("FAIL %s" % label)
            traceback.print_exc()
        else:
            print("ok   %s" % label)
    print("%d of %d tests failed" % (failures, len(tests)))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

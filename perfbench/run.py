"""Benchmark of the deltaq1 command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the package is loaded from its
``src``.  A client runs the workload's operations (see ``workloads.py``) in
a closed loop, one at a time, each in a fresh ``python -m deltaq1`` process,
so every operation pays interpreter start, import and cold caches as a CLI
user does.  Every operation's output is checked against the reference
digests in ``reference.json`` and the checks of ``check``.

``--trace 0`` measures the end-to-end metrics.  The loop goes round the
operation list until the next operation would end after ``--seconds``
(every operation runs at least once).  ``wall_s`` is the sum over the
operations of their mean times, ``slowest_op_s`` the largest of those
means, ``setup_s`` the median time of launches that only start the
interpreter and import ``deltaq1.cli`` (one before each operation, at least
``MIN_SETUP_LAUNCHES``), ``peak_rss_mb`` the largest maximum resident set
of any child process.  Means, not medians, for the operations: the host's
speed flips between a fast and a slow state many times within one
operation, so every sample is a mixture and the mean is the steadier
estimate of a pass.

Every time in the metrics is scaled to a fixed host speed (``HostSpeed``).
On the 2-vCPU VM the benchmark was built on, the host alternates, every few
seconds, between states in which the same Python code runs up to 1.6 times
slower, so the same operation list took 18 s in one run and 28 s in
another.  The benchmark times a fixed loop of its own (``calibration_s``,
stdlib code only, never the program) before and after each timed launch and
multiplies the launch's time by ``CALIBRATION_REF_S`` over the mean of the
two.  A metric in ``s`` therefore reads as seconds on a host where that loop
takes ``CALIBRATION_REF_S``; the unscaled times are printed beside them.

``--trace 1`` runs one untraced pass (the loop above with no time to
repeat) and one traced pass (``tracer.py``) of the operation list, and
reports the per-layer metrics of the traced pass with ``trace.overhead``,
its wall time over the untraced pass's.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Without ``src/deltaq1`` the benchmark exits 2
and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench-out"
MIN_SETUP_LAUNCHES = 21
# No operation starts after this many seconds of a run, and none may run
# past it, so that a run ends well within three minutes.
HARD_LIMIT_S = 150.0
# About the calibration loop's time on the VM named above, in its fast state.
CALIBRATION_REF_S = 0.020
END_TO_END = ("wall_s", "slowest_op_s", "setup_s", "peak_rss_mb")


def child_env():
    """The children's environment: ``src`` on the path, and bytecode cached
    under ``OUT_DIR`` even where the caller's environment forbids writing
    it, so that launches after the first load deltaq1 from bytecode as an
    installed CLI does (compiling the package costs about 80 ms a launch)."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(OUT_DIR / "pycache")
    return env


def run_process(argv, timeout):
    """Run one child to completion; return (exit code, stdout, stderr,
    seconds).  A child still running at ``timeout`` is killed and reported
    with exit code None."""
    start = time.perf_counter()
    try:
        proc = subprocess.run(argv, capture_output=True, env=child_env(),
                              cwd=ROOT, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        return None, exc.stdout or b"", exc.stderr or b"", time.perf_counter() - start
    return proc.returncode, proc.stdout, proc.stderr, time.perf_counter() - start


def check(argv, exit_code, stdout, reference):
    """Problems with one operation's result; empty when it is correct."""
    if exit_code is None:
        return ["timed out"]
    problems = []
    if exit_code != 0:
        problems.append("exit code %d" % exit_code)
    expected = reference.get(workloads.op_key(argv))
    if hashlib.sha256(stdout).hexdigest() != expected:
        problems.append("stdout differs from the reference digest")
    if argv[0] == "verify" or "--oracle" in argv:
        try:
            report = json.loads(stdout)
        except ValueError:
            return problems + ["stdout is not JSON"]
        if argv[0] == "verify" and not (
            report.get("status") == "pass" and report.get("cases", 0) > 0
        ):
            problems.append("verify report is not a pass with cases > 0")
        if "--oracle" in argv and report.get("oracle_match") is not True:
            problems.append("oracle_match is not true")
    return problems


def _deadline_timeout(started):
    return max(1.0, HARD_LIMIT_S - (time.perf_counter() - started))


def report_failure(argv, problems, stderr):
    print("FAILED %s: %s" % (workloads.op_key(argv), "; ".join(problems)),
          file=sys.stderr)
    tail = stderr.decode(errors="replace").strip().splitlines()[-3:]
    for line in tail:
        print("  | " + line, file=sys.stderr)


def launch_setup(started):
    code, _, _, seconds = run_process(
        [sys.executable, "-c", "import deltaq1.cli"], _deadline_timeout(started))
    if code != 0:
        raise RuntimeError("importing deltaq1.cli failed")
    return seconds


def calibration_s():
    """Seconds a fixed piece of pure-Python work takes now: big-integer
    fractions and dictionary updates, the kind of work deltaq1 does."""
    start = time.perf_counter()
    x = Fraction(0)
    for i in range(1, 800):
        x += Fraction(i, i * i + 1)
    counts = {}
    for i in range(80000):
        counts[i % 997] = counts.get(i % 997, 0) + i
    return time.perf_counter() - start


class HostSpeed:
    """Scales each measured time by the host's speed around it."""

    def __init__(self):
        calibration_s()  # untimed: warms the loop's code and allocator
        self.before = calibration_s()
        self.samples = [self.before]

    def scale(self, seconds):
        """``seconds``, measured since the last call, at the host speed on
        which the calibration loop takes ``CALIBRATION_REF_S``."""
        after = calibration_s()
        self.samples.append(after)
        factor = CALIBRATION_REF_S / ((self.before + after) / 2)
        self.before = after
        return seconds * factor


def timed_run(ops, reference, seconds, started=None):
    """The closed loop with tracing off; returns the result object.
    ``started`` is when the run began, for its time limits."""
    started = time.perf_counter() if started is None else started
    launch_setup(started)  # untimed: writes the bytecode cache once
    speed = HostSpeed()
    raw = [[] for _ in ops]
    times = [[] for _ in ops]
    setup = []
    attempted = failed = 0
    i = 0
    while True:
        idx = i % len(ops)
        elapsed = time.perf_counter() - started
        if i >= len(ops) and (
            elapsed + statistics.fmean(raw[idx]) > seconds
            or elapsed > HARD_LIMIT_S
        ):
            break
        setup.append(speed.scale(launch_setup(started)))
        argv = ops[idx]
        code, out, err, dt = run_process(
            [sys.executable, "-m", "deltaq1", *argv], _deadline_timeout(started))
        attempted += 1
        problems = check(argv, code, out, reference)
        if problems:
            failed += 1
            report_failure(argv, problems, err)
        raw[idx].append(dt)
        times[idx].append(speed.scale(dt))
        i += 1
        if code is None:
            break
    while len(setup) < MIN_SETUP_LAUNCHES:
        setup.append(speed.scale(launch_setup(started)))

    means = [statistics.fmean(t) for t in times if t]  # none for ops a timeout skipped
    for argv, r, t in zip(ops, raw, times):
        print("%-36s runs %d  mean %s s  unscaled %s s" % (
            workloads.op_key(argv), len(t),
            "%.3f" % statistics.fmean(t) if t else "-",
            "%.3f" % statistics.fmean(r) if r else "-"))
    print("unscaled wall_s %.3f, calibration loop median %.2f ms over %d samples"
          % (sum(statistics.fmean(r) for r in raw if r),
             1000 * statistics.median(speed.samples), len(speed.samples)))
    print("failed_frac %d/%d" % (failed, attempted))
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return _result(attempted, failed, {
        "wall_s": (sum(means), "s"),
        "slowest_op_s": (max(means), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    })


def traced_pass(ops, reference, spans_dir, started):
    """One pass with each operation in a fresh traced process: (seconds,
    failed, merged layer metrics)."""
    spans_dir.mkdir(parents=True, exist_ok=True)
    speed = HostSpeed()
    total, failed, per_op = 0.0, 0, []
    for i, argv in enumerate(ops):
        spans = spans_dir / ("%d.jsonl" % i)
        code, out, err, dt = run_process(
            [sys.executable, str(HERE / "tracer.py"), "--spans", str(spans),
             "--", *argv],
            _deadline_timeout(started))
        total += speed.scale(dt)
        try:
            traced = json.loads(out.decode().splitlines()[-1])
        except (ValueError, IndexError):
            traced = {"exit": 1 if code is not None else None, "stdout": "",
                      "metrics": {}}
        problems = check(argv, traced["exit"], traced["stdout"].encode(), reference)
        if code != 0:
            problems.append("traced process exit code %s" % code)
        if problems:
            failed += 1
            report_failure(argv, problems, err)
        per_op.append(traced["metrics"])
    return total, failed, tracer.merge(per_op)


def traced_run(workload, ops, reference, per_layer):
    started = time.perf_counter()
    plain = timed_run(ops, reference, seconds=0, started=started)
    plain_s = plain["metrics"]["wall_s"]["value"]
    traced_s, traced_failed, layers = traced_pass(
        ops, reference, OUT_DIR / "spans" / workload, started)
    layers["trace.overhead"] = traced_s / plain_s
    print("untraced pass %.3f s, traced pass %.3f s" % (plain_s, traced_s))
    return _result(plain["attempted"] + len(ops), plain["failed"] + traced_failed, {
        spec["name"]: (layers.get(spec["name"], 0), spec["unit"])
        for spec in per_layer
    })


def _result(attempted, failed, metrics):
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }


def load_reference():
    with open(HERE / "reference.json") as f:
        return json.load(f)["digests"]


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def workload_names(spec):
    return [w["name"] for w in spec["workloads"]]


def unreported(spec):
    """Metric names in the specification that this benchmark cannot report."""
    known = set(END_TO_END) | tracer.METRICS | {"trace.overhead"}
    return [m["name"] for m in spec["end_to_end"] + spec["per_layer"]
            if m["name"] not in known]


def main(argv=None):
    parser = argparse.ArgumentParser(description="deltaq1 CLI benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "deltaq1" / "cli.py").is_file():
        print("no deltaq1 sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    spec = load_spec()
    if args.workload not in workload_names(spec):
        parser.error("unknown workload %r; BENCHMARK.json has %s" % (
            args.workload, ", ".join(workload_names(spec))))
    if unreported(spec):
        print("cannot report %s" % ", ".join(unreported(spec)), file=sys.stderr)
        return 2
    ops = workloads.operations(args.workload, args.seed)
    reference = load_reference()
    if args.trace:
        result = traced_run(args.workload, ops, reference, spec["per_layer"])
    else:
        result = timed_run(ops, reference, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

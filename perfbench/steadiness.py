"""Steadiness report: how much each end-to-end metric moves between runs.

    python3 perfbench/steadiness.py [--workload NAME ...] [--seeds N]
                                    [--first-seed S] [--same-seed]
                                    [--seconds S]

Runs the benchmark once per seed on each workload, one run at a time, and
prints for every end-to-end metric the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the quartile spread,
(q3 - q1) / median, beside the metric's bound in ``BENCHMARK.json``.  A
spread above a third of its bound is marked ``WIDE``.  With ``--same-seed``
all N runs use seed S, so the spread is run-to-run noise alone, without
the differences between the seeds' inputs.  The last line of stdout is a
JSON object with every run's values.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import run


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def main():
    spec = run.load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--same-seed", action="store_true",
                        help="run every time with --first-seed")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()

    names = args.workload or run.workload_names(spec)
    if args.same_seed:
        seeds = [args.first_seed] * args.seeds
    else:
        seeds = range(args.first_seed, args.first_seed + args.seeds)
    runs = {}
    for workload in names:
        runs[workload] = []
        for seed in seeds:
            proc = subprocess.run(
                [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                capture_output=True, text=True, cwd=run.ROOT, timeout=200)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.splitlines()[-1])
            if not result["correct"]:
                print("%s seed %d: %d of %d operations failed"
                      % (workload, seed, result["failed"], result["attempted"]),
                      file=sys.stderr)
                return 1
            values = {k: v["value"] for k, v in result["metrics"].items()}
            runs[workload].append(values)
            print("%s seed %d: %s" % (workload, seed, "  ".join(
                "%s %.4g" % item for item in values.items())))
            for line in proc.stdout.splitlines()[:-1]:  # the per-operation means
                print("    " + line)
            sys.stdout.flush()

    print()
    print("%-14s %-13s %10s %10s %10s %8s %6s" % (
        "workload", "metric", "median", "q1", "q3", "spread", "bound"))
    for workload in names:
        for metric in spec["end_to_end"]:
            values = [r[metric["name"]] for r in runs[workload]]
            median, q1, q3, width = spread(values)
            mark = "ok" if width <= metric["bound"] / 3 else "WIDE"
            print("%-14s %-13s %10.4f %10.4f %10.4f %8.4f %6.2f %s" % (
                workload, metric["name"], median, q1, q3, width,
                metric["bound"], mark))
    print(json.dumps(runs))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Record the reference stdout digests of every benchmark operation.

    python3 perfbench/record_reference.py

Runs each operation any seed can pick once, refuses to record an output
that fails the benchmark's own checks (exit code, verify status and case
count, oracle match), and writes ``reference.json`` labelled with the
commit checked out.  It refuses to run when ``src`` has uncommitted
changes, so the digests always belong to that commit.  Run it only at a
commit whose outputs are known to be right: the benchmark then counts any
operation whose stdout differs as failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
import time

import run
import workloads


def git(*args):
    return subprocess.run(["git", *args], capture_output=True, text=True,
                          cwd=run.ROOT, check=True).stdout.strip()


def main():
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    if git("status", "--porcelain", "--", "src"):
        print("src has uncommitted changes; commit them first", file=sys.stderr)
        return 1
    commit = git("rev-parse", "HEAD")
    digests = {}
    started = time.perf_counter()
    for argv in workloads.all_operations(run.workload_names(run.load_spec())):
        key = workloads.op_key(argv)
        code, out, err, dt = run.run_process(
            [sys.executable, "-m", "deltaq1", *argv], timeout=600)
        digests[key] = hashlib.sha256(out).hexdigest()
        problems = run.check(argv, code, out, digests)
        if problems:
            run.report_failure(argv, problems, err)
            return 1
        print("%-36s %.2f s %s" % (key, dt, digests[key][:16]))
    with open(run.HERE / "reference.json", "w") as f:
        json.dump({"commit": commit, "digests": digests}, f, indent=2,
                  sort_keys=True)
        f.write("\n")
    print("recorded %d digests in %.1f s" % (len(digests), time.perf_counter() - started))
    return 0


if __name__ == "__main__":
    sys.exit(main())

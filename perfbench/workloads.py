"""The benchmark's workloads: fixed lists of deltaq1 CLI operations.

Each operation is the argv of one ``python -m deltaq1`` call.  The seed
orders a workload's operations and, for ``expand``, picks k of
``expand 9 k --oracle``; the program sees only the resulting argv.
"""

from __future__ import annotations

import random

# The workload names and their reasons are in BENCHMARK.json; this module
# only builds each workload's operations.  On a 2-vCPU Xeon VM the host's
# speed drifts by 15-20% over minutes, and only runs of about a minute keep
# the spread between runs inside the bounds; the time budget of a full
# benchmark allows two workloads of that length.  So the oracle and the model
# expansions share the ``expand`` workload, and the per-layer metrics tell
# the two routes apart.

ORACLE_KS = range(2, 8)
VERIFY_SUITES = ("eq1", "eq2", "bijection", "involution", "hilbert", "schur",
                 "haglund")


def _fixed_ops(name, k):
    if name == "expand":
        return [
            # the oracle route: expansion plus the eigenoperator cross-check
            ["expand", "9", str(k), "--oracle"],
            ["expand", "10", "5", "--oracle"],
            ["expand", "8", "3", "--oracle", "--basis", "s"],
            # the combinatorial models alone
            ["hilbert", "8", "--k", "4"],
            ["schur", "9", "4"],
            ["expand", "10", "5"],
            ["expand", "9", "4", "--basis", "m"],
            ["expand", "8", "4", "--basis", "f"],
        ]
    if name == "verify_suites":
        return [["verify", suite] for suite in VERIFY_SUITES]
    raise ValueError("unknown workload %r" % (name,))


def operations(name, seed):
    """The operation list of one workload for one seed."""
    rng = random.Random("%s/%d" % (name, seed))
    ops = _fixed_ops(name, rng.choice(ORACLE_KS))
    rng.shuffle(ops)
    return ops


def all_operations(names):
    """Every operation any seed can pick in the named workloads, each once."""
    seen = {}
    for name in names:
        for k in ORACLE_KS:
            for argv in _fixed_ops(name, k):
                seen[op_key(argv)] = argv
    return list(seen.values())


def op_key(argv):
    return " ".join(argv)

"""Traced run of one deltaq1 CLI operation, for the per-layer metrics.

Run as ``python3 perfbench/tracer.py --spans FILE -- <deltaq1 argv>`` with
``src`` on ``PYTHONPATH``.  The process imports the package, replaces the
functions and methods listed in ``SPANS`` and ``COUNTERS`` with recording
wrappers (module and class attributes are patched from outside; nothing
under ``src/`` changes), runs ``deltaq1.cli.main`` on the argv with stdout
captured, and prints one JSON line: the exit code, the captured stdout and
the layer metrics.  Spans stay in memory until the operation ends and are
then written to FILE as JSON lines ``[thread, id, parent, name, start,
end]``, with times from ``time.perf_counter``.

A span's self time is its duration minus the time covered by its child
spans on the same thread.  Work that a ``verify`` suite hands to its thread
pool therefore counts in the pool threads' spans, not in ``run_suite``, and
a pool thread's spans include its waits for the interpreter lock, so the
self times of one layer summed over threads can exceed the wall time.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import sys
import threading
import time
import traceback
from collections import Counter

MODULES = (
    "partitions", "tarith", "symfunc", "specialize", "dyck", "msequences",
    "diagrams", "bijection", "oracle", "verify", "cli",
)


def _objects(counts, name, args, result):
    counts[name + ".objects"] += len(result)


def _gcd_operands(counts, name, args, result):
    tarith = sys.modules["deltaq1.tarith"]
    if min(tarith._as_tpoly(x).degree for x in args[:2]) <= 0:
        counts[name + ".const_calls"] += 1


def _t_degree(counts, name, args, result):
    top = max((c.num.degree for _, c in result.terms()), default=0)
    counts["oracle.max_t_degree"] = max(counts["oracle.max_t_degree"], top)


def _cases(counts, name, args, result):
    counts["verify.cases"] += result["cases"]


# (module, attribute, metric prefix, hook run on each result).  Each entry
# records a span and yields ``<prefix>.calls`` and ``<prefix>.s``.
SPANS = (
    ("tarith", "poly_gcd", "tarith.poly_gcd", _gcd_operands),
    ("tarith", "divexact", "tarith.divexact", None),
    ("symfunc", "SymFuncExpr.convert", "symfunc.convert", None),
    ("symfunc", "plethysm_geometric", "symfunc.plethysm_geometric", None),
    ("symfunc", "hall_inner", "symfunc.hall_inner", None),
    ("specialize", "forgotten_at_one_minus_t",
     "specialize.forgotten_at_one_minus_t", None),
    ("oracle", "delta_e", "oracle.delta_e", _t_degree),
    ("oracle", "delta_general", "oracle.delta_general", None),
    ("msequences", "osp_polynomial", "msequences.osp_polynomial", None),
    ("msequences", "ssyt_polynomial", "msequences.ssyt_polynomial", None),
    ("msequences", "generic_polynomial", "msequences.generic_polynomial", None),
    ("msequences", "msequence_polynomial",
     "msequences.msequence_polynomial", None),
    ("msequences", "msequences", "msequences.msequences", _objects),
    ("dyck", "enumerate_paths", "dyck.enumerate_paths", _objects),
    ("dyck", "enumerate_decorated", "dyck.enumerate_decorated", _objects),
    ("diagrams", "diagrams_of_weight", "diagrams.diagrams_of_weight", _objects),
    ("diagrams", "involution", "diagrams.involution", None),
    ("bijection", "decorated_to_msequence",
     "bijection.decorated_to_msequence", None),
    ("bijection", "msequence_to_decorated",
     "bijection.msequence_to_decorated", None),
    ("verify", "run_suite", "verify.run_suite", _cases),
    ("cli", "main", "cli.main", None),
)

# (module, attribute, counter): calls counted without a span.  The TRat
# entries count arithmetic method calls, including those one method makes
# of another (a subtraction is a negation plus an addition).
COUNTERS = tuple(
    ("tarith", "TRat." + op, "tarith.TRat.ops")
    for op in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
               "__rmul__", "__truediv__", "__neg__")
) + (("partitions", "Partition.__init__", "partitions.Partition.created"),)

# Every per-layer metric this file can report.
METRICS = frozenset(
    [prefix + ".calls" for _, _, prefix, _ in SPANS]
    + [prefix + ".s" for _, _, prefix, _ in SPANS]
    + [name for _, _, name in COUNTERS]
    + [
        "tarith.poly_gcd.const_frac",
        "msequences.msequences.objects",
        "dyck.enumerate_paths.objects",
        "dyck.enumerate_decorated.objects",
        "diagrams.diagrams_of_weight.objects",
        "oracle.max_t_degree",
        "verify.cases",
        "symfunc.tables.built",
        "cli.stdout_bytes",
    ]
)


class _ThreadBuffer:
    """What one thread recorded: counts, self times, open and closed spans."""

    def __init__(self, thread):
        self.thread = thread
        self.counts = Counter()
        self.self_s = Counter()
        self.stack = []  # [span id, time covered by children]
        self.spans = []
        self.next_id = 0


class Tracer:
    """Recording wrappers for one process.

    Each thread writes only to its own buffer, so the wrappers take no lock
    on the hot path; the lock guards the list of buffers.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._buffers = []

    def _buffer(self):
        try:
            return self._local.buffer
        except AttributeError:
            buf = _ThreadBuffer(threading.get_ident())
            with self._lock:
                self._buffers.append(buf)
            self._local.buffer = buf
            return buf

    def span(self, fn, prefix, hook):
        def wrapper(*args, **kwargs):
            buf = self._buffer()
            span_id = buf.next_id
            buf.next_id += 1
            parent = buf.stack[-1][0] if buf.stack else -1
            frame = [span_id, 0.0]
            buf.stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                buf.stack.pop()
                duration = end - start
                if buf.stack:
                    buf.stack[-1][1] += duration
                buf.self_s[prefix] += duration - frame[1]
                buf.counts[prefix + ".calls"] += 1
                buf.spans.append((span_id, parent, prefix, start, end))
            if hook is not None:
                hook(buf.counts, prefix, args, result)
            return result

        return wrapper

    def counter(self, fn, name):
        def wrapper(*args, **kwargs):
            self._buffer().counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        """Patch every entry of SPANS and COUNTERS into the loaded package."""
        modules = {m: importlib.import_module("deltaq1." + m) for m in MODULES}
        for mod, attr, prefix, hook in SPANS:
            _patch(modules[mod], attr, lambda fn: self.span(fn, prefix, hook))
        for mod, attr, name in COUNTERS:
            _patch(modules[mod], attr, lambda fn: self.counter(fn, name))

    def metrics(self):
        """Counts, and self times as ``<prefix>.s``, summed over threads."""
        total = Counter()
        with self._lock:
            buffers = list(self._buffers)
        for buf in buffers:
            for name, value in buf.counts.items():
                _accumulate(total, name, value)
            for prefix, seconds in buf.self_s.items():
                total[prefix + ".s"] += seconds
        return total

    def write_spans(self, path):
        with self._lock:
            buffers = list(self._buffers)
        with open(path, "w") as out:
            for buf in buffers:
                for span in buf.spans:
                    out.write(json.dumps([buf.thread, *span]) + "\n")


def _patch(module, attr, make):
    """Replace ``module.attr`` (or ``module.Class.method``) by ``make(it)``."""
    if "." in attr:
        cls_name, method = attr.split(".")
        cls = getattr(module, cls_name)
        setattr(cls, method, make(cls.__dict__[method]))
        return
    original = getattr(module, attr)
    replacement = make(original)
    # The function is also bound under its name in every module that
    # imported it, and in the package namespace.
    for loaded in list(sys.modules.values()):
        if getattr(loaded, "__name__", "").split(".")[0] != "deltaq1":
            continue
        for key, value in list(vars(loaded).items()):
            if value is original:
                setattr(loaded, key, replacement)


def _accumulate(total, name, value):
    if name == "oracle.max_t_degree":
        total[name] = max(total[name], value)
    else:
        total[name] += value


def table_builds():
    """Transition tables built so far: misses of the two table caches."""
    symfunc = sys.modules["deltaq1.symfunc"]
    return symfunc._to_p.cache_info().misses + symfunc._from_p.cache_info().misses


def trace_operation(argv, spans_path):
    """Run one CLI operation under the tracer; return exit code, stdout and
    metrics."""
    import deltaq1.cli

    tracer = Tracer()
    tracer.install()
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        try:
            code = deltaq1.cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # report the failure like the CLI's own traceback
            traceback.print_exc()
            code = 1
    stdout = captured.getvalue()
    metrics = tracer.metrics()
    metrics["symfunc.tables.built"] = table_builds()
    metrics["cli.stdout_bytes"] = len(stdout.encode())
    tracer.write_spans(spans_path)
    return {"exit": code, "stdout": stdout, "metrics": metrics}


def merge(per_op):
    """Layer metrics of a whole pass from the metrics of its operations."""
    total = Counter()
    for metrics in per_op:
        for name, value in metrics.items():
            _accumulate(total, name, value)
    calls = total["tarith.poly_gcd.calls"]
    total["tarith.poly_gcd.const_frac"] = (
        total["tarith.poly_gcd.const_calls"] / calls if calls else 0.0
    )
    return total


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="file for the spans")
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    print(json.dumps(trace_operation(argv, args.spans)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

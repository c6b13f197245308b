"""Timing loop, exact-check bookkeeping and the statistics the workloads share."""

from __future__ import annotations

import math
import os
import statistics
import sys
import time
import traceback
from collections import namedtuple

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")

OpError = namedtuple("OpError", "kind message")

CLOCK = time.perf_counter

# Seconds reference() takes on an undisturbed 2-vCPU Intel Xeon virtual
# machine with Python 3.11; every reported time is scaled to this speed.
REF_SECONDS = 0.00033
_REF_A = tuple((i * 7919) % 100003 - 50000 for i in range(16))
_REF_B = tuple((i * 104729) % 100019 - 50000 for i in range(16))


def reference() -> float:
    """Seconds for a fixed pure-Python loop of integer convolutions, shaped
    like the power-basis products cycsynth spends its time in but
    independent of it.

    Other tenants of the machine slow everything running here by 15-50% for
    seconds to minutes at a time.  Timing this loop next to every op and
    scaling the op by REF_SECONDS / (loop time) removes that slowdown, which
    medians and fastest repeats of the op alone do not.
    """
    t0 = CLOCK()
    for _ in range(12):
        conv = [0] * 31
        for i, a in enumerate(_REF_A):
            for j, b in enumerate(_REF_B):
                conv[i + j] += a * b
    return CLOCK() - t0


def scaled_call(fn, *args, **kwargs):
    """(seconds scaled to reference speed, raw seconds, result) of the call,
    with reference() timed just before and just after."""
    before = reference()
    t0 = CLOCK()
    out = fn(*args, **kwargs)
    seconds = CLOCK() - t0
    after = reference()
    return seconds * 2 * REF_SECONDS / (before + after), seconds, out


def tail(values):
    """(value, percentile, samples) of the highest percentile with at least
    ten samples beyond it.  Below 21 samples that percentile would not lie
    above the median, so the median is returned as p50."""
    xs = sorted(values)
    n = len(xs)
    if n < 21:
        return statistics.median(xs), 50, n
    return xs[n - 11], math.floor(100 * (n - 10) / n), n


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def speed_metrics(records, items):
    """ops_per_s and latency_ms from (input, cell, scaled seconds, raw
    seconds) records.

    An input's latency is the median of its scaled repeats.  ops_per_s is
    items[input] ops per input (zero leaves an input out) over the summed
    latencies: one pass over the inputs.  latency_ms is the geometric mean
    over cells of the mean latency of the cell's inputs, which weighs every
    cell equally although their costs differ 50x.  Also returns printable
    lines with each cell's raw median and the pooled tail, which move with
    the machine's load and are not compared between runs.
    """
    repeats, cell_of, raw = {}, {}, {}
    for key, cell, seconds, raw_seconds in records:
        repeats.setdefault(key, []).append(seconds)
        cell_of[key] = cell
        raw.setdefault(cell, []).append(raw_seconds)
    latency_of = {key: statistics.median(v) for key, v in repeats.items()}
    cell_inputs = {}
    for key, seconds in latency_of.items():
        cell_inputs.setdefault(cell_of[key], []).append(seconds)
    latency = {cell: statistics.fmean(v) for cell, v in cell_inputs.items()}
    medians = {cell: statistics.median(v) for cell, v in raw.items()}
    rate = (sum(items[key] for key in latency_of)
            / sum(seconds for key, seconds in latency_of.items() if items[key]))
    factor, pct, n = tail([raw_seconds / medians[cell] for _, cell, _, raw_seconds in records])
    scale = statistics.median(seconds / raw_seconds for _, _, seconds, raw_seconds in records)
    lines = ["%s: samples=%d inputs=%d latency_ms=%.3f raw_median_ms=%.3f"
             % (cell, len(raw[cell]), len(cell_inputs[cell]), 1000 * latency[cell],
                1000 * medians[cell]) for cell in raw]
    lines.append("tail: p%d of %d raw latency/cell-median ratios = %.4f" % (pct, n, factor))
    lines.append("reference-speed scale: median %.4f" % scale)
    return {"ops_per_s": (rate, "1/s"),
            "latency_ms": (1000 * geomean(latency.values()), "ms")}, lines


def call_op(op, arg):
    """Run one op; an exception becomes an OpError output, counted as failed."""
    try:
        return op(arg)
    except Exception as exc:  # the op boundary: keep running, count the failure
        traceback.print_exc(limit=3, file=sys.stderr)
        return OpError(type(exc).__name__, str(exc))


def run_passes(pool, op, seconds: float):
    """Time `op` on each pool entry in turn, pass after pass, until `seconds`
    have elapsed; the first pass always completes.

    Returns [(pool index, scaled latency seconds, raw seconds, output)].
    """
    records = []
    start = CLOCK()
    while True:
        for idx, arg in enumerate(pool):
            records.append((idx,) + scaled_call(call_op, op, arg))
            if CLOCK() - start >= seconds and len(records) >= len(pool):
                return records


class Verdicts:
    """Exact check of every output, each distinct (index, output) checked once.

    Repeated ops on one input must reproduce an output already checked, so
    equal outputs share a verdict; any other output is checked afresh.
    """

    def __init__(self, check):
        self.check = check
        self.cache = {}

    def ok(self, idx, out) -> bool:
        if isinstance(out, OpError):
            return False
        key = (idx, out)
        got = self.cache.get(key)
        if got is None:
            try:
                got = bool(self.check(idx, out))
            except Exception:  # a malformed output fails its check
                traceback.print_exc(limit=3, file=sys.stderr)
                got = False
            self.cache[key] = got
        return got

    def failures(self, pairs) -> int:
        return sum(0 if self.ok(idx, out) else 1 for idx, out in pairs)


def unpruned_evals(n: int) -> int:
    """beta_reduce calls of one axis_detect step without pruning: 9 entries
    for the row maxima plus 6 entries for each of 3 (n/2 - 1) candidates."""
    return 9 + 18 * (n // 2 - 1)

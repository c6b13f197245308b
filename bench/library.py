"""Library workloads: the Bloch descent and the ring route, called in-process.

Each workload is a set of (n, T-count) cells.  Its inputs are a pool of
distinct instances per cell from ``random_unitary(ctx, tcount, seed)``,
drawn from the benchmark seed and generated before timing; the pool is laid
out round-robin over the cells and timed pass after pass.
"""

from __future__ import annotations

import random
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass

import cycsynth as cs

import spans
from measure import BENCH, SRC, OpError, Verdicts, call_op, run_passes, scaled_call, \
    speed_metrics, unpruned_evals

# Set-up is measured in fresh interpreters (make_context and the tables it
# holds are cached for the life of a process), several times, and the median
# reported, because one build is short enough for scheduler noise to show.
SETUP_REPEATS = 3


@dataclass(frozen=True)
class Spec:
    cells: tuple  # (n, T-count, distinct instances) triples
    op: str  # "descent" or "ring"


# Why these cells: descent-small-n is the Clifford+T regime, where CycInt
# multiplication and rotation products dominate; descent-large-n is where the
# beta-divisibility chain dominates (72% at n=32) and per-op latency spans
# 0.1-6 s; ring uses n where every ring unitary is a circuit, so norm-based
# valuations dominate and the beta chain barely runs.  n=64 at T-count 50 is
# left out: its op time varies 5x between instances (0.7-3.9 s), more than
# the instances a run can afford average out.  Instance counts grow as cells
# get cheaper, except that n=64 at T-count 100 gets four: its cost varies
# 3-6 s between instances and it sets most of the pass time, so ops_per_s
# follows the mean of its instances.
SPECS = {
    "descent-small-n": Spec(tuple((n, tc, 4) for n in (4, 8, 12) for tc in (50, 200)),
                            "descent"),
    "descent-large-n": Spec(((16, 50, 4), (16, 100, 3), (32, 50, 2), (32, 100, 2),
                             (64, 100, 4)), "descent"),
    "ring": Spec(tuple((n, tc, 3) for n in (4, 8, 12) for tc in (20, 100)), "ring"),
}

# Tiny cells for the benchmark's own tests.
QUICK_SPECS = {
    "descent-small-n": Spec(((4, 4, 1), (8, 4, 1)), "descent"),
    "descent-large-n": Spec(((16, 4, 1),), "descent"),
    "ring": Spec(((4, 4, 1), (8, 4, 1)), "ring"),
}


@dataclass(frozen=True)
class Instance:
    cell: tuple
    u: cs.UnitaryRn
    target: int  # the optimal T-count random_unitary was asked for


def build_tables(ns) -> dict:
    """Contexts for each n with every lazily filled table filled."""
    ctxs = {}
    for n in ns:
        ctx = cs.make_context(n)
        cs.beta_constant(ctx)
        for cr in cs.clifford_group(ctx):
            cs.clifford_unitary(ctx, cr)
        for a in range(ctx.order):
            cs.scalar_gate(ctx, a)
            if a:
                cs.w_gate(ctx, a)
            for p in "xyz":
                cs.rotation_generator(ctx, p, a)
        if n in cs.ringsynth.RING_EQUALITY_NS:
            cs.mu_threshold(ctx)
        ctxs[n] = ctx
    return ctxs


def measure_setup(ns) -> list[float]:
    """Seconds, scaled to reference speed, to import cycsynth and build the
    tables, in fresh interpreters."""
    code = ("import sys; sys.path[:0] = %r; import measure; "
            "print(measure.scaled_call(__import__, 'library')[0] + "
            "measure.scaled_call(lambda: __import__('library').build_tables(%r))[0])"
            % ([SRC, BENCH], list(ns)))
    return [float(subprocess.run([sys.executable, "-c", code], capture_output=True,
                                 check=True, timeout=170, text=True).stdout)
            for _ in range(SETUP_REPEATS)]


def make_pool(spec: Spec, ctxs: dict, workload: str, seed: int) -> list[Instance]:
    """Instances laid out round-robin over the cells: the i-th instance of
    every cell, then the (i+1)-th."""
    rng = random.Random("%s:%d" % (workload, seed))
    pool = []
    for i in range(max(count for _, _, count in spec.cells)):
        for n, tc, count in spec.cells:
            if i < count:
                u, _ = cs.random_unitary(ctxs[n], tc, rng.getrandbits(63))
                pool.append(Instance((n, tc), u, tc))
    return pool


def descent_op(inst: Instance):
    cf = cs.canonical_form(inst.u)
    return cs.to_circuit(cf), cf.tcount()


def ring_op(inst: Instance):
    res = cs.membership(inst.u)
    seq = cs.synthesize_ring(inst.u)
    return res, seq, cs.canonicalize_sequence(seq, inst.u.ctx)


def check_descent(inst: Instance, out) -> bool:
    """The circuit evaluates to u (phase included) with optimal cost."""
    seq, tcount = out
    return (tcount == inst.target and seq.cost() == tcount
            and cs.eval_sequence(seq, inst.u.ctx) == inst.u)


class RingCheck:
    """Member verdict, exact ring circuit, and the three-way agreement: the
    ring circuit rewritten by canonicalize_sequence equals the descent's
    canonical form of u (computed once per instance, outside timing)."""

    def __init__(self):
        self.canonical = {}

    def __call__(self, inst: Instance, out) -> bool:
        res, seq, cf = out
        want = self.canonical.get(inst)
        if want is None:
            want = self.canonical[inst] = cs.canonical_form(inst.u)
        return (res.is_member and cs.eval_sequence(seq, inst.u.ctx) == inst.u
                and cf == want)


def _op_and_check(spec: Spec):
    if spec.op == "descent":
        return descent_op, check_descent, lambda out: out[0].cost()
    return ring_op, RingCheck(), lambda out: out[1].cost()


def cost_ratio(pool, records, cost) -> float:
    """Total W-cost of each instance's first output over total optimal T-count."""
    first = {}
    for idx, _, _, out in records:
        first.setdefault(idx, out)
    emitted = sum(cost(out) for out in first.values() if not isinstance(out, OpError))
    return emitted / sum(inst.target for inst in pool)


def run(workload: str, seed: int, seconds: float, quick: bool):
    spec = (QUICK_SPECS if quick else SPECS)[workload]
    ns = sorted({n for n, _, _ in spec.cells})
    setups = measure_setup(ns)
    ctxs = build_tables(ns)
    pool = make_pool(spec, ctxs, workload, seed)
    op, check, cost = _op_and_check(spec)

    records = run_passes(pool, op, seconds)

    verdicts = Verdicts(lambda idx, out: check(pool[idx], out))
    failed = verdicts.failures((idx, out) for idx, _, _, out in records)
    attempted = len(records)
    speed, summary = speed_metrics([(idx, pool[idx].cell, dt, raw) for idx, dt, raw, _ in records],
                                   dict.fromkeys(range(len(pool)), 1))
    for line in summary:
        print(workload, line)
    ok_share = (attempted - failed) / attempted
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (speed["ops_per_s"][0] * ok_share, "1/s"),
        "latency_ms": speed["latency_ms"],
        "cost_ratio": (cost_ratio(pool, records, cost), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    print("%s: attempted=%d failed=%d failed_ratio=%.6f setup_s=%s"
          % (workload, attempted, failed, failed / attempted, setups))
    return attempted, failed, metrics


def run_traced(workload: str, seed: int, quick: bool, out_dir: str):
    """One pass untraced, then the same pass traced; set-up is traced too.

    The work is fixed by the seed rather than by the clock, so call counts
    repeat exactly between runs with the same seed.
    """
    spec = (QUICK_SPECS if quick else SPECS)[workload]
    ns = sorted({n for n, _, _ in spec.cells})
    tracer = spans.Tracer()
    with spans.install(cs, tracer):
        ctxs = build_tables(ns)
    pool = make_pool(spec, ctxs, workload, seed)
    op, check, _ = _op_and_check(spec)

    plain = []
    plain_s = 0.0
    for inst in pool:
        seconds, _, out = scaled_call(call_op, op, inst)
        plain.append(out)
        plain_s += seconds

    traced = []
    evals_unpruned = 0
    t_traced = 0.0
    with spans.install(cs, tracer):
        for idx, inst in enumerate(pool):
            tracer.op = idx
            steps = tracer.calls["synth.axis_detect"]
            seconds, _, out = scaled_call(call_op, op, inst)
            traced.append(out)
            t_traced += seconds
            steps = tracer.calls["synth.axis_detect"] - steps
            evals_unpruned += steps * unpruned_evals(inst.cell[0])

    verdicts = Verdicts(lambda idx, out: check(pool[idx], out))
    outs = list(enumerate(plain)) + list(enumerate(traced))
    failed = verdicts.failures(outs)
    tracer.write_spans(spans.spans_path(out_dir, workload, seed))
    metrics = spans.layer_metrics(tracer, evals_unpruned)
    metrics["trace.overhead_ratio"] = (t_traced / plain_s, "ratio")
    print("%s traced: untraced_pass_s=%.3f traced_pass_s=%.3f"
          % (workload, plain_s, t_traced))
    return len(outs), failed, metrics

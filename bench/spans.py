"""In-memory call tracing for the cycsynth package, installed from outside it.

install() wraps the public functions and class methods of the package
modules (plus the arithmetic dunders) and patches every module namespace
that imported one of those functions by name, so callers such as
``from .rings import ...`` in another module are traced too.  Wrapping class
attributes (``CycInt.__mul__``, ``BetaConstant.beta_reduce``) reaches every
caller, including private helpers like ``_beta_exp_r`` that are imported by
name elsewhere.

Each timed hook keeps a frame on a stack: self time is the hook's duration
minus the time spent in timed hooks it called.  Hooks in COUNT_ONLY only
count calls; their time is charged to the nearest timed caller, as is the
time of the trivial methods in UNHOOKED, which are not wrapped.  Every hook
also counts (caller hook, callee hook) edges, which gives ratios such as
multiplications per beta_reduce call.  Hooks in SPAN_NAMES additionally
record a span (id, parent span id, op id, name, start, end) that is kept in
memory and written out at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time
from collections import Counter, defaultdict

LAYERS = ("cyclo", "rings", "su2", "so3", "synth", "ringsynth", "cli")

DUNDERS = frozenset(
    ("__init__", "__post_init__", "__mul__", "__rmul__", "__matmul__",
     "__add__", "__sub__", "__neg__")
)

# Trivial predicates and the CycInt constructor run 10^5 times per run and
# cost less than a hook; nothing reads their counts, so they are not hooked.
UNHOOKED = frozenset((
    "cyclo.CycInt.__init__", "cyclo.CycInt.is_zero", "cyclo.CycInt.as_int",
    "rings.RingElem.is_zero", "rings.RingElem.as_int", "rings.RingElem.is_integral",
    "rings.RingElem.key",
))

# Primitives that run 10^4-10^5 times per run and cost about as much as a
# timing hook; timing them would inflate their callers' shares, so their
# hooks only count and their time is charged to the nearest timed caller.
COUNT_ONLY = frozenset((
    "cyclo.CycInt.__add__", "cyclo.CycInt.__sub__", "cyclo.CycInt.__neg__",
    "cyclo.Context.zero", "cyclo.Context.one", "cyclo.Context.from_int",
    "cyclo.Context.zeta",
    "rings.RingElem.__init__", "rings.RingElem.__add__", "rings.RingElem.__sub__",
    "rings.RingElem.__mul__", "rings.RingElem.__neg__", "rings.RingElem.half",
    "rings.RingElem.from_int", "rings.RingElem.zero", "rings.RingElem.one",
    "rings.RingElem.zeta",
    "so3.Rotation.__init__", "su2.UnitaryRn.__init__", "su2.token_w",
))

# Op- and step-level hooks whose individual spans are recorded.
SPAN_NAMES = frozenset((
    "synth.canonical_form", "synth.to_circuit", "synth.membership",
    "synth.canonicalize_sequence", "synth.axis_detect",
    "ringsynth.synthesize_ring", "ringsynth.reduce_column_step",
    "ringsynth.base_case_column", "su2.eval_sequence", "su2.matrix_from_json",
    "so3.clifford_group", "so3.bloch", "cyclo.Context.__init__",
    "rings.BetaConstant.__init__",
    "cli.main", "cli.cmd_synth", "cli.cmd_member", "cli.cmd_fn_census",
))


class Tracer:
    """Per-hook call counts, inclusive and self times, edges and spans."""

    def __init__(self):
        self.clock = time.perf_counter
        self.stack = [[0.0, "", 0]]  # frames: [child seconds, hook name, span id]
        self.calls = Counter()
        self.incl = defaultdict(float)
        self.self_s = defaultdict(float)
        self.edges = Counter()
        self.spans: list[tuple] = []
        self.op = None
        self._next_id = 1

    def _new_id(self) -> int:
        sid = self._next_id
        self._next_id += 1
        return sid

    def count_only(self, name, fn):
        stack, calls, edges = self.stack, self.calls, self.edges

        def hook(*args, **kwargs):
            calls[name] += 1
            edges[(stack[-1][1], name)] += 1
            return fn(*args, **kwargs)

        return functools.wraps(fn)(hook)

    def timed(self, name, fn):
        stack, calls, edges, clock = self.stack, self.calls, self.edges, self.clock
        incl, self_s, spans = self.incl, self.self_s, self.spans
        record = name in SPAN_NAMES

        def hook(*args, **kwargs):
            parent = stack[-1]
            edges[(parent[1], name)] += 1
            frame = [0.0, name, self._new_id() if record else parent[2]]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dt = t1 - t0
                parent[0] += dt
                calls[name] += 1
                incl[name] += dt
                self_s[name] += dt - frame[0]
                if record:
                    spans.append((frame[2], parent[2], self.op, name, t0, t1))

        return functools.wraps(fn)(hook)

    def timed_generator(self, name, fn):
        """Times each resumption of a generator as one frame of `name`."""
        stack, calls, edges, clock = self.stack, self.calls, self.edges, self.clock
        incl, self_s = self.incl, self.self_s

        def hook(*args, **kwargs):
            edges[(stack[-1][1], name)] += 1
            calls[name] += 1
            it = fn(*args, **kwargs)
            while True:
                parent = stack[-1]
                frame = [0.0, name, parent[2]]
                stack.append(frame)
                t0 = clock()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    dt = clock() - t0
                    stack.pop()
                    parent[0] += dt
                    incl[name] += dt
                    self_s[name] += dt - frame[0]
                yield item

        return functools.wraps(fn)(hook)

    def hook_for(self, name, fn):
        if name in COUNT_ONLY:
            return self.count_only(name, fn)
        if inspect.isgeneratorfunction(fn):
            return self.timed_generator(name, fn)
        return self.timed(name, fn)

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for sid, parent, op, name, t0, t1 in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "op": op,
                                     "name": name, "start": t0, "end": t1}) + "\n")


def _hook_targets(package):
    """(owner, attribute, function, hook name, wrapper kind) for each hook."""
    for layer in LAYERS:
        mod = importlib.import_module("%s.%s" % (package.__name__, layer))
        for attr, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                if not attr.startswith("_"):
                    yield mod, attr, obj, "%s.%s" % (layer, attr), None
            elif inspect.isclass(obj) and obj.__module__ == mod.__name__ \
                    and not attr.startswith("_"):
                for mname, member in vars(obj).items():
                    if mname.startswith("_") and mname not in DUNDERS:
                        continue
                    kind = type(member) if isinstance(member, (classmethod, staticmethod)) else None
                    fn = member.__func__ if kind else member
                    name = "%s.%s.%s" % (layer, obj.__name__, getattr(fn, "__name__", ""))
                    if inspect.isfunction(fn) and name not in UNHOOKED:
                        yield obj, mname, fn, name, kind


class install:
    """Context manager: hooks the package while active, restores it on exit."""

    def __init__(self, package, tracer: Tracer):
        self.package = package
        self.tracer = tracer
        self._undo: list[tuple] = []

    def __enter__(self):
        wrapped = {}
        for owner, attr, fn, name, kind in list(_hook_targets(self.package)):
            hook = wrapped.get(id(fn))
            if hook is None:
                hook = wrapped[id(fn)] = self.tracer.hook_for(name, fn)
            self._patch(owner, attr, kind(hook) if kind else hook)
        # Names imported into other modules (and the package namespace) point
        # at the original function objects; repoint them at the hooks.
        modules = [self.package] + [
            importlib.import_module("%s.%s" % (self.package.__name__, la)) for la in LAYERS]
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in wrapped:
                    self._patch(mod, attr, wrapped[id(obj)])
        return self.tracer

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def __exit__(self, *exc):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)
        return False


def spans_path(out_dir: str, workload: str, seed: int) -> str:
    return os.path.join(out_dir, "spans-%s-seed%d.jsonl" % (workload, seed))


# Reported per-layer metrics: name -> (statistic, hook name, unit).
REPORTED = (
    ("cyclo.mul.calls", "calls", "cyclo.CycInt.__mul__", "count"),
    ("cyclo.mul.self_s", "self", "cyclo.CycInt.__mul__", "s"),
    ("cyclo.galois.calls", "calls", "cyclo.CycInt.galois", "count"),
    ("cyclo.galois.self_s", "self", "cyclo.CycInt.galois", "s"),
    ("cyclo.norm.calls", "calls", "cyclo.CycInt.norm", "count"),
    ("cyclo.norm.self_s", "self", "cyclo.CycInt.norm", "s"),
    ("cyclo.valuation.calls", "calls", "cyclo.CycInt.valuation", "count"),
    ("rings.beta_reduce.calls", "calls", "rings.BetaConstant.beta_reduce", "count"),
    ("rings.beta_reduce.self_s", "self", "rings.BetaConstant.beta_reduce", "s"),
    ("rings.beta_reduce.s", "incl", "rings.BetaConstant.beta_reduce", "s"),
    ("rings.ringelem_new.calls", "calls", "rings.RingElem.__init__", "count"),
    ("so3.rotation_matmul.calls", "calls", "so3.Rotation.__matmul__", "count"),
    ("so3.rotation_matmul.self_s", "self", "so3.Rotation.__matmul__", "s"),
    ("so3.bloch.calls", "calls", "so3.bloch", "count"),
    ("so3.bloch.self_s", "self", "so3.bloch", "s"),
    ("so3.rotation_generator.calls", "calls", "so3.rotation_generator", "count"),
    ("su2.matmul.calls", "calls", "su2.UnitaryRn.__matmul__", "count"),
    ("su2.matmul.self_s", "self", "su2.UnitaryRn.__matmul__", "s"),
    ("su2.eval_sequence.calls", "calls", "su2.eval_sequence", "count"),
    ("su2.eval_sequence.self_s", "self", "su2.eval_sequence", "s"),
    ("su2.matrix_from_json.self_s", "self", "su2.matrix_from_json", "s"),
    ("synth.canonical_form.s", "incl", "synth.canonical_form", "s"),
    ("synth.axis_detect.calls", "calls", "synth.axis_detect", "count"),
    ("synth.axis_detect.self_s", "self", "synth.axis_detect", "s"),
    ("synth.to_circuit.self_s", "self", "synth.to_circuit", "s"),
    ("synth.canonicalize_sequence.self_s", "self", "synth.canonicalize_sequence", "s"),
    ("ringsynth.synthesize_ring.s", "incl", "ringsynth.synthesize_ring", "s"),
    ("ringsynth.reduce_column_step.calls", "calls", "ringsynth.reduce_column_step", "count"),
    ("ringsynth.reduce_column_step.self_s", "self", "ringsynth.reduce_column_step", "s"),
    ("ringsynth.base_case_column.self_s", "self", "ringsynth.base_case_column", "s"),
    ("ringsynth.iter_census.s", "incl", "ringsynth.iter_census", "s"),
    ("cli.cmd_synth.self_s", "self", "cli.cmd_synth", "s"),
    ("cli.cmd_member.self_s", "self", "cli.cmd_member", "s"),
    ("cli.cmd_fn_census.self_s", "self", "cli.cmd_fn_census", "s"),
)

# Ratios of edge counts to call counts: name -> (caller, callee, unit).
RATIOS = (
    ("rings.beta_reduce.muls_per_call", "rings.BetaConstant.beta_reduce",
     "cyclo.CycInt.__mul__", "mul/call"),
    ("synth.exponent_evals_per_step", "synth.axis_detect",
     "rings.BetaConstant.beta_reduce", "evals/step"),
    ("ringsynth.k_tried_per_step", "ringsynth.reduce_column_step",
     "ringsynth.ColumnRn.apply_step", "k/step"),
)


def layer_metrics(tracer: Tracer, evals_unpruned: int) -> dict:
    """Named per-layer metrics, each layer's total self time, and the
    unpruned exponent evaluations per descent step for comparison."""
    table = {"calls": tracer.calls, "self": tracer.self_s, "incl": tracer.incl}
    out = {}
    for name, stat, hook, unit in REPORTED:
        out[name] = (table[stat][hook], unit)
    for name, caller, callee, unit in RATIOS:
        calls = tracer.calls[caller]
        out[name] = (tracer.edges[(caller, callee)] / calls if calls else 0.0, unit)
    steps = tracer.calls["synth.axis_detect"]
    out["synth.exponent_evals_unpruned_per_step"] = (
        evals_unpruned / steps if steps else 0.0, "evals/step")
    for layer in LAYERS:
        prefix = layer + "."
        out[layer + ".self_s"] = (
            sum(v for k, v in tracer.self_s.items() if k.startswith(prefix)), "s")
    return out

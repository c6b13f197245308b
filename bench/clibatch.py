"""The cli-batch workload: the cycsynth CLI run as subprocesses on JSONL files.

One round runs four invocations: ``synth --format json`` on a seeded n=8
JSONL with ``--jobs 1`` and again with ``--jobs`` = the CPUs available,
``member --format json`` on an n=12 JSONL, and ``fn-census`` to 10^6 with a
checkpoint.  Rounds repeat until the time is up; the first always completes.
Together they cover JSON parsing (with the unitarity check), the process
pool, the k=v stats round-trip, and CSV and checkpoint writes.
"""

from __future__ import annotations

import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass

import cycsynth as cs
from cycsynth import cli

import spans
from measure import CLOCK, SRC, Verdicts, scaled_call, speed_metrics, unpruned_evals


@dataclass(frozen=True)
class Spec:
    synth_n: int
    synth_tcount: int
    synth_lines: int
    member_n: int
    member_tcount: int
    member_lines: int
    census_max: int


# 40 synth lines and 16 member lines take 2-3 s each, about half the census.
SPEC = Spec(8, 50, 40, 12, 50, 16, 1_000_000)
QUICK_SPEC = Spec(8, 4, 3, 12, 4, 2, 10_000)

# Known census results: max -> (rows with the condition true, summary row).
CENSUS = {1_000_000: (120861, "1000000,120861,500000"), 10_000: (1744, "10000,218,625")}

SETUP_REPEATS = 3
JOBS = len(os.sched_getaffinity(0))
KINDS = ("synth-j1", "synth-jN", "member", "census")


class Workdir:
    """Seeded inputs, output paths, and the expected results, in one place."""

    def __init__(self, out_dir: str, spec: Spec, seed: int):
        self.spec = spec
        self.path = os.path.join(out_dir, "cli-work-%d" % os.getpid())
        os.makedirs(self.path, exist_ok=True)
        rng = random.Random("cli-batch:%d" % seed)
        self.synth = self._instances(spec.synth_n, spec.synth_tcount, spec.synth_lines, rng)
        self.member = self._instances(spec.member_n, spec.member_tcount, spec.member_lines, rng)
        self.synth_in = self._write_jsonl("synth.jsonl", self.synth)
        self.member_in = self._write_jsonl("member.jsonl", self.member)
        self.one_in = self._write_jsonl("one.jsonl", self.synth[:1])
        self.census_csv = os.path.join(self.path, "census.csv")
        self.census_ck = os.path.join(self.path, "census.ck")

    @staticmethod
    def _instances(n, tcount, lines, rng):
        ctx = cs.make_context(n)
        return [cs.random_unitary(ctx, tcount, rng.getrandbits(63))[0] for _ in range(lines)]

    def _write_jsonl(self, name, matrices) -> str:
        path = os.path.join(self.path, name)
        with open(path, "w") as fh:
            for u in matrices:
                fh.write(json.dumps(cs.matrix_to_json(u), sort_keys=True) + "\n")
        return path

    def output(self, name) -> str:
        return os.path.join(self.path, name)

    def argv(self, kind: str) -> list[str]:
        s = self.spec
        if kind == "setup":
            return ["synth", "--n", str(s.synth_n), "--input", self.one_in, "--format", "json",
                    "--output", self.output("one.out")]
        if kind in ("synth-j1", "synth-jN"):
            jobs = 1 if kind == "synth-j1" else JOBS
            return ["synth", "--n", str(s.synth_n), "--input", self.synth_in, "--format",
                    "json", "--jobs", str(jobs), "--output", self.output(kind + ".out")]
        if kind == "member":
            return ["member", "--n", str(s.member_n), "--input", self.member_in,
                    "--format", "json"]
        # A stale checkpoint would make the census resume instead of run.
        for path in (self.census_csv, self.census_ck):
            if os.path.exists(path):
                os.remove(path)
        return ["fn-census", "--max", str(s.census_max), "--output", self.census_csv,
                "--checkpoint", self.census_ck]

    def lines(self, kind: str) -> int:
        if kind == "member":
            return self.spec.member_lines
        return 1 if kind == "census" else self.spec.synth_lines

    def result(self, kind: str, stdout: bytes):
        """What an invocation produced: stdout for member, the output file for
        synth, and (CSV, checkpoint) for the census; None if a file is missing."""
        try:
            if kind == "member":
                return stdout
            if kind == "census":
                return _read(self.census_csv), _read(self.census_ck)
            return _read(self.output(kind + ".out"))
        except FileNotFoundError:
            return None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        shutil.rmtree(self.path, ignore_errors=True)
        return False


class Checker:
    """Exact checks of CLI output; verdicts cached per distinct line or file."""

    def __init__(self, work: Workdir):
        self.work = work
        self.synth_ctx = cs.make_context(work.spec.synth_n)
        self.member_ctx = cs.make_context(work.spec.member_n)
        self.synth_lines = Verdicts(self._synth_line)
        self.member_lines = Verdicts(self._member_line)
        self.census = Verdicts(self._census)

    def _circuit_ok(self, text, ctx, u, tcount) -> bool:
        seq = cs.GateSequence.from_text(text, ctx)
        return seq.cost() == tcount and cs.eval_sequence(seq, ctx) == u

    def _synth_line(self, idx, line) -> bool:
        blob = json.loads(line)
        tcount = self.work.spec.synth_tcount
        return (set(blob) == {"circuit", "m", "tcount"} and blob["tcount"] == tcount
                and self._circuit_ok(blob["circuit"], self.synth_ctx,
                                     self.work.synth[idx], tcount))

    def _member_line(self, idx, line) -> bool:
        blob = json.loads(line)
        return (blob.get("member") is True and blob.get("reason") is None
                and self._circuit_ok(blob["circuit"], self.member_ctx,
                                     self.work.member[idx], self.work.spec.member_tcount))

    def _census(self, _, out) -> bool:
        csv, checkpoint = out
        top = self.work.spec.census_max
        hits, summary = CENSUS[top]
        lines = csv.decode().splitlines()
        rows = lines[:-1]
        return (len(rows) == top // 2 and lines[-1] == summary
                and all(r.startswith("%d," % (2 * i + 2)) for i, r in enumerate(rows))
                and sum(r.endswith(",true") for r in rows) == hits
                and json.loads(checkpoint) == {"max": top, "next_n": top + 2, "hits": hits})

    def failures(self, kind: str, returncode: int, out, reference: bytes | None) -> int:
        """Failed ops of one invocation: every line when the exit code is not 0
        or the line count is wrong, else each line that fails its check or (for
        --jobs N) differs from the --jobs 1 output of the same round."""
        expected = self.work.lines(kind)
        if returncode != 0 or out is None:
            return expected
        if kind == "census":
            return 0 if self.census.ok(0, out) else 1
        lines = out.decode(errors="replace").splitlines()
        if len(lines) != expected:
            return expected
        ref = reference.decode(errors="replace").splitlines() if reference is not None else None
        verdicts = self.member_lines if kind == "member" else self.synth_lines
        return sum(1 for i, ln in enumerate(lines)
                   if not verdicts.ok(i, ln) or (ref is not None and (i >= len(ref) or ln != ref[i])))


def circuit_costs(out: bytes, ctx) -> int:
    """Total W-cost of the circuits in a JSONL output (lines that do not
    parse add nothing; they are already counted as failed)."""
    total = 0
    for ln in (out or b"").decode(errors="replace").splitlines():
        try:
            total += cs.GateSequence.from_text(json.loads(ln)["circuit"], ctx).cost()
        except (ValueError, KeyError, TypeError, AttributeError):
            pass
    return total


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _subprocess(root: str, argv: list[str]):
    """(scaled seconds, raw seconds, exit status, stdout) of one CLI run."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    seconds, raw, proc = scaled_call(
        subprocess.run, [sys.executable, "-m", "cycsynth", *argv], cwd=root, env=env,
        capture_output=True, timeout=170)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr.decode(errors="replace"))
    return seconds, raw, proc.returncode, proc.stdout


def run(root: str, seed: int, seconds: float, quick: bool, out_dir: str):
    with Workdir(out_dir, QUICK_SPEC if quick else SPEC, seed) as work:
        return _run(root, work, seconds)


def _run(root, work, seconds):
    checker = Checker(work)
    setups = [_subprocess(root, work.argv("setup"))[0] for _ in range(SETUP_REPEATS)]
    records = []  # (kind, scaled seconds, returncode, output or None, raw seconds)
    start = CLOCK()
    while not records or CLOCK() - start < seconds:
        for kind in KINDS:
            dt, raw, code, stdout = _subprocess(root, work.argv(kind))
            records.append((kind, dt, code, work.result(kind, stdout) if code == 0 else None,
                            raw))

    attempted = failed = 0
    reference = None
    for kind, _, code, data, _ in records:
        if kind == "synth-j1":
            reference = data
        attempted += work.lines(kind)
        failed += checker.failures(kind, code, data, reference if kind == "synth-jN" else None)

    # ops_per_s counts JSONL lines of the synth and member invocations,
    # interpreter start included.
    speed, summary = speed_metrics([(kind, kind, dt, raw) for kind, dt, _, _, raw in records],
                                   {kind: work.lines(kind) if kind != "census" else 0
                                    for kind in KINDS})
    for line in summary:
        print("cli-batch", line)
    first = {r[0]: r[3] for r in reversed(records)}
    emitted = (circuit_costs(first["synth-j1"], checker.synth_ctx)
               + circuit_costs(first["member"], checker.member_ctx))
    optimal = (work.spec.synth_lines * work.spec.synth_tcount
               + work.spec.member_lines * work.spec.member_tcount)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (speed["ops_per_s"][0] * (attempted - failed) / attempted, "1/s"),
        "latency_ms": speed["latency_ms"],
        "cost_ratio": (emitted / optimal, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024, "MB"),
    }
    census_s = statistics.median(r[1] for r in records if r[0] == "census")
    jobs_s = statistics.median(r[1] for r in records if r[0] == "synth-jN")
    print("cli-batch: attempted=%d failed=%d failed_ratio=%.6f setup_s=%s"
          % (attempted, failed, failed / attempted, setups))
    print("cli-batch: jobs=%d parallel_lines_per_s=%.3f census_n_per_s=%.1f"
          % (JOBS, work.spec.synth_lines / jobs_s, work.spec.census_max / census_s))
    return attempted, failed, metrics


def run_traced(seed: int, quick: bool, out_dir: str):
    """The same invocations in-process through cli.main, once untraced and
    once traced (--jobs N is left out: its workers would run untraced)."""
    with Workdir(out_dir, QUICK_SPEC if quick else SPEC, seed) as work:
        return _run_traced(work, seed, out_dir)


def _in_process(work, kind):
    out = io.StringIO()
    code = cli.main(work.argv(kind), out=out)
    return code, work.result(kind, out.getvalue().encode()) if code == 0 else None


def _run_traced(work, seed, out_dir):
    checker = Checker(work)
    kinds = ("synth-j1", "member", "census")
    tracer = spans.Tracer()
    with spans.install(cs, tracer):
        cli.main(work.argv("setup"), out=io.StringIO())
    results = []
    t_plain = 0.0
    for kind in kinds:
        seconds, _, out = scaled_call(_in_process, work, kind)
        results.append((kind,) + out)
        t_plain += seconds
    t_traced = 0.0
    evals_unpruned = 0
    with spans.install(cs, tracer):
        for op, kind in enumerate(kinds):
            tracer.op = op
            steps = tracer.calls["synth.axis_detect"]
            seconds, _, out = scaled_call(_in_process, work, kind)
            results.append((kind,) + out)
            t_traced += seconds
            n = work.spec.member_n if kind == "member" else work.spec.synth_n
            evals_unpruned += (tracer.calls["synth.axis_detect"] - steps) * unpruned_evals(n)
    attempted = sum(work.lines(kind) for kind, _, _ in results)
    failed = sum(checker.failures(kind, code, data, None) for kind, code, data in results)
    tracer.write_spans(spans.spans_path(out_dir, "cli-batch", seed))
    metrics = spans.layer_metrics(tracer, evals_unpruned)
    metrics["trace.overhead_ratio"] = (t_traced / t_plain, "ratio")
    print("cli-batch traced: untraced_s=%.3f traced_s=%.3f" % (t_plain, t_traced))
    return attempted, failed, metrics

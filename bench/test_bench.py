"""Tests of the benchmark itself: python3 -m pytest bench -q (from the repo root)."""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import cycsynth as cs  # noqa: E402

import clibatch  # noqa: E402
import library  # noqa: E402

WORKLOADS = ("descent-small-n", "descent-large-n", "ring", "cli-batch")
REPEATED_COUNTS = ("cyclo.mul.calls", "rings.beta_reduce.calls", "synth.axis_detect.calls",
                   "ringsynth.reduce_column_step.calls")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def bench(workload, trace, seed=3, cwd=ROOT, script=os.path.join(BENCH, "run.py")):
    proc = subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", str(trace), "--quick"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def result(workload, trace, seed=3):
    proc = bench(workload, trace, seed)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_mode_reports_every_metric(workload):
    for trace, listed in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
        res = result(workload, trace)
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in listed}
        assert {k: v["unit"] for k, v in res["metrics"].items()} == want
        for v in res["metrics"].values():
            assert isinstance(v["value"], (int, float))
            if trace == 0:
                assert v["value"] > 0


@pytest.mark.parametrize("workload", ("descent-small-n", "ring", "cli-batch"))
def test_traced_counts_repeat_exactly(workload):
    first, second = (result(workload, 1, seed=5)["metrics"] for _ in range(2))
    for name in REPEATED_COUNTS:
        assert first[name]["value"] == second[name]["value"], name


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("descent-small-n", 0, cwd=tmp_path, script=str(tmp_path / "bench" / "run.py"))
    assert proc.returncode != 0
    assert not proc.stdout.strip().endswith("}")


def drop_one_w(seq: cs.GateSequence) -> cs.GateSequence:
    tokens = list(seq.tokens)
    i = next(i for i, t in enumerate(tokens) if t.startswith("W"))
    j = 1 if tokens[i] == "W" else int(tokens[i][2:])
    if j == 1:
        del tokens[i]
    else:
        tokens[i] = "W" if j == 2 else "W^%d" % (j - 1)
    return cs.GateSequence(seq.phase_power, tuple(tokens))


def test_dropped_w_is_a_failure(monkeypatch):
    real = library.descent_op

    def corrupted(inst):
        seq, tcount = real(inst)
        return drop_one_w(seq), tcount

    monkeypatch.setattr(library, "descent_op", corrupted)
    attempted, failed, metrics = library.run("descent-small-n", 3, 0.2, True)
    assert attempted >= 2 and failed == attempted
    assert metrics["ops_per_s"][0] == 0


def test_ring_circuit_with_dropped_w_is_a_failure(monkeypatch):
    real = library.ring_op

    def corrupted(inst):
        res, seq, cf = real(inst)
        return res, drop_one_w(seq), cf

    monkeypatch.setattr(library, "ring_op", corrupted)
    attempted, failed, _ = library.run("ring", 3, 0.2, True)
    assert attempted >= 2 and failed == attempted


def test_altered_cli_line_is_a_failure(tmp_path):
    with clibatch.Workdir(str(tmp_path), clibatch.QUICK_SPEC, 3) as work:
        _, _, code, stdout = clibatch._subprocess(ROOT, work.argv("synth-j1"))
        assert code == 0
        good = work.result("synth-j1", stdout)
        checker = clibatch.Checker(work)
        assert checker.failures("synth-j1", 0, good, None) == 0

        lines = good.decode().splitlines()
        blob = json.loads(lines[1])
        seq = cs.GateSequence.from_text(blob["circuit"], cs.make_context(work.spec.synth_n))
        blob["circuit"] = drop_one_w(seq).to_text()
        lines[1] = json.dumps(blob, sort_keys=True)
        bad = ("\n".join(lines) + "\n").encode()
        assert checker.failures("synth-j1", 0, bad, None) == 1
        # A --jobs N output must match the --jobs 1 output byte for byte.
        assert checker.failures("synth-jN", 0, good, bad) == 1
        assert checker.failures("synth-j1", 2, good, None) == work.spec.synth_lines
        # Exit status 0 without the output file fails every line.
        assert checker.failures("synth-j1", 0, None, None) == work.spec.synth_lines

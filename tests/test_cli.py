"""Command-line behavior: exit codes, formats, determinism, checkpointing."""

import cmath
import io
import json
import os
import subprocess
import sys

import pytest

import cycsynth
from cycsynth import (
    GateSequence,
    eval_sequence,
    h0,
    make_context,
    matrix_from_json,
    matrix_to_json,
    random_unitary,
    uz_power,
    w_gate,
)
from cycsynth.cli import main


def run_cli(args):
    buf = io.StringIO()
    code = main(args, out=buf)
    return code, buf.getvalue()


def t_gate_json():
    ctx = make_context(4)
    return matrix_to_json(w_gate(ctx, 1))


def test_synth_t_gate(tmp_path):
    path = tmp_path / "t.json"
    path.write_text(json.dumps(t_gate_json()))
    code, out = run_cli(["synth", "--n", "4", "--input", str(path)])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "W"
    assert lines[1] == "tcount=1 m=1"


def test_synth_reads_stdin(monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(t_gate_json())))
    code, out = run_cli(["synth", "--n", "4"])
    assert code == 0 and out.splitlines()[0] == "W"


def test_synth_writes_output_file(tmp_path):
    src = tmp_path / "t.json"
    src.write_text(json.dumps(t_gate_json()))
    dst = tmp_path / "circuit.txt"
    code, _ = run_cli(["synth", "--n", "4", "--input", str(src), "--output", str(dst)])
    assert code == 0
    assert dst.read_text().splitlines()[0] == "W"


def test_synth_batch_jsonl(tmp_path):
    ctx = make_context(4)
    src = tmp_path / "batch.jsonl"
    blobs = [matrix_to_json(w_gate(ctx, 1)), matrix_to_json(h0(ctx))]
    src.write_text("\n".join(json.dumps(b) for b in blobs))
    code, out = run_cli(["synth", "--n", "4", "--input", str(src)])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "W" and lines[1] == "tcount=1 m=1"
    assert lines[3] == "tcount=0 m=0"


def test_synth_batch_parallel_matches_serial(tmp_path):
    ctx = make_context(6)
    src = tmp_path / "batch.jsonl"
    blobs = [matrix_to_json(uz_power(ctx, a)) for a in (1, 2, 4)]
    src.write_text("\n".join(json.dumps(b) for b in blobs))
    code1, out1 = run_cli(["synth", "--n", "6", "--input", str(src)])
    code2, out2 = run_cli(["synth", "--n", "6", "--input", str(src), "--jobs", "2"])
    assert code1 == code2 == 0
    assert out1 == out2


def test_synth_jobs_starts_no_more_workers_than_lines_or_cpus(tmp_path, monkeypatch):
    # ProcessPoolExecutor starts all max_workers processes up front, so a
    # huge --jobs on a two-line batch must not reach it; a fake pool records
    # what it is asked for and maps serially, starting no process.
    import concurrent.futures

    asked = []

    class FakePool:
        def __init__(self, max_workers=None):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    ctx = make_context(6)
    src = tmp_path / "batch.jsonl"
    src.write_text("\n".join(json.dumps(matrix_to_json(uz_power(ctx, a))) for a in (1, 2)))
    code1, out1 = run_cli(["synth", "--n", "6", "--input", str(src)])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    # four usable CPUs, whatever this machine has: the two lines cap it
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    code2, out2 = run_cli(["synth", "--n", "6", "--input", str(src), "--jobs", "100000"])
    assert code1 == code2 == 0 and out1 == out2
    assert asked == [2]


def test_synth_jobs_on_one_usable_cpu_runs_serially(tmp_path, monkeypatch):
    # The workers are capped by the CPUs this process may run on, its
    # affinity set, not the machine's count; with one CPU left, --jobs N
    # starts no pool and writes the bytes of --jobs 1.
    import concurrent.futures

    ctx = make_context(6)
    src = tmp_path / "batch.jsonl"
    src.write_text("\n".join(json.dumps(matrix_to_json(uz_power(ctx, a))) for a in (1, 2, 4)))
    argv = ["synth", "--n", "6", "--input", str(src), "--format", "json"]
    code1, out1 = run_cli(argv)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", None)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    code2, out2 = run_cli(argv + ["--jobs", "8"])
    assert code1 == code2 == 0 and out1 == out2 and len(out1.splitlines()) == 3


def test_cli_loads_the_process_pool_only_for_parallel_batches():
    src = os.path.dirname(os.path.dirname(cycsynth.__file__))
    check = "import sys, cycsynth.cli; sys.exit('concurrent.futures.process' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-c", check], env=env, timeout=60).returncode == 0


def test_synth_accepts_pretty_printed_json(tmp_path):
    path = tmp_path / "t.json"
    path.write_text(json.dumps(t_gate_json(), indent=2))
    code, out = run_cli(["synth", "--n", "4", "--input", str(path)])
    assert code == 0 and out.splitlines()[0] == "W"


def test_synth_rejects_malformed_json(tmp_path):
    bad = tmp_path / "bad.json"
    obj = t_gate_json()
    obj["entries"][0][0] = [1, 2]  # wrong coefficient-vector length
    bad.write_text(json.dumps(obj))
    code, _ = run_cli(["synth", "--n", "4", "--input", str(bad)])
    assert code == 2
    bad.write_text("{not json")
    code, _ = run_cli(["synth", "--n", "4", "--input", str(bad)])
    assert code == 2


def test_batch_json_error_names_its_line_in_the_file(monkeypatch, capsys):
    # the bad line is line 4 of the input, after two blank lines
    monkeypatch.setattr("sys.stdin", io.StringIO('\n\n{"n": 4}\n{bad\n'))
    code, out = run_cli(["synth", "--n", "4"])
    assert (code, out) == (2, "")
    assert capsys.readouterr().err.startswith("error: line 4 is not valid JSON: ")


def test_pretty_printed_json_error_names_its_line_in_the_file(tmp_path, capsys):
    # a five-line object with a trailing comma before its closing brace:
    # the first line is no whole value, so the body is not JSONL, and the
    # error is the whole body's, at line 5 column 1 of the file (after one
    # blank line, so at line 6 there)
    entries = json.dumps(t_gate_json()["entries"])
    text = '{"n": 4,\n "denom_exp": 0,\n "entries": %s,\n "x": 1,\n}\n' % entries
    path = tmp_path / "m.json"
    for lead, line in (("", 5), ("\n", 6)):
        path.write_text(lead + text)
        code, out = run_cli(["synth", "--n", "4", "--input", str(path)])
        err = capsys.readouterr().err
        assert (code, out) == (2, "")
        assert err == ("error: cannot read matrix JSON from %r: Expecting property name "
                       "enclosed in double quotes: line %d column 1 (char %d)\n"
                       % (str(path), line, len(lead + text) - 2))


def test_blank_matrix_input_is_an_input_error(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("\n  \n\t\n"))
    code, out = run_cli(["synth", "--n", "4"])
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == "error: empty matrix input\n"


def test_an_integrity_failure_exits_3_with_one_line(monkeypatch, capsys):
    from cycsynth import cli
    from cycsynth.errors import IntegrityError

    def broken(u):
        raise IntegrityError("descent lost its invariant")

    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(t_gate_json())))
    monkeypatch.setattr(cli, "canonical_form", broken)
    code, out = run_cli(["synth", "--n", "4"])
    assert (code, out) == (3, "")
    assert capsys.readouterr().err == "integrity failure: descent lost its invariant\n"


@pytest.mark.parametrize("argv, what", [
    (["synth", "--n", "4", "--input"], ""),
    (["tcount", "--n", "4", "--input"], ""),
    (["member", "--n", "4", "--input"], ""),
    (["verify", "--n", "4", "--circuit", "GOOD", "--matrix"], "matrix JSON from "),
    (["verify", "--n", "4", "--matrix", "GOOD", "--circuit"], "circuit from "),
    (["synth", "--n", "4", "--input"], "-"),
])
def test_input_that_is_not_utf8_names_its_file(tmp_path, monkeypatch, capsys, argv, what):
    # bytes that do not decode are an unreadable input like any other: exit
    # 2, the file (or '-' for stdin) named in the error
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff")
    good = tmp_path / "good.json"
    good.write_text(json.dumps(t_gate_json()))
    argv = [str(good) if a == "GOOD" else a for a in argv]
    if what == "-":
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"\xff"), encoding="utf-8"))
        path, what = "-", ""
    else:
        path = str(bad)
    code, out = run_cli(argv + [path])
    assert (code, out) == (2, "")
    assert capsys.readouterr().err.startswith("error: cannot read %s%r: " % (what, path))


# JSON nested deeper than the recursion limit, and (where Python bounds the
# digits int() parses) an integer too long to parse: each is invalid JSON
# to the readers, not a traceback with exit 1 or a message naming no file
_DEEP_JSON = "[" * 200_000
_LONG_INTS = [] if not hasattr(sys, "get_int_max_str_digits") else [
    json.dumps({**t_gate_json(), "denom_exp": 1}).replace("[1, 0, 0, 0]", "[1%s, 0, 0, 0]"
                                                          % ("0" * 5000), 1)]


@pytest.mark.parametrize("command", ["synth", "tcount", "member"])
def test_matrix_input_too_deep_or_too_long_names_its_file_or_line(tmp_path, capsys, command):
    # _read_matrices: the first value names the file, a later JSONL line
    # names its line
    path = tmp_path / "m.json"
    good = json.dumps(t_gate_json())
    for text in [_DEEP_JSON] + _LONG_INTS:
        for body, want in ((text, "error: cannot read matrix JSON from %r: " % str(path)),
                           ("%s\n\n%s\n" % (good, text), "error: line 3 is not valid JSON: ")):
            path.write_text(body)
            code, out = run_cli([command, "--n", "4", "--input", str(path)])
            err = capsys.readouterr().err
            assert (code, out) == (2, "")
            assert err.startswith(want) and err.count("\n") == 1


def test_verify_matrix_too_deep_or_too_long_names_its_file(tmp_path, capsys):
    # _read_json
    matrix, circuit = tmp_path / "m.json", tmp_path / "c.txt"
    circuit.write_text("W")
    for text in [_DEEP_JSON] + _LONG_INTS:
        matrix.write_text(text)
        code, out = run_cli(["verify", "--n", "4", "--circuit", str(circuit),
                             "--matrix", str(matrix)])
        err = capsys.readouterr().err
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot read matrix JSON from %r: " % str(matrix))
        assert err.count("\n") == 1


def test_census_checkpoint_too_deep_or_too_long_names_its_file(tmp_path, capsys):
    # _read_checkpoint: the output is left as it was
    out_path, ck = tmp_path / "census.csv", tmp_path / "census.ck"
    out_path.write_text("2,true\n")
    for text in [_DEEP_JSON, '{"max": 1%s, "next_n": 4, "hits": 1}' % ("0" * 5000)]:
        ck.write_text(text)
        code, out = run_cli(["fn-census", "--max", "20", "--output", str(out_path),
                             "--checkpoint", str(ck)])
        err = capsys.readouterr().err
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot read census checkpoint %r: " % str(ck))
        assert out_path.read_text() == "2,true\n"


def test_running_out_of_memory_is_an_input_error(monkeypatch, capsys):
    # a census bound, within CENSUS_MAX, whose sieve does not fit in memory:
    # one error line and exit 2, not a traceback and exit 1 (the sieve is
    # made to fail here rather than allocated)
    from cycsynth import ringsynth

    def no_memory(limit):
        raise MemoryError

    monkeypatch.setattr(ringsynth, "_spf_factorizer", no_memory)
    code, out = run_cli(["fn-census", "--max", str(ringsynth.CENSUS_MAX)])
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == "error: out of memory\n"


def test_synth_rejects_json_booleans(tmp_path, capsys):
    # each of these read as the T gate while true/false passed as 1/0
    doubled = t_gate_json()
    doubled["entries"] = [[[2 * c for c in v] for v in row] for row in doubled["entries"]]
    doubled["denom_exp"] = True
    coeff = t_gate_json()
    coeff["entries"][0][0] = [True, False, 0, 0]
    flag = t_gate_json()
    flag["n"] = True
    path = tmp_path / "t.json"
    for obj, field in ((doubled, "'denom_exp'"), (coeff, "entry (0,0)"), (flag, "'n'")):
        path.write_text(json.dumps(obj))
        code, out = run_cli(["synth", "--n", "4", "--input", str(path)])
        assert code == 2 and out == ""
        assert field in capsys.readouterr().err


def test_synth_wrong_n_flag(tmp_path):
    path = tmp_path / "t.json"
    path.write_text(json.dumps(t_gate_json()))
    code, _ = run_cli(["synth", "--n", "8", "--input", str(path)])
    assert code == 2


@pytest.mark.parametrize("argv, bound", [
    (["synth", "--n", "8", "--jobs", "0"], "--jobs: must be an integer >= 1"),
    (["synth", "--n", "8", "--jobs", "-3"], "--jobs: must be an integer >= 1"),
    (["member", "--n", "7"], "--n: must be a positive even integer"),
    (["synth", "--n", "0"], "--n: must be a positive even integer"),
    (["tcount", "--n", "-8"], "--n: must be a positive even integer"),
])
def test_out_of_range_flags_are_usage_errors(tmp_path, capsys, argv, bound):
    # --jobs below 1 and an --n that is not a positive even integer are
    # turned away when the arguments are parsed, with exit 2 and a message
    # naming the bound: not run serially, and not reported as a mismatch
    # with the n of the input, an n = 8 batch.
    path = tmp_path / "batch.jsonl"
    ctx = make_context(8)
    path.write_text("".join(json.dumps(matrix_to_json(random_unitary(ctx, 3, seed)[0])) + "\n"
                            for seed in range(2)))
    code, out = run_cli(argv + ["--input", str(path)])
    assert code == 2 and out == ""
    assert bound in capsys.readouterr().err


def test_mismatched_n_is_rejected_before_its_context_is_built(tmp_path, capsys):
    # Context(2018) alone takes about half a second and tens of MB, and the
    # cost grows quadratically in n, so a short input line must not build one,
    # whether the large n is the input's or the flag's.
    circuit = tmp_path / "c.txt"
    circuit.write_text("W")
    path = tmp_path / "in.jsonl"
    for matrix_n, flag_n in ((2018, 4), (4, 2018)):
        blob = t_gate_json()
        blob["n"] = matrix_n
        path.write_text(json.dumps(t_gate_json()) + "\n" + json.dumps(blob) + "\n")
        run_cli(["synth", "--n", "4", "--input", str(path)])
        capsys.readouterr()
        before = make_context.cache_info().misses
        entry = 2 if matrix_n != 4 else 1
        code, out = run_cli(["synth", "--n", str(flag_n), "--input", str(path)])
        assert code == 2 and out == ""
        assert (f"entry {entry} has n={matrix_n} but --n {flag_n} was given"
                in capsys.readouterr().err)
        path.write_text(json.dumps(blob))
        code, _ = run_cli(["verify", "--n", str(flag_n), "--circuit", str(circuit),
                           "--matrix", str(path)])
        assert code == 2
        assert (f"matrix has n={matrix_n} but --n {flag_n} was given"
                in capsys.readouterr().err)
        assert make_context.cache_info().misses == before


def test_usage_error_exit_code():
    code, _ = run_cli(["synth"])  # missing --n
    assert code == 2
    code, _ = run_cli(["no-such-command"])
    assert code == 2


def test_verify_accepts_synth_output(tmp_path):
    ctx = make_context(12)
    u = eval_sequence(GateSequence(3, ("H", "W^2", "S", "W")), ctx)
    mat = tmp_path / "m.json"
    mat.write_text(json.dumps(matrix_to_json(u)))
    circ = tmp_path / "c.txt"
    code, out = run_cli(["synth", "--n", "12", "--input", str(mat), "--output", str(circ)])
    assert code == 0
    circuit_line = circ.read_text().splitlines()[0]
    circ.write_text(circuit_line)
    code, out = run_cli(
        ["verify", "--n", "12", "--circuit", str(circ), "--matrix", str(mat)]
    )
    assert code == 0 and out.startswith("ok")


def test_verify_detects_mismatch(tmp_path):
    ctx = make_context(4)
    mat = tmp_path / "m.json"
    mat.write_text(json.dumps(matrix_to_json(h0(ctx))))
    circ = tmp_path / "c.txt"
    circ.write_text("S")
    code, out = run_cli(
        ["verify", "--n", "4", "--circuit", str(circ), "--matrix", str(mat)]
    )
    assert code == 1 and out.startswith("mismatch")


def test_verify_reports_the_phase_of_the_circuit(tmp_path):
    # circuit = zeta_8^3 * matrix
    mat = tmp_path / "m.json"
    mat.write_text(json.dumps(matrix_to_json(h0(make_context(4)))))
    circ = tmp_path / "c.txt"
    circ.write_text("PH[3] H")
    code, out = run_cli(["verify", "--n", "4", "--circuit", str(circ), "--matrix", str(mat)])
    assert code == 0
    assert out == "ok: circuit matches the matrix up to zeta_8^3\n"


def test_verify_rejects_non_ascii_digits(tmp_path, monkeypatch):
    # "PH[\u0663] H W^\u0665 S" would read as PH[3] H W^5 S, which does match.
    ctx = make_context(4)
    mat = tmp_path / "m.json"
    mat.write_text(json.dumps(matrix_to_json(
        eval_sequence(GateSequence(3, ("H", "W^5", "S")), ctx))))
    args = ["verify", "--n", "4", "--circuit", "-", "--matrix", str(mat)]
    monkeypatch.setattr("sys.stdin", io.StringIO("PH[3] H W^5 S"))
    assert run_cli(args)[0] == 0
    monkeypatch.setattr("sys.stdin", io.StringIO("PH[\u0663] H W^\u0665 S"))
    assert run_cli(args)[0] == 2


def test_verify_accepts_ringsynth_output(tmp_path):
    ctx = make_context(8)
    u = eval_sequence(GateSequence(5, ("H", "W^3", "H", "S", "W")), ctx)
    mat = tmp_path / "m.json"
    mat.write_text(json.dumps(matrix_to_json(u)))
    code, out = run_cli(["ringsynth", "--n", "8", "--input", str(mat)])
    assert code == 0
    circ = tmp_path / "c.txt"
    circ.write_text(out.splitlines()[0])
    code, _ = run_cli(["verify", "--n", "8", "--circuit", str(circ), "--matrix", str(mat)])
    assert code == 0


def test_tcount_command(tmp_path):
    path = tmp_path / "t.json"
    path.write_text(json.dumps(t_gate_json()))
    code, out = run_cli(["tcount", "--n", "4", "--input", str(path)])
    assert code == 0 and out.strip() == "tcount=1"


def test_member_command_positive(tmp_path):
    path = tmp_path / "t.json"
    path.write_text(json.dumps(t_gate_json()))
    code, out = run_cli(["member", "--n", "4", "--input", str(path)])
    assert code == 0 and out.splitlines()[0] == "Member"


def _non_member_json(n=14, peeled=0):
    """The diagonal non-member of test_synth at n, behind the canonical
    product U_y(3) U_z(2) U_x(1) cut to its last `peeled` factors, which
    the descent peels before it sticks."""
    from cycsynth import RingElem, UnitaryRn, u_axis
    from test_synth import _infinite_order_unit

    ctx = make_context(n)
    one, zero = RingElem.one(ctx), RingElem.zero(ctx)
    u = UnitaryRn(ctx, ((one, zero), (zero, _infinite_order_unit(ctx))))
    for p, a in reversed((("y", 3), ("z", 2), ("x", 1))[3 - peeled:]):
        u = u_axis(ctx, p, 1, a) @ u
    return matrix_to_json(u)


STUCK = "step 0 (max exponent 2): no candidate strictly reduces the exponent"


def test_member_command_negative(tmp_path):
    path = tmp_path / "nm.json"
    path.write_text(json.dumps(_non_member_json()))
    code, out = run_cli(["member", "--n", "14", "--input", str(path)])
    assert code == 1 and out == "NotMember (descent: %s)\n" % STUCK


@pytest.mark.parametrize("n, peeled, top", [(14, 0, 2), (14, 3, 2), (28, 0, 4), (28, 1, 4),
                                            (28, 3, 4)])
def test_stuck_descent_output_names_its_step(tmp_path, capsys, n, peeled, top):
    # every command that runs the descent prints the stuck step's error as
    # it is, with the step counted by the rotations peeled before it
    stuck = "step %d (max exponent %d): no candidate strictly reduces the exponent" % (peeled, top)
    path = tmp_path / "nm.json"
    path.write_text(json.dumps(_non_member_json(n, peeled)))
    args = ["--n", str(n), "--input", str(path)]
    assert run_cli(["member"] + args) == (1, "NotMember (descent: %s)\n" % stuck)
    code, out = run_cli(["member", "--format", "json"] + args)
    assert (code, json.loads(out)) == (1, {"circuit": None, "member": False,
                                           "reason": "descent: " + stuck})
    for command in ("synth", "tcount"):
        capsys.readouterr()
        assert run_cli([command] + args) == (1, "")
        assert capsys.readouterr().err == "error: entry 1: %s\n" % stuck


@pytest.mark.parametrize("argv, stdout", [
    (["synth"], ""),
    (["synth", "--jobs", "2"], ""),
    (["tcount"], "tcount=0\ntcount=2\n"),
])
def test_batch_error_names_its_entry(tmp_path, capsys, argv, stdout):
    # the 3rd line of a batch is a non-member: the error names that entry,
    # while the output and the exit code stay as they were
    ctx = make_context(14)
    lines = [matrix_to_json(h0(ctx)), matrix_to_json(w_gate(ctx, 2)), _non_member_json(),
             matrix_to_json(h0(ctx))]
    src = tmp_path / "batch.jsonl"
    src.write_text("".join(json.dumps(obj) + "\n" for obj in lines))
    code, out = run_cli(argv + ["--n", "14", "--input", str(src)])
    assert (code, out) == (1, stdout)
    assert capsys.readouterr().err == "error: entry 3: %s\n" % STUCK


@pytest.mark.parametrize("command", ("member", "synth", "tcount"))
def test_batch_matrix_error_names_its_entry(tmp_path, capsys, command):
    # line 2 parses as JSON, but one coefficient bumped by 2 leaves it no
    # unitary: the error names that entry, exit code 2, nothing on stdout
    ctx = make_context(8)
    bad = matrix_to_json(w_gate(ctx, 3))
    bad["entries"][1][1][0] += 2
    src = tmp_path / "batch.jsonl"
    src.write_text("".join(json.dumps(obj) + "\n"
                           for obj in (matrix_to_json(h0(ctx)), bad, matrix_to_json(h0(ctx)))))
    code, out = run_cli([command, "--n", "8", "--input", str(src)])
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == "error: entry 2: matrix is not unitary over the ring\n"


@pytest.mark.parametrize("argv, kind", [
    (["member"], "not unitary"), (["synth"], "not unitary"), (["tcount"], "not unitary"),
    (["synth"], "stuck"), (["synth", "--jobs", "2"], "stuck"), (["tcount"], "stuck"),
])
def test_batch_errors_name_the_file_line(tmp_path, capsys, argv, kind):
    # line 2 is blank and the bad matrix is on line 4: the error names
    # line 4, not the matrix's count among the non-blank lines
    ctx = make_context(14)
    if kind == "stuck":
        bad, code, err = _non_member_json(), 1, STUCK
    else:
        bad, code, err = matrix_to_json(w_gate(ctx, 3)), 2, "matrix is not unitary over the ring"
        bad["entries"][1][1][0] += 2
    good = json.dumps(matrix_to_json(h0(ctx)))
    src = tmp_path / "batch.jsonl"
    src.write_text("%s\n\n%s\n%s\n" % (good, good, json.dumps(bad)))
    stdout = "tcount=0\ntcount=0\n" if argv == ["tcount"] and kind == "stuck" else ""
    assert run_cli(argv + ["--n", "14", "--input", str(src)]) == (code, stdout)
    assert capsys.readouterr().err == "error: entry 4: %s\n" % err
    # a single object, pretty-printed after a blank line, is entry 1
    src.write_text("\n" + json.dumps(bad, indent=1))
    assert run_cli(argv + ["--n", "14", "--input", str(src)]) == (code, "")
    assert capsys.readouterr().err == "error: entry 1: %s\n" % err


def test_check_finite_lemma_command():
    code, out = run_cli(["check-finite-lemma", "--n", "8"])
    assert code == 0 and out.strip() == "true"
    code, _ = run_cli(["check-finite-lemma", "--n", "10"])
    assert code == 2  # unsupported n is an input error


def test_phase_condition_command():
    code, out = run_cli(["phase-condition", "--n", "12"])
    assert code == 0 and out.startswith("true (s=3, t=1)")
    code, out = run_cli(["phase-condition", "--n", "14"])
    assert code == 1 and out.startswith("false (s=7")


def test_fn_census_command(tmp_path):
    out_path = tmp_path / "census.csv"
    code, _ = run_cli(["fn-census", "--max", "14", "--output", str(out_path)])
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "2,true"
    assert lines[-2] == "14,false"
    assert lines[-1] == "14,6,7"


def test_fn_census_checkpoint_resume(tmp_path):
    out_path = tmp_path / "census.csv"
    ck = tmp_path / "census.ck"
    # simulate an interrupted run: state says rows up to 200 are done
    code, _ = run_cli(
        ["fn-census", "--max", "200", "--output", str(out_path), "--checkpoint", str(ck)]
    )
    assert code == 0
    full = out_path.read_text()
    state = json.loads(ck.read_text())
    assert state == {"max": 200, "next_n": 202, "hits": state["hits"]}
    # rerun with the final checkpoint: the summary row replaces itself
    code, _ = run_cli(
        ["fn-census", "--max", "200", "--output", str(out_path), "--checkpoint", str(ck)]
    )
    assert code == 0
    assert out_path.read_text() == full
    # partial checkpoint for a file that does not exist: a full census
    ck.write_text(json.dumps({"max": 300, "next_n": 202, "hits": state["hits"]}))
    out2, fresh = tmp_path / "census2.csv", tmp_path / "fresh.csv"
    run_cli(["fn-census", "--max", "300", "--output", str(out2), "--checkpoint", str(ck)])
    run_cli(["fn-census", "--max", "300", "--output", str(fresh)])
    lines = out2.read_text().splitlines()
    assert lines[0] == "2,true"
    assert out2.read_text() == fresh.read_text()


def test_fn_census_checkpoints_mid_run_and_resumes_from_there(tmp_path, monkeypatch, capsys):
    # every CHECKPOINT_EVERY rows the census flushes its CSV and saves a
    # checkpoint; a run that dies at n = 3,400 resumes from the last one,
    # n = 3,000, and ends byte-equal to a run that never stopped
    from cycsynth import cli

    full_path, out_path, ck = tmp_path / "full.csv", tmp_path / "census.csv", tmp_path / "c.ck"
    assert run_cli(["fn-census", "--max", "5000", "--output", str(full_path)])[0] == 0
    full = full_path.read_text()
    census = cli.iter_census

    def dies_at_3400(max_n, start_n=2):
        for n, cond in census(max_n, start_n):
            if n == 3400:
                raise MemoryError
            yield n, cond

    monkeypatch.setattr(cli, "CHECKPOINT_EVERY", 1000)
    monkeypatch.setattr(cli, "iter_census", dies_at_3400)
    args = ["fn-census", "--max", "5000", "--output", str(out_path), "--checkpoint", str(ck)]
    assert run_cli(args) == (2, "")
    assert capsys.readouterr().err == "error: out of memory\n"
    hits = sum(r.endswith(",true") for r in full.splitlines() if int(r.split(",")[0]) <= 3000)
    assert json.loads(ck.read_text()) == {"max": 5000, "next_n": 3002, "hits": hits}
    assert out_path.read_text().splitlines()[-1].startswith("3398,")
    monkeypatch.setattr(cli, "iter_census", census)
    assert run_cli(args) == (0, "")
    assert out_path.read_text() == full
    total = sum(r.endswith(",true") for r in full.splitlines()[:-1])
    assert json.loads(ck.read_text()) == {"max": 5000, "next_n": 5002, "hits": total}


def test_fn_census_resume_drops_rows_past_checkpoint(tmp_path):
    full_path, ck = tmp_path / "full.csv", tmp_path / "census.ck"
    run_cli(["fn-census", "--max", "300", "--output", str(full_path)])
    full = full_path.read_text()
    rows = full.splitlines()[:-1]
    done = [r for r in rows if int(r.split(",")[0]) < 202]
    hits = sum(r.endswith(",true") for r in done)
    # interrupted after the checkpoint at n=200: later rows and a torn line
    # reached the file before the process died
    out_path = tmp_path / "census.csv"
    past = [r for r in rows if 202 <= int(r.split(",")[0]) <= 250]
    out_path.write_text("\n".join(done + past) + "\n252,tr")
    ck.write_text(json.dumps({"max": 300, "next_n": 202, "hits": hits}))
    code, _ = run_cli(
        ["fn-census", "--max", "300", "--output", str(out_path), "--checkpoint", str(ck)]
    )
    assert code == 0
    assert out_path.read_text() == full
    total = sum(r.endswith(",true") for r in rows)
    assert json.loads(ck.read_text()) == {"max": 300, "next_n": 302, "hits": total}


@pytest.mark.parametrize("rows_kept", [None, 60])
def test_fn_census_starts_over_without_the_rows_before_its_checkpoint(tmp_path, rows_kept):
    # a census to 300 interrupted after the checkpoint at n = 200, whose
    # CSV was then deleted (None) or cut to its first rows_kept rows, starts
    # over and ends as a full census
    full_path, ck = tmp_path / "full.csv", tmp_path / "census.ck"
    run_cli(["fn-census", "--max", "300", "--output", str(full_path)])
    full = full_path.read_text()
    done = [r for r in full.splitlines() if int(r.split(",")[0]) < 202]
    hits = sum(r.endswith(",true") for r in done)
    out_path = tmp_path / "census.csv"
    if rows_kept is not None:
        out_path.write_text("".join(r + "\n" for r in done[:rows_kept]))
    ck.write_text(json.dumps({"max": 300, "next_n": 202, "hits": hits}))
    code, _ = run_cli(
        ["fn-census", "--max", "300", "--output", str(out_path), "--checkpoint", str(ck)]
    )
    assert code == 0
    assert out_path.read_text() == full
    total = sum(r.endswith(",true") for r in full.splitlines())
    assert json.loads(ck.read_text()) == {"max": 300, "next_n": 302, "hits": total}


def test_fn_census_rejects_bad_bounds_before_touching_files(tmp_path, capsys):
    out_path, ck = tmp_path / "census.csv", tmp_path / "census.ck"
    out_path.write_text("2,true\n")
    ck.write_text("[1, 2]")  # never read: the bound is checked first
    for bad in ("0", "1", "3", "-4"):
        for extra in ([], ["--output", str(out_path), "--checkpoint", str(ck)]):
            code, out = run_cli(["fn-census", "--max", bad] + extra)
            assert (code, out) == (2, "")
            assert "census bound must be a positive even integer" in capsys.readouterr().err
    assert out_path.read_text() == "2,true\n"
    assert ck.read_text() == "[1, 2]"


def test_fn_census_rejects_a_bound_past_its_limit_before_any_work(tmp_path, monkeypatch, capsys):
    # fn-census --max above CENSUS_MAX (10^8, some 3.4 GB of sieve) exits 2
    # at once, naming the limit, and creates no output file; iter_census
    # rejects it before it builds the sieve
    from cycsynth import ringsynth

    def no_sieve(limit):
        raise AssertionError("sieve built for %d" % limit)

    monkeypatch.setattr(ringsynth, "_spf_factorizer", no_sieve)
    out_path = tmp_path / "census.csv"
    for bad in (ringsynth.CENSUS_MAX + 2, 10**11):
        code, out = run_cli(["fn-census", "--max", str(bad), "--output", str(out_path)])
        assert (code, out) == (2, "") and not out_path.exists()
        assert capsys.readouterr().err == \
            "error: census bound must be at most 100000000, got %d\n" % bad
        with pytest.raises(ValueError, match="at most 100000000"):
            next(ringsynth.iter_census(bad))


def test_fn_census_rejects_bad_checkpoints_and_keeps_the_output(tmp_path, capsys):
    out_path, ck = tmp_path / "census.csv", tmp_path / "census.ck"
    args = ["fn-census", "--max", "20", "--output", str(out_path), "--checkpoint", str(ck)]
    assert run_cli(args)[0] == 0
    finished = out_path.read_text()
    assert len(finished.splitlines()) == 11
    for bad in ("[20, 22, 6]", "{not json", '{"max": 20, "hits": 0}',
                '{"max": 20, "next_n": -10, "hits": 0}',
                '{"max": 20, "next_n": 0, "hits": 0}',
                '{"max": 20, "next_n": 24, "hits": 0}',
                '{"max": 20, "next_n": 13, "hits": 0}',
                '{"max": 20, "next_n": 12, "hits": 6}',
                '{"max": 20, "next_n": 12, "hits": -1}',
                '{"max": 20, "next_n": 12, "hits": true}',
                '{"max": 20, "next_n": 12.0, "hits": 1}',
                '{"max": "20", "next_n": 12, "hits": 1}'):
        ck.write_text(bad)
        assert run_cli(args) == (2, ""), bad
        err = capsys.readouterr().err
        assert "census checkpoint" in err and str(ck) in err, bad
        assert out_path.read_text() == finished, bad
        assert ck.read_text() == bad


def test_fn_census_ignores_a_checkpoint_for_another_bound(tmp_path):
    out_path, ck = tmp_path / "census.csv", tmp_path / "census.ck"
    run_cli(["fn-census", "--max", "20", "--output", str(out_path)])
    want = out_path.read_text()
    ck.write_text(json.dumps({"max": 300, "next_n": 202, "hits": 10}))
    out_path.write_text("junk\n")
    code, _ = run_cli(
        ["fn-census", "--max", "20", "--output", str(out_path), "--checkpoint", str(ck)]
    )
    assert code == 0
    assert out_path.read_text() == want
    assert json.loads(ck.read_text())["max"] == 20


def test_random_command_round_trips(tmp_path):
    code, out = run_cli(["random", "--n", "6", "--target-tcount", "3", "--seed", "11"])
    assert code == 0
    mat_line, circ_line = out.splitlines()[:2]
    u = matrix_from_json(json.loads(mat_line))
    ctx = make_context(6)
    seq = GateSequence.from_text(circ_line, ctx)
    assert eval_sequence(seq, ctx) == u
    assert seq.cost() == 3


def test_random_rejects_a_target_past_its_bound_before_any_work(tmp_path, monkeypatch, capsys):
    # random --target-tcount above 20,000 exits 2 at once, naming the bound,
    # before any context is built; a matrix past it would outgrow the
    # 4,300-digit integers json.loads reads back by default
    from cycsynth import cli

    def no_context(n):
        raise AssertionError("context built for n = %d" % n)

    monkeypatch.setattr(cli, "make_context", no_context)
    out_path = tmp_path / "r.json"
    for bad in (20_001, 10**11):
        code, out = run_cli(["random", "--n", "6", "--target-tcount", str(bad),
                             "--output", str(out_path)])
        assert (code, out) == (2, "") and not out_path.exists()
        assert capsys.readouterr().err == \
            "error: target T-count must be at most 20000, got %d\n" % bad


def test_random_command_deterministic():
    a = run_cli(["random", "--n", "8", "--target-tcount", "2", "--seed", "4"])
    b = run_cli(["random", "--n", "8", "--target-tcount", "2", "--seed", "4"])
    assert a == b


def test_format_json_outputs(tmp_path):
    path = tmp_path / "t.json"
    path.write_text(json.dumps(t_gate_json()))
    code, out = run_cli(["synth", "--n", "4", "--input", str(path), "--format", "json"])
    assert code == 0
    blob = json.loads(out)
    assert blob == {"circuit": "W", "tcount": 1, "m": 1}
    code, out = run_cli(["member", "--n", "4", "--input", str(path), "--format", "json"])
    assert code == 0
    blob = json.loads(out)
    assert blob["member"] is True and blob["circuit"] == "W"
    code, out = run_cli(
        ["random", "--n", "6", "--target-tcount", "2", "--seed", "3", "--format", "json"]
    )
    assert code == 0
    blob = json.loads(out)
    ctx = make_context(6)
    u = matrix_from_json(blob["matrix"])
    seq = GateSequence.from_text(blob["circuit"], ctx)
    assert eval_sequence(seq, ctx) == u


def test_approx_flag_marks_output(tmp_path):
    path = tmp_path / "t.json"
    path.write_text(json.dumps(t_gate_json()))
    code, out = run_cli(["synth", "--n", "4", "--input", str(path), "--approx"])
    assert code == 0
    assert "non-authoritative" in out


def _approx_rows(out):
    # the complex entries of the --approx rows '#   [a+bj, c+dj]'
    return [[complex(z) for z in line[5:-1].split(", ")]
            for line in out.splitlines() if line.startswith("#   [")]


def test_approx_prints_unitaries_with_long_numerators():
    # T-count 4200 at n = 4: entries over 2^1051, whose numerators pass the
    # float range (2^1024) unless each is scaled by 2^-m first
    code, out = run_cli(["random", "--n", "4", "--target-tcount", "4200", "--seed", "7",
                         "--approx"])
    assert code == 0
    rows = _approx_rows(out)
    assert len(rows) == 2
    for row in rows:
        assert abs(sum(abs(z) ** 2 for z in row) - 1) < 1e-5
    u = matrix_from_json(json.loads(out.splitlines()[0]))
    assert u.rows[0][0].m > 1024


def test_approx_entries_are_the_scaled_sum_bit_for_bit():
    # below the float range the coefficients scaled by 2^-m one by one sum
    # to the bits of the sum scaled once, as --approx printed before
    from cycsynth.cli import _approx_entry

    for n in (4, 8, 12, 30):
        ctx = make_context(n)
        zeta = cmath.exp(1j * cmath.pi / n)
        for seed in range(3):
            u, _ = random_unitary(ctx, 60, 300 + seed)
            for e in (e for row in u.rows for e in row):
                want = sum(c * zeta**j for j, c in enumerate(e.num.coeffs)) / 2**e.m
                assert _approx_entry(e, n) == want


def test_synth_ring_method(tmp_path):
    ctx = make_context(12)
    u = eval_sequence(GateSequence(1, ("H", "W^5", "S")), ctx)
    path = tmp_path / "m.json"
    path.write_text(json.dumps(matrix_to_json(u)))
    code, out = run_cli(["synth", "--n", "12", "--input", str(path), "--method", "ring"])
    assert code == 0
    seq = GateSequence.from_text(out.splitlines()[0], ctx)
    assert eval_sequence(seq, ctx) == u


def test_synth_ring_method_runs_serially_whatever_the_jobs(tmp_path, monkeypatch, capsys):
    # --jobs is for --method optimal: a ring batch starts no pool, its
    # output is that of --jobs 1, and the help says so
    import concurrent.futures

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", None)
    ctx = make_context(8)
    src = tmp_path / "batch.jsonl"
    src.write_text("".join(json.dumps(matrix_to_json(random_unitary(ctx, 6, seed)[0])) + "\n"
                           for seed in range(3)))
    argv = ["synth", "--n", "8", "--input", str(src), "--method", "ring"]
    code1, out1 = run_cli(argv)
    code2, out2 = run_cli(argv + ["--jobs", "4"])
    assert code1 == code2 == 0 and out1 == out2 and len(out1.splitlines()) == 6
    assert run_cli(["synth", "--help"])[0] == 0
    assert "--method ring runs serially" in " ".join(capsys.readouterr().out.split())


@pytest.mark.parametrize("argv", [
    ["synth", "--n", "4", "--input", "{src}", "--output", "{bad}"],
    ["random", "--n", "4", "--target-tcount", "3", "--output", "{bad}"],
    ["fn-census", "--max", "10", "--output", "{bad}"],
    ["fn-census", "--max", "10", "--checkpoint", "{bad}"],
])
def test_an_unwritable_output_file_is_an_input_error(tmp_path, capsys, argv):
    # A file that cannot be written is named on stderr with exit 2, not a
    # traceback and exit 1, which means a negative result.
    src = tmp_path / "t.json"
    src.write_text(json.dumps(t_gate_json()))
    bad = tmp_path / "missing" / "out.txt"
    code, _ = run_cli([a.format(src=src, bad=bad) for a in argv])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and str(bad) in err and "Traceback" not in err
    assert not bad.parent.exists()

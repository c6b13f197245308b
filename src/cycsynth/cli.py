"""Command-line front end with bit-exact I/O.

Exit codes: 0 success / condition true, 1 negative result (NotMember,
condition false, verification mismatch), 2 usage or input error (an
unreadable input, an unwritable output file and running out of memory
among them), 3 internal integrity failure.
"""

from __future__ import annotations

import argparse
import cmath
import json
import os
import sys
from contextlib import contextmanager
from fractions import Fraction
from itertools import repeat

from .cyclo import make_context
from .errors import IntegrityError, SynthesisError
from .ringsynth import (
    RING_EQUALITY_NS,
    _check_census_bound,
    iter_census,
    phase_condition_witness,
    synthesize_ring,
    verify_finite_lemma,
)
from .su2 import (
    GateSequence,
    UnitaryRn,
    _strip,
    _word_gates,
    matrix_from_json,
    matrix_to_json,
)
from .rings import as_zeta_power
from .synth import canonical_form, membership, random_unitary, to_circuit

CHECKPOINT_EVERY = 100_000


def _approx_entry(e, n: int) -> complex:
    # each coefficient scaled by 2^-m exactly first: numerators pass 2^1024
    zeta = cmath.exp(1j * cmath.pi / n)
    scale = 1 << e.m
    return sum(c / scale * zeta**j for j, c in enumerate(e.num.coeffs))


def _print_approx(u: UnitaryRn, out) -> None:
    print("# approximate decimal view (non-authoritative):", file=out)
    for row in u.rows:
        vals = ", ".join("%.6f%+.6fj" % (z.real, z.imag)
                         for z in (_approx_entry(e, u.ctx.n) for e in row))
        print("#   [%s]" % vals, file=out)


@contextmanager
def _sink(path: str | None, out, mode: str = "w"):
    """The file at path, opened with mode and closed after, or out when
    no path is given."""
    if not path:
        yield out
        return
    with open(path, mode) as fh:
        yield fh


def _read_text(path: str, what: str = "") -> str:
    """The text of a file, or of stdin for '-'; a file that cannot be read
    or decoded is named in the error."""
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path) as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError("cannot read %s%r: %s" % (what, path, exc)) from None


def _read_json(path: str):
    text = _read_text(path, "matrix JSON from ")
    try:
        return json.loads(text)
    # invalid JSON, nesting past the recursion limit, ints past int()'s digits
    except (ValueError, RecursionError) as exc:
        raise ValueError("cannot read matrix JSON from %r: %s" % (path, exc)) from None


def _read_matrices(path: str, expect_n: int) -> tuple[list[int], list[UnitaryRn]]:
    """One JSON object, or JSONL with one matrix per line (batch synthesis):
    (lines, matrices), lines[i] the 1-based file line of matrices[i], blank
    lines counted (1 for a single object), which its errors name.  A body
    whose first line is no whole value is not JSONL: its error is the whole
    body's, at its line and column in the file."""
    text = _read_text(path)
    body = text.strip()
    if not body:
        raise ValueError("empty matrix input")
    try:
        objs = [(1, json.loads(body))]  # a single (possibly pretty-printed) object
    except json.JSONDecodeError as whole:
        objs = []
        for line, ln in enumerate(text.splitlines(), 1):
            if not ln.strip():
                continue
            try:
                objs.append((line, json.loads(ln)))
            except (ValueError, RecursionError) as exc:
                if objs:
                    raise ValueError("line %d is not valid JSON: %s" % (line, exc)) from None
                lead = len(text) - len(text.lstrip())  # body's offset in the file
                whole = json.JSONDecodeError(whole.msg, text, lead + whole.pos)
                raise ValueError("cannot read matrix JSON from %r: %s" % (path, whole)) from None
    except (ValueError, RecursionError) as exc:  # in the first value: too deep, an int too long
        raise ValueError("cannot read matrix JSON from %r: %s" % (path, exc)) from None
    out = []
    for line, obj in objs:
        what = "entry %d" % line
        _check_n(obj, expect_n, what)
        try:
            out.append(matrix_from_json(obj))
        except ValueError as exc:
            raise ValueError("%s: %s" % (what, exc)) from None
    return [line for line, _ in objs], out


def _check_n(obj, expect_n: int, what: str) -> None:
    # Before matrix_from_json: its context's lane tables cost
    # O(n W (s - phi(s))) bits, n = 2^k s, for each lane width W, so a
    # valid but mismatched n is turned away unbuilt (an invalid one gets
    # matrix_from_json's message, before any context).
    n = obj.get("n") if isinstance(obj, dict) else None
    if type(n) is int and n >= 2 and n % 2 == 0 and n != expect_n:
        raise ValueError("%s has n=%d but --n %d was given" % (what, n, expect_n))


def _numbered(i: int, fn, arg):
    """fn(arg) for the input entry on file line i (_read_matrices); a
    SynthesisError names the entry."""
    try:
        return fn(arg)
    except SynthesisError as exc:
        raise type(exc)("entry %d: %s" % (i, exc)) from None


def _synth_one(u: UnitaryRn) -> tuple[str, tuple]:
    cf = canonical_form(u)
    return to_circuit(cf).to_text(), (("tcount", cf.tcount()), ("m", cf.m))


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the
    platform has one, else every CPU."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def cmd_synth(args, out) -> int:
    entries, matrices = _read_matrices(args.input, args.n)
    # the pool starts all its workers at once, so ask for no more than the
    # lines and the CPUs this process may use; one worker runs serially
    workers = min(args.jobs, len(matrices), _usable_cpus())
    if args.method == "ring":
        seqs = [_numbered(i, synthesize_ring, u) for i, u in zip(entries, matrices)]
        results = [(seq.to_text(), (("cost", seq.cost()),)) for seq in seqs]
    elif workers > 1:
        # imported here, so that runs without a pool do not load multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_numbered, entries, repeat(_synth_one), matrices))
    else:
        results = [_numbered(i, _synth_one, u) for i, u in zip(entries, matrices)]
    with _sink(args.output, out) as sink:
        for (text, stats), u in zip(results, matrices):
            if args.format == "json":
                print(json.dumps({"circuit": text, **dict(stats)}, sort_keys=True),
                      file=sink)
            else:
                print(text, file=sink)
                print(" ".join("%s=%d" % kv for kv in stats), file=sink)
            if args.approx:
                _print_approx(u, sink)
    return 0


def cmd_verify(args, out) -> int:
    obj = _read_json(args.matrix)
    _check_n(obj, args.n, "matrix")
    u = matrix_from_json(obj)
    seq = GateSequence.from_text(_read_text(args.circuit, "circuit from "), u.ctx)
    lam = _strip(u, _word_gates(u.ctx, seq.tokens, seq.phase_power)).as_scalar()
    power = None if lam is None else as_zeta_power(lam)
    if power is not None:
        print("ok: circuit matches the matrix up to zeta_%d^%d"
              % (2 * args.n, -power % u.ctx.order), file=out)
        return 0
    print("mismatch: circuit does not reproduce the matrix up to a root phase",
          file=out)
    return 1


def cmd_tcount(args, out) -> int:
    for i, u in zip(*_read_matrices(args.input, args.n)):
        print("tcount=%d" % _numbered(i, canonical_form, u).tcount(), file=out)
    return 0


def cmd_member(args, out) -> int:
    _, matrices = _read_matrices(args.input, args.n)
    code = 0
    for u in matrices:
        res = membership(u)
        if args.format == "json":
            blob = {
                "member": res.is_member,
                "circuit": res.sequence.to_text() if res.is_member else None,
                "reason": res.reason,
            }
            print(json.dumps(blob, sort_keys=True), file=out)
        elif res.is_member:
            print("Member", file=out)
            print(res.sequence.to_text(), file=out)
        else:
            print("NotMember (%s)" % res.reason, file=out)
        if not res.is_member:
            code = 1
    return code


def cmd_check_finite_lemma(args, out) -> int:
    ok = verify_finite_lemma(args.n)
    print("true" if ok else "false", file=out)
    return 0 if ok else 1


def cmd_phase_condition(args, out) -> int:
    ok, s, t = phase_condition_witness(args.n)
    if ok:
        print("true (s=%d, t=%d)" % (s, t), file=out)
        return 0
    print("false (s=%d, no t with 2^t = -1 mod s)" % s, file=out)
    return 1


def _truncate_census(path: str, next_n: int) -> int:
    """Cut a census CSV after its leading complete rows n,verdict with n
    below next_n, and return the last n kept (0 for none): rows written
    after the last checkpoint, a line cut short by the interruption, or the
    summary row of a finished run would otherwise be duplicated on resume."""
    keep = last = 0
    with open(path, "rb") as fh:
        for line in fh:
            head, *rest = line.split(b",")
            if not (line.endswith(b"\n") and len(rest) == 1 and head.isdigit()
                    and int(head) < next_n):
                break
            keep += len(line)
            last = int(head)
    with open(path, "r+b") as fh:
        fh.truncate(keep)
    return last


def _read_checkpoint(path: str) -> dict:
    """The state in a census checkpoint: an object of ints max, next_n and
    hits that a census run could have written (ValueError naming the file
    otherwise)."""
    try:
        with open(path) as fh:
            state = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise ValueError("cannot read census checkpoint %r: %s" % (path, exc)) from None
    keys = ("max", "next_n", "hits")
    # type() is int turns JSON true/false away too
    if not (isinstance(state, dict) and all(type(state.get(k)) is int for k in keys)):
        raise ValueError("census checkpoint %r must be an object with integer "
                         "max, next_n and hits" % path)
    top, next_n, hits = (state[k] for k in keys)
    if next_n % 2 or not 2 <= next_n <= top + 2 or not 0 <= hits <= (next_n - 2) // 2:
        raise ValueError("census checkpoint %r is inconsistent: max=%d, next_n=%d, "
                         "hits=%d" % (path, top, next_n, hits))
    return state


def cmd_fn_census(args, out) -> int:
    max_n = args.max
    _check_census_bound(max_n)
    start_n = 2
    hits = 0
    mode = "w"
    if args.checkpoint and os.path.exists(args.checkpoint):
        state = _read_checkpoint(args.checkpoint)
        # an output file resumes only if it holds every row before next_n;
        # otherwise the census starts over
        if state["max"] == max_n and (not args.output or (
                os.path.exists(args.output)
                and _truncate_census(args.output, state["next_n"]) == state["next_n"] - 2)):
            start_n = state["next_n"]
            hits = state["hits"]
            mode = "a"

    def save_checkpoint(next_n: int, hits_now: int) -> None:
        if not args.checkpoint:
            return
        tmp = args.checkpoint + ".tmp"
        with open(tmp, "w") as fh:
            json.dump({"max": max_n, "next_n": next_n, "hits": hits_now}, fh)
        os.replace(tmp, args.checkpoint)

    with _sink(args.output, out, mode) as sink:
        if start_n <= max_n:
            for n, cond in iter_census(max_n, start_n):
                hits += 1 if cond else 0
                print("%d,%s" % (n, "true" if cond else "false"), file=sink)
                if args.checkpoint and n % CHECKPOINT_EVERY == 0:
                    sink.flush()
                    save_checkpoint(n + 2, hits)
        frac = Fraction(hits, max_n // 2)
        print("%d,%d,%d" % (max_n, frac.numerator, frac.denominator), file=sink)
        save_checkpoint(max_n + 2, hits)
    return 0


# random's largest coefficient grows fastest at n = 6, where every factor
# costs 1: about 0.15 digits per unit T-count, 3,011 digits at T-count
# 20,000 (20 s), so its JSON would pass Python's 4,300-digit int limit near
# 28,500; at n = 4 near 57,000, and every other n measured grows slower.
_RANDOM_TCOUNT_MAX = 20_000


def cmd_random(args, out) -> int:
    if args.target_tcount > _RANDOM_TCOUNT_MAX:
        raise ValueError("target T-count must be at most %d, got %d"
                         % (_RANDOM_TCOUNT_MAX, args.target_tcount))
    ctx = make_context(args.n)
    u, seq = random_unitary(ctx, args.target_tcount, args.seed)
    with _sink(args.output, out) as sink:
        if args.format == "json":
            blob = {"matrix": matrix_to_json(u), "circuit": seq.to_text()}
            print(json.dumps(blob, sort_keys=True), file=sink)
        else:
            print(json.dumps(matrix_to_json(u), sort_keys=True), file=sink)
            print(seq.to_text(), file=sink)
        if args.approx:
            _print_approx(u, sink)
    return 0


def _bounded_int(even: bool):
    """An argparse type: an int of at least 1, even if asked; anything else
    is a usage error (exit 2), naming the bound."""
    def integer(text: str) -> int:
        val = int(text)
        if val < 1 or even and val % 2:
            raise argparse.ArgumentTypeError("must be %s, got %r" % (
                "a positive even integer" if even else "an integer >= 1", text))
        return val
    return integer


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cycsynth",
        description="Exact synthesis over Clifford + pi/n z-rotation gate sets.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add_n(p):
        p.add_argument("--n", type=_bounded_int(even=True), required=True,
                       help="gate-set parameter (positive even integer)")

    p = sub.add_parser("synth", help="optimal circuit for a matrix JSON")
    add_n(p)
    p.add_argument("--input", default="-", help="matrix JSON file, '-' for stdin; JSONL for batches")
    p.add_argument("--output", default=None)
    p.add_argument("--method", choices=("optimal", "ring"), default="optimal")
    p.add_argument("--jobs", type=_bounded_int(even=False), default=1,
                   help="parallel workers for batch input (--method optimal only; "
                        "--method ring runs serially)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--approx", action="store_true",
                   help="also print a decimal rendering (non-authoritative)")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("ringsynth", help="ring-level synthesis (n in %s)" % (RING_EQUALITY_NS,))
    add_n(p)
    p.add_argument("--input", default="-")
    p.set_defaults(func=cmd_synth, method="ring", output=None, format="text",
                   approx=False, jobs=1)

    p = sub.add_parser("verify", help="check a circuit against a matrix")
    add_n(p)
    p.add_argument("--circuit", required=True, help="circuit text file, '-' for stdin")
    p.add_argument("--matrix", required=True, help="matrix JSON file")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("tcount", help="minimal W-count of a matrix")
    add_n(p)
    p.add_argument("--input", default="-")
    p.set_defaults(func=cmd_tcount)

    p = sub.add_parser("member", help="decide synthesizability")
    add_n(p)
    p.add_argument("--input", default="-")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_member)

    p = sub.add_parser("check-finite-lemma", help="exhaustive mod-2 residue check")
    add_n(p)
    p.set_defaults(func=cmd_check_finite_lemma)

    p = sub.add_parser("phase-condition", help="is -1 a power of 2 mod the odd part of n")
    add_n(p)
    p.set_defaults(func=cmd_phase_condition)

    p = sub.add_parser("fn-census", help="stream the phase-condition census as CSV")
    p.add_argument("--max", type=int, required=True, help="largest even n to include")
    p.add_argument("--output", default=None)
    p.add_argument("--checkpoint", default=None,
                   help="state file; reruns resume after an interruption")
    p.set_defaults(func=cmd_fn_census)

    p = sub.add_parser("random", help="emit a seeded random matrix + witness circuit")
    add_n(p)
    p.add_argument("--target-tcount", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", default=None)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--approx", action="store_true")
    p.set_defaults(func=cmd_random)

    return ap


def main(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args, out)
    except (ValueError, SynthesisError, OSError) as exc:
        # an OSError here is a file that cannot be written (inputs that
        # cannot be read are ValueErrors already)
        print("error: %s" % exc, file=sys.stderr)
        if isinstance(exc, SynthesisError):
            return 1
        return 2
    except IntegrityError as exc:
        print("integrity failure: %s" % exc, file=sys.stderr)
        return 3
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()

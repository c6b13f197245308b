"""Lazily built per-context tables have one home: Context.memo.

Any module but cyclo.py that reaches into the store behind it (or brings
back a private per-context cache dict) fails here, so a second cache
mechanism cannot grow next to the first; so does any code but Context's
that reads parity_multiplicity's table of multiplicities by mask.  Likewise the denominator
exponent has one home, rings, which alone reads parity bits for it and
alone defines its bracket and the reader of lane entries, the descent has
one candidate scan for every n, and the gate kernel, the descent step and
the column step run on packed lanes, where the descent step and the
column step build no ring element at all; so do the
descent's first step, the Bloch image, and the three exact checks, which
form no CycInt product.  A candidate scan keeps each entry once: it
builds its axis's pencils on lanes once and reads their planes mod 4 off
them in one read per side, the three pencils packed into one int, and
the rotation reuses the winning scan.  Only cyclo reads residue bytes.
Lanes change width in one place, Lanes.relane, and ring elements meet
over a common denominator in one, rings._common_numerators.  The 24
Cliffords have one signed-permutation index, built in so3 with the group.
"""

import pathlib
import re

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "cycsynth"


def test_the_cliffords_have_one_signed_permutation_index(monkeypatch):
    # so3 keys the 24 Cliffords by signed_perm_key once, in the closure and
    # memo entry of clifford_group: no other module builds such an index,
    # no memo entry but that one holds it, and the rewriting pass's table
    # (synth._clifford_moves) reads it, one pattern per Rotation product.
    from cycsynth import (Rotation, canonical_form, canonicalize_sequence, clifford_group,
                          random_unitary, synth)
    from cycsynth.cyclo import Context

    builders = [path.name for path in sorted(SRC.glob("*.py"))
                if re.search(r"signed_perm_key\(\)\s*:", path.read_text())]
    assert builders == ["so3.py"]
    ctx = Context(8)
    u, seq = random_unitary(ctx, 20, 3)
    assert canonical_form(u) == canonicalize_sequence(seq, ctx)
    assert sorted(key for key in ctx._memo if "clifford" in key or "signed_perm" in key) == [
        "clifford_group", "clifford_moves"]
    fresh = Context(8)
    assert len(clifford_group(fresh)) == 24
    patterns, plain = [], Rotation.signed_perm_key

    def counted(rot):
        patterns.append(rot)
        return plain(rot)

    monkeypatch.setattr(Rotation, "signed_perm_key", counted)
    synth._clifford_moves(fresh)
    assert len(patterns) == 24 * (1 + 3 * 3)  # the H row and nine quarter-turn rows


def test_only_cyclo_touches_the_per_context_store():
    modules = sorted(SRC.glob("*.py"))
    assert "cyclo.py" in [p.name for p in modules]
    offenders = []
    for path in modules:
        text = path.read_text()
        if path.name != "cyclo.py" and any(
                store in text for store in ("._memo", "._cache", "._parity_table")):
            offenders.append(path.name)
    assert offenders == []
    cyclo_text = (SRC / "cyclo.py").read_text()
    assert "._parity_table" not in cyclo_text[cyclo_text.index("class Lanes"):]


def test_rings_is_the_one_home_of_the_denominator_exponent():
    # The descent reads exponents and their bracket from rings alone, with
    # nothing but the context; BetaConstant is the witness base and no more.
    # The bracket (_exp_bounds) and the reader of lane entries (_entries_max,
    # _row_max) are each defined once, in rings, with no second form.
    offenders = []
    readers = re.compile(r"^def (_exp_bounds|_entries_max|_row_max)\b", re.M)
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        if "_drop_bounds" in text:
            offenders.append((path.name, "_drop_bounds"))
        if path.name != "rings.py" and readers.search(text):
            offenders.append((path.name, "exponent reader"))
        if path.name in ("so3.py", "synth.py") and (
                "BetaConstant" in text or "beta_constant" in text):
            offenders.append((path.name, "BetaConstant"))
        if path.name not in ("cyclo.py", "rings.py") and "parity_multiplicity(" in text:
            offenders.append((path.name, "parity_multiplicity"))
    assert offenders == []
    rings = (SRC / "rings.py").read_text()
    assert sorted(readers.findall(rings)) == ["_entries_max", "_exp_bounds", "_row_max"]


def test_the_descent_has_one_scan_for_every_n():
    # synth never reads the odd part s of n, so no second candidate scan
    # can grow back next to the residue-plane scan behind a branch on it.
    text = (SRC / "synth.py").read_text()
    assert re.findall(r"\bctx\.s\b", text) == []


def test_the_fold_split_has_one_home():
    # Phi_2n = P(x^w) and Q = x^deg P - P are read from Context.fold_q by
    # every fold (synth's residue planes, cyclo.Lanes); only the Context
    # constructor slices the cyclotomic polynomial.
    offenders = [path.name for path in sorted(SRC.glob("*.py"))
                 if path.name != "cyclo.py" and "phi_poly" in path.read_text()]
    cyclo_text = (SRC / "cyclo.py").read_text()
    lanes = cyclo_text[cyclo_text.index("class Lanes"):]
    assert offenders == [] and "phi_poly" not in lanes


def test_lanes_change_width_and_denominators_meet_in_one_place():
    # Lanes change width only through Lanes.relane, so the modules that run
    # on lanes pack no coefficient vector themselves; and the shift of a
    # numerator to a common 2^m is written once, in rings._common_numerators.
    packers = [name for name in ("synth.py", "ringsynth.py", "su2.py", "so3.py")
               if ".pack(" in (SRC / name).read_text()]
    shifts = []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        for match in re.finditer(r"<<\s*\(m\s*-", text):
            shifts.append((path.name, re.findall(r"^\s*def (\w+)", text[:match.start()], re.M)[-1]))
    assert packers == [] and shifts == [("rings.py", "_common_numerators")]


def _guard_lane_arithmetic(monkeypatch, targets, watched=None):
    """Patch each (owner, name) in targets to count its calls, and each
    (owner, name) in watched, by default CycInt's rotation, add and
    subtract, to record any call made while one of the targets runs;
    returns (calls, entered)."""
    from cycsynth import CycInt

    if watched is None:
        watched = [(CycInt, name) for name in ("times_zeta", "__add__", "__sub__")]
    inside, calls, entered = [0], [], {}

    def watch(name, plain):
        def wrapped(*args):
            if inside[0]:
                calls.append(name)
            return plain(*args)
        return wrapped

    def guarded(name, plain):
        def wrapped(*args, **kwargs):
            entered[name] = entered.get(name, 0) + 1
            inside[0] += 1
            try:
                return plain(*args, **kwargs)
            finally:
                inside[0] -= 1
        return wrapped

    for owner, name in watched:
        monkeypatch.setattr(owner, name, watch((owner.__name__, name), getattr(owner, name)))
    for owner, name in targets:
        monkeypatch.setattr(owner, name, guarded(name, getattr(owner, name)))
    return calls, entered


def test_the_gate_kernel_runs_on_lanes_alone(monkeypatch):
    # Every word evaluation and strip goes through su2.apply_gates, which
    # must do its gate arithmetic on packed lanes (cyclo.Lanes): no CycInt
    # rotation, add or subtract runs inside it.  Its lane tables live in
    # Context.memo, like every per-context table.
    from cycsynth import (GateSequence, canonical_form, eval_sequence, make_context,
                          random_unitary, ringsynth, su2, synth)

    calls, entered = _guard_lane_arithmetic(monkeypatch, [(su2, "apply_gates")])
    for n in (8, 12, 30):
        ctx = make_context(n)
        u, _ = random_unitary(ctx, 40, 5)
        word = GateSequence.from_text("H W^3 S " * 40, ctx)
        assert eval_sequence(word, ctx)
        cf = canonical_form(u)
        assert su2._strip(u, synth._form_gates(ctx, cf.axes, cf.exponents, cf.residual))
        if n in ringsynth.RING_EQUALITY_NS:
            assert ringsynth.synthesize_ring(u).tokens
        assert [key for key in ctx._memo if key[0] == "lanes"]
    assert calls == [] and entered["apply_gates"] > 0


def test_the_descent_step_and_column_scoring_run_on_lanes(monkeypatch):
    # The descent's rotation and the entries its scans build (synth._Step,
    # _PlaneScan.entry and pair), and the column step, its scoring
    # (ringsynth._first_reducing_k) and its checks included
    # (ringsynth.reduce_column_step), do their arithmetic on packed lanes:
    # no CycInt rotation, add or subtract runs inside them.
    from cycsynth import canonical_form, make_context, random_unitary, ringsynth, synth

    calls, entered = _guard_lane_arithmetic(
        monkeypatch, [(synth._Step, "rotated"), (synth._PlaneScan, "entry"),
                      (synth._PlaneScan, "pair"), (ringsynth, "_first_reducing_k"),
                      (ringsynth, "reduce_column_step")])
    for n in (8, 12, 30):
        ctx = make_context(n)
        for seed in range(4):
            u, _ = random_unitary(ctx, 60, 80 + seed)
            assert canonical_form(u).tcount() == 60
            if n in ringsynth.RING_EQUALITY_NS:
                assert ringsynth.synthesize_ring(u).tokens
    assert calls == []
    assert sorted(entered) == ["_first_reducing_k", "entry", "pair", "reduce_column_step",
                               "rotated"]


def test_the_descent_step_builds_no_ring_element(monkeypatch):
    # The matrix of a descent step is unpacked only when read: the rotation
    # (synth._Step.rotated), the scan (synth.axis_detect, on a step) and
    # the Clifford test canonical_form makes on every step
    # (synth._Step.signed_perm_key) construct no RingElem and no CycInt.
    from cycsynth import CycInt, RingElem, canonical_form, make_context, random_unitary, synth

    calls, entered = _guard_lane_arithmetic(
        monkeypatch, [(synth._Step, "rotated"), (synth, "axis_detect"),
                      (synth._Step, "signed_perm_key")],
        [(RingElem, "__init__"), (CycInt, "__init__")])
    for n in (8, 12, 30):
        ctx = make_context(n)
        for seed in range(3):
            u, _ = random_unitary(ctx, 60, 90 + seed)
            assert canonical_form(u).tcount() == 60
    assert calls == []
    assert sorted(entered) == ["axis_detect", "rotated", "signed_perm_key"]


def test_the_column_step_builds_no_ring_element(monkeypatch):
    # The column is carried from step to step on lanes (ringsynth.ColumnRn):
    # the step (ringsynth.reduce_column_step), its scoring, the next column
    # and its two checks included, constructs no RingElem and no CycInt.
    from cycsynth import CycInt, RingElem, make_context, random_unitary, ringsynth

    calls, entered = _guard_lane_arithmetic(
        monkeypatch, [(ringsynth, "reduce_column_step")],
        [(RingElem, "__init__"), (CycInt, "__init__")])
    for n in (4, 8, 12):
        ctx = make_context(n)
        for seed in range(3):
            u, _ = random_unitary(ctx, 40, 95 + seed)
            assert ringsynth.synthesize_ring(u).tokens
    assert calls == [] and entered["reduce_column_step"] > 30


def test_the_bloch_step_and_the_exact_checks_form_no_cycint_product(monkeypatch):
    # canonical_form's first step (synth._bloch_step, the Bloch image on
    # lanes), the unitarity check (su2.UnitaryRn._is_unitary), the column
    # checks on loading and after each step (ringsynth.ColumnRn.__init__
    # and _is_normalized) and equal_up_to_phase's |lam|^2 = 1
    # (su2._is_unit_sum) multiply and conjugate on packed lanes: no CycInt
    # product, Galois map or rotation runs inside them.
    from cycsynth import (CycInt, UnitaryRn, canonical_form, equal_up_to_phase, make_context,
                          random_unitary, ringsynth, su2, synth)

    calls, entered = _guard_lane_arithmetic(
        monkeypatch, [(synth, "_bloch_step"), (su2.UnitaryRn, "_is_unitary"),
                      (ringsynth.ColumnRn, "__init__"), (ringsynth.ColumnRn, "_is_normalized"),
                      (su2, "_is_unit_sum")],
        [(CycInt, name) for name in ("__mul__", "galois", "times_zeta")])
    for n in (8, 12, 30, 64):
        ctx = make_context(n)
        u, _ = random_unitary(ctx, 20, 7)
        assert canonical_form(u).tcount() == 20
        assert UnitaryRn(ctx, u.rows) == u
        col = ringsynth.ColumnRn(*u.first_column())
        assert col.x == u.rows[0][0]
        if n in ringsynth.RING_EQUALITY_NS:
            assert ringsynth.reduce_column_step(col)[1].measure() < col.measure()
        assert equal_up_to_phase(u, u) == u.rows[0][0].one(ctx)
    assert calls == []
    assert sorted(entered) == ["__init__", "_bloch_step", "_is_normalized", "_is_unit_sum",
                               "_is_unitary"]


def test_each_scan_builds_its_pencils_once(monkeypatch):
    # Every scan, an _EntryScan (n <= 16) or a _PlaneScan, builds the
    # pencils of its axis exactly once (synth._lane_pencils), for its planes,
    # its entries and its pairs alike, and the rotation to the winning
    # candidate (synth._Step.rotated, always on the winning axis in
    # canonical_form) builds no scan.
    from cycsynth import canonical_form, make_context, random_unitary, synth

    calls, entered = _guard_lane_arithmetic(
        monkeypatch, [(synth._Step, "rotated")], [(synth._EntryScan, "__init__")])
    _, built = _guard_lane_arithmetic(
        monkeypatch, [(synth._EntryScan, "__init__"), (synth, "_lane_pencils")], [])
    for n in (8, 12, 24, 30, 64):
        ctx = make_context(n)
        for seed in range(2):
            u, _ = random_unitary(ctx, 40, 70 + seed)
            assert canonical_form(u).tcount() == 40
    assert calls == [] and entered["rotated"] > 0
    assert built["__init__"] == built["_lane_pencils"] >= entered["rotated"]


def test_each_scan_reads_its_planes_once_per_side(monkeypatch):
    # A _PlaneScan reads the planes mod 4 of its pencils in two calls of
    # cyclo.Lanes.planes, one per side: the three Z_j packed into one int
    # of 3n lanes and the three conj(Z_j) into another, so no loop over the
    # columns reads them one by one.  Up to n = 16 an axis's candidates are
    # built and scored on their entries (_EntryScan), so the descent builds
    # no _PlaneScan and reads no plane.  The residue-byte tables behind the
    # reads have one reader, cyclo.Lanes.
    from cycsynth import canonical_form, cyclo, make_context, random_unitary, synth

    reads, plain = [], cyclo.Lanes.planes

    def counted(lanes, p, count=None):
        reads.append(count)
        return plain(lanes, p, count)

    monkeypatch.setattr(cyclo.Lanes, "planes", counted)
    _, built = _guard_lane_arithmetic(monkeypatch, [(synth._PlaneScan, "__init__")], [])
    for n in (4, 8, 12, 16, 24, 30, 64):
        ctx = make_context(n)
        reads.clear()
        built.clear()
        for seed in range(2):
            u, _ = random_unitary(ctx, 40, 60 + seed)
            assert canonical_form(u).tcount() == 40
        if n <= 16:
            assert reads == [] and built == {}
        else:
            assert built["__init__"] > 0 and reads == [3 * n] * (2 * built["__init__"])
    offenders = [path.name for path in sorted(SRC.glob("*.py")) if path.name != "cyclo.py"
                 and re.search(r"_HIGH_BIT|_LOW_BIT|\.translate\(", path.read_text())]
    cyclo_text = (SRC / "cyclo.py").read_text()
    assert offenders == [] and cyclo_text.count(".translate(") == 3

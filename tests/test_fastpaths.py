"""Differential tests: each arithmetic fast path against the slow code it
replaced (kept in oracles.py as the reference), the gate-application
kernel and the gate constants against explicit matrices and general 2x2
products, bloch against the six-product Bloch image, the mod-4 plane
scan of the descent (every n) against full entries, the dense scan and
the scan with no bar below the current max, the axes up to n = 16,
built rather than scanned, and the descent's two scans, the
first-winner scan with its bar at the smallest row max and the checked
scan with its bar one below the current max, each one pass, against the
scan of every candidate on planes with that one bar, the descent that
stops at each step's first winner against the descent that checks every
step for ties, a column's entries, built whole or one at a time, at
three lane rotations and each built once per scan, the descent's
carried step state against the rotation built from scratch, a
fresh read of its residues and the entry-by-entry exponent profile, the
rewriting pass against the reference pass that keeps its pending
Clifford as a unitary and tracks its own phase, its Clifford index table
against Rotation products, the emission blocks against explicit
matrices, and column reduction, scored on valuations, against building
and measuring every step."""

import ast
import io
import json
import math
import pathlib
import random
import sys
import threading

import pytest

from cycsynth import (
    ColumnRn,
    Context,
    CycInt,
    GateSequence,
    NotReducibleError,
    RingElem,
    UnitaryRn,
    apply_gates,
    axis_detect,
    base_case_column,
    beta_constant,
    beta_exponent,
    bloch,
    canonical_form,
    canonicalize_sequence,
    clifford_group,
    complete_unitary,
    equal_up_to_phase,
    eval_sequence,
    h0,
    is_signed_permutation,
    iter_census,
    make_context,
    matrix_to_json,
    membership,
    mu_threshold,
    pauli,
    phase_condition,
    phase_condition_witness,
    random_unitary,
    reduce_column_step,
    rotation_generator,
    s_gate,
    scalar_gate,
    synthesize_ring,
    to_circuit,
    u_axis,
    uz_power,
    w_gate,
)
from cycsynth import cli, cyclo, ringsynth, su2, synth
from cycsynth.errors import IntegrityError, NoReducingKError
from cycsynth.rings import _beta_exp_r
from cycsynth.so3 import Rotation
from cycsynth.su2 import AXES, _strip, token_w
from cycsynth.synth import (
    _OTHER_ROWS,
    _SIGMA,
    _EntryScan,
    _PlaneScan,
    _RewriteState,
    _Step,
    _as_step,
    _form_gates,
)
from oracles import (
    chain_beta_exponent,
    checked_descent,
    dense_axis_detect,
    dense_candidate_entries,
    dense_galois,
    dense_mul,
    dense_times_zeta,
    gf2_mul,
    gf2_multiplicity,
    halving_normalize,
    matrix_h0,
    matrix_pauli,
    matrix_scalar,
    matrix_u_axis,
    matrix_uz,
    mult_order_two,
    norm_valuation,
    phi_mod2,
    plane_axis_detect,
    product_bloch,
    product_eval_sequence,
    product_generator,
    random_cycint,
    random_sequence,
    reference_canonicalize,
    reference_clifford_moves,
    reference_axis_pencils,
    reference_exponent_profile,
    reference_reduce_column_step,
    reference_rotate,
    ring_complex,
    uncapped_axis_detect,
)

# n = 14, 28 and 30 have several primes above 2; n = 10, 14 and 30 have k = 1.
EXPONENT_NS = (4, 6, 8, 10, 12, 14, 16, 24, 28, 30, 32, 64)
EVEN_NS = range(2, 65, 2)


def _descent_entries(u):
    """Every nonzero entry of every Bloch matrix axis_detect scores along the
    descent of u: each step's matrix and all its 3 (n/2 - 1) candidates."""
    ctx = u.ctx
    m = bloch(u)
    seen = {}
    while True:
        mats = [m] + [
            rotation_generator(ctx, p, ctx.order - b) @ m
            for p in "xyz"
            for b in range(1, ctx.n // 2)
        ]
        for mat in mats:
            for row in mat.rows:
                for e in row:
                    if not e.is_zero():
                        seen.setdefault(e.key(), e)
        if is_signed_permutation(m) is not None:
            return list(seen.values())
        q, b = axis_detect(m)
        m = rotation_generator(ctx, q, ctx.order - b) @ m


@pytest.mark.parametrize("n", EXPONENT_NS)
def test_parity_exponent_matches_divisibility_chain(n):
    ctx = make_context(n)
    bc = beta_constant(ctx)
    tcount = {32: 4, 64: 3}.get(n, 6)
    entries = []
    for seed in range(2):
        entries += _descent_entries(random_unitary(ctx, tcount, 900 + seed)[0])
    assert len({e.m for e in entries}) >= 3
    for e in entries:
        want = chain_beta_exponent(e, bc.beta)
        assert _beta_exp_r(e) == want
        assert beta_exponent(e, bc)[0] == want


def test_beta_exponent_witness_on_descent_entries():
    for n in (8, 12, 28):
        ctx = make_context(n)
        bc = beta_constant(ctx)
        for e in _descent_entries(random_unitary(ctx, 4, 7)[0]):
            r, w = beta_exponent(e, bc)
            beta_r = ctx.one()
            for _ in range(r):
                beta_r = beta_r * bc.beta
            assert RingElem(e.num * beta_r, e.m) == RingElem(w, 0)


@pytest.mark.parametrize("n", (2, 4, 6, 8, 12))
def test_parity_valuation_matches_norm(n):
    ctx = make_context(n)
    rng = random.Random(60 + n)
    one_plus_i = ctx.one() + ctx.zeta(n // 2)
    checked = 0
    for j in range(12):
        pw = ctx.one()
        for _ in range(j):
            pw = pw * one_plus_i
        for _ in range(25):
            x = random_cycint(ctx, rng, 6) * pw
            if rng.random() < 0.3:
                x = x * (1 << rng.randint(1, 3))
            assert x.valuation() == norm_valuation(x)
            checked += 0 if x.is_zero() else 1
    assert checked > 250
    assert ctx.zero().valuation() == math.inf


def _random_sparse(ctx, rng, bound=40):
    x = random_cycint(ctx, rng, bound)
    keep = rng.random()
    return ctx.from_coeffs(c if rng.random() < keep else 0 for c in x.coeffs)


def test_products_match_dense_rows():
    # CycInt's product, rotation and Galois image run on lanes, at widths
    # up to 1024 bits for the 300-bit coefficients; a product's width
    # follows the bits of both factors, so they are drawn unequal too
    rng = random.Random(61)
    bounds = (1 << 5, 1 << 70, 1 << 300)
    cases = [(n, 40, 40) for n in range(2, 65, 2)]
    cases += [(n, bound, rng.choice(bounds)) for n in (30, 64, 90, 210) for bound in bounds]
    for n, bound, other in cases:
        ctx = make_context(n)
        assert ctx.from_int(3) * ctx.zero() == ctx.zero() == ctx.zero() * ctx.zeta(1)
        for _ in range(4):
            a, b = _random_sparse(ctx, rng, bound), _random_sparse(ctx, rng, other)
            assert a * b == dense_mul(a, b) == b * a
            for j in (rng.randrange(-3 * ctx.order, 0), rng.randrange(ctx.order),
                      rng.randrange(ctx.order, 3 * ctx.order)):
                assert a.times_zeta(j) == dense_times_zeta(a, j)
            t = rng.choice(ctx.galois_exponents)
            assert a.galois(t) == dense_galois(a, t)


def _first_step(m):
    """The descent's step state of a plain matrix, checked against the
    references: row maxima against the entry-by-entry profile."""
    st = _as_step(m)
    assert st == m
    assert st.row_max == reference_exponent_profile(m)[1]
    return st


def _advance(st, q, b):
    """The carried step R_q^(-b) M, checked against the references: the
    matrix against the rotation built from scratch, its row maxima against
    the entry-by-entry profile."""
    nxt = st.rotated(AXES.index(q), b)
    assert nxt == reference_rotate(st, AXES.index(q), b)
    # a step that has not been scored builds its own scan
    assert _as_step(Rotation(st.ctx, st.rows, check=False)).rotated(AXES.index(q), b) == nxt
    assert nxt.row_max == reference_exponent_profile(nxt)[1]
    return nxt


@pytest.mark.parametrize("n", EXPONENT_NS + (90,))
def test_rotation_scan_matches_generator_products(n):
    # every candidate's six entries, their planes, the arg-min and the
    # carried step update, on every descent step; n = 90 adds planes that
    # fold 21 blocks (s = 45) mod Phi_180
    ctx = make_context(n)
    steps = 0
    for seed in range(3):
        m = _first_step(bloch(random_unitary(ctx, 12, 300 + seed)[0]))
        while is_signed_permutation(m) is None:
            for qi in range(3):
                pencils = reference_axis_pencils(m.rows, qi)[1]
                scan = _PlaneScan(m, qi)
                for b in range(1, n // 2):
                    got = [_lane_elem(scan.lanes, e) for j in range(3) for e in scan.pair(j, b)]
                    dense = dense_candidate_entries(m, qi, b)
                    assert got == dense
                    _check_plane_residues(scan, b, dense, [p[2] for p in pencils])
            q, b = axis_detect(m)
            assert (q, b) == dense_axis_detect(m)
            nxt = _advance(m, q, b)
            assert nxt == product_generator(ctx, q, ctx.order - b) @ m
            m = nxt
            steps += 1
    assert steps >= 3


def _lane_elem(lanes, entry):
    """The RingElem of a lane entry (p, m)."""
    p, m = entry
    return RingElem(CycInt(lanes.ctx, lanes.unpack(p)), m)


def _bits(coeffs, plane: int) -> int:
    return sum(((c >> plane) & 1) << i for i, c in enumerate(coeffs))


def _check_plane_residues(scan, b, dense, tops):
    # the six numerators of candidate b over 2^top (top per column) mod 4,
    # folded mod Phi_2n: entry e = 2 j + r (row i1 then i2) in lanes 2n e,
    # ..., 2n e + phi(2n) - 1, and its lanes up to 2n e + n - 1 above them
    # clear
    n = scan.ctx.n
    h, l = scan.residues(b)
    assert h | l < 1 << (12 * n)
    for e, entry in enumerate(dense):
        top = tops[e >> 1]
        num = [c << (top - entry.m) for c in entry.num.coeffs]
        lane = (1 << n) - 1
        assert (h >> (2 * n * e)) & lane == _bits(num, 1)
        assert (l >> (2 * n * e)) & lane == _bits(num, 0)


@pytest.mark.parametrize("n", (4, 6, 12, 30))
def test_a_column_costs_three_rotations_in_any_build_order(n, monkeypatch):
    # A column's two entries, built by pair, by entry one at a time or one
    # by entry and the other by pair, in either order, cost three lane
    # rotations (Lanes.zeta) and equal the dense candidate's entries.
    ctx = make_context(n)
    m = _as_step(bloch(random_unitary(ctx, 8, 670)[0]))
    rotations, zeta = [0], cyclo.Lanes.zeta

    def counted(lanes, p, c):
        rotations[0] += 1
        return zeta(lanes, p, c)

    monkeypatch.setattr(cyclo.Lanes, "zeta", counted)
    orders = (("pair",), (0, 1), (1, 0), (0, "pair"), (1, "pair"))
    for qi in range(3):
        for b in range(1, n // 2):
            dense = dense_candidate_entries(m, qi, b)
            for j in range(3):
                for order in orders:
                    scan = _PlaneScan(m, qi)
                    rotations[0] = 0
                    for how in order:
                        if how == "pair":
                            scan.pair(j, b)
                        else:
                            scan.entry(2 * j + how, b)
                    assert rotations[0] == 3
                    assert [_lane_elem(scan.lanes, e) for e in scan.pair(j, b)] == \
                        dense[2 * j:2 * j + 2]


@pytest.mark.parametrize("n", EXPONENT_NS)
def test_candidate_scan_contract(n, monkeypatch):
    # every candidate (q, b) on every descent step, scored against chain
    # exponents: the exact max or None exactly when it exceeds the cutoff;
    # and when it is None, the scan has built (_PlaneScan.entry) no deferred
    # entry past the first whose exponent exceeds the cutoff
    ctx = make_context(n)
    beta = beta_constant(ctx).beta
    exact = {}

    def r(e):
        if e.key() not in exact:
            exact[e.key()] = chain_beta_exponent(e, beta)
        return exact[e.key()]

    built, entry = [], _PlaneScan.entry

    def spy(scan, e, b):
        built.append(e)
        return entry(scan, e, b)

    monkeypatch.setattr(_PlaneScan, "entry", spy)
    checked = planes = 0
    for seed in range(2):
        m = _first_step(bloch(random_unitary(ctx, {32: 4, 64: 3}.get(n, 6), 900 + seed)[0]))
        while is_signed_permutation(m) is None:
            for qi in range(3):
                floor = max([r(e) for e in m.rows[qi] if not e.is_zero()], default=0)
                assert m.row_max[qi] == floor
                scan = _PlaneScan(m, qi)
                for b in range(1, n // 2):
                    # entry e of the scan is entry e of the dense candidate
                    entries = dense_candidate_entries(m, qi, b)
                    exps = [None if e.is_zero() else r(e) for e in entries]
                    top = max([x for x in exps if x is not None], default=0)
                    # from the row's floor, and from 0, where more entries
                    # are deferred, at every cutoff up to the max
                    for low in (floor, 0):
                        want = max(low, top)
                        cutoffs = range(want - 1, want + 2) if low else range(want + 2)
                        for cutoff in (math.inf, *cutoffs):
                            built.clear()
                            got = scan.score(b, low, cutoff)
                            assert got == (want if want <= cutoff else None)
                            planes += 1
                            if got is not None:
                                continue
                            over = [i for i, e in enumerate(built)
                                    if exps[e] is not None and exps[e] > cutoff]
                            assert len(built) <= (over[0] + 1 if over else 0)
                            checked += bool(built)
            q, b = axis_detect(m)
            assert (q, b) == dense_axis_detect(m)
            m = _advance(m, q, b)
    assert checked > 0
    assert planes > 0


def test_rotation_scan_rejects_like_dense_scan():
    from test_synth import _infinite_order_unit

    ctx = make_context(14)
    one, zero = RingElem.one(ctx), RingElem.zero(ctx)
    m = bloch(UnitaryRn(ctx, ((one, zero), (zero, _infinite_order_unit(ctx)))))
    with pytest.raises(NotReducibleError) as want:
        dense_axis_detect(m)
    with pytest.raises(NotReducibleError) as got:
        axis_detect(m)
    assert str(got.value) == str(want.value)
    with pytest.raises(NotReducibleError) as uncapped:
        uncapped_axis_detect(m)
    assert str(got.value) == str(uncapped.value)


@pytest.mark.parametrize("n", (12, 16, 20, 24, 32, 48, 64))
def test_plane_scan_rejects_like_dense_scan(n):
    # -bloch(u) of a member descends like bloch(u), entry for entry negated,
    # down to a signed permutation of determinant -1, where no candidate
    # reduces the exponent
    ctx = make_context(n)
    u, _ = random_unitary(ctx, 10, 40 + n)
    m = _first_step(Rotation(ctx, [[-e for e in row] for row in bloch(u).rows], check=False))
    steps = 0
    while m.signed_perm_key() is None:
        q, b = axis_detect(m)
        assert (q, b) == dense_axis_detect(m)
        m = _advance(m, q, b)
        steps += 1
    assert steps > 0 and is_signed_permutation(m) is None
    with pytest.raises(NotReducibleError) as want:
        dense_axis_detect(m)
    with pytest.raises(NotReducibleError) as got:
        axis_detect(m)
    assert str(got.value) == str(want.value)
    with pytest.raises(NotReducibleError) as uncapped:
        uncapped_axis_detect(m)
    assert str(got.value) == str(uncapped.value)


@pytest.mark.parametrize("n", EXPONENT_NS)
def test_capped_scan_picks_what_the_uncapped_scan_picks(n):
    # axis_detect's bar is below the current max; on every step of
    # member descents it picks the (q, b) of the scan whose bar starts at
    # math.inf, and leaves the winning scan on the step for the rotation.
    ctx = make_context(n)
    steps = 0
    for seed in range(3):
        st = _as_step(bloch(random_unitary(ctx, {32: 12, 64: 8}.get(n, 24), 610 + seed)[0]))
        while is_signed_permutation(st) is None:
            want = uncapped_axis_detect(st)
            assert axis_detect(st) == want and st.scan.qi == AXES.index(want[0])
            st = st.rotated(AXES.index(want[0]), want[1])
            steps += 1
    assert steps >= 6


@pytest.mark.parametrize("n", (12, 14, 30))
def test_a_step_with_every_row_at_the_max_builds_no_scan(n, monkeypatch):
    # No candidate on an axis whose kept row sits at the max can reduce it,
    # so a step whose three rows all do is rejected with no scan built,
    # with the error the uncapped scan raises after scoring them all: the
    # signed permutation of determinant -1 a negated Bloch image descends
    # to (every row at 0), and a matrix of odd numerators over 2^2.
    ctx = make_context(n)
    u, _ = random_unitary(ctx, 6, 620 + n)
    m = _as_step(Rotation(ctx, [[-e for e in row] for row in bloch(u).rows], check=False))
    while m.signed_perm_key() is None:
        q, b = axis_detect(m)
        m = m.rotated(AXES.index(q), b)
    rng = random.Random(630 + n)
    odd = Rotation(ctx, [[RingElem(CycInt(ctx, [2 * rng.randint(-3, 3) + 1
                                                for _ in range(ctx.degree)]), 2)
                          for _ in range(3)] for _ in range(3)], check=False)
    built, init = [], _PlaneScan.__init__

    def counted(scan, st, qi):
        built.append(qi)
        init(scan, st, qi)

    monkeypatch.setattr(_PlaneScan, "__init__", counted)
    for st in (m, _as_step(odd)):
        assert len(set(st.row_max)) == 1
        built.clear()
        with pytest.raises(NotReducibleError) as uncapped:
            uncapped_axis_detect(st)
        assert built
        built.clear()
        with pytest.raises(NotReducibleError) as got:
            axis_detect(st)
        assert str(got.value) == str(uncapped.value) and built == []


@pytest.mark.parametrize("n", (12, 24, 64))
def test_descent_scores_every_candidate_on_residue_planes(n, monkeypatch):
    # every n: each step scores whole axes of candidates, on their entries
    # up to n = 16 (_EntryScan.score) and on residue planes above
    # (_PlaneScan.score), and builds a lane entry in full only through
    # _EntryScan.entry; the rotation builds only the winner's lane entries
    # the scan did not, and unpacks none of the six (the matrix is unpacked
    # only when read)
    ctx = make_context(n)
    scored, calls = [], {"entry": 0, "built": 0, "elem": 0}
    scan_type = _EntryScan if n <= 16 else _PlaneScan
    score, entry, lane_entry = scan_type.score, _EntryScan.entry, cyclo.Lanes.entry

    def counted_score(self, b, floor, cutoff):
        scored.append((self.qi, b))
        return score(self, b, floor, cutoff)

    def counted_entry(self, e, b):
        calls["entry"] += 1
        return entry(self, e, b)

    def counted_lane_entry(lanes, p, m):
        calls["built"] += 1
        return lane_entry(lanes, p, m)

    def counted_elem(num, m=0):
        calls["elem"] += 1
        return RingElem(num, m)

    monkeypatch.setattr(scan_type, "score", counted_score)
    monkeypatch.setattr(_EntryScan, "entry", counted_entry)
    monkeypatch.setattr(cyclo.Lanes, "entry", counted_lane_entry)
    monkeypatch.setattr(synth, "RingElem", counted_elem)
    m = _as_step(bloch(random_unitary(ctx, 30, 77)[0]))
    steps = reused = 0
    while is_signed_permutation(m) is None:
        scored.clear()
        calls.update(entry=0, built=0)
        q, b = axis_detect(m)
        axes = sorted({qi for qi, _ in scored})
        assert axes and sorted(scored) == [(qi, c) for qi in axes for c in range(1, n // 2)]
        assert type(m.scan) is scan_type and calls["built"] == calls["entry"]
        # the rotation builds only the winner's entries the scan did not
        kept = sum(1 for _, c in m.scan.built if c == b)
        calls.update(elem=0, built=0)
        m = m.rotated(AXES.index(q), b)
        assert (calls["built"], calls["elem"]) == (6 - kept, 0)
        steps += 1
        reused += kept
    assert steps >= 3 and reused > 0


def _spy_lane_reads(monkeypatch):
    """Lists, under "planes", "entry" and "row_max", of the plane reads
    (cyclo.Lanes.planes), the lane entries built (cyclo.Lanes.entry) and
    the rows synth._row_max reads."""
    calls = {"planes": [], "entry": [], "row_max": []}
    planes, entry, row_max = cyclo.Lanes.planes, cyclo.Lanes.entry, synth._row_max
    monkeypatch.setattr(cyclo.Lanes, "planes", lambda lanes, p, count=None:
                        calls["planes"].append(count) or planes(lanes, p, count))
    monkeypatch.setattr(cyclo.Lanes, "entry", lambda lanes, p, m:
                        calls["entry"].append(m) or entry(lanes, p, m))
    monkeypatch.setattr(synth, "_row_max", lambda lanes, row:
                        calls["row_max"].append(row) or row_max(lanes, row))
    return calls


def _check_entry_scan_step(st, calls):
    """axis_detect on a step against plane_axis_detect: the same (axis, b)
    or the same NotReducibleError text, and up to n = 16, where each axis
    is scored on its built entries (_EntryScan), no plane read
    (calls["planes"]).  Every candidate of every axis scores on its
    entries what it scores on planes, with no cutoff and cut at the
    checked bar, max - 1.  On a winner the kept scan is an _EntryScan
    exactly up to n = 16; its winner's entries equal a fresh plane scan's
    pair(j, b), and the rotation equals reference_rotate, builds no entry
    after an entry scan (calls["entry"]) and carries the winner's row
    maxima.  Returns the next step, else None, and the outcome: "winner",
    or the error text."""
    entries, top = st.ctx.n <= 16, max(st.row_max) - 1
    for qi in range(3):
        by_entry, by_plane, floor = _EntryScan(st, qi), _PlaneScan(st, qi), st.row_max[qi]
        for b in range(1, st.ctx.n // 2):
            assert by_entry.score(b, floor, math.inf) == by_plane.score(b, floor, math.inf)
            cut = [scan.score(b, floor, top) for scan in (by_entry, by_plane)]
            assert len({None if v is None or v > top else v for v in cut}) == 1
    try:
        want = plane_axis_detect(st)
    except NotReducibleError as exc:
        calls["planes"].clear()
        with pytest.raises(NotReducibleError) as got:
            axis_detect(st)
        assert str(got.value) == str(exc) and not (entries and calls["planes"])
        return None, str(exc)
    calls["planes"].clear()
    assert axis_detect(st) == want and not (entries and calls["planes"])
    qi, b = AXES.index(want[0]), want[1]
    scan, fresh = st.scan, _PlaneScan(st, qi)
    assert scan.qi == qi and (type(scan) is _EntryScan) == entries
    assert scan.lanes.width == fresh.lanes.width
    pairs = [x for j in range(3) for x in fresh.pair(j, b)]
    if entries:  # the score built all six
        assert [scan.built[e, b] for e in range(6)] == pairs
    assert [x for j in range(3) for x in scan.pair(j, b)] == pairs
    calls["entry"].clear()
    calls["row_max"].clear()
    nxt = st.rotated(qi, b)
    assert not (entries and calls["entry"])
    assert nxt == reference_rotate(st, qi, b)
    _check_carried_maxima(st, qi, b, nxt, calls["row_max"])
    return nxt, "winner"


def _check_carried_maxima(st, qi, b, nxt, reads):
    """nxt = st.rotated(qi, b) after axis_detect, with reads, the rows
    synth._row_max read, cleared before it: the new rows' maxima are the
    ones the winner's score kept, so no _row_max ran, and they equal a fresh
    read entry by entry (reference_exponent_profile).  A step whose scan
    never scored b (a plain matrix, so a new scan) reads both new rows with
    _row_max and gets the same maxima."""
    assert reads == [] and nxt.row_max == reference_exponent_profile(nxt)[1]
    fresh = _as_step(Rotation(st.ctx, st.rows, check=False))
    reads.clear()
    assert fresh.rotated(qi, b).row_max == nxt.row_max and len(reads) == 2


def _s_symmetrized(rows):
    # M + S M S^T for S, the half turn about (1, 1, 0), which swaps x and y
    # and negates z: S R_x S^T = R_y, so candidate (x, b) of the sum and
    # candidate (y, b) have the same entries up to a signed permutation
    sign = (1, 1, -1)
    swap = (1, 0, 2)
    return [[e + (rows[swap[i]][swap[j]] if sign[i] == sign[j] else -rows[swap[i]][swap[j]])
             for j, e in enumerate(row)] for i, row in enumerate(rows)]


def test_one_candidate_axes_are_built_like_the_plane_scan_scores_them(monkeypatch):
    # n = 4: each axis has one candidate, b = 1, built from its pencils
    # (_EntryScan.pair) and scored on its entries, never on planes.  Every
    # step of descents at T-counts 1 to 200, and every step of crafted
    # matrices down to a Clifford or a stuck step: one no candidate
    # reduces; ones where the x and y axes tie, symmetric under the half
    # turn that swaps them (at n = 4 no tie gets below the max: a column
    # in the images of the entries of exponent <= e under two of the
    # rotations is itself of exponent <= e, so the bar cuts the tie and
    # the z axis may still win); and products of generators with an axis
    # repeated.
    ctx, calls, steps = make_context(4), _spy_lane_reads(monkeypatch), 0
    for tcount in (1, 2, 10, 50, 200):
        for seed in range(20):
            st = _as_step(bloch(random_unitary(ctx, tcount, 2500 + seed)[0]))
            while is_signed_permutation(st) is None:
                st, _ = _check_entry_scan_step(st, calls)
                steps += 1
    assert steps == 20 * (1 + 2 + 10 + 50 + 200)
    rng = random.Random(2600)
    odd = [[RingElem(CycInt(ctx, [2 * rng.randint(-3, 3) + 1 for _ in range(4)]), 2)
            for _ in range(3)] for _ in range(3)]
    crafted = [Rotation(ctx, odd, check=False)]
    for seed in range(20):
        rows = _s_symmetrized(bloch(random_unitary(ctx, 1 + seed % 3, 2700 + seed)[0]).rows)
        crafted.append(Rotation(ctx, rows, check=False))
    for word in ("xxy", "xxyyz", "zzzx", "yxxxz", "xyyxxz"):
        m = Rotation.identity(ctx)
        for p in word:
            m = rotation_generator(ctx, p, 1) @ m
        crafted.append(m)
    ties = stuck = 0
    for m in crafted:
        st = _as_step(m)
        scores = [_PlaneScan(st, qi).score(1, st.row_max[qi], math.inf) for qi in range(3)]
        ties += scores[0] == scores[1]
        while st is not None and is_signed_permutation(st) is None:
            st, _ = _check_entry_scan_step(st, calls)
        stuck += st is None
    assert ties >= 20 and stuck >= 2


@pytest.mark.parametrize("n", EXPONENT_NS + (20,))
def test_entry_scan_steps_match_the_plane_scan(n, monkeypatch):
    # Up to n = 16 each axis's candidates are built from its pencils
    # (_EntryScan) and scored on their entries, never on planes; above, on
    # planes (_PlaneScan).  On both sides every step matches the scan of
    # every candidate on planes (_check_entry_scan_step): the steps of
    # member descents and of the crafted matrices (_crafted_descents),
    # bare and behind a member's rotations, down to a Clifford or a stuck
    # step.
    ctx, calls = make_context(n), _spy_lane_reads(monkeypatch)
    tcount = {32: 12, 64: 8}.get(n, 24)
    starts = [bloch(random_unitary(ctx, tcount, 3100 + seed)[0]) for seed in range(3)]
    seen = []
    for m in starts + [m for _, m in _crafted_descents(ctx, 10)]:
        st = _as_step(m)
        while st is not None and is_signed_permutation(st) is None:
            st, kind = _check_entry_scan_step(st, calls)
            seen.append(kind)
    assert seen.count("winner") >= 30 and NONE in seen


def _spy_scans(monkeypatch):
    """A list that collects (axis, b, cutoff, value) per score of either
    scan, _EntryScan or _PlaneScan; one that collects the axis of every
    scan built; and one that collects every row synth._row_max reads."""
    scored, built, init = [], [], _EntryScan.__init__
    reads, row_max = [], synth._row_max

    def counted_score(score):
        def counted(scan, b, floor, cutoff):
            val = score(scan, b, floor, cutoff)
            scored.append((scan.qi, b, cutoff, val))
            return val
        return counted

    def counted_init(scan, st, qi):
        built.append(qi)
        init(scan, st, qi)

    for cls in (_EntryScan, _PlaneScan):
        monkeypatch.setattr(cls, "score", counted_score(cls.score))
    monkeypatch.setattr(_EntryScan, "__init__", counted_init)
    monkeypatch.setattr(synth, "_row_max", lambda lanes, row:
                        reads.append(row) or row_max(lanes, row))
    return scored, built, reads


NONE = "no candidate strictly reduces the exponent"
TIE = "minimal candidate is not unique"


def _score(st, q, b):
    """The exponent candidate (q, b) of st scores, from a fresh scan."""
    qi = AXES.index(q)
    return _PlaneScan(st, qi).score(b, st.row_max[qi], math.inf)


def _check_two_bar_step(st, scored, built, reads):
    """axis_detect on a step at n >= 6 at each of the descent's two bars,
    the checked scan's (st) and the first-winner scan's (a copy of st on
    canonical_form's first-winner descent), against plane_axis_detect, the
    scan with the one bar max - 1 (spies of _spy_scans).

    The checked scan makes one pass: it scores its first candidate against
    max - 1, no candidate twice and builds no axis's scan twice, and gives
    the same (axis, b) or the same NotReducibleError text.  On a winner,
    the kept scan's six entries of the winning candidate equal a fresh
    scan's, and the rotation carries the winner's row maxima
    (_check_carried_maxima).  The first-winner scan makes one pass with
    the bar at min(floor0, max - 1), floor0 the smallest row max, and takes
    the first candidate that gets there, which scores floor0: the checked
    scan's winner, or one it ties with; a step where nothing gets there is
    stuck, and then the checked scan finds no winner at floor0.  Returns
    the next step, else None, and the outcomes (checked, first-winner):
    "winner", "tie" or "none"."""
    def outcome(detect, m):
        scored.clear()
        built.clear()
        try:
            got = detect(m)
        except NotReducibleError as exc:
            got = str(exc)
        cands = [(qi, b) for qi, b, _, _ in scored]
        assert len(cands) == len(set(cands)) and len(built) == len(set(built))
        return got, [cutoff for _, _, cutoff, _ in scored]

    kinds = {NONE: "none", TIE: "tie"}
    row_max = st.row_max
    floor0, top = min(row_max), max(row_max) - 1
    want, _ = outcome(plane_axis_detect, st)
    got, cutoffs = outcome(axis_detect, st)
    assert got == want and cutoffs[:1] in ([], [top])
    first, cutoffs = outcome(axis_detect, _Step(st.lanes, st.ent, row_max, optimistic=True))
    assert set(cutoffs) <= {min(floor0, top)}
    if isinstance(first, str):
        assert first == NONE
        assert isinstance(want, str) or _score(st, *want) > floor0
    else:
        assert _score(st, *first) == floor0 and want in (first, TIE)
    kind = kinds.get(want, "winner"), kinds.get(first, "winner")
    if isinstance(want, str):
        return None, kind
    qi, b = AXES.index(want[0]), want[1]
    scan, fresh = st.scan, _PlaneScan(st, qi)
    assert scan.qi == qi and scan.lanes.width == fresh.lanes.width
    assert [scan.pair(j, b) for j in range(3)] == [fresh.pair(j, b) for j in range(3)]
    reads.clear()
    nxt = st.rotated(qi, b)
    _check_carried_maxima(st, qi, b, nxt, reads)
    return nxt, kind


@pytest.mark.parametrize("n", [n for n in EXPONENT_NS if n >= 6] + [90, 128, 512, 1024])
def test_two_bar_scan_picks_what_the_one_bar_scan_picks(n, monkeypatch):
    # The descent's two bars, the first-winner scan's at the smallest row
    # max and the checked scan's at max - 1, each one pass: on every step of
    # member descents both pick what the scan with the one bar max - 1
    # picks, and the checked scan scores its first candidate against
    # max - 1 also on steps whose smallest row max is below it.
    ctx = make_context(n)
    scored, built, reads = _spy_scans(monkeypatch)
    tcount = {32: 12, 64: 8}.get(n, 24 if n < 64 else 6)
    steps = below = 0
    for seed in range(3):
        st = _as_step(bloch(random_unitary(ctx, tcount, 610 + seed)[0]))
        while is_signed_permutation(st) is None:
            below += min(st.row_max) < max(st.row_max) - 1
            st, kind = _check_two_bar_step(st, scored, built, reads)
            assert kind == ("winner", "winner")
            steps += 1
    # at n = 2 mod 4 (k = 1) each member step lowers the max by q_of(b) = 1
    assert steps >= 6 and (below > 0) == (n % 4 == 0)


def test_two_bar_scan_rejects_and_ties_like_the_one_bar_scan(monkeypatch):
    # Steps where no candidate gets to the smallest row max: the stuck
    # steps of the n = 14 and 28 non-members of test_synth, matrices of odd
    # numerators and ones symmetric under the half turn that swaps x and y,
    # whose x and y candidates tie; each descended to a Clifford or a stuck
    # step.  The checked scan finds a winner, raises the tie or finds
    # nothing, as the one-bar scan does, with its error text; the
    # first-winner scan takes a candidate only at the smallest row max, and
    # gets stuck on every other step.
    from test_synth import _infinite_order_unit

    scored, built, reads = _spy_scans(monkeypatch)
    crafted = []
    for n in (14, 28):
        ctx = make_context(n)
        one, zero = RingElem.one(ctx), RingElem.zero(ctx)
        good = u_axis(ctx, "y", 1, 3) @ u_axis(ctx, "z", 1, 2) @ u_axis(ctx, "x", 1, 1)
        crafted.append(bloch(good @ UnitaryRn(ctx, ((one, zero),
                                                     (zero, _infinite_order_unit(ctx))))))
    for n in (6, 8, 12, 16, 30):
        ctx = make_context(n)
        rng = random.Random(2800 + n)
        for seed in range(10):
            rows = _s_symmetrized(bloch(random_unitary(ctx, 1 + seed % 3, 2700 + seed)[0]).rows)
            crafted.append(Rotation(ctx, rows, check=False))
            odd = [[RingElem(CycInt(ctx, [2 * rng.randint(-3, 3) + 1 for _ in range(ctx.degree)]),
                             rng.randint(1, 3)) for _ in range(3)] for _ in range(3)]
            crafted.append(Rotation(ctx, odd, check=False))
    seen = set()
    for m in crafted:
        st = _as_step(m)
        while st is not None and is_signed_permutation(st) is None:
            st, kind = _check_two_bar_step(st, scored, built, reads)
            seen.add(kind)
    # a checked winner above the smallest row max leaves the first-winner
    # scan stuck; no tie here is at the smallest row max
    assert seen == {("winner", "winner"), ("winner", "none"), ("tie", "none"), ("none", "none")}


def _crafted_descents(ctx, seeds):
    """(u, m) pairs of the crafted scan tests at ctx, m the Bloch matrix the
    descent starts from: matrices of odd numerators and ones symmetric
    under the half turn that swaps x and y, whose x and y candidates tie
    (u None: no unitary has them as its Bloch image), each bare and behind
    a member's rotations; and members with an axis repeated in their word
    of generators, with their unitary."""
    rng = random.Random(2900 + ctx.n)
    crafted = []
    for seed in range(seeds):
        rows = _s_symmetrized(bloch(random_unitary(ctx, 1 + seed % 3, 2700 + seed)[0]).rows)
        crafted.append(Rotation(ctx, rows, check=False))
        odd = [[RingElem(CycInt(ctx, [2 * rng.randint(-3, 3) + 1 for _ in range(ctx.degree)]),
                         rng.randint(1, 3)) for _ in range(3)] for _ in range(3)]
        crafted.append(Rotation(ctx, odd, check=False))
    prefix = bloch(random_unitary(ctx, 3, 2950)[0])
    pairs = [(None, m) for m in crafted] + [(None, prefix @ m) for m in crafted]
    for word in ("xxy", "xxyyz", "zzzx", "yxxxz", "xyyxxz"):
        u = UnitaryRn.identity(ctx)
        for p in word:
            u = u_axis(ctx, p, 1, 1) @ u
        pairs.append((u, bloch(u)))
    return pairs


def test_descent_on_crafted_matrices_matches_the_checked_descent(monkeypatch):
    # canonical_form, fed each crafted matrix as its Bloch step, raises the
    # checked descent's error with its step and row maxima, and membership
    # gives it as the reason; a crafted member gets the checked descent's
    # form.  Ties, dead ends and stuck steps after peeled rotations all
    # occur.
    seen = set()
    for n in (4, 6, 8, 12, 16, 30):
        ctx = make_context(n)
        for u, m in _crafted_descents(ctx, 10):
            try:
                want = synth._phased_form(u, *checked_descent(m), synth.PhaseNotInRingError)
            except NotReducibleError as exc:
                monkeypatch.setattr(synth, "_bloch_step", lambda u, m=m: _as_step(m))
                with pytest.raises(NotReducibleError) as got:
                    canonical_form(UnitaryRn.identity(ctx))
                assert (str(got.value), got.value.step, got.value.row_max) == \
                    (str(exc), exc.step, exc.row_max)
                assert membership(UnitaryRn.identity(ctx)).reason == "descent: %s" % exc
                monkeypatch.undo()
                seen.add((str(exc).split(": ")[1], exc.step > 0))
                continue
            assert u is not None and canonical_form(u) == want
            seen.add(("member", want.m > 0))
    assert seen == {(kind, peeled) for peeled in (False, True) for kind in (
        "no candidate strictly reduces the exponent", "minimal candidate is not unique")} | {
        ("member", True)}


@pytest.mark.parametrize("n", EXPONENT_NS + (90, 128, 512, 1024))
def test_descent_matches_the_checked_descent(n):
    # canonical_form stops each step at its first candidate at the smallest
    # row max; on members it gives the form of the descent that scores
    # every candidate at its bar and checks for ties, and the word
    # random_unitary emitted for it
    ctx = make_context(n)
    tcount = {32: 12, 64: 8}.get(n, 24 if n < 64 else 6)
    for seed in range(3):
        u, word = random_unitary(ctx, tcount, 650 + seed)
        cf = canonical_form(u)
        assert cf == synth._phased_form(u, *checked_descent(bloch(u)), synth.PhaseNotInRingError)
        assert cf.tcount() == tcount and to_circuit(cf) == word


@pytest.mark.parametrize("n", (16, 32, 64))
def test_descent_stops_at_its_first_winner(n, monkeypatch):
    # A step of canonical_form scores every candidate of each deficient
    # axis (kept row at the smallest row max, floor0) ordered before the
    # winner's, all cut, then the winner's axis up to the winner, which
    # scores floor0, and nothing after it, on entries at n = 16
    # (_EntryScan.score) and on planes above.  The checked scan scores every
    # candidate of each deficient axis: 420 calls at n = 16, 555 at n = 32
    # and 620 at n = 64 over these descents, against 254, 328 and 346.
    ctx = make_context(n)
    half, scored, steps = n // 2, [], []
    scan_type = _EntryScan if n <= 16 else _PlaneScan
    score, detect = scan_type.score, synth.axis_detect

    def counted_score(scan, b, floor, cutoff):
        val = score(scan, b, floor, cutoff)
        scored.append((scan.qi, b, val))
        return val

    def counted_detect(st):
        scored.clear()
        q, b = detect(st)
        steps.append((st.row_max, AXES.index(q), b, list(scored)))
        return q, b

    monkeypatch.setattr(scan_type, "score", counted_score)
    monkeypatch.setattr(synth, "axis_detect", counted_detect)
    for seed in range(3):
        u, word = random_unitary(ctx, {16: 50, 32: 50, 64: 30}[n], 660 + seed)
        assert to_circuit(canonical_form(u)) == word
    calls = deficient = 0
    for row_max, qi, b, got in steps:
        floor0 = min(row_max)
        order = [i for i in range(3) if row_max[i] == floor0]
        before = order[:order.index(qi)]
        assert got == [(i, c, None) for i in before for c in range(1, half)] + \
            [(qi, c, None) for c in range(1, b)] + [(qi, b, floor0)]
        calls += len(got)
        deficient += len(order)
    assert calls < deficient * (half - 1) * 0.7


@pytest.mark.parametrize("n", (6, 8, 12, 16, 30, 64))
def test_the_first_bar_is_the_winners_score(n, monkeypatch):
    # The exponent law (criterion 5): on a member's descent the winner
    # scores exactly the smallest row max, so each step of canonical_form
    # is one first-winner scan with its bar there, whose last score is the
    # winner's, at that bar, and the next step's max is that bar.
    ctx = make_context(n)
    (scored, _, _), steps, detect = _spy_scans(monkeypatch), [], synth.axis_detect

    def counted_detect(st):
        scored.clear()
        q, b = detect(st)
        steps.append((st.optimistic, st.row_max, AXES.index(q), b, list(scored)))
        return q, b

    monkeypatch.setattr(synth, "axis_detect", counted_detect)
    descents = 0
    for seed in range(3):
        u, word = random_unitary(ctx, 24 if n < 64 else 8, 640 + seed)
        steps.clear()
        assert to_circuit(canonical_form(u)) == word
        for i, (optimistic, row_max, qi, b, got) in enumerate(steps):
            floor0 = min(row_max)
            assert optimistic and floor0 < max(row_max)
            assert {cutoff for _, _, cutoff, _ in got} == {floor0}
            assert got[-1] == (qi, b, floor0, floor0)
            assert floor0 == (max(steps[i + 1][1]) if i + 1 < len(steps) else 0)
        descents += len(steps) >= 2
    assert descents == 3


@pytest.mark.parametrize("n", (4, 6, 8, 12, 16, 30))
def test_no_entry_is_built_twice_per_scan(n, monkeypatch):
    # Every lane entry a scan or the rotation builds (Lanes.entry, also
    # used by the Bloch image, so3._bloch_entries, built before) is built by
    # _EntryScan.entry, and each (scan, entry, b) at most once: over the
    # crafted matrices, bare and behind a member's rotations, descended by
    # the public (checked) axis_detect to a Clifford or a stuck step, and
    # over member descents, checked and by canonical_form.
    builds, scans, inside = [], [], [None]
    entry, lane_entry, bloch_entries = synth._EntryScan.entry, cyclo.Lanes.entry, \
        synth._bloch_entries

    def within(tag, fn, *args):
        outer, inside[0] = inside[0], tag
        try:
            return fn(*args)
        finally:
            inside[0] = outer

    def counted_lane_entry(lanes, p, m):
        tag = inside[0]
        if tag != "bloch":
            scans.append(tag and tag[0])  # alive, so that no other scan takes its id
            builds.append(tag and (id(tag[0]), tag[1], tag[2]))
        return lane_entry(lanes, p, m)

    ctx = make_context(n)
    members = [random_unitary(ctx, 20, 3000 + seed)[0] for seed in range(3)]
    starts = [m for _, m in _crafted_descents(ctx, 10)] + [bloch(u) for u in members]
    monkeypatch.setattr(synth._EntryScan, "entry", lambda scan, e, b:
                        within((scan, e, b), entry, scan, e, b))
    monkeypatch.setattr(synth, "_bloch_entries", lambda u: within("bloch", bloch_entries, u))
    monkeypatch.setattr(cyclo.Lanes, "entry", counted_lane_entry)
    for m in starts:
        st = _as_step(m)
        while is_signed_permutation(st) is None:
            try:
                q, b = axis_detect(st)
            except NotReducibleError:
                break
            st = st.rotated(AXES.index(q), b)
    for u in members:
        canonical_form(u)
    assert None not in builds and len(builds) == len(set(builds)) > 0


@pytest.mark.parametrize("n, tcount, bound", [(64, 100, 450), (1024, 15, 300)])
def test_the_first_bar_cuts_parity_reads(n, tcount, bound, monkeypatch):
    # Candidates scored against the winner's score, not max - 1, read fewer
    # parity masks: over seeds 0-2, 749 reads with the one bar against 289
    # with the two at n = 64, and 2,170 against 48 at n = 1024.
    ctx = make_context(n)
    us = [random_unitary(ctx, tcount, seed)[0] for seed in range(3)]
    reads, multiplicity = [0], Context.parity_multiplicity

    def counted(ctx, mask):
        reads[0] += 1
        return multiplicity(ctx, mask)

    monkeypatch.setattr(Context, "parity_multiplicity", counted)
    for u in us:
        assert canonical_form(u).tcount() == tcount
    assert 0 < reads[0] <= bound


@pytest.mark.parametrize("n, bound", [(4, 1250), (8, 1165), (12, 480), (24, 480), (64, 250)])
def test_carried_row_maxima_cut_exponent_reads(n, bound, monkeypatch):
    # Each exponent of a step is read once: a score keeps one running max
    # per new row, and the rotation takes the winner's instead of reading
    # both new rows again.  Over seeds 0-2 at T-count 100, parity reads fall
    # from 2,181 to 1,098 at n = 4, 1,571 to 829 at n = 8 and 812 to 421 at
    # n = 12 (entry scans), and 769 to 387 at n = 24 and 302 to 176 at
    # n = 64 (plane scans); _row_max reads only each descent's first three
    # rows, those of the Bloch image (609 calls at n = 4 when the rotation
    # read its new rows).
    ctx = make_context(n)
    us = [random_unitary(ctx, 100, seed)[0] for seed in range(3)]
    reads, rows = [0], []
    multiplicity, row_max = Context.parity_multiplicity, synth._row_max

    def counted(ctx, mask):
        reads[0] += 1
        return multiplicity(ctx, mask)

    monkeypatch.setattr(Context, "parity_multiplicity", counted)
    monkeypatch.setattr(synth, "_row_max", lambda lanes, row:
                        rows.append(row) or row_max(lanes, row))
    for u in us:
        assert canonical_form(u).tcount() == 100
    assert 0 < reads[0] <= bound and len(rows) == 3 * len(us)


def _parity_mask(coeffs, shift=0):
    # bit i set where c_i >> shift is odd
    return sum(((c >> shift) & 1) << i for i, c in enumerate(coeffs))


def _residue_with_multiplicity(ctx, rng, mult, shift):
    # coefficients whose bits (c >> shift) & 1 are Phi_s^mult times a random
    # GF(2) polynomial, with random low bits and random signed high parts
    phi = list(phi_mod2(ctx.s))
    poly = [1]
    for _ in range(mult):
        poly = gf2_mul(poly, phi)
    room = ctx.degree - len(poly) + 1
    poly = gf2_mul(poly, [rng.randint(0, 1) for _ in range(room - 1)] + [1])
    bits = poly + [0] * (ctx.degree - len(poly))
    return [(bit << shift) | rng.randrange(1 << shift)
            | (rng.randint(-50, 50) << (shift + 1)) for bit in bits]


@pytest.mark.parametrize("n", [*range(2, 65, 2), 90, 210, 330])
def test_mod2_multiplicity_matches_carry_less_reference(n):
    ctx = make_context(n)
    rng = random.Random(130 + n)
    top = (ctx.degree - 1) // (len(phi_mod2(ctx.s)) - 1) + 1  # mult < top
    for mult in range(top):
        shift = mult % 3
        coeffs = _residue_with_multiplicity(ctx, rng, mult, shift)
        want = gf2_multiplicity(coeffs, ctx.s, shift)
        assert want >= mult
        assert ctx.parity_multiplicity(_parity_mask(coeffs, shift)) == want
    assert want == top - 1  # the largest multiplicity below the degree
    for x in (random_cycint(ctx, rng, 9) for _ in range(8)):
        if any(c & 1 for c in x.coeffs):
            assert ctx.parity_multiplicity(_parity_mask(x.coeffs)) == gf2_multiplicity(
                x.coeffs, ctx.s)


# every n whose ring has degree phi(2n) <= 16
PARITY_TABLE_NS = (2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 24, 30)


@pytest.mark.parametrize("n", PARITY_TABLE_NS)
def test_parity_table_matches_the_reference_on_every_mask(n):
    # A ring of degree phi(2n) <= 16 keeps parity_multiplicity's result per
    # mask in a table, filled as masks are first read: a fresh context has
    # none filled, and every nonzero mask reads the GF(2) division
    # reference on its first read, a miss that runs the fold, and again on
    # its second, from the table.
    ctx = Context(n)
    size = 1 << ctx.degree
    assert len(ctx._parity_table) == size and set(ctx._parity_table) == {255}
    want = [gf2_multiplicity([mask >> i & 1 for i in range(ctx.degree)], ctx.s)
            for mask in range(1, size)]
    assert [ctx.parity_multiplicity(mask) for mask in range(1, size)] == want
    assert list(ctx._parity_table[1:]) == want
    assert [ctx.parity_multiplicity(mask) for mask in range(1, size)] == want


def test_only_rings_of_degree_at_most_16_keep_a_parity_table():
    contexts = [Context(n) for n in range(2, 257, 2)]
    assert [ctx.n for ctx in contexts if ctx.degree <= 16] == list(PARITY_TABLE_NS)
    assert [ctx.n for ctx in contexts if ctx._parity_table is not None] == list(PARITY_TABLE_NS)


@pytest.mark.parametrize("n", (4, 6, 8, 12, 30))
def test_sigma_is_sign_of_generator_entry(n):
    ctx = make_context(n)
    for qi, q in enumerate(AXES):
        i1, i2 = [i for i in range(3) if i != qi]
        for b in range(1, n // 2):
            c12 = ring_complex(rotation_generator(ctx, q, ctx.order - b).rows[i1][i2])
            assert c12.real * _SIGMA[qi] > 0


@pytest.mark.parametrize("n", (4, 8, 12, 16, 30, 32, 64))
def test_one_shift_normalization_matches_halving(n):
    # every raw (numerator, 2^M) the descent scan hands to RingElem, plus
    # zero, m = 0 and numerators divisible by more than 2^m
    ctx = make_context(n)
    raw = [(ctx.zero(), 3), (ctx.zero(), 0), (ctx.from_int(12), 0),
           (ctx.from_int(48), 2), (ctx.from_int(-40), 7)]
    m = _as_step(bloch(random_unitary(ctx, {4: 40, 32: 6, 64: 4}.get(n, 10), 500 + n)[0]))
    while is_signed_permutation(m) is None:
        for qi in range(3):
            shift, pencils = reference_axis_pencils(m.rows, qi)
            for b in range(1, n // 2):
                for z, zbar, top in pencils:
                    raw.append((z.times_zeta(b) + zbar.times_zeta(-b), top))
                    raw.append((z.times_zeta(b + shift) + zbar.times_zeta(-b - shift), top))
                    a, c = z.times_zeta(b), zbar.times_zeta(-b)
                    raw.append(((a - c).times_zeta(shift), top))
        q, b = axis_detect(m)
        m = m.rotated(AXES.index(q), b)
    raw += [(num * 8, top + 1) for num, top in raw[5:200]]
    assert len(raw) > 300
    for num, top in raw:
        e = RingElem(num, top)
        assert (e.num, e.m) == halving_normalize(num, top)


def test_census_matches_phase_condition():
    # the census (sieve factorizer) and phase_condition (trial division)
    # share one verdict; the witness is half the order of 2
    limit = 20000
    assert list(iter_census(limit)) == [
        (n, phase_condition(n)) for n in range(2, limit + 1, 2)]
    hits = 0
    for n in range(2, limit + 1, 2):
        ok, s, t = phase_condition_witness(n)
        if ok and s > 1:
            assert pow(2, t, s) == s - 1
            assert t == mult_order_two(s) // 2
            hits += 1
    assert hits > 1000


# -- the gate-application kernel ------------------------------------------------


def _every_token_words(ctx, rng, length=24):
    """Words with a random PH phase that together hold W^j for every
    1 <= j < 2n (and the spelling W^1), with H and S between them."""
    toks = ["W^1"] + [token_w(j) for j in range(1, ctx.order)]
    toks += [rng.choice("HS") for _ in range(len(toks))]
    rng.shuffle(toks)
    return [GateSequence(rng.randrange(ctx.order), tuple(toks[i:i + length]))
            for i in range(0, len(toks), length)]


@pytest.mark.parametrize("n", range(2, 65, 2))
def test_kernel_matches_products_on_every_token_kind(n):
    ctx = make_context(n)
    rng = random.Random(70 + n)
    for seq in _every_token_words(ctx, rng):
        assert eval_sequence(seq, ctx) == product_eval_sequence(seq, ctx)


@pytest.mark.parametrize("n", (2, 4, 6, 8, 10, 12, 14, 16, 30, 32))
def test_apply_gates_matches_products_on_both_sides(n):
    ctx = make_context(n)
    rng = random.Random(80 + n)
    u = product_eval_sequence(random_sequence(ctx, rng, 12), ctx)
    gates = [("h", 0, matrix_h0(ctx))]
    for a in range(ctx.order):
        gates.append(("ph", a, matrix_scalar(ctx, a)))
        gates += [(p, a, matrix_u_axis(ctx, p, 1, a)) for p in AXES]
    for kind, a, g in gates:
        assert apply_gates(u, [(kind, a)]) == u @ g, (kind, a)
        assert apply_gates(u, [(kind, a)], left=True) == g @ u, (kind, a)
    picks = rng.sample(gates, 6)
    right, left = u, u
    for _, _, g in picks:
        right, left = right @ g, g @ left
    assert apply_gates(u, [(kind, a) for kind, a, _ in picks]) == right
    assert apply_gates(u, [(kind, a) for kind, a, _ in picks], left=True) == left


@pytest.mark.parametrize("n", EXPONENT_NS)
def test_form_value_matches_axis_products(n):
    ctx = make_context(n)
    rng = random.Random(90 + n)
    cliffords = clifford_group(ctx)
    for draw in range(5):
        axes = [rng.choice(AXES) for _ in range(rng.randint(0, 8))] if draw else AXES
        exps = [rng.randrange(1, n // 2) for _ in axes]
        residual = rng.choice(cliffords)
        want = UnitaryRn.identity(ctx)
        for p, a in zip(axes, exps):
            want = want @ matrix_u_axis(ctx, p, 1, a)
        want = want @ product_eval_sequence(GateSequence(0, residual.word), ctx)
        gates = _form_gates(ctx, axes, exps, residual)
        assert apply_gates(UnitaryRn.identity(ctx), gates) == want
        assert _strip(want, gates) == UnitaryRn.identity(ctx)


@pytest.mark.parametrize("n", (2, 4, 6, 8, 12))
def test_apply_step_matches_product(n):
    ctx = make_context(n)
    rng = random.Random(100 + n)
    for _ in range(3):
        u = product_eval_sequence(random_sequence(ctx, rng, 14), ctx)
        col = ColumnRn(*u.first_column())
        for k in range(1, ctx.order + 1):
            g = matrix_h0(ctx) @ matrix_uz(ctx, k % ctx.order)
            (a, b), (c, d) = g.rows
            got = col.apply_step(k)
            assert (got.x, got.y) == (a * col.x + b * col.y, c * col.x + d * col.y)


@pytest.mark.parametrize("n", (4, 6, 8, 12, 16, 30))
def test_absorb_clifford_matches_products(n):
    ctx = make_context(n)
    rng = random.Random(110 + n)
    group = clifford_group(ctx)
    st = _RewriteState(ctx)
    want = UnitaryRn.identity(ctx)
    for _ in range(40):
        if rng.random() < 0.6:
            tok = rng.choice("HS")
            st.absorb_clifford_right(tok)
            want = want @ (matrix_h0(ctx) if tok == "H" else matrix_uz(ctx, n // 2))
        else:
            p, q = rng.choice(AXES), rng.randrange(4)
            st.absorb_clifford_left(p, q)
            want = matrix_u_axis(ctx, p, 1, q * (n // 2) % ctx.order) @ want
        assert group[st.pend].rotation == product_bloch(want)


@pytest.mark.parametrize("n", EVEN_NS)
def test_rewriting_matches_reference_pass(n):
    # whole forms, phase included, on words with every token kind
    ctx = make_context(n)
    rng = random.Random(160 + n)
    for _ in range(3):
        seq = random_sequence(ctx, rng, 16)
        assert canonicalize_sequence(seq, ctx) == reference_canonicalize(seq, ctx)


@pytest.mark.parametrize("n", (2, 4, 6, 8, 12))
def test_rewriting_ring_circuits_match_reference_pass(n):
    ctx = make_context(n)
    for seed in range(3):
        seq = synthesize_ring(random_unitary(ctx, 0 if n == 2 else 20, 170 + seed)[0])
        assert canonicalize_sequence(seq, ctx) == reference_canonicalize(seq, ctx)


@pytest.mark.parametrize("n", EVEN_NS)
def test_clifford_moves_match_rotation_products(n):
    ctx = make_context(n)
    group = clifford_group(ctx)
    assert group[0].word == ()
    assert synth._clifford_moves(ctx) == reference_clifford_moves(ctx, group)


@pytest.mark.parametrize("n", (4, 8, 12))
def test_wrong_clifford_move_is_caught_by_the_strip(n):
    # one wrong entry in the table: the pass follows it, and the form it
    # reaches no longer strips off the word
    ctx = make_context(n)
    seq = GateSequence(2, ("H", "W", "S", "H", "W^2", "S", "H"))
    want = canonicalize_sequence(seq, ctx)
    moves = {key: list(row) for key, row in synth._clifford_moves(ctx).items()}
    s_index = next(i for i, c in enumerate(clifford_group(ctx)) if c.word == ("S",))
    moves["S"][0] = s_index + 1  # S from the identity lands on the wrong Clifford
    fresh = Context(n)
    fresh.memo("clifford_moves", lambda: moves)
    with pytest.raises(IntegrityError, match="form does not reproduce"):
        canonicalize_sequence(GateSequence(0, ("S",) + seq.tokens), fresh)
    assert canonicalize_sequence(seq, make_context(n)) == want


@pytest.mark.parametrize("n", EVEN_NS)
def test_emission_blocks_match_explicit_matrices(n):
    ctx = make_context(n)
    for p in AXES:
        for a in range(1, n // 2):
            toks, delta = synth._emission_block(ctx, p, a)
            seq = GateSequence(delta, toks)
            assert product_eval_sequence(seq, ctx) == matrix_u_axis(ctx, p, 1, a), (p, a)
            assert seq.cost() == min(a, n // 2 - a)


def test_corrupted_emission_block_raises_on_first_use(monkeypatch):
    # a conjugator that sends Z to x, not y: the block for U_y(3 pi/n) is
    # U_x(3 pi/n), and its first use shows it
    fresh = Context(8)
    monkeypatch.setitem(synth.CONJ_WORDS, ("y", 1), ("H",))
    with pytest.raises(IntegrityError, match=r"emission block for U_y\(3 pi/n\)"):
        synth._emission_block(fresh, "y", 3)
    monkeypatch.undo()
    # nothing wrong was kept, and the correct block checks out
    assert synth._emission_block(fresh, "y", 3) == synth._emission_block(make_context(8), "y", 3)


def test_concurrent_first_use_of_rewrite_and_emission_tables():
    # Each table is one memo entry built whole, and a rebuild is equal, so
    # threads that fill a fresh context together all read the same results.
    seq = GateSequence(3, ("H", "W^5", "S", "W", "H", "W^7", "S", "S", "W^2"))
    want = canonicalize_sequence(seq, make_context(12))
    blocks = {(p, a): synth._emission_block(make_context(12), p, a)
              for p in AXES for a in range(1, 6)}
    fresh = Context(12)
    results, errors = [], []

    def work():
        try:
            results.append((canonicalize_sequence(seq, fresh),
                            {key: synth._emission_block(fresh, *key) for key in blocks}))
        except Exception as exc:  # recorded, asserted below
            errors.append(exc)

    threads = [threading.Thread(target=work) for _ in range(8)]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert results == [(want, blocks)] * 8


@pytest.mark.parametrize("n", (4, 6, 8, 12))
def test_reduce_column_step_matches_build_every_k(n):
    ctx = make_context(n)
    rng = random.Random(180 + n)
    steps = 0
    for draw in range(6):
        if draw % 2:
            u = product_eval_sequence(random_sequence(ctx, rng, 24), ctx)
        else:
            u = random_unitary(ctx, 8 * draw + 4, rng.getrandbits(32))[0]
        col = ColumnRn(*u.first_column())
        while col.measure() > mu_threshold(ctx):
            k, nxt = reduce_column_step(col)
            assert (k, nxt) == reference_reduce_column_step(col)
            col, steps = nxt, steps + 1
    assert steps >= 20


def test_column_step_checks_its_score(monkeypatch):
    # a built step that is not the scored one: here the lane step leaves
    # the column as it was
    ctx = make_context(8)
    col = ColumnRn(*random_unitary(ctx, 10, 185)[0].first_column())
    monkeypatch.setattr(ColumnRn, "apply_step", lambda self, k: self)
    with pytest.raises(IntegrityError, match="column step k=.* scored") as exc:
        reduce_column_step(col)
    assert (exc.value.step, exc.value.measure) == (0, col.measure())


def test_column_step_checks_its_normalization(monkeypatch):
    # a built step with one lane off by one is no longer a unit vector
    ctx = make_context(12)
    col = ColumnRn(*random_unitary(ctx, 12, 186)[0].first_column())
    col = reduce_column_step(col)[1]
    apply_step = ColumnRn.apply_step

    def corrupted(self, k):
        nxt = apply_step(self, k)
        nxt.px += 1 << nxt.lanes.width
        return nxt

    monkeypatch.setattr(ColumnRn, "apply_step", corrupted)
    with pytest.raises(IntegrityError, match="^column is not normalized$") as exc:
        reduce_column_step(col)
    assert (exc.value.step, exc.value.measure) == (1, col.measure())


def test_column_loop_failures_carry_step_and_measure(monkeypatch):
    # the third step finds no k: synthesize_ring's error names that step
    # and the measure of the column it started from, with the same text
    ctx = make_context(8)
    u, _ = random_unitary(ctx, 20, 187)
    col = ColumnRn(*u.first_column())
    for _ in range(2):
        col = reduce_column_step(col)[1]
    scoring, calls = ringsynth._first_reducing_k, []

    def third_fails(*args):
        calls.append(args)
        return None if len(calls) == 3 else scoring(*args)

    monkeypatch.setattr(ringsynth, "_first_reducing_k", third_fails)
    with pytest.raises(NoReducingKError) as exc:
        synthesize_ring(u)
    assert str(exc.value) == "no phase reduces the column measure"
    assert (exc.value.step, exc.value.measure) == (2, col.measure())
    assert isinstance(exc.value, IntegrityError)


def test_ring_op_does_each_job_once(monkeypatch):
    # n = 8, with the context's tables filled: membership evaluates no word,
    # the rewriting pass forms no rotation product, and column reduction
    # runs no word through the gate kernel per step, reads each column's
    # measure off its lanes once and strips its word once.
    ctx = make_context(8)
    u, _ = random_unitary(ctx, 20, 190)
    ks, col = [], ColumnRn(*u.first_column())
    while col.measure() > mu_threshold(ctx):
        k, col = reduce_column_step(col)
        ks.append(k)
    assert max(ks) > 1  # some step tries more than one k
    seq = synthesize_ring(u)
    membership(u), canonicalize_sequence(seq, ctx)
    calls = {"eval": 0, "rot": 0, "kernel": 0, "mu": 0, "strip": 0}

    def counted(name, fn):
        def hook(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return hook

    monkeypatch.setattr(synth, "eval_sequence", counted("eval", synth.eval_sequence))
    monkeypatch.setattr(su2, "eval_sequence", counted("eval", su2.eval_sequence))
    assert membership(u).sequence == to_circuit(canonical_form(u))
    assert calls["eval"] == 0
    monkeypatch.setattr(Rotation, "__matmul__", counted("rot", Rotation.__matmul__))
    assert canonicalize_sequence(seq, ctx) == canonical_form(u)
    assert calls["rot"] == 0
    assert not hasattr(ringsynth, "apply_gates")
    monkeypatch.setattr(su2, "apply_gates", counted("kernel", su2.apply_gates))
    monkeypatch.setattr(ringsynth, "_lane_mu", counted("mu", ringsynth._lane_mu))
    monkeypatch.setattr(ringsynth, "_strip", counted("strip", ringsynth._strip))
    assert synthesize_ring(u) == seq
    # the kernel runs the base-case word and the strip, one pass each, both
    # lines at once
    assert (calls["kernel"], calls["mu"], calls["strip"]) == (2, len(ks) + 1, 1)


def test_long_hadamard_word_keeps_numerators_small(monkeypatch):
    # H0^2 = i I, so 4096 H evaluate to the identity; without taking the
    # shared powers of 2 off after each bump the numerators over 2^4096
    # would grow to about 2048 bits.  The kernel's lanes after each gate,
    # both lines of each pair, are read back through Lanes.pair_settle.
    widest = [0]
    settle = cyclo.Lanes.pair_settle

    def spy(self, x, y, m):
        out = settle(self, x, y, m)
        lanes = out[0]
        for p in out[1:3]:
            for line in lanes.unpair(p):
                widest[0] = max(widest[0], max(abs(c).bit_length() for c in lanes.unpack(line)))
        return out

    monkeypatch.setattr(cyclo.Lanes, "pair_settle", spy)
    for n in (4, 12):
        ctx = make_context(n)
        assert eval_sequence(GateSequence(0, ("H",) * 4096), ctx) == UnitaryRn.identity(ctx)
        assert eval_sequence(GateSequence(0, ("H",) * 4095), ctx) == \
            matrix_scalar(ctx, 2047 * (n // 2)) @ matrix_h0(ctx)
    assert 0 < widest[0] <= 4


# -- gate constants and Bloch images ---------------------------------------------

@pytest.mark.parametrize("n", EVEN_NS)
def test_gate_constants_match_explicit_matrices(n):
    ctx = make_context(n)
    assert h0(ctx) == matrix_h0(ctx)
    assert s_gate(ctx) == matrix_uz(ctx, n // 2)
    for p in AXES:
        assert pauli(ctx, p) == matrix_pauli(ctx, p)
    for a in range(ctx.order):
        assert uz_power(ctx, a) == matrix_uz(ctx, a)
        assert scalar_gate(ctx, a) == matrix_scalar(ctx, a)
        if a:
            assert w_gate(ctx, a) == matrix_uz(ctx, a)
        for p in AXES:
            for sign in (1, -1):
                assert u_axis(ctx, p, sign, a) == matrix_u_axis(ctx, p, sign, a)


@pytest.mark.parametrize("n", EVEN_NS)
def test_bloch_matches_six_products(n):
    ctx = make_context(n)
    rng = random.Random(130 + n)
    for _ in range(3):
        u = eval_sequence(random_sequence(ctx, rng, 10), ctx)
        assert bloch(u) == product_bloch(u)
    for a in range(ctx.order):
        for p in AXES:
            for sign in (1, -1):
                got = bloch(u_axis(ctx, p, sign, a))
                assert got == product_bloch(matrix_u_axis(ctx, p, sign, a)), (p, sign, a)
            assert rotation_generator(ctx, p, a) == product_generator(ctx, p, a)


def test_oracles_do_not_import_the_gates_or_bloch():
    # The references stay independent of the code they check: no gate
    # constant, rotation generator or Bloch image comes from cycsynth.
    banned = {"h0", "s_gate", "uz_power", "w_gate", "scalar_gate", "u_axis", "pauli",
              "rotation_generator", "bloch"}
    tree = ast.parse((pathlib.Path(__file__).parent / "oracles.py").read_text())
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("cycsynth"):
            used.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    assert used & banned == set()


def test_word_evaluation_makes_no_matrix_products(monkeypatch, tmp_path):
    ctx = make_context(8)
    rng = random.Random(120)
    short, long_ = random_sequence(ctx, rng, 5), random_sequence(ctx, rng, 80)
    for seq in (short, long_):
        canonicalize_sequence(seq, ctx)  # fills the Clifford group and its index moves
    u, circuit = random_unitary(ctx, 12, 3)
    cf = canonical_form(u)
    mat, circ = tmp_path / "m.json", tmp_path / "c.txt"
    mat.write_text(json.dumps(matrix_to_json(u)))
    circ.write_text(circuit.to_text())
    calls = [0]
    plain = UnitaryRn.__matmul__

    def counted(a, b):
        calls[0] += 1
        return plain(a, b)

    monkeypatch.setattr(UnitaryRn, "__matmul__", counted)
    eval_sequence(long_, ctx)
    apply_gates(UnitaryRn.identity(ctx), _form_gates(ctx, cf.axes, cf.exponents, cf.residual))
    bloch(u)
    fresh = Context(8)  # nothing memoized
    h0(fresh), s_gate(fresh)
    for a in range(fresh.order):
        uz_power(fresh, a), scalar_gate(fresh, a)
        if a:
            w_gate(fresh, a)
        for p in AXES:
            u_axis(fresh, p, 1, a), u_axis(fresh, p, -1, a)
            rotation_generator(fresh, p, a)
    for p in AXES:
        pauli(fresh, p)
    assert calls[0] == 0
    # Every check of a word against a matrix strips the word off it, whatever
    # the word length: the descent's and the rewriting pass's phase, the ring
    # synthesis and cli verify (its matrix parsing included).
    for seq in (short, long_):
        canonicalize_sequence(seq, ctx)
    assert canonical_form(u) == cf
    synthesize_ring(u)
    synthesize_ring(eval_sequence(long_, ctx))
    args = ["verify", "--n", "8", "--circuit", str(circ), "--matrix", str(mat)]
    assert cli.main(args, out=io.StringIO()) == 0
    assert calls[0] == 0


# -- stripping a word off a unitary ------------------------------------------------

KERNEL_KINDS = ("x", "y", "z", "h", "ph")


def _oracle_word(ctx, word) -> UnitaryRn:
    """G_1 ... G_t for kernel gates, by general products of explicit matrices."""
    acc = UnitaryRn.identity(ctx)
    for kind, a in word:
        if kind == "h":
            acc = acc @ matrix_h0(ctx)
        elif kind == "ph":
            acc = acc @ matrix_scalar(ctx, a)
        else:
            acc = acc @ matrix_u_axis(ctx, kind, 1, a)
    return acc


@pytest.mark.parametrize("n", EVEN_NS)
def test_strip_reads_the_phase_equal_up_to_phase_finds(n):
    ctx = make_context(n)
    rng = random.Random(140 + n)
    for _ in range(3):
        kinds = list(KERNEL_KINDS) + [rng.choice(KERNEL_KINDS) for _ in range(3)]
        rng.shuffle(kinds)
        word = [(k, 0 if k == "h" else rng.randrange(ctx.order)) for k in kinds]
        value = _oracle_word(ctx, word)
        u = matrix_scalar(ctx, rng.randrange(ctx.order)) @ value
        lam = equal_up_to_phase(u, value)
        assert lam is not None and _strip(u, word).as_scalar() == lam
        # one rotation turned by one more step: u is no longer the word up to phase
        i = rng.choice([i for i, (k, _) in enumerate(word) if k in AXES])
        changed = list(word)
        changed[i] = (word[i][0], (word[i][1] + 1) % ctx.order)
        assert equal_up_to_phase(u, _oracle_word(ctx, changed)) is None
        assert _strip(u, changed).as_scalar() is None


@pytest.mark.parametrize("n", (2, 4, 6, 8, 12))
def test_ring_synthesis_trailing_rotation_matches_complete_unitary(n):
    ctx = make_context(n)
    rng = random.Random(150 + n)
    js = set()
    for _ in range(4):
        u = product_eval_sequence(random_sequence(ctx, rng, 14), ctx)
        # The prefix G_1^dagger ... G_t^dagger V from the public steps, and
        # its trailing W^j from the determinants.
        col, ks = ColumnRn(*u.first_column()), []
        while col.measure() > mu_threshold(ctx):
            k, col = reduce_column_step(col)
            ks.append(k)
        _, v_seq = base_case_column(col)
        tokens = []
        for k in ks:
            tokens += ([token_w(ctx.order - k)] if k % ctx.order else []) + ["H"]
        tokens += v_seq.tokens
        phase = (v_seq.phase_power - len(ks) * (n // 2)) % ctx.order
        j = complete_unitary(u, product_eval_sequence(GateSequence(phase, tuple(tokens)), ctx))
        js.add(j)
        tokens += [token_w(j)] if j else []
        assert synthesize_ring(u) == GateSequence(phase, tuple(tokens))
    assert js != {0}

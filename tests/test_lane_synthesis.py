"""The descent step and the column step on packed lanes, against the
CycInt code they replaced.

synth._Step holds each Bloch entry as folded lanes (cyclo.Lanes) over 2^m
and builds the pencils, candidate entries and residues mod 4 on them;
ringsynth.ColumnRn carries the column on lanes from step to step and
scores each k on lane valuations.  The references in oracles are the
CycInt pencils and entries (reference_axis_pencils,
reference_pencil_entry), the rotation step (reference_rotate), the matrix
the rotation unpacked on every step (eager_step_rows), the CycInt scoring
loop (reference_first_reducing_k), each column step built and measured
for every k (reference_reduce_column_step) and the column loop on pairs
of RingElems (reference_synthesize_ring).  The scan's planes, one read
per side of its three pencils packed into one int, are checked against
the build column by column (per_column_scan_planes) and its residues
against integer lanes reduced by long division (reference_scan_residues).
Lanes must widen, never wrap:
a rotation started from the identity at 16-bit lanes climbs to 128 bits,
and a column step widens its lanes mid-loop.
"""

import math
import random
from types import SimpleNamespace

import pytest

from cycsynth import (
    ColumnRn,
    CycInt,
    RingElem,
    Rotation,
    UnitaryRn,
    apply_gates,
    bloch,
    canonical_form,
    clifford_group,
    cyclo,
    is_signed_permutation,
    make_context,
    random_unitary,
    ringsynth,
    synth,
)
from cycsynth.rings import _common_numerators, _is_unit_numerators, _over_common, mu
from cycsynth.su2 import AXES
from cycsynth.synth import _as_step, _PlaneScan

from oracles import (
    eager_step_rows,
    lane_values,
    per_column_scan_planes,
    product_eval_sequence,
    random_cycint,
    random_sequence,
    reference_axis_pencils,
    reference_first_reducing_k,
    reference_pencil_entry,
    reference_reduce_column_step,
    reference_rotate,
    reference_scan_residues,
    reference_synthesize_ring,
)
from test_fastpaths import EXPONENT_NS

DESCENT_NS = [*range(4, 65, 2), 90, 102, 210]


def _elem(lanes, entry):
    p, m = entry
    return RingElem(CycInt(lanes.ctx, lanes.unpack(p)), m)


def _check_step(st):
    """The step's lane entries against its matrix, inside the headroom."""
    lanes = st.lanes
    assert tuple(tuple(_elem(lanes, e) for e in row) for row in st.ent) == st.rows
    assert all(lanes.fits(p, lanes.free) for row in st.ent for p, _ in row)


def _check_scan(st, qi, bs):
    """Every lane entry the scan builds, by entry and by pair, against the
    CycInt pencil entries."""
    shift, pencils = reference_axis_pencils(st.rows, qi)
    scan = _PlaneScan(st, qi)
    for b in bs:
        for j, pencil in enumerate(pencils):
            want = [reference_pencil_entry(pencil, c) for c in (b, b + shift)]
            assert [_elem(scan.lanes, e) for e in scan.pair(j, b)] == want
            assert [_elem(scan.lanes, scan.entry(2 * j + r, b)) for r in (0, 1)] == want
        assert [_elem(scan.lanes, e) for j in range(3) for e in scan.pair(j, b)] == \
            [reference_pencil_entry(p, c) for p in pencils for c in (b, b + shift)]


def _descend(st):
    """The descent from st, each step and its winning scan checked."""
    ctx = st.ctx
    steps = 0
    while is_signed_permutation(st) is None:
        _check_step(st)
        q, b = synth.axis_detect(st)
        qi = AXES.index(q)
        _check_scan(st, qi, {1, b, ctx.n // 2 - 1})
        nxt = st.rotated(qi, b)
        assert nxt == reference_rotate(st, qi, b)
        st = nxt
        steps += 1
    _check_step(st)
    return steps


@pytest.mark.parametrize("n", DESCENT_NS)
def test_descent_on_lanes_matches_cycint_references(n):
    ctx = make_context(n)
    tcount = 24 if n <= 64 else 6
    steps = 0
    for seed in range(2):
        steps += _descend(_as_step(bloch(random_unitary(ctx, tcount, 2100 + n + seed)[0])))
    assert steps >= 2


@pytest.mark.parametrize("n, tcount, start, first, top", [
    (4, 200, 16, 16, 128), (8, 100, 16, 16, 64), (12, 100, 16, 16, 64), (30, 60, 16, 16, 32),
    (90, 30, 8, 8, 16), (102, 20, 8, 8, 16), (210, 12, 8, 16, 16)])
def test_rotations_from_a_narrow_start_widen_rather_than_wrap(n, tcount, start, first, top,
                                                              monkeypatch):
    # The form's rotations applied to the identity, pinned at a narrow
    # start: every step's entries grow, so its pencils and new entries must
    # widen the lanes (to 128 bits, past struct's widths, for n = 4; n = 210
    # has no headroom at 8 bits, so the identity loads at 16), and each
    # step must equal the CycInt rotation.  Then the descent from the built
    # step, at its width, recovers the form.
    monkeypatch.setattr(cyclo, "LANE_WIDTH", start)
    ctx = make_context(n)
    u, _ = random_unitary(ctx, tcount, 2200 + n)
    cf = canonical_form(u)
    st = _as_step(Rotation.identity(ctx))
    widths = [st.lanes.width]
    for p, a in reversed(list(zip(cf.axes, cf.exponents))):
        qi = AXES.index(p)
        nxt = st.rotated(qi, -a % ctx.order)
        assert nxt == reference_rotate(st, qi, -a % ctx.order)
        st = nxt
        widths.append(st.lanes.width)
    _check_step(st)
    assert widths[0] == first and widths[-1] == top and widths == sorted(widths)
    assert st == bloch(apply_gates(UnitaryRn.identity(ctx), list(zip(cf.axes, cf.exponents))))
    axes, exps = [], []
    while is_signed_permutation(st) is None:
        q, b = synth.axis_detect(st)
        axes.append(q)
        exps.append(b)
        st = st.rotated(AXES.index(q), b)
    assert (tuple(axes), tuple(exps)) == (cf.axes, cf.exponents)


def _check_packed_scan(st, qi):
    """The scan of axis qi of st against the build column by column, and
    its residues for every b against integer lanes; its lane width."""
    scan = _PlaneScan(st, qi)
    assert (scan.zh, scan.zl, scan.wh, scan.wl, scan.mask, scan.entries) == \
        per_column_scan_planes(scan)
    for b in range(1, st.ctx.n // 2):
        assert scan.residues(b) == reference_scan_residues(scan, b)
    return scan.lanes.width


@pytest.mark.parametrize("n", EXPONENT_NS + (90,))
def test_packed_scan_matches_the_per_column_build_on_every_axis(n):
    # Every axis of every descent step, the winning one and the two the
    # descent may never scan.  For n <= 12 the T-counts take the descent's
    # lanes through every width from 16 to 128 bits (at n = 4, T-count 200
    # starts at 128).
    ctx = make_context(n)
    tcounts = (4, 20, 30, 60, 90, 200) if n <= 12 else (6, 20) if n <= 64 else (4, 10)
    widths, steps = set(), 0
    for seed, tcount in enumerate(tcounts):
        st = _as_step(bloch(random_unitary(ctx, tcount, 3100 + n + seed)[0]))
        while is_signed_permutation(st) is None:
            for qi in range(3):
                widths.add(_check_packed_scan(st, qi))
            q, b = synth.axis_detect(st)
            st = st.rotated(AXES.index(q), b)
            steps += 1
    assert steps >= 4
    if n <= 12:
        assert widths >= {16, 32, 64, 128}


@pytest.mark.parametrize("width", (16, 32, 64, 128))
def test_packed_scan_of_pencils_at_a_quarter_of_the_range(width, monkeypatch):
    # Pencils with lanes at +-2^(W-2) (and next to them), packed three to
    # an int: each lane's residue mod 4 stays its own, the pencils' and
    # their neighbours' alike.  The scan is given its pencils directly.
    edge = 1 << (width - 2)
    values = (edge, -edge, edge - 1, 1 - edge, -1, 0, 1)
    for n in (4, 6, 12, 30, 90):
        ctx = make_context(n)
        lanes = ctx.lanes(width)
        rng = random.Random(3200 + n + width)

        def pencil(lane):
            return sum(lane(i) << (width * i) for i in range(n))

        for trial in range(4):
            if trial == 0:
                sides = [lambda i: edge, lambda i: -edge] * 3
            else:
                sides = [lambda i: rng.choice(values)] * 6
            pencils = [(pencil(sides[2 * j]), pencil(sides[2 * j + 1]), rng.randint(0, 6))
                       for j in range(3)]
            for z, zbar, _ in pencils:
                assert {abs(c) for c in lane_values(z, width, n) + lane_values(zbar, width, n)} \
                    <= {abs(v) for v in values}
            monkeypatch.setattr(synth, "_lane_pencils", lambda *args: (lanes, pencils))
            st = SimpleNamespace(ctx=ctx, lanes=lanes, ent=[None] * 3)
            for qi in range(3):
                assert _check_packed_scan(st, qi) == width


@pytest.mark.parametrize("n", (90, 210))
def test_descent_from_8_bit_lanes_matches_cycint_references(n, monkeypatch):
    # n = 210 has no headroom at 8 bits (lane_head 8): every load widens.
    monkeypatch.setattr(cyclo, "LANE_WIDTH", 8)
    ctx = make_context(n)
    assert _descend(_as_step(bloch(random_unitary(ctx, 6, 2300 + n)[0]))) >= 2


@pytest.mark.parametrize("n", EXPONENT_NS)
def test_lazy_matrix_and_lane_pattern_match_the_eager_step(n):
    # On every step of descents, the matrix unpacked when read equals the
    # one the rotation used to build (row q carried, six entries unpacked),
    # and the signed-permutation pattern read off the lanes equals the
    # matrix's, the final Clifford step included.
    ctx = make_context(n)
    steps = 0
    for seed in range(2):
        rows = bloch(random_unitary(ctx, {32: 8, 64: 6}.get(n, 24), 3100 + n + seed)[0]).rows
        st = _as_step(Rotation(ctx, rows, check=False))
        while True:
            key = st.signed_perm_key()
            assert key == Rotation(ctx, st.rows, check=False).signed_perm_key()
            if is_signed_permutation(st) is not None:
                break
            q, b = synth.axis_detect(st)
            qi = AXES.index(q)
            nxt = st.rotated(qi, b)
            rows = eager_step_rows(rows, qi, nxt)
            assert nxt.rows == rows
            st = nxt
            steps += 1
        assert key is not None
    assert steps >= 4


def test_signed_perm_key_off_lanes_matches_the_matrix():
    # integral entries other than 0 and +-1, small and past 64 bits,
    # halves, a unit that is no integer, and the 24 Clifford rotations
    for n in (4, 8, 12, 30):
        ctx = make_context(n)

        def elem(c, m=0):
            return RingElem(ctx.from_int(c) if isinstance(c, int) else CycInt(ctx, c), m)

        zeta = [0, 1] + [0] * (ctx.degree - 2)
        cases = [c.rotation.rows for c in clifford_group(ctx)]
        for a, b, c in ((2, -3, 1), (1, -1, 2), (1 << 70, 1, -1), (-1, -1, 1)):
            cases.append(((elem(a), elem(0), elem(0)), (elem(0), elem(b), elem(0)),
                          (elem(0), elem(0), elem(c))))
        cases.append(((elem(1, 1), elem(1), elem(0)), (elem(0), elem(zeta), elem(1)),
                      (elem(1), elem(0), elem(-1))))
        seen = set()
        for rows in cases:
            m = Rotation(ctx, rows, check=False)
            key = _as_step(m).signed_perm_key()
            assert key == m.signed_perm_key()
            seen.add(key is None)
        assert seen == {True, False}


def _columns(ctx, rng):
    """Pairs (x, y) of CycInt: random ones, ones with x = +-zeta^j y, so that
    x -+ zeta^j y = 0, zero ones and ones with a shared power of 2."""
    out = []
    for _ in range(6):
        x, y = random_cycint(ctx, rng, 40), random_cycint(ctx, rng, 40)
        j = rng.randrange(ctx.order)
        out += [(x, y), (y.times_zeta(j), y), (-y.times_zeta(j), y), (x * 12, y * 4),
                (ctx.zero(), y), (x, ctx.zero())]
    return out


@pytest.mark.parametrize("n", ringsynth.RING_EQUALITY_NS)
def test_lane_valuations_match_cycint_for_every_k(n):
    ctx = make_context(n)
    rng = random.Random(2400 + n)
    infinite = 0
    for x, y in _columns(ctx, rng):
        lanes, px, py = ctx.lanes().load(x.coeffs, y.coeffs)
        for k in range(ctx.order + 1):
            yk = y.times_zeta(k)
            pk = lanes.zeta(py, k)
            for got, want in ((lanes.fold(px + pk), x + yk), (lanes.fold(px - pk), x - yk)):
                assert lanes.valuation(got) == want.valuation()
                infinite += want.is_zero()
    assert infinite >= 12
    assert ctx.lanes().valuation(0) == math.inf


def _ring_columns(ctx, seed):
    """Every column the reduction of u's first column passes through."""
    u, _ = random_unitary(ctx, 30 if ctx.n > 2 else 0, seed)
    col = ColumnRn(*u.first_column())
    cols = [col]
    while col.measure() > ringsynth.mu_threshold(ctx):
        col = ringsynth.reduce_column_step(col)[1]
        cols.append(col)
    return cols


@pytest.mark.parametrize("n", ringsynth.RING_EQUALITY_NS)
def test_column_scoring_matches_the_cycint_loop(n, monkeypatch):
    # Ring columns along their reductions, and arbitrary pairs (zero sums
    # included) against every measure bound they can score below: the lane
    # scoring stops at k <= n, the CycInt loop tries k up to 2n.
    ctx = make_context(n)
    cases = []
    for seed in range(3):
        for col in _ring_columns(ctx, 2500 + n + seed):
            cases.append(_over_common(col.x, col.y) + (col.measure(),))
    rng = random.Random(2600 + n)
    for x, y in _columns(ctx, rng):
        if not (x.is_zero() and y.is_zero()):
            m = rng.randrange(4)
            cases += [(x, y, m, m0) for m0 in range(-2 * ctx.ram_index, 4 * ctx.ram_index, 3)]
    found = 0
    for x, y, m, m0 in cases:
        got = _lane_scoring(ctx, x, y, m, m0)
        assert got == reference_first_reducing_k(ctx, x, y, m, m0)
        found += got is not None
    assert found >= 30
    # from 8-bit lanes, every column but the smallest widens on load
    monkeypatch.setattr(cyclo, "LANE_WIDTH", 8)
    for x, y, m, m0 in cases:
        assert _lane_scoring(ctx, x, y, m, m0) == reference_first_reducing_k(ctx, x, y, m, m0)


def _lane_scoring(ctx, x, y, m, m0):
    """ringsynth._first_reducing_k on x and y loaded into lanes."""
    return ringsynth._first_reducing_k(*ctx.lanes().load(x.coeffs, y.coeffs), m, m0)


def _checked_loop(col):
    """The columns of the reduction from col, each step checked against
    the reference that builds and measures every k in full: the same k and
    column, one more step, and lanes inside their headroom."""
    cols = [col]
    while col.measure() > ringsynth.mu_threshold(col.ctx):
        k, nxt = ringsynth.reduce_column_step(col)
        assert (k, nxt) == reference_reduce_column_step(col)
        lanes = nxt.lanes
        assert nxt.step == col.step + 1 and lanes.width >= col.lanes.width
        assert lanes.fits(nxt.px, lanes.free) and lanes.fits(nxt.py, lanes.free)
        assert nxt.measure() == mu(nxt.x, nxt.y)
        cols.append(col := nxt)
    return cols


@pytest.mark.parametrize("n", ringsynth.RING_EQUALITY_NS)
def test_lane_column_loop_matches_the_reference_every_step(n):
    # the column carried on lanes from step to step, on random_unitary
    # inputs and on evaluated random words; for n = 2, every ring unitary
    # is a Clifford, and its column a base case
    ctx = make_context(n)
    rng = random.Random(2700 + n)
    steps = 0
    for draw in range(8):
        if draw % 2:
            u = product_eval_sequence(random_sequence(ctx, rng, 40), ctx)
        else:
            u = random_unitary(ctx, 0 if n == 2 else 6 * draw + 5, rng.getrandbits(32))[0]
        steps += len(_checked_loop(ColumnRn(*u.first_column()))) - 1
    assert steps >= 40 if n > 2 else steps == 0


def _at_the_headroom_edge(x, y) -> ColumnRn:
    """ColumnRn(x, y) with its lanes at the narrowest width whose gate
    headroom holds them (Lanes.load), below the width of the unit check's
    products that ColumnRn loads at: its steps widen mid-loop, and their
    unit checks repack until they do."""
    col = ColumnRn(x, y)
    m, vecs = _common_numerators((x, y))
    col.lanes, col.px, col.py = x.ctx.lanes().load(*vecs)
    return col


# random_unitary inputs (n, T-count, seed) whose column reduction, loaded
# at the edge of the gate headroom, widens its lanes in the step after the
# first, and the widths it goes between
MID_LOOP_WIDENINGS = [(6, 53, 53002, (32, 64)), (8, 57, 57007, (16, 32)),
                      (8, 143, 143001, (32, 64)), (12, 49, 49001, (16, 32)),
                      (12, 117, 117008, (32, 64))]


@pytest.mark.parametrize("n, tcount, seed, widths", MID_LOOP_WIDENINGS)
def test_the_step_after_a_mid_loop_widening_matches_the_reference(n, tcount, seed, widths):
    ctx = make_context(n)
    cols = _checked_loop(_at_the_headroom_edge(*random_unitary(ctx, tcount, seed)[0].first_column()))
    widths_seen = [col.lanes.width for col in cols]
    wide = [i for i in range(1, len(cols)) if widths_seen[i] != widths_seen[i - 1]]
    # the second step widens the lanes, and the third, on the wider lanes,
    # is among the steps _checked_loop compared
    assert wide == [2] and tuple(widths_seen[1:3]) == widths and len(cols) > 3


@pytest.mark.parametrize("n", ringsynth.RING_EQUALITY_NS[1:])
def test_column_unit_check_in_place_matches_the_repacked_check(n, monkeypatch):
    # ColumnRn._is_normalized multiplies the column's own lanes when they
    # lie in the products' headroom and repacks them otherwise; on every
    # column of reductions loaded as ColumnRn loads them and at the gate
    # headroom's edge, with and without a lane off by one, both paths must
    # agree with the check on the unpacked column (rings._is_unit_numerators)
    ctx = make_context(n)
    paths = {"in place": 0, "repacked": 0}
    for name, target in (("in place", "_is_unit_lanes"), ("repacked", "_is_unit_numerators")):
        plain = getattr(ringsynth, target)

        def counted(*args, name=name, plain=plain):
            paths[name] += 1
            return plain(*args)
        monkeypatch.setattr(ringsynth, target, counted)
    rejected = 0
    for seed in range(3):
        x, y = random_unitary(ctx, 30, 2900 + seed)[0].first_column()
        for col in _checked_loop(ColumnRn(x, y)) + _checked_loop(_at_the_headroom_edge(x, y)):
            lanes = col.lanes
            for bump in (0, 1 << (lanes.width * (seed % ctx.degree))):
                col.px += bump
                want = _is_unit_numerators(ctx, (lanes.unpack(col.px), lanes.unpack(col.py)), col.m)
                assert col._is_normalized() == want and (want or bump)
                rejected += not want
                col.px -= bump
    assert paths["in place"] > 0 and paths["repacked"] > 0 and rejected > 0


def test_synthesize_ring_matches_the_ringelem_loop():
    # 110 unitaries, each reduced with its column as a pair of RingElems
    # (reference_synthesize_ring) and on lanes
    count = 0
    for n in ringsynth.RING_EQUALITY_NS:
        ctx = make_context(n)
        rng = random.Random(2800 + n)
        for draw in range(22):
            if draw % 2:
                u = product_eval_sequence(random_sequence(ctx, rng, 30), ctx)
            else:
                u = random_unitary(ctx, 0 if n == 2 else 2 * draw + 3, rng.getrandbits(32))[0]
            assert ringsynth.synthesize_ring(u) == reference_synthesize_ring(u)
            count += 1
    assert count >= 100


def _planes(cs):
    """The residues mod 4 of the coefficients cs as bitmask planes (high,
    low)."""
    return (sum((c >> 1 & 1) << i for i, c in enumerate(cs)),
            sum((c & 1) << i for i, c in enumerate(cs)))


@pytest.mark.parametrize("width", (16, 32, 64, 128, 256))
def test_lane_readers_match_coefficients(width):
    # planes and the shared power of 2 of lanes with extreme values, at
    # struct widths and above them; planes also of the unfolded lanes below
    # n that zeta leaves (the pencils), whose lanes phi(2n), ..., n - 1 a
    # folded reader would miss
    for n in (4, 6, 12, 30, 90):
        ctx = make_context(n)
        lanes = cyclo.Lanes(ctx, width)
        rng = random.Random(2700 + n + width)
        lo, hi = -(1 << (width - 1)), (1 << (width - 1)) - 1
        for _ in range(40):
            t = rng.randrange(width - 1)
            cs = [rng.choice((lo, hi, 0, 1, -1, rng.randint(lo, hi))) >> t << t
                  for _ in range(ctx.degree)]
            p = lanes.pack(cs)
            assert lanes.unpack(p) == tuple(cs)
            assert lanes.planes(p) == _planes(cs)
            # x^j times the lanes, with no lane at -2^(W-1), whose negation
            # leaves them: lane k is c_(k-j), negated where it wraps past n
            us = [max(c, -hi) for c in cs]
            j = rng.randrange(2 * n)
            want = [0] * n
            for i, c in enumerate(us):
                wraps, k = divmod(i + j, n)
                want[k] = -c if wraps & 1 else c
            assert lanes.planes(lanes.zeta(lanes.pack(us), j)) == _planes(want)
            if any(cs):
                shared = min(cyclo.two_adic(c) for c in cs if c)
                assert lanes.twos(p + lanes.off, width - 1) == min(shared, width - 1)
            for g in range(-1, lanes.free + 1):
                assert lanes.fits(p, g) == all(-(1 << g) <= c < (1 << g) if g >= 0 else c == 0
                                               for c in cs)
            if ctx.supports_valuation:
                assert lanes.valuation(p) == CycInt(ctx, cs).valuation()
            else:  # as CycInt.valuation, only where the prime above 2 is unique
                with pytest.raises(ValueError, match="only supported for n in"):
                    lanes.valuation(p)


@pytest.mark.parametrize("n", (4, 6, 8, 12, 30))
def test_lanes_at_the_edge_of_the_headroom_widen_rather_than_wrap(n, monkeypatch):
    # Lane rows (not a rotation: the step is linear) with every lane at an
    # end of the 16-bit headroom [-2^f, 2^f), over 2^0 and 2^3, so that the
    # shift to a common 2^M adds bits, rotated on every axis by every b:
    # the pencils must widen the lanes.  Rows with every lane at an end of
    # half the headroom, over 2^0, pass the pencils' test, and some of
    # their new entries leave the headroom, so the new step must widen.
    # Every step must equal the CycInt one.
    monkeypatch.setattr(cyclo, "LANE_WIDTH", 16)
    ctx = make_context(n)
    f = 15 - ctx.lane_head()
    rng = random.Random(2800 + n)
    for ends, denominators, want in (
            ((-(1 << f), (1 << f) - 1, -(1 << (f - 1)), -1, 1), (0, 0, 3), {32}),
            ((-(1 << (f - 1)), (1 << (f - 1)) - 1, -1, 1), (0,), {16, 32})):
        widths = set()
        for _ in range(4):
            rows = [[RingElem(CycInt(ctx, [rng.choice(ends) for _ in range(ctx.degree)]),
                              rng.choice(denominators)) for _ in range(3)] for _ in range(3)]
            st = _as_step(Rotation(ctx, rows, check=False))
            assert st.lanes.width == 16
            for qi in range(3):
                for b in range(ctx.order):
                    nxt = st.rotated(qi, b)
                    assert nxt == reference_rotate(st, qi, b)
                    _check_step(nxt)
                    widths.add(nxt.lanes.width)
        assert widths == want


def test_a_lane_entry_of_lanes_at_minus_half_the_range_is_normalized():
    # every lane -2^(W-1): the entry is -(1, ..., 1) / 2^(m - W + 1)
    for n in (4, 8):
        ctx = make_context(n)
        for width in (16, 32, 64, 128):
            lanes = cyclo.Lanes(ctx, width)
            p = lanes.pack([-(1 << (width - 1))] * ctx.degree)
            assert lanes.entry(p, width + 4) == \
                (lanes.pack([-1] * ctx.degree), 5)
            assert lanes.entry(p, width - 3) == \
                (lanes.pack([-4] * ctx.degree), 0)

"""The gate kernel on packed lanes against the kernels it replaced.

su2.apply_gates runs every gate on both lines of a matrix at once, their
numerators packed into two ints of balanced lanes (the pair layout of
cyclo.Lanes); oracles.reference_apply_line is the CycInt version, one
line at a time, and oracles.lane_apply_line the single-line lane kernel
that came before the pair layout.  They must agree exactly, line by line,
on rows and on columns, for every even n up to 64 (a fold mod Phi_2n for
every n that is not a power of 2), including where the lanes must widen.
The pair layout's rotation, fold and settle must match the single-line
ones on each line, and the column step (ColumnRn.apply_step), which runs
the kernel's gate loop on one line, the single-line step it replaced
(oracles.lane_column_step).  Also here: the fold split that the lanes
and the residue-plane scan share (Context.fold_q), and the bounded
context cache.
"""

import random

import pytest

from cycsynth import (
    ColumnRn,
    GateSequence,
    RingElem,
    UnitaryRn,
    canonical_form,
    cyclo,
    eval_sequence,
    make_context,
    random_unitary,
    ringsynth,
    su2,
)
from cycsynth.cyclo import LANE_WIDTH, cyclotomic_poly
from cycsynth.su2 import AXES

from oracles import (lane_apply_line, lane_column_step, lane_settle, lane_values,
                     random_sequence, reference_apply_line, rows_lane_head, tuple_relane)
from test_fastpaths import EXPONENT_NS

EVEN_NS = range(2, 65, 2)


def _random_gates(ctx, rng, length):
    kinds = ("h", "z", "ph") + AXES
    gates = []
    for _ in range(length):
        kind = rng.choice(kinds)
        gates.append((kind, 0 if kind == "h" else rng.randrange(ctx.order + 1)))
    return gates


def _lines(u, left):
    (a, b), (c, d) = u.rows
    return ((a, c), (b, d)) if left else ((a, b), (c, d))


def _check_side(u, gates, left, lines=2):
    # the matrix kernel, line by line, against the CycInt kernel on the
    # first `lines` lines of one side
    got = _lines(su2.apply_gates(u, gates, left), left)
    for line, (a, b) in list(zip(got, _lines(u, left)))[:lines]:
        assert line == reference_apply_line(a, b, gates, left), (left, gates[:8])


def _check_both_sides(u, gates, lines=2):
    for left in (False, True):
        _check_side(u, gates, left, lines)


def _start(n, seed, length=12):
    ctx = make_context(n)
    rng = random.Random(seed)
    return ctx, rng, eval_sequence(random_sequence(ctx, rng, length), ctx)


@pytest.mark.parametrize("n", EVEN_NS)
def test_lane_kernel_matches_reference_on_random_words(n):
    ctx, rng, u = _start(n, 1400 + n)
    for _ in range(3):
        _check_both_sides(u, _random_gates(ctx, rng, 60))


@pytest.mark.parametrize("n", EVEN_NS)
def test_lane_kernel_matches_reference_on_4096_hadamards(n):
    # H0^4096 = I; the CycInt reference runs one line per side, the closed
    # form checks every line.
    ctx, _, u = _start(n, 1500 + n)
    gates = [("h", 0)] * 4096
    _check_both_sides(u, gates, lines=1)
    assert su2.apply_gates(u, gates) == u
    assert su2.apply_gates(u, gates, left=True) == u


def _widest(u):
    return max(abs(c).bit_length() for row in u.rows for e in row for c in e.num.coeffs)


@pytest.mark.parametrize("n", EVEN_NS)
def test_long_words_from_the_identity_widen_the_lanes(n):
    # The numerators of a long word outgrow 16-bit lanes (for n > 2, where
    # the gates generate an infinite group), so the kernel must widen them
    # on the way, to the CycInt kernel's result.
    ctx = make_context(n)
    rng = random.Random(1600 + n)
    gates = [g for _ in range(150) for g in (("h", 0), ("z", rng.randrange(1, ctx.order, 2)))]
    gates += _random_gates(ctx, rng, 60)
    _check_both_sides(UnitaryRn.identity(ctx), gates, lines=1)
    if n > 2:
        assert _widest(su2.apply_gates(UnitaryRn.identity(ctx), gates)) > 32


@pytest.mark.parametrize("n", EVEN_NS)
def test_a_start_width_of_16_widens_rather_than_wraps(n, monkeypatch):
    # Pinned at 16 bits, the kernel must widen when the input does not fit
    # (Lanes.load) and when a gate leaves the headroom (Lanes.pair_settle):
    # the first matrix fits only at 64 bits, the second fills the 16-bit
    # headroom exactly, so its first bump leaves it.
    monkeypatch.setattr(cyclo, "LANE_WIDTH", 16)
    ctx = make_context(n)
    rng = random.Random(1700 + n)
    widths = []
    settle = cyclo.Lanes.pair_settle

    def spy(self, x, y, m):
        widths.append(self.width)
        return settle(self, x, y, m)

    monkeypatch.setattr(cyclo.Lanes, "pair_settle", spy)
    for bits, first in ((40, [64, 64]), (15 - ctx.lane_head(), [16, 32])):
        bound = (1 << bits) - 1
        a, b, c = (RingElem(cyclo.CycInt(ctx, (bound,) + tuple(
            rng.randint(-bound, bound) for _ in range(ctx.degree - 1))), 3) for _ in "abc")
        u = UnitaryRn(ctx, ((a, b), (c, a)), check=False)
        for left in (False, True):
            gates = [("h", 0)] + _random_gates(ctx, rng, 40)
            widths.clear()
            _check_side(u, gates, left)
            assert widths[:2] == first


@pytest.mark.parametrize("n", (90, 102, 210))
def test_lane_kernel_matches_reference_on_long_folds(n, monkeypatch):
    # 21, 19 and 57 fold steps; started at 8-bit lanes, where n = 210 has
    # no headroom at all (every pair loads wider) and the others little.
    ctx, rng, u = _start(n, 2000 + n, length=6)
    assert ctx.lane_head() == (8 if n == 210 else 5)
    _check_both_sides(u, _random_gates(ctx, rng, 30))
    monkeypatch.setattr(cyclo, "LANE_WIDTH", 8)
    _check_both_sides(u, _random_gates(ctx, rng, 30))


@pytest.mark.parametrize("n", (4, 12))
def test_the_common_denominator_shift_counts_against_the_headroom(n):
    # a is over 2^0 with lanes just inside the 16-bit headroom, b over 2^3,
    # so a is taken over 2^3 too, and 2^3 a no longer fits 16-bit lanes.
    ctx = make_context(n)
    top = (1 << (15 - ctx.lane_head())) - 1
    a = RingElem(cyclo.CycInt(ctx, (top,) * ctx.degree), 0)
    b = RingElem(cyclo.CycInt(ctx, (1,) + (0,) * (ctx.degree - 1)), 3)
    u = UnitaryRn(ctx, ((a, b), (b, a)), check=False)
    for gates in ([], [("z", 1)], [("h", 0)]):
        for left in (False, True):
            _check_side(u, gates, left)


# -- the pair layout: both lines of a matrix in one pass ----------------------------

# and 90, for a fold of 21 block steps
MATRIX_NS = EXPONENT_NS + (90,)


@pytest.mark.parametrize("n", MATRIX_NS)
def test_matrix_kernel_matches_each_line_on_words_that_widen(n, monkeypatch):
    # A word that grows the numerators past the width the matrix loaded
    # at, so the pair widens mid-word; every line of both sides against
    # the CycInt kernel and the single-line lane kernel it replaced.
    ctx, rng, u = _start(n, 2100 + n)
    gates = [g for _ in range(90) for g in (("h", 0), ("z", rng.randrange(1, ctx.order, 2)))]
    gates += _random_gates(ctx, rng, 30)
    widths = []
    settle = cyclo.Lanes.pair_settle

    def spy(self, x, y, m):
        widths.append(self.width)
        return settle(self, x, y, m)

    monkeypatch.setattr(cyclo.Lanes, "pair_settle", spy)
    for left in (False, True):
        widths.clear()
        got = _lines(su2.apply_gates(u, gates, left), left)
        assert widths[-1] > widths[0]
        for line, (a, b) in zip(got, _lines(u, left)):
            assert line == lane_apply_line(a, b, gates, left)
            assert line == reference_apply_line(a, b, gates, left)


def _edge_lanes(lanes, rng, edge):
    """Lanes below n, each +-edge or drawn from [-edge, edge]."""
    return sum(rng.choice((edge, -edge, rng.randint(-edge, edge))) << (lanes.width * i)
               for i in range(lanes.ctx.n))


@pytest.mark.parametrize("n", MATRIX_NS)
def test_pair_layout_matches_single_lines_at_the_lane_edges(n):
    # pair_zeta, pair_fold and pair_settle on two numerators 2n lanes apart
    # against zeta, fold and the single-line settle (oracles.lane_settle)
    # on each, with lanes at +-2^(W-2) (and, into a fold, at the edge of a
    # gate's output, 2^(W+1-h) - 1, where that is lower): no lane of one
    # line may reach the other, each line folds alone, and the pair takes
    # off only the powers of 2 that all four numerators share.
    ctx = make_context(n)
    rng = random.Random(2200 + n)
    h = ctx.lane_head()
    for width in (16, 32, 64, 128):
        lanes = cyclo.Lanes(ctx, width)
        edge = 1 << (width - 2)
        for _ in range(3):
            p, q = (_edge_lanes(lanes, rng, edge) for _ in "pq")
            pair = lanes.pair(p, q)
            assert lanes.unpair(pair) == (p, q)
            for j in range(-1, 2 * n + 2):
                assert lanes.unpair(lanes.pair_zeta(pair, j)) == (lanes.zeta(p, j), lanes.zeta(q, j))
            gate_edge = min(edge, (1 << (width + 1 - h)) - 1)
            p, q = (_edge_lanes(lanes, rng, gate_edge) for _ in "pq")
            assert lanes.unpair(lanes.pair_fold(lanes.pair(p, q))) == (lanes.fold(p), lanes.fold(q))
        if lanes.free < 1:
            continue
        room = (1 << lanes.free) - 1
        for t1, t2, grow in ((0, 3, 0), (3, 0, 0), (2, 5, 0), (4, 4, 0), (1, 0, 2), (3, 3, 2)):
            # lines over 2^4 whose lanes share t1 and t2 factors 2, in the
            # headroom, the second grown 2^grow-fold, out of it for grow > 0
            x1, y1, x2, y2 = (lanes.pack((rng.randint(-room, room) >> t << t) | (1 << t)
                                         for _ in range(ctx.degree)) for t in (t1, t1, t2, t2))
            x2, y2 = x2 << grow, y2 << grow
            one = lane_settle(lanes, x1, y1, 4), lane_settle(lanes, x2, y2, 4)
            both, x, y, m = lanes.pair_settle(lanes.pair(x1, x2), lanes.pair(y1, y2), 4)
            assert m == max(line[3] for line in one) == 4 - min(t1, t2 + grow, 4)
            assert both.width == max(line[0].width for line in one) == width << (grow > 0)
            for (wide, xs, ys, ms), got in zip(one, zip(both.unpair(x), both.unpair(y))):
                assert [both.unpack(g) for g in got] == \
                    [tuple(c << (m - ms) for c in wide.unpack(p)) for p in (xs, ys)]


RELANE_WIDTHS = (16, 32, 64, 128)


@pytest.mark.parametrize("n", (4, 6, 12, 30))
def test_relane_matches_the_tuple_round_trip_at_every_width_pair(n):
    # Lanes.relane against dst.pack(src.unpack(p)) (oracles.tuple_relane)
    # for every ordered pair of widths, wider and narrower, with lanes at
    # +-2^(W'-2), W' the narrower width, and at the edges of the
    # destination's headroom [-2^f, 2^f) that the source can hold; and
    # Lanes.bits against the lanes peeled off one at a time
    ctx = make_context(n)
    rng = random.Random(2700 + n)
    for ws in RELANE_WIDTHS:
        src = ctx.lanes(ws)
        for wd in RELANE_WIDTHS:
            dst = ctx.lanes(wd)
            quarter = 1 << (min(ws, wd) - 2)
            edges = [quarter, -quarter, quarter - 1, 1 - quarter, 0]
            f = dst.free
            room = ((1 << f) - 1, -(1 << f), 1 << f, -(1 << f) - 1) if f >= 0 else ()
            edges += [e for e in room if -(1 << (min(ws, wd) - 1)) <= e < 1 << (min(ws, wd) - 1)]
            vecs = [[rng.choice(edges) for _ in range(ctx.degree)] for _ in range(3)]
            vecs.append([edges[0]] + [0] * (ctx.degree - 1))
            ps = [src.pack(vec) for vec in vecs]
            got = dst.relane(src, *ps)
            assert got == [tuple_relane(src, dst, p) for p in ps]
            assert [list(dst.unpack(p)) for p in got] == vecs
            want = max(max(c, ~c).bit_length() for p in ps for c in lane_values(p, ws, ctx.degree))
            assert src.bits(*ps) == dst.bits(*got) == want


@pytest.mark.parametrize("n", MATRIX_NS)
def test_pair_settle_widens_each_line_as_the_tuple_round_trip(n):
    # a pair whose lane leaves the headroom by one: pair_settle doubles the
    # width and re-lanes both lines of both pairs as the tuple round trip
    # does (m = 0, so no power of 2 is taken off)
    ctx = make_context(n)
    rng = random.Random(2800 + n)
    for width in (16, 32, 64):
        lanes = ctx.lanes(width)
        if lanes.free < 1:
            continue
        f = lanes.free
        edges = ((1 << f) - 1, -(1 << f), 0, 1)
        for out in (1 << f, -(1 << f) - 1):
            vecs = [[rng.choice(edges) for _ in range(ctx.degree)] for _ in range(4)]
            vecs[rng.randrange(4)][rng.randrange(ctx.degree)] = out
            x1, x2, y1, y2 = map(lanes.pack, vecs)
            wide, x, y, m = lanes.pair_settle(lanes.pair(x1, x2), lanes.pair(y1, y2), 0)
            assert wide.width == 2 * width and m == 0
            assert (x, y) == tuple(wide.pair(tuple_relane(lanes, wide, p), tuple_relane(lanes, wide, q))
                                   for p, q in ((x1, x2), (y1, y2)))


def _same_column_step(col, k):
    # ColumnRn.apply_step against the single-line step it replaced
    # (oracles.lane_column_step): the same lanes width, px, py and m
    got = col.apply_step(k)
    lanes, px, py, m = lane_column_step(col.lanes, col.px, col.py, col.m, k)
    assert (got.lanes.width, got.px, got.py, got.m) == (lanes.width, px, py, m), k
    assert got.step == col.step + 1
    return got


@pytest.mark.parametrize("n", (4, 6, 8, 12))
def test_column_step_matches_the_single_line_step(n):
    # The column step runs the kernel's gate loop on a pair whose second
    # line is empty; on every column of seeded reductions, T-count 5 to
    # 400, and for every k <= n, it must build what the single-line step
    # with its own settle built.
    ctx = make_context(n)
    threshold = ringsynth.mu_threshold(ctx)
    steps = 0
    for tcount, seed in ((5, 1), (40, 2), (150, 3), (400, 4)):
        col = ColumnRn(*random_unitary(ctx, tcount, 3100 + seed)[0].first_column())
        while col.measure() > threshold:
            for k in range(n + 1):
                _same_column_step(col, k)
            col = ringsynth.reduce_column_step(col)[1]
            steps += 1
    assert steps > 100


@pytest.mark.parametrize("n", (4, 6, 8, 12))
def test_column_step_widens_as_the_single_line_step_at_the_headroom_edge(n):
    # columns whose lanes lie at the edges of the headroom [-2^f, 2^f),
    # which no column of a reduction reaches: a step's sums leave it, so
    # pair_settle doubles the width, as the single-line settle did, and
    # takes off the powers of 2 the doubled lanes share
    ctx = make_context(n)
    rng = random.Random(3200 + n)
    widened = 0
    for width in (16, 32, 64):
        lanes = ctx.lanes(width)
        f = lanes.free
        edges = ((1 << f) - 1, -(1 << f), 1 << (f - 1), -(1 << (f - 1)), 0, 2)
        for _ in range(4):
            col = object.__new__(ColumnRn)
            col.px, col.py = (lanes.pack([rng.choice(edges) for _ in range(ctx.degree)])
                              for _ in "xy")
            col.lanes, col.m, col.step = lanes, rng.randrange(4), 0
            for k in range(n + 1):
                widened += _same_column_step(col, k).lanes.width > width
    assert widened > 0


def test_the_column_step_runs_through_the_kernels_gate_loop(monkeypatch):
    # ColumnRn.apply_step and su2.apply_gates share one gate loop
    # (su2._run_gates): a column step is one call of it on the column's own
    # lanes, U_z(pi k/n) then H0 as a left product, and a ring synthesis
    # calls it once per step and once each for its base-case word and its
    # strip.  Lanes has no single-line settle left.
    assert ringsynth._run_gates is su2._run_gates
    assert not hasattr(cyclo.Lanes, "settle")
    run, calls = su2._run_gates, []

    def spy(lanes, x, y, m, gates, left):
        calls.append((lanes, x, y, m, tuple(gates), left))
        return run(lanes, x, y, m, gates, left)

    monkeypatch.setattr(su2, "_run_gates", spy)
    monkeypatch.setattr(ringsynth, "_run_gates", spy)
    ctx = make_context(8)
    u, _ = random_unitary(ctx, 30, 3300)
    col = ColumnRn(*u.first_column())
    for k in range(1, 9):
        calls.clear()
        col.apply_step(k)
        assert calls == [(col.lanes, col.px, col.py, col.m, (("z", k), ("h", 0)), True)]
    ks = []
    while col.measure() > ringsynth.mu_threshold(ctx):
        k, col = ringsynth.reduce_column_step(col)
        ks.append(k)
    calls.clear()
    ringsynth.synthesize_ring(u)
    assert len(ks) > 20 and len(calls) == len(ks) + 2
    assert [c[4:] for c in calls[:len(ks)]] == [((("z", k), ("h", 0)), True) for k in ks]
    assert [c[5] for c in calls[len(ks):]] == [False, True]


def test_lanes_pack_and_unpack_round_trip():
    rng = random.Random(18)
    for n in (4, 12, 30, 64):
        ctx = make_context(n)
        for width in (16, 32, 64, 128, 256):
            lanes = ctx.lanes(width)
            bound = 1 << (width - 2)
            coeffs = tuple(rng.randrange(-bound, bound) for _ in range(ctx.degree))
            assert lanes.unpack(lanes.pack(coeffs)) == coeffs
            # load picks the narrowest doubling of the narrowest width
            # whose headroom [-2^f, 2^f) holds every coefficient: here the
            # edges of this width's headroom and one just past them
            f = lanes.free
            for edge in ((1 << f) - 1, -(1 << f), 1 << f, -(1 << f) - 1):
                vec = (edge,) + tuple(c >> (width - f) for c in coeffs[1:])
                want = LANE_WIDTH
                while not all(-(1 << ctx.lanes(want).free) <= c < 1 << ctx.lanes(want).free
                              for c in vec):
                    want *= 2
                got, p = ctx.lanes().load(vec)
                assert got.width == want and got.unpack(p) == vec
                assert want == (width if -(1 << f) <= edge < 1 << f else 2 * width)


def test_headroom_test_is_fits_at_the_full_headroom():
    # load, settle and the descent test the headroom [-2^f, 2^f) with room
    # and roomy_top; Lanes.fits, the same test at any g, must agree at g = f
    # (a width with f < 1 holds only zero lanes): both against the lanes
    rng = random.Random(19)
    for n in (4, 12, 30, 64, 210):
        ctx = make_context(n)
        for width in (8, 16, 32, 64):
            lanes = ctx.lanes(width)
            f, half = lanes.free, 1 << (width - 1)
            lo, hi = (-(1 << f), 1 << f) if f >= 1 else (0, 1)
            outside = [c for c in (lo - 1, hi, -half, half - 1) if not lo <= c < hi]
            for trial in range(40):
                coeffs = [rng.choice((lo, hi - 1, 0, rng.randrange(lo, hi)))
                          for _ in range(ctx.degree)]
                if trial % 2:  # one lane just or far outside
                    coeffs[rng.randrange(ctx.degree)] = rng.choice(outside)
                p = lanes.pack(coeffs)
                inside = not (p + lanes.room) & lanes.roomy_top
                assert inside == (trial % 2 == 0)
                if f >= 1:
                    assert inside == lanes.fits(p, f)


def test_the_fits_table_is_the_bounds_of_every_g():
    # Lanes.fits reads (room, top) for its g from one table per width,
    # whose entry f is the headroom test's (room, roomy_top)
    for n in (4, 12, 30, 64, 210):
        ctx = make_context(n)
        for width in (16, 24, 32, 48, 64, 96, 128):
            lanes = cyclo.Lanes(ctx, width)
            f = lanes.free
            assert len(lanes.bounds) == max(f + 1, 0)
            for g in range(f + 1):
                assert lanes.fits(0, g) and not lanes.fits(lanes.pack([1 << g] + [0] * (ctx.degree - 1)), g)
                assert lanes.bounds[g] == lanes._bounds(g)
            if f > 0:
                assert lanes.bounds[f] == (lanes.room, lanes.roomy_top)


@pytest.mark.parametrize("n", EVEN_NS)
def test_lane_zeta_and_fold_match_cycint(n):
    ctx = make_context(n)
    rng = random.Random(1900 + n)
    lanes = ctx.lanes(64)
    x = cyclo.CycInt(ctx, tuple(rng.randint(-99, 99) for _ in range(ctx.degree)))
    for j in range(ctx.order + 1):
        p = lanes.fold(lanes.zeta(lanes.pack(x.coeffs), j))
        assert lanes.unpack(p) == x.times_zeta(j).coeffs


def _fold_growth(ctx):
    """The largest sum, over the n input lanes, of |what one input lane
    contributes to a lane| at any point of the top-down fold (one value per
    block of 2^k lanes, as every lane of a block folds alike)."""
    dp, blocks = len(ctx.fold_q), ctx.n // ctx.ram_index
    rows = [[int(i == e) for i in range(blocks)] for e in range(blocks)]
    growth = 1
    for b in range(blocks - 1, dp - 1, -1):
        for row in rows:
            for j, c in enumerate(ctx.fold_q):
                row[b - dp + j] += c * row[b]
        growth = max(growth, max(sum(abs(row[p]) for row in rows) for p in range(b)))
    return growth


@pytest.mark.parametrize("n", list(EVEN_NS) + [90, 102, 210])
def test_lane_head_is_the_fold_growth_of_a_lane(n):
    # Context.lane_head reads the fold's growth off the rows of zeta^e;
    # it must equal the growth of the fold itself, run on every lane.
    ctx = make_context(n)
    assert ctx.lane_head() == 2 + (_fold_growth(ctx) - 1).bit_length()


@pytest.mark.parametrize("n", [*range(2, 129, 2), 210, 330])
def test_lane_head_matches_the_rows_of_zeta(n):
    # Context.lane_head builds the rows y^B mod P from fold_q; the oracle
    # reads the same rows off the dense powers of zeta
    assert make_context(n).lane_head() == rows_lane_head(n)


# -- the fold split on Context ----------------------------------------------------

@pytest.mark.parametrize("n", list(EVEN_NS) + [90, 210])
def test_fold_q_is_x_to_the_deg_p_minus_p(n):
    ctx = make_context(n)
    w = ctx.ram_index
    phi = cyclotomic_poly(2 * n)
    assert all(c == 0 for i, c in enumerate(phi) if i % w)
    p = phi[::w]
    assert ctx.fold_q == tuple(-c for c in p[:-1]) and p[-1] == 1
    assert len(ctx.fold_q) * w == ctx.degree


# -- the bounded context cache ----------------------------------------------------

def test_context_cache_keeps_its_bound_and_rebuilt_contexts_mix():
    bound = make_context.cache_info().maxsize
    assert bound is not None and bound < 40
    old = make_context(12)
    u = eval_sequence(GateSequence(3, ("H", "W^5", "S", "W^2", "H")), old)
    for n in range(66, 146, 2):  # 40 distinct n
        make_context(n)
        assert make_context.cache_info().currsize <= bound
    assert cyclo._cyclotomic_squarefree.cache_info().currsize <= \
        cyclo._cyclotomic_squarefree.cache_info().maxsize
    new = make_context(12)
    assert new is not old
    v = eval_sequence(GateSequence(3, ("H", "W^5", "S", "W^2", "H")), new)
    assert v == u and hash(v) == hash(u)
    assert (u.rows[0][0] + v.rows[0][1]) == (v.rows[0][0] + u.rows[0][1])
    assert su2.apply_gates(u, [("h", 0)]) == su2.apply_gates(v, [("h", 0)])
    assert u @ v.dagger() == UnitaryRn.identity(new)
    assert canonical_form(u) == canonical_form(v)

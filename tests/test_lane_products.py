"""Products and conjugates on packed lanes against the CycInt ones.

cyclo.Lanes multiplies two numerators by Kronecker substitution (one int
product, split at lane n) and conjugates one by reversing its lanes;
rings._conj_products builds every x y* the Bloch image and the exact
checks read from those two.  Here they are checked against CycInt.__mul__
and CycInt.conj for every even n up to 64 and for n = 90 and 210, where
the conjugate must fold; at the largest lane bound a width admits, where
nothing may wrap; and through the Bloch image (so3._bloch_entries, the
descent's first step) and the three exact checks, against the CycInt
forms they replaced (oracles).  The conjugate, which reverses lanes in
their bytes at 16, 32 and 64 bits, is checked at every width against the
reversal of a tuple of its lanes (oracles.tuple_conj).
"""

import random

import pytest

from cycsynth import (
    ColumnRn,
    CycInt,
    PhaseNotInRingError,
    RingElem,
    Rotation,
    UnitaryRn,
    bloch,
    canonical_form,
    cyclo,
    make_context,
    matrix_from_json,
    random_unitary,
)
from cycsynth.rings import _conj_products, _is_unit_sum
from cycsynth.so3 import _bloch_entries
from cycsynth.synth import _bloch_step

from oracles import cycint_is_unit_sum, cycint_is_unitary, entry_product_bloch, tuple_conj

EVEN_NS = range(2, 65, 2)
FOLD_NS = (90, 210)
DESCENT_NS = [*range(4, 65, 2), 90, 102, 210]


def _random_cyc(ctx, rng, bits):
    return CycInt(ctx, tuple(rng.randrange(-(1 << bits), 1 << bits) for _ in range(ctx.degree)))


def _read(lanes, p):
    return lanes.unpack(lanes.fold(p))


@pytest.mark.parametrize("n", [*EVEN_NS, *FOLD_NS])
def test_lane_product_and_conjugate_match_cycint(n):
    ctx = make_context(n)
    rng = random.Random(1700 + n)
    d = ctx.degree
    for bits in (1, 3, 17, 40):
        x, y = _random_cyc(ctx, rng, bits), _random_cyc(ctx, rng, bits)
        lanes, p, q = ctx.lanes().load_factors(x.coeffs, y.coeffs)
        assert _read(lanes, lanes.mul(p, q)) == (x * y).coeffs
        assert _read(lanes, lanes.conj(p)) == x.conj().coeffs
        assert _read(lanes, lanes.mul(p, lanes.conj(q))) == (x * y.conj()).coeffs
        # the conjugate sends lane i > 0 to lane n - i, negated
        w = lanes.width
        assert lanes.conj(p) == x.coeffs[0] - sum(c << (w * (n - i))
                                                  for i, c in enumerate(x.coeffs) if i)
        assert lanes.conj(lanes.pack((0,) * d)) == 0


@pytest.mark.parametrize("n", (4, 6, 8, 12, 30, 64))
def test_conjugate_reversal_matches_the_tuple_reversal_at_every_width(n):
    # 16, 32 and 64 bits reverse the lanes' bytes as array items, 8 and
    # 128 bits a tuple; lanes at the edges of the headroom, -2^f and
    # 2^f - 1, give the CycInt conjugate, and lanes at the edges of the
    # width, -2^(W-1) and 2^(W-1) - 1, reverse like the tuple's
    ctx = make_context(n)
    rng = random.Random(1750 + n)
    d = ctx.degree
    for width in (8, 16, 32, 64, 128):
        lanes = ctx.lanes(width)
        assert (lanes.items is None) == (width not in (16, 32, 64))
        f, top = lanes.free, 1 << (width - 1)
        edges = [(-(1 << f), (1 << f) - 1)] if f >= 0 else []
        for lo, hi in edges + [(-top, top - 1)]:
            vecs = [(lo,) * d, (hi,) * d, tuple(lo if i % 2 else hi for i in range(d)),
                    *(tuple(rng.choice((lo, hi, 0, rng.randint(lo, hi))) for _ in range(d))
                      for _ in range(6))]
            for v in vecs:
                p = lanes.pack(v)
                assert lanes.conj(p) == tuple_conj(lanes, p)
                if lo > -top:
                    assert _read(lanes, lanes.conj(p)) == CycInt(ctx, v).conj().coeffs


def _extreme_vectors(ctx, rng, g):
    lo, hi = -(1 << g), (1 << g) - 1
    d = ctx.degree
    return [(lo,) * d, (hi,) * d, tuple(lo if i % 2 else hi for i in range(d)),
            *(tuple(rng.choice((lo, hi)) for _ in range(d)) for _ in range(5))]


@pytest.mark.parametrize("n", (4, 12, 30, 64, 90, 210))
def test_products_at_the_edge_of_the_headroom_do_not_wrap(n):
    # the largest g with 2g + bit_length(2 phi(2n)) <= f keeps the width,
    # and a sum of four products x y* of lanes at -2^g or 2^g - 1, folded,
    # is exact; one bit more doubles the width
    ctx = make_context(n)
    rng = random.Random(1800 + n)
    need = (2 * ctx.degree).bit_length()
    for width in (32, 64):
        lanes = ctx.lanes(width)
        g = (lanes.free - need) // 2
        if g < 0:
            continue
        vecs = _extreme_vectors(ctx, rng, g)
        for _ in range(6):
            four = [rng.choice(vecs) for _ in range(4)]
            got, *ps = lanes.load_factors(*four)
            assert got is lanes
            assert all(lanes.fits(p, g) for p in ps)
            a, b, c, d = (CycInt(ctx, v) for v in four)
            mul, conj = lanes.mul, lanes.conj
            s = mul(ps[0], conj(ps[3])) + mul(ps[1], conj(ps[2])) \
                + mul(ps[3], conj(ps[0])) + mul(ps[2], conj(ps[1]))
            want = a * d.conj() + b * c.conj() + d * a.conj() + c * b.conj()
            assert _read(lanes, s) == want.coeffs
        for wider in ((1 << g,) + (0,) * (ctx.degree - 1),
                      (-(1 << g) - 1,) + (0,) * (ctx.degree - 1)):
            got, p = lanes.load_factors(wider)
            assert got.width == 2 * width and not lanes.fits(lanes.pack(wider), g)


@pytest.mark.parametrize("n", [*EVEN_NS, *FOLD_NS])
def test_bloch_matches_its_cycint_entry_products(n):
    ctx = make_context(n)
    tcounts = (0,) if n == 2 else (0, 3, {90: 6, 210: 4}.get(n, 12))
    for seed, tc in enumerate(tcounts):
        u, _ = random_unitary(ctx, tc, 2000 + seed)
        assert bloch(u) == entry_product_bloch(u)


def _unit_power(ctx, k):
    from test_synth import _infinite_order_unit

    lam = _infinite_order_unit(ctx)
    acc = RingElem.one(ctx)
    for _ in range(k):
        acc = acc * lam
    return acc


@pytest.mark.parametrize("n", (14, 28))
def test_bloch_entry_sharing_more_powers_of_two_than_the_lanes_hold(n):
    # lam^12 I, lam of unit modulus and no root of unity, has entries over
    # 2^M with M above the narrowest lanes' W - 1, and a Bloch image of
    # integers: every numerator is 2^(2M+1) times one of 0, 1, shared
    # powers of 2 far above 2^(W-1) for the W the step ends at
    ctx = make_context(n)
    lam = _unit_power(ctx, 12)
    zero = RingElem.zero(ctx)
    u = UnitaryRn(ctx, ((lam, zero), (zero, lam)))
    assert 2 * lam.m + 1 > cyclo.LANE_WIDTH - 1
    lanes, rows = _bloch_entries(u)
    assert [[(lanes.unpack(p)[0], m) for p, m in row] for row in rows] == \
        [[(int(i == j), 0) for j in range(3)] for i in range(3)]
    assert bloch(u) == Rotation.identity(ctx) == entry_product_bloch(u)
    st = _bloch_step(u)
    assert st.lanes.width == cyclo.LANE_WIDTH and st.signed_perm_key() == (1, 0, 0, 0, 1, 0, 0, 0, 1)
    with pytest.raises(PhaseNotInRingError):
        canonical_form(u)
    # lam^12 times a member: the same Bloch image as the member's
    v, _ = random_unitary(ctx, 8, 21)
    w = UnitaryRn(ctx, [[lam * e for e in row] for row in v.rows])
    assert bloch(w) == bloch(v) == entry_product_bloch(w)


@pytest.mark.parametrize("n", DESCENT_NS)
def test_the_first_step_is_at_the_width_load_picks(n):
    ctx = make_context(n)
    tcounts = {4: (6, 200), 8: (6, 200)}.get(n, (6, 12 if n < 90 else 4))
    for seed, tc in enumerate(tcounts):
        u, _ = random_unitary(ctx, tc, 2100 + seed)
        rot = bloch(u)
        st = _bloch_step(u)
        lanes, *_ = ctx.lanes().load(*(e.num.coeffs for row in rot.rows for e in row))
        assert st.lanes.width == lanes.width
        assert st.rows == rot.rows
        assert st.signed_perm_key() == rot.signed_perm_key()


# -- the exact checks ---------------------------------------------------------------


def _with_coeff(x, i, delta):
    cs = list(x.num.coeffs)
    cs[i] += delta
    return RingElem(CycInt(x.ctx, cs), x.m)


@pytest.mark.parametrize("n", (2, 4, 8, 12, 14, 30, 64, 90))
def test_exact_checks_on_lanes_match_their_cycint_forms(n):
    ctx = make_context(n)
    rng = random.Random(2200 + n)
    zeta = RingElem.zeta(ctx, 1)
    for seed in range(3):
        u, _ = random_unitary(ctx, 0 if n == 2 else 6, 2200 + seed)
        (a, b), (c, d) = u.rows
        bad = [
            ((_with_coeff(a, rng.randrange(ctx.degree), 1), b), (c, d)),
            ((a, b), (c, -d)) if not (b.is_zero() or d.is_zero()) else ((a, b), (a, b)),
            ((a * zeta, b), (c, d)) if not (b.is_zero() or a.is_zero()) else ((a, a), (c, d)),
            ((a, b), (a, b)),
        ]
        assert UnitaryRn(ctx, u.rows)._is_unitary() and cycint_is_unitary(u)
        for rows in bad:
            v = UnitaryRn(ctx, rows, check=False)
            assert not v._is_unitary() and not cycint_is_unitary(v)
            with pytest.raises(ValueError, match="not unitary"):
                UnitaryRn(ctx, rows)
        x, y = u.first_column()
        assert ColumnRn(x, y).x == x and cycint_is_unit_sum((x, y))
        for col in ((_with_coeff(x, 0, 2), y), (x, _with_coeff(y, ctx.degree - 1, -1)),
                    (x * zeta + zeta, y)):
            assert not _is_unit_sum(col) and not cycint_is_unit_sum(col)
            with pytest.raises(ValueError, match="not normalized"):
                ColumnRn(*col)
    for j in range(ctx.order):
        lam = RingElem.zeta(ctx, j)
        assert _is_unit_sum((lam,)) and cycint_is_unit_sum((lam,))
        for other in (lam + lam, lam + RingElem.one(ctx), lam.half()):
            assert _is_unit_sum((other,)) == cycint_is_unit_sum((other,))
    assert not _is_unit_sum((RingElem.zero(ctx),))


def test_a_non_unitary_json_matrix_is_rejected():
    for n, want in ((8, True), (8, False), (30, False)):
        d = make_context(n).degree
        one, zero = [1] + [0] * (d - 1), [0] * d
        off = [1] + [0] * (d - 1) if not want else zero
        obj = {"n": n, "denom_exp": 0, "entries": [[one, off], [zero, one]]}
        if want:
            assert matrix_from_json(obj)._is_unitary()
        else:
            with pytest.raises(ValueError, match="not unitary"):
                matrix_from_json(obj)


@pytest.mark.parametrize("n", (4, 12, 30))
def test_conj_products_over_a_common_denominator(n):
    # elements over different 2^m are brought over the largest first
    ctx = make_context(n)
    rng = random.Random(2300 + n)
    xs = [RingElem(_random_cyc(ctx, rng, 6), m) for m in (0, 3, 1)]
    lanes, m, got = _conj_products(xs, [(0, 1), (1, 2), (2, 2)])
    assert m == max(x.m for x in xs)
    for (i, j), p in got.items():
        want = xs[i] * xs[j].conj()
        assert RingElem(CycInt(ctx, _read(lanes, p)), 2 * m) == want


def test_mixed_huge_denominators_are_rejected_in_small_memory():
    # 1 / 2^M next to 1: over a common 2^M the 1 would need M-bit lanes,
    # and lane tables that wide; the denominators alone rule the sum out
    import tracemalloc

    for n in (4, 30):
        ctx = make_context(n)
        tiny = RingElem(ctx.one(), 10**6)
        one, zero = RingElem.one(ctx), RingElem.zero(ctx)
        tracemalloc.start()
        try:
            assert not _is_unit_sum((tiny, one)) and not _is_unit_sum((one, tiny))
            with pytest.raises(ValueError, match="not normalized"):
                ColumnRn(tiny, one)
            with pytest.raises(ValueError, match="not unitary"):
                UnitaryRn(ctx, ((one, tiny), (zero, one)))
            with pytest.raises(ValueError, match="not unitary"):
                UnitaryRn(ctx, ((one, zero), (tiny, one)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert not cycint_is_unit_sum((RingElem(ctx.one(), 40), one))


@pytest.mark.parametrize("n", (8, 14, 30))
def test_the_denominator_test_keeps_every_unit_sum(n):
    # unit sums whose largest denominator stands alone (a unit of modulus
    # 1 that is no root of unity, for n = 14) or far above the next
    ctx = make_context(n)
    for seed in range(4):
        (a, b), (c, d) = random_unitary(ctx, 30, 2400 + seed)[0].rows
        for elems in ((a, b), (c, d), (a, c), (b, d)):
            assert _is_unit_sum(elems) and cycint_is_unit_sum(elems)
    if n == 14:
        lam = _unit_power(ctx, 12)
        assert _is_unit_sum((lam,)) and cycint_is_unit_sum((lam,))
        zero = RingElem.zero(ctx)
        assert _is_unit_sum((lam, zero)) and _is_unit_sum((zero, lam))

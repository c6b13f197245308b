"""The dyadic-fraction ring layer: normalization, valuations, beta exponents."""

import math
import operator
import random

import pytest

from cycsynth import (
    RingElem,
    as_zeta_power,
    beta_constant,
    beta_exponent,
    divides,
    make_context,
    mu,
    q_of,
)
from oracles import random_ring_elem, ring_complex

SUPPORTED = (2, 4, 6, 8, 12)


def _cos_elem(ctx, a):
    # cos(a pi / n) = (zeta^a + zeta^-a) / 2
    return RingElem(ctx.zeta(a) + ctx.zeta(-a), 1)


# -- normalization and arithmetic ----------------------------------------------


def test_normalization_strips_shared_twos():
    ctx = make_context(4)
    x = RingElem(ctx.from_int(4), 3)  # 4/8 -> 1/2
    assert (x.num.as_int(), x.m) == (1, 1)
    half = RingElem(ctx.one(), 1)
    assert half + half == RingElem.one(ctx)
    assert RingElem(ctx.zero(), 5).m == 0


def test_adding_zero_returns_the_other_term():
    ctx = make_context(8)
    tiny = RingElem(ctx.zeta(3), 10**6)
    zero = RingElem.zero(ctx)
    assert tiny + zero is tiny and zero + tiny is tiny
    assert (tiny - zero) == tiny and (zero - tiny) == -tiny


@pytest.mark.parametrize("ma, mb", [(0, 0), (2, 2), (0, 1), (3, 1)])
def test_ring_arithmetic_rejects_mixed_contexts(ma, mb):
    # n = 4 and n = 8 numerators have 2 and 4 coefficients: a sum over a
    # common 2^m must raise CycInt's error, not add the shorter tuple in
    ctx4, ctx8 = make_context(4), make_context(8)
    a, b = RingElem(ctx4.one(), ma), RingElem(ctx8.one(), mb)
    for x, y in ((a, b), (b, a)):
        for op in (operator.add, operator.sub):
            with pytest.raises(ValueError, match="mixed contexts: n=%d vs n=%d"
                               % (x.ctx.n, y.ctx.n)):
                op(x, y)


def test_normalized_equality_is_canonical():
    ctx = make_context(12)
    rng = random.Random(10)
    for _ in range(40):
        x = random_ring_elem(ctx, rng)
        scaled = RingElem(x.num * 8, x.m + 3)
        assert scaled == x
        assert hash(scaled) == hash(x)


def test_abs2_example_n4():
    ctx = make_context(4)
    x = RingElem(ctx.one() + ctx.zeta(), 1)  # (1 + zeta_8) / 2
    got = x.abs2()
    # |(1+zeta)/2|^2 = (2 + zeta - zeta^3) / 4
    want = RingElem(ctx.from_int(2) + ctx.zeta() - ctx.zeta(3), 2)
    assert got == want
    assert abs(ring_complex(got) - abs(ring_complex(x)) ** 2) < 1e-12


def test_abs2_of_root_is_one():
    ctx = make_context(6)
    for a in range(ctx.order):
        assert RingElem.zeta(ctx, a).abs2() == RingElem.one(ctx)


def test_abs2_always_real():
    rng = random.Random(11)
    for n in (4, 12):
        ctx = make_context(n)
        for _ in range(30):
            assert random_ring_elem(ctx, rng).abs2().is_real()


# -- ring valuation ----------------------------------------------------------------


def test_ring_valuation_examples():
    for n in SUPPORTED:
        ctx = make_context(n)
        half = RingElem(ctx.one(), 1)
        assert half.valuation() == -ctx.ram_index
        assert RingElem.zeta(ctx, 3).valuation() == 0
        assert RingElem.zero(ctx).valuation() == math.inf


def test_integral_elements_have_nonnegative_valuation():
    rng = random.Random(12)
    for n in SUPPORTED:
        ctx = make_context(n)
        for _ in range(30):
            x = RingElem(random_ring_elem(ctx, rng).num, 0)
            if x.is_zero():
                continue
            assert x.valuation() >= 0


def test_valuation_sum_law():
    # strictly smaller valuation wins under addition
    rng = random.Random(13)
    for n in SUPPORTED:
        ctx = make_context(n)
        seen = 0
        while seen < 25:
            x, y = random_ring_elem(ctx, rng), random_ring_elem(ctx, rng)
            if x.is_zero() or y.is_zero():
                continue
            vx, vy = x.valuation(), y.valuation()
            if vx == vy:
                continue
            lo = x if vx < vy else y
            assert (x + y).valuation() == lo.valuation()
            seen += 1


def test_valuation_of_abs2_doubles():
    rng = random.Random(14)
    for n in SUPPORTED:
        ctx = make_context(n)
        for _ in range(25):
            x = random_ring_elem(ctx, rng)
            if x.is_zero():
                continue
            assert x.abs2().valuation() == 2 * x.valuation()


# -- complexity measure ----------------------------------------------------------------


def test_mu_examples():
    ctx = make_context(2)
    one, zero = RingElem.one(ctx), RingElem.zero(ctx)
    half = RingElem(ctx.one(), 1)
    assert mu(one, zero) == 0
    assert mu(half, half) == 2
    with pytest.raises(ValueError):
        mu(zero, zero)


def test_mu_invariant_under_unit_phase():
    rng = random.Random(15)
    ctx = make_context(8)
    for _ in range(25):
        x, y = random_ring_elem(ctx, rng), random_ring_elem(ctx, rng)
        if x.is_zero() and y.is_zero():
            continue
        a = rng.randrange(ctx.order)
        assert mu(x.times_zeta(a), y.times_zeta(a)) == mu(x, y)


# -- q table ------------------------------------------------------------------------------


def test_q_table_values():
    ctx12 = make_context(12)
    assert q_of(1, ctx12) == 2
    assert q_of(2, ctx12) == 2
    assert q_of(3, ctx12) == 1
    assert q_of(4, ctx12) == 2
    assert q_of(5, ctx12) == 2
    assert q_of(1, make_context(4)) == 1
    with pytest.raises(ValueError):
        q_of(6, ctx12)
    with pytest.raises(ValueError):
        q_of(0, ctx12)


def test_q_table_against_direct_recomputation():
    for n in (2, 4, 6, 8, 10, 12, 14, 16):
        ctx = make_context(n)
        k = ctx.k
        for a in range(1, n // 2):
            g = n // math.gcd(a, n)
            if g & (g - 1) == 0:
                j = g.bit_length() - 1
                want = 2 ** (k - 1) - 2 ** (k - j)
            else:
                want = 2 ** (k - 1)
            assert q_of(a, ctx) == want > 0


# -- beta exponents --------------------------------------------------------------------------


def test_beta_squared_relation():
    for n in (4, 8, 12, 16):
        ctx = make_context(n)
        bc = beta_constant(ctx)
        pw = bc.beta
        for _ in range(ctx.k - 1):
            pw = pw * pw
        unit = ctx.from_coeffs(c // 2 for c in pw.coeffs)
        assert pw == unit * 2
        assert abs(unit.norm()) == 1


def test_beta_exponent_examples():
    ctx = make_context(12)
    bc = beta_constant(ctx)
    r, w = beta_exponent(RingElem.one(ctx), bc)
    assert r == 0 and w == ctx.one()
    r, w = beta_exponent(_cos_elem(ctx, 1), bc)  # cos(pi/12)
    assert r == 2
    r, w = beta_exponent(_cos_elem(ctx, 3), bc)  # cos(pi/4) = 1/sqrt(2)
    assert r == 1


def test_beta_exponent_matches_q_table_on_cosines():
    for n in (4, 6, 8, 12, 16):
        ctx = make_context(n)
        bc = beta_constant(ctx)
        for a in range(1, n // 2):
            r, w = beta_exponent(_cos_elem(ctx, a), bc)
            assert r == q_of(a, ctx)
            assert not divides(bc.beta, w)


def test_beta_exponent_witness_identity():
    rng = random.Random(16)
    for n in (4, 8, 12, 16):
        ctx = make_context(n)
        bc = beta_constant(ctx)
        count = 0
        while count < 20:
            x = random_ring_elem(ctx, rng, bound=4, max_denom=3)
            if x.is_zero() or not x.is_real():
                x = x + x.conj()
                if x.is_zero():
                    continue
            r, w = beta_exponent(x, bc)
            beta_r = ctx.one()
            for _ in range(r):
                beta_r = beta_r * bc.beta
            assert RingElem(x.num * beta_r, x.m) == RingElem(w, 0)
            if r > 0:
                assert not divides(bc.beta, w)
            count += 1


def test_half_has_exponent_two_to_km1():
    for n in (2, 4, 6, 8, 12, 16):
        ctx = make_context(n)
        bc = beta_constant(ctx)
        r, w = beta_exponent(RingElem(ctx.one(), 1), bc)
        assert r == 2 ** (ctx.k - 1)


def test_beta_exponent_rejects_zero():
    ctx = make_context(4)
    with pytest.raises(ValueError):
        beta_exponent(RingElem.zero(ctx), beta_constant(ctx))


# -- zeta-power detection -------------------------------------------------------------------------


def test_as_zeta_power_full_cycle():
    for n in (4, 12):
        ctx = make_context(n)
        for j in range(ctx.order):
            assert as_zeta_power(RingElem.zeta(ctx, j)) == j
        assert as_zeta_power(RingElem.zeta(ctx, 0).half() + RingElem.zeta(ctx, 0).half()) == 0
        assert as_zeta_power(RingElem(ctx.one(), 1)) is None
        assert as_zeta_power(RingElem.zeta(ctx, ctx.n)) == ctx.n
        assert as_zeta_power(RingElem.from_int(ctx, 2)) is None

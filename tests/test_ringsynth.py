"""Ring-level pipeline: phase condition, census, column reduction, synthesis."""

import random
from fractions import Fraction

import pytest

from cycsynth import (
    ColumnRn,
    GateSequence,
    RingElem,
    UnitaryRn,
    base_case_column,
    canonical_form,
    complete_unitary,
    eval_sequence,
    fn_census,
    h0,
    iter_census,
    make_context,
    membership,
    mu_threshold,
    phase_condition,
    phase_condition_witness,
    reduce_column_step,
    s_gate,
    scalar_gate,
    synthesize_ring,
    uz_power,
    verify_finite_lemma,
    z_rotation_classify,
)
from oracles import product_eval_sequence, random_sequence

RING_NS = (2, 4, 6, 8, 12)


# -- phase condition -----------------------------------------------------------


def test_phase_condition_examples():
    assert phase_condition(12) is True  # s = 3, 2^1 = -1
    assert phase_condition(16) is True  # s = 1, vacuous
    assert phase_condition(14) is False  # powers of 2 mod 7: {2, 4, 1}
    assert phase_condition(10) is True  # s = 5, 2^2 = -1
    for n in RING_NS:
        assert phase_condition(n) is True


def test_phase_condition_witness_values():
    ok, s, t = phase_condition_witness(12)
    assert (ok, s, t) == (True, 3, 1)
    ok, s, t = phase_condition_witness(14)
    assert (ok, s, t) == (False, 7, None)
    ok, s, t = phase_condition_witness(2)
    assert (ok, s) == (True, 1)
    for n in (6, 10, 12, 18, 22):
        ok, s, t = phase_condition_witness(n)
        if ok and s > 1:
            assert pow(2, t, s) == s - 1


def test_phase_condition_matches_direct_cycle_enumeration():
    def direct(n):
        s = n
        while s % 2 == 0:
            s //= 2
        if s == 1:
            return True
        seen = set()
        v = 2 % s
        while v not in seen:
            if v == s - 1:
                return True
            seen.add(v)
            v = (v * 2) % s
        return False

    for n in range(2, 400, 2):
        assert phase_condition(n) == direct(n)


def test_phase_condition_rejects_odd():
    with pytest.raises(ValueError):
        phase_condition(7)


# -- census -------------------------------------------------------------------------


def test_census_f14():
    rows, frac = fn_census(14)
    assert frac == Fraction(6, 7)
    assert dict(rows)[14] is False
    assert all(cond for n, cond in rows if n != 14)


def test_census_f2():
    rows, frac = fn_census(2)
    assert frac == Fraction(1)


def test_census_streaming_resume_consistency():
    full = list(iter_census(600))
    head = list(iter_census(600, 2))
    tail = list(iter_census(600, 302))
    assert full == head
    assert full[150:] == tail


def test_census_rejects_odd_bound():
    with pytest.raises(ValueError):
        fn_census(15)


# -- z-rotation classification ----------------------------------------------------------


def test_z_rotation_classify():
    ctx = make_context(12)
    assert z_rotation_classify(UnitaryRn.identity(ctx)) == 0
    assert z_rotation_classify(s_gate(ctx)) == ctx.n // 2
    for j in range(ctx.order):
        assert z_rotation_classify(uz_power(ctx, j)) == j
    with pytest.raises(ValueError):
        z_rotation_classify(h0(ctx))
    with pytest.raises(ValueError):
        z_rotation_classify(scalar_gate(ctx, 1))


def test_z_rotations_canonicalize_on_axis_z():
    ctx = make_context(12)
    for j in range(1, ctx.order):
        cf = canonical_form(uz_power(ctx, j))
        assert cf.m <= 1
        if cf.m == 1:
            assert cf.axes == ("z",)


# -- the finite mod-2 verification --------------------------------------------------------


@pytest.mark.parametrize("n", [2, 4, 6])
def test_verify_finite_lemma_small(n):
    assert verify_finite_lemma(n) is True


def test_verify_finite_lemma_rejects_unsupported():
    with pytest.raises(ValueError):
        verify_finite_lemma(10)


# -- column reduction ---------------------------------------------------------------------


def _random_member_column(ctx, rng, length=14):
    u = product_eval_sequence(random_sequence(ctx, rng, length), ctx)
    return ColumnRn(*u.first_column())


def test_mu_threshold_values():
    # regression constants, computed (not hard-coded) as v(1+i)
    got = {n: mu_threshold(make_context(n)) for n in RING_NS}
    assert got == {2: 1, 4: 2, 6: 1, 8: 4, 12: 2}


def test_column_constructor_requires_normalization():
    ctx = make_context(4)
    one = RingElem.one(ctx)
    with pytest.raises(ValueError):
        ColumnRn(one, one)


def test_reduce_column_step_strictly_decreases():
    # n = 2 is excluded: the whole unitary group over Z[i, 1/2] is the
    # 96-element Clifford group, so no column ever exceeds the threshold.
    rng = random.Random(60)
    for n in (4, 6, 8, 12):
        ctx = make_context(n)
        done = 0
        while done < 6:
            col = _random_member_column(ctx, rng)
            if col.measure() <= mu_threshold(ctx):
                continue
            k, nxt = reduce_column_step(col)
            assert 1 <= k <= ctx.order
            assert nxt.measure() < col.measure()
            done += 1


def test_n2_columns_never_exceed_threshold():
    rng = random.Random(68)
    ctx = make_context(2)
    for _ in range(30):
        col = _random_member_column(ctx, rng)
        assert col.measure() <= mu_threshold(ctx)


def test_reduce_column_step_rejects_base_case():
    ctx = make_context(4)
    col = ColumnRn(RingElem.one(ctx), RingElem.zero(ctx))
    with pytest.raises(ValueError):
        reduce_column_step(col)


def test_reduction_terminates_within_measure_bound():
    rng = random.Random(61)
    ctx = make_context(12)
    col = _random_member_column(ctx, rng, 20)
    steps = 0
    start = col.measure()
    while col.measure() > mu_threshold(ctx):
        _, col = reduce_column_step(col)
        steps += 1
    assert steps <= max(start, 1)


# -- base case ---------------------------------------------------------------------------------


def test_base_case_axis_columns():
    ctx = make_context(12)
    one, zero = RingElem.one(ctx), RingElem.zero(ctx)
    v, seq = base_case_column(ColumnRn(one, zero))
    assert v.first_column() == (one, zero)
    assert seq == GateSequence(0, ())
    v, seq = base_case_column(ColumnRn(zero, one))
    assert v.first_column() == (zero, one)


def test_base_case_roots_columns():
    ctx = make_context(12)
    for j in (0, 3, 17):
        col = ColumnRn(RingElem.zeta(ctx, j), RingElem.zero(ctx))
        v, seq = base_case_column(col)
        assert v.first_column() == (col.x, col.y)
        assert product_eval_sequence(seq, ctx) == v


def test_base_case_balanced_column():
    # (1+i)x and (1+i)y both roots of unity: the generic branch
    ctx = make_context(12)
    half = RingElem(ctx.one(), 1)
    x = RingElem(ctx.one() - ctx.zeta(ctx.n // 2), 1)  # (1-i)/2 = zeta^0/(1+i)
    y = RingElem((ctx.one() - ctx.zeta(ctx.n // 2)).times_zeta(5), 1)
    col = ColumnRn(x, y)
    v, seq = base_case_column(col)
    assert v.first_column() == (x, y)
    assert product_eval_sequence(seq, ctx) == v


def test_base_case_rejects_high_measure():
    rng = random.Random(62)
    ctx = make_context(8)
    while True:
        col = _random_member_column(ctx, rng)
        if col.measure() > mu_threshold(ctx):
            break
    with pytest.raises(ValueError):
        base_case_column(col)


# -- completion ---------------------------------------------------------------------------------


def test_complete_unitary_recovers_exponent():
    rng = random.Random(63)
    ctx = make_context(12)
    for _ in range(12):
        v = product_eval_sequence(random_sequence(ctx, rng, 10), ctx)
        j = rng.randrange(ctx.order)
        u = v @ uz_power(ctx, j)
        assert complete_unitary(u, v) == j
    assert complete_unitary(v, v) == 0
    assert complete_unitary(v @ s_gate(ctx), v) == ctx.n // 2


def test_complete_unitary_requires_shared_column():
    ctx = make_context(4)
    with pytest.raises(ValueError):
        complete_unitary(h0(ctx), s_gate(ctx))


# -- full ring synthesis ----------------------------------------------------------------------------


def test_synthesize_ring_simple_gates():
    for n in RING_NS:
        ctx = make_context(n)
        for u in (h0(ctx), s_gate(ctx), UnitaryRn.identity(ctx)):
            seq = synthesize_ring(u)
            assert eval_sequence(seq, ctx) == u


def test_synthesize_ring_long_product_n12():
    ctx = make_context(12)
    rng = random.Random(64)
    seq_in = random_sequence(ctx, rng, 30)
    u = product_eval_sequence(seq_in, ctx)
    seq = synthesize_ring(u)
    assert eval_sequence(seq, ctx) == u


def test_synthesize_ring_random_members_all_ns():
    rng = random.Random(65)
    for n in RING_NS:
        ctx = make_context(n)
        for _ in range(6):
            u = product_eval_sequence(random_sequence(ctx, rng, 14), ctx)
            seq = synthesize_ring(u)
            assert eval_sequence(seq, ctx) == u


def test_synthesize_ring_rejects_unsupported_n():
    ctx = make_context(10)
    with pytest.raises(ValueError):
        synthesize_ring(UnitaryRn.identity(ctx))


def test_optimal_cost_at_most_ring_cost():
    rng = random.Random(66)
    ctx = make_context(8)
    for _ in range(8):
        u = product_eval_sequence(random_sequence(ctx, rng, 12), ctx)
        ring_seq = synthesize_ring(u)
        res = membership(u)
        assert res.is_member
        assert res.sequence.cost() <= ring_seq.cost()


def test_scalar_times_member_still_synthesizable():
    # elements of the full unitary ring group built as member x root phase
    rng = random.Random(67)
    for n in RING_NS:
        ctx = make_context(n)
        u = scalar_gate(ctx, rng.randrange(ctx.order)) @ product_eval_sequence(
            random_sequence(ctx, rng, 10), ctx
        )
        seq = synthesize_ring(u)
        assert eval_sequence(seq, ctx) == u
        assert membership(u).is_member

"""Bloch images: homomorphism, the 24 Clifford rotations, exponent profiles."""

import random
import sys
import threading
from itertools import permutations, product

import pytest

from cycsynth import (
    Context,
    RingElem,
    Rotation,
    UnitaryRn,
    bloch,
    clifford_group,
    clifford_unitary,
    eval_sequence,
    exponent_profile,
    h0,
    is_signed_permutation,
    make_context,
    q_of,
    rotation_generator,
    s_gate,
    scalar_gate,
    u_axis,
    uz_power,
    w_gate,
)
from oracles import random_sequence


def test_bloch_identity_and_phase_blindness():
    ctx = make_context(6)
    ident = UnitaryRn.identity(ctx)
    assert bloch(ident) == Rotation.identity(ctx)
    rng = random.Random(30)
    for _ in range(10):
        u = eval_sequence(random_sequence(ctx, rng, 8), ctx)
        a = rng.randrange(ctx.order)
        assert bloch(scalar_gate(ctx, a) @ u) == bloch(u)


def test_bloch_of_z_rotation_fixes_z():
    ctx = make_context(12)
    for a in range(1, ctx.order):
        r = bloch(uz_power(ctx, a))
        one, zero = RingElem.one(ctx), RingElem.zero(ctx)
        assert r.rows[2] == (zero, zero, one)
        assert r.rows[0][2].is_zero() and r.rows[1][2].is_zero()


def test_bloch_h_swaps_x_z_negates_y():
    ctx = make_context(4)
    r = bloch(h0(ctx))
    assert r.signed_perm_key() == (0, 0, 1, 0, -1, 0, 1, 0, 0)


def test_bloch_s_conjugates_x_to_y():
    ctx = make_context(4)
    s = s_gate(ctx)
    from cycsynth import pauli

    assert s @ pauli(ctx, "x") @ s.dagger() == pauli(ctx, "y")
    r = bloch(s)
    # column x is the image of X: +y
    assert [e.as_int() for e in (r.rows[0][0], r.rows[1][0], r.rows[2][0])] == [0, 1, 0]


def test_bloch_is_homomorphism():
    rng = random.Random(31)
    for n in (4, 12):
        ctx = make_context(n)
        for _ in range(15):
            u = eval_sequence(random_sequence(ctx, rng, 6), ctx)
            v = eval_sequence(random_sequence(ctx, rng, 6), ctx)
            assert bloch(u @ v) == bloch(u) @ bloch(v)


def test_rotation_generator_matches_bloch():
    for n in (4, 6, 12):
        ctx = make_context(n)
        for p in "xyz":
            for a in (1, 2, ctx.order - 1):
                assert rotation_generator(ctx, p, a) == bloch(u_axis(ctx, p, 1, a))


def test_rotation_half_turn():
    ctx = make_context(12)
    r = rotation_generator(ctx, "z", ctx.n)
    assert r.signed_perm_key() == (-1, 0, 0, 0, -1, 0, 0, 0, 1)


def test_euler_decomposition_of_h():
    for n in (4, 6, 12):
        ctx = make_context(n)
        rx = rotation_generator(ctx, "x", n // 2)
        rz = rotation_generator(ctx, "z", n // 2)
        assert bloch(h0(ctx)) == rx @ rz @ rx


def test_clifford_group_is_all_det1_signed_permutations():
    ctx = make_context(6)
    elems = clifford_group(ctx)
    assert len(elems) == 24
    got = {e.rotation.signed_perm_key() for e in elems}
    want = set()
    for perm in permutations(range(3)):
        for signs in product((1, -1), repeat=3):
            mat = [[0] * 3 for _ in range(3)]
            det_sign = 1
            for j, (i, s) in enumerate(zip(perm, signs)):
                mat[i][j] = s
            # determinant of a signed permutation: parity * product of signs
            parity = 1
            p = list(perm)
            for a in range(3):
                for b in range(a + 1, 3):
                    if p[a] > p[b]:
                        parity = -parity
            if parity * signs[0] * signs[1] * signs[2] == 1:
                want.add(tuple(mat[i][j] for i in range(3) for j in range(3)))
    assert got == want


def test_clifford_words_evaluate_to_their_rotation():
    ctx = make_context(8)
    for e in clifford_group(ctx):
        assert bloch(clifford_unitary(ctx, e)) == e.rotation


def test_clifford_identity_has_empty_word():
    ctx = make_context(4)
    table = {e.rotation.signed_perm_key(): e for e in clifford_group(ctx)}
    ident = table[(1, 0, 0, 0, 1, 0, 0, 0, 1)]
    assert ident.word == ()


def test_clifford_words_are_deterministic_and_shortest():
    ctx = make_context(4)
    lengths = sorted(len(e.word) for e in clifford_group(ctx))
    assert lengths[0] == 0 and lengths[-1] <= 6
    again = clifford_group(make_context(4))
    assert [e.word for e in again] == [e.word for e in clifford_group(ctx)]


def test_is_signed_permutation_cases():
    ctx = make_context(12)
    assert is_signed_permutation(Rotation.identity(ctx)).word == ()
    for a in range(1, ctx.n // 2):
        assert is_signed_permutation(bloch(w_gate(ctx, a))) is None
    ctx4 = make_context(4)
    one, zero = RingElem.one(ctx4), RingElem.zero(ctx4)
    flip = Rotation(
        ctx4, ((one, zero, zero), (zero, -one, zero), (zero, zero, -one))
    )
    assert is_signed_permutation(flip) is not None


def test_exponent_profile_of_signed_permutation_is_zero():
    ctx = make_context(12)
    for e in clifford_group(ctx)[:6]:
        assert exponent_profile(e.rotation) == (0, (0, 0, 0))


def test_exponent_profile_single_rotation():
    for n in (4, 8, 12):
        ctx = make_context(n)
        rng = random.Random(32)
        for a in range(1, n // 2):
            cliff = rng.choice(clifford_group(ctx))
            m = rotation_generator(ctx, "z", a) @ cliff.rotation
            mx, rows = exponent_profile(m)
            assert mx == q_of(a, ctx)
            assert rows[2] == 0
            assert rows[0] == rows[1] == q_of(a, ctx)


def test_exponent_profile_two_rotations():
    # leading x rotation leaves the deficient x row at the trailing cost
    for n in (8, 12):
        ctx = make_context(n)
        for a1, a2 in ((1, 2), (2, 1), (3, 1)):
            if a1 >= n // 2 or a2 >= n // 2:
                continue
            m = rotation_generator(ctx, "x", a1) @ rotation_generator(ctx, "z", a2)
            mx, rows = exponent_profile(m)
            assert mx == q_of(a1, ctx) + q_of(a2, ctx)
            assert rows[0] == q_of(a2, ctx)
            assert sorted(rows)[1:] == [mx, mx]


def test_denominator_pattern_on_random_canonical_products():
    # exponent pattern of a canonical product: max is the q-sum, exactly two
    # rows attain it, the deficient row sits q_{a_1} lower and names p_1
    rng = random.Random(33)
    for n in (4, 8, 12):
        ctx = make_context(n)
        cliffs = clifford_group(ctx)
        for _ in range(30):
            m_len = rng.randint(1, 5)
            axes, exps = [], []
            prev = None
            for _ in range(m_len):
                p = rng.choice([ax for ax in "xyz" if ax != prev])
                axes.append(p)
                prev = p
                exps.append(rng.randint(1, n // 2 - 1))
            rot = rng.choice(cliffs).rotation
            for p, a in zip(reversed(axes), reversed(exps)):
                rot = rotation_generator(ctx, p, a) @ rot
            mx, rows = exponent_profile(rot)
            q_sum = sum(q_of(a, ctx) for a in exps)
            assert mx == q_sum
            assert sorted(rows).count(mx) == 2
            deficient = [i for i, r in enumerate(rows) if r != mx]
            assert len(deficient) == 1
            assert "xyz"[deficient[0]] == axes[0]
            assert rows[deficient[0]] == q_sum - q_of(exps[0], ctx)


def test_rotation_constructor_validates():
    ctx = make_context(4)
    one, zero = RingElem.one(ctx), RingElem.zero(ctx)
    with pytest.raises(ValueError):
        Rotation(ctx, ((one, one, zero), (zero, one, zero), (zero, zero, one)))
    half_i = RingElem(ctx.zeta(2), 1)
    with pytest.raises(ValueError):
        Rotation(ctx, ((half_i, zero, zero), (zero, one, zero), (zero, zero, one)))


def test_concurrent_first_use_of_clifford_tables():
    # Each lazy table is one memo entry, so a thread that finds the Clifford
    # group never looks for a signed-permutation index that is not there yet.
    ctx = Context(12)  # fresh: nothing built
    target = bloch(s_gate(ctx) @ h0(ctx))
    words, errors = [], []

    def work():
        try:
            words.append(is_signed_permutation(target).word)
            clifford_group(ctx)
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
    assert words == [("S", "H")] * 8

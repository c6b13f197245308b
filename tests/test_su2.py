"""Unitary layer: generators, sequences, phase comparison, serialization."""

import json
import random
import time
import tracemalloc

import pytest

from cycsynth import (
    CONJ_WORDS,
    GateSequence,
    RingElem,
    UnitaryRn,
    canonicalize_sequence,
    equal_up_to_phase,
    eval_sequence,
    h0,
    make_context,
    matrix_from_json,
    matrix_to_json,
    pauli,
    s_gate,
    scalar_gate,
    u_axis,
    uz_power,
    w_gate,
)
from cycsynth import su2
from cycsynth.so3 import bloch, is_signed_permutation
from cycsynth.su2 import w_exponent
from oracles import random_sequence, unitary_complex


def test_unitarity_enforced():
    ctx = make_context(4)
    one, zero = RingElem.one(ctx), RingElem.zero(ctx)
    half = RingElem(ctx.one(), 1)
    # rows that are not orthogonal, or not of unit length (first, second)
    for rows in (((one, one), (zero, one)), ((one, zero), (one, zero)),
                 ((half, half), (half, half)), ((one + one, zero), (zero, one)),
                 ((one, zero), (zero, one + one))):
        with pytest.raises(ValueError, match="matrix is not unitary over the ring"):
            UnitaryRn(ctx, rows)


def test_generator_exponent_range_enforced():
    ctx = make_context(4)
    with pytest.raises(ValueError):
        uz_power(ctx, ctx.order)
    with pytest.raises(ValueError):
        u_axis(ctx, "x", 1, -1)
    with pytest.raises(ValueError):
        w_gate(ctx, 0)
    with pytest.raises(ValueError):
        u_axis(ctx, "q", 1, 1)


def test_w_power_is_s():
    for n in (4, 6, 12):
        ctx = make_context(n)
        assert uz_power(ctx, n // 2) == s_gate(ctx)


def test_s_fourth_power_is_identity():
    ctx = make_context(8)
    s = s_gate(ctx)
    assert s @ s @ s @ s == UnitaryRn.identity(ctx)


def test_h_squared_is_i():
    ctx = make_context(6)
    h = h0(ctx)
    assert h @ h == scalar_gate(ctx, ctx.n // 2)


def test_axis_rotation_quarter_power_is_clifford():
    for n in (4, 12):
        ctx = make_context(n)
        for p in "xyz":
            acc = UnitaryRn.identity(ctx)
            for _ in range(n // 2):
                acc = acc @ u_axis(ctx, p, 1, 1)
            assert acc == u_axis(ctx, p, 1, n // 2)
            assert is_signed_permutation(bloch(acc)) is not None


def test_phase_relation():
    ctx = make_context(12)
    for p in "xyz":
        for a in range(1, ctx.n // 2):
            prod = u_axis(ctx, p, 1, a) @ u_axis(ctx, p, -1, a)
            assert prod == scalar_gate(ctx, a)


def test_axis_inversion_identity():
    # U_p(a) = zeta^(a - n/2) U_p(pi/2) U_{-p}(n/2 - a)
    ctx = make_context(12)
    n = ctx.n
    for p in "xyz":
        for a in range(1, n // 2):
            b = n // 2 - a
            rhs = scalar_gate(ctx, -b) @ u_axis(ctx, p, 1, n // 2) @ u_axis(ctx, p, -1, b)
            assert rhs == u_axis(ctx, p, 1, a)


def test_conjugator_words_realize_axes():
    for n in (4, 6, 12):
        ctx = make_context(n)
        for (p, sign), word in CONJ_WORDS.items():
            c = eval_sequence(GateSequence(0, word), ctx)
            for a in (1, 3, n - 1):
                assert c @ uz_power(ctx, a) @ c.dagger() == u_axis(ctx, p, sign, a)


def test_pseudo_commutation_for_short_clifford_words():
    ctx = make_context(8)
    words = [()]
    for _ in range(4):
        words += [w + (t,) for w in words if len(w) == _ for t in "HS"]
    for word in words:
        c = eval_sequence(GateSequence(0, word), ctx)
        rot = bloch(c)
        for pi_, p in enumerate("xyz"):
            # image of P under conjugation: the signed unit column p of bloch(c)
            col = [rot.rows[i][pi_] for i in range(3)]
            hits = [(i, e.as_int()) for i, e in enumerate(col) if not e.is_zero()]
            assert len(hits) == 1 and hits[0][1] in (1, -1)
            i, sign = hits[0]
            a = 3
            assert c @ u_axis(ctx, p, 1, a) == u_axis(ctx, "xyz"[i], sign, a) @ c


def test_eval_sequence_examples():
    ctx = make_context(12)
    assert eval_sequence(GateSequence(0, ()), ctx) == UnitaryRn.identity(ctx)
    assert eval_sequence(GateSequence(0, ("H", "H")), ctx) == scalar_gate(ctx, 6)
    assert eval_sequence(GateSequence(0, ("S",) * 4), ctx) == UnitaryRn.identity(ctx)
    t_like = eval_sequence(GateSequence(0, ("W",)), ctx)
    assert t_like == w_gate(ctx, 1)


def test_sequence_cost():
    seq = GateSequence(3, ("H", "W", "S", "W^5", "W"))
    assert seq.cost() == 7


def test_w_token_parser_in_every_reader():
    assert [w_exponent(t) for t in ("W", "W^1", "W^12", "W^0")] == [1, 1, 12, 0]
    for tok in ("H", "S", "W^", "W^-1", "W^+1", "W^1a", "WW", "w", "W^ 1", "PH[1]"):
        assert w_exponent(tok) is None
    ctx = make_context(4)
    bad = GateSequence(0, ("H", "W^-1"))
    assert bad.cost() == 0
    for read in (lambda: eval_sequence(bad, ctx), lambda: canonicalize_sequence(bad, ctx),
                 lambda: GateSequence.from_text("H W^-1", ctx)):
        with pytest.raises(ValueError, match="unknown circuit token 'W\\^-1'"):
            read()


def test_sequence_text_round_trip():
    ctx = make_context(8)
    rng = random.Random(20)
    for _ in range(40):
        seq = random_sequence(ctx, rng, rng.randint(0, 12))
        back = GateSequence.from_text(seq.to_text(), ctx)
        assert back == seq
    assert GateSequence.from_text("", ctx) == GateSequence(0, ())
    assert GateSequence.from_text("PH[3] W^5", ctx).phase_power == 3


def test_circuit_digits_are_ascii():
    # Other Unicode decimal digits (Arabic-Indic, fullwidth, Devanagari) are
    # not part of the circuit format: to_text could not give the text back.
    ctx = make_context(4)
    for digit in ("\u0663", "\uff13", "\u0969"):
        assert w_exponent("W^" + digit) is None
        for text in ("PH[%s] H" % digit, "H W^%s S" % digit):
            with pytest.raises(ValueError, match="unknown circuit token"):
                GateSequence.from_text(text, ctx)
    assert GateSequence.from_text("PH[3] H W^5 S", ctx).to_text() == "PH[3] H W^5 S"


def test_sequence_text_errors():
    ctx = make_context(4)
    with pytest.raises(ValueError):
        GateSequence.from_text("H Q", ctx)
    with pytest.raises(ValueError):
        GateSequence.from_text("W^9", ctx)  # 2n = 8
    with pytest.raises(ValueError):
        GateSequence.from_text("H PH[1]", ctx)
    with pytest.raises(ValueError):
        GateSequence.from_text("W^0", ctx)


def test_equal_up_to_phase():
    ctx = make_context(6)
    u = h0(ctx)
    assert equal_up_to_phase(u, u) == RingElem.one(ctx)
    lam = equal_up_to_phase(scalar_gate(ctx, 1) @ u, u)
    assert lam == RingElem.zeta(ctx, 1)
    assert equal_up_to_phase(h0(ctx), s_gate(ctx)) is None


def test_determinants():
    ctx = make_context(10)
    for a in range(1, ctx.order):
        assert w_gate(ctx, a).det() == RingElem.zeta(ctx, a)
    # det(H0) = -i: H0 = zeta_8 * Hadamard, det = i * (-1)
    assert h0(ctx).det() == RingElem.zeta(ctx, -ctx.n // 2)


def test_generator_entries_match_floats():
    ctx = make_context(12)
    import cmath

    got = unitary_complex(u_axis(ctx, "y", -1, 5))
    th = 5 * cmath.pi / 12
    want = [
        [(1 + cmath.exp(1j * th)) / 2, 1j * (1 - cmath.exp(1j * th)) / 2],
        [-1j * (1 - cmath.exp(1j * th)) / 2, (1 + cmath.exp(1j * th)) / 2],
    ]
    for r in range(2):
        for c in range(2):
            assert abs(got[r][c] - want[r][c]) < 1e-12


def test_matrix_json_round_trip():
    ctx = make_context(12)
    rng = random.Random(21)
    for _ in range(20):
        u = eval_sequence(random_sequence(ctx, rng, 10), ctx)
        blob = json.dumps(matrix_to_json(u))
        assert matrix_from_json(json.loads(blob)) == u


def test_matrix_json_errors():
    good = matrix_to_json(h0(make_context(4)))
    bad = dict(good)
    bad["entries"] = [[good["entries"][0][0]] * 2] * 2
    bad["entries"][0][0] = [1, 2, 3]  # wrong length
    with pytest.raises(ValueError):
        matrix_from_json(bad)
    bad2 = dict(good)
    bad2["n"] = 5
    with pytest.raises(ValueError):
        matrix_from_json(bad2)
    bad3 = dict(good)
    bad3["denom_exp"] = -1
    with pytest.raises(ValueError):
        matrix_from_json(bad3)
    notunitary = dict(good)
    notunitary["entries"] = [[[1, 0, 0, 0], [0, 0, 0, 0]], [[1, 0, 0, 0], [1, 0, 0, 0]]]
    notunitary["denom_exp"] = 0
    with pytest.raises(ValueError):
        matrix_from_json(notunitary)


def test_matrix_json_checks_vector_lengths_before_building_context(monkeypatch):
    # A 60-byte matrix must not cost a 2n x phi(2n) reduction table: the
    # vectors are checked against phi(2n) before any context is built.
    def refuse(n):
        raise AssertionError("context built for n=%d" % n)

    monkeypatch.setattr(su2, "make_context", refuse)
    obj = {"n": 20014, "denom_exp": 0, "entries": [[[1], [0]], [[0], [1]]]}
    with pytest.raises(ValueError) as exc:
        matrix_from_json(obj)
    assert str(exc.value) == "entry (0,0): coefficient vector must have length 20012, got 1"
    obj["entries"] = [[[1] * 20012, [1.5] * 20012], [[0], [1]]]
    with pytest.raises(ValueError) as exc:
        matrix_from_json(obj)
    assert str(exc.value) == "entry (0,1): coefficients must be integers"


def test_matrix_json_rejects_huge_n_without_factoring_it(monkeypatch):
    # 2n = 4 (10^16 + 61) has a prime factor far above any vector length L,
    # which proves phi(2n) > L; trial division stops there, and does not run
    # on toward sqrt(10^16) first
    def refuse(n):
        raise AssertionError("context built for n=%d" % n)

    monkeypatch.setattr(su2, "make_context", refuse)
    n = 2 * (10**16 + 61)
    obj = {"n": n, "denom_exp": 0, "entries": [[[1], [0]], [[0], [1]]]}
    start = time.perf_counter()
    with pytest.raises(ValueError) as exc:
        matrix_from_json(obj)
    assert time.perf_counter() - start < 1.0
    assert str(exc.value) == ("entry (0,0): coefficient vector must have length "
                              "phi(%d) > 1, got 1" % (2 * n))


def test_matrix_json_huge_denominator_is_rejected_in_small_memory():
    # U U^dagger of diag(1, 1) / 2^m adds zero terms to entries over 2^(2m);
    # scaling a zero to that denominator built a 2m-bit integer (26.7 MB
    # traced at m = 10^8) before the matrix was turned away.
    make_context(4)
    obj = {"n": 4, "denom_exp": 10**8,
           "entries": [[[1, 0, 0, 0], [0, 0, 0, 0]], [[0, 0, 0, 0], [1, 0, 0, 0]]]}
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="matrix is not unitary over the ring"):
            matrix_from_json(obj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_clifford_unitary_group_order():
    # <H0, S> has 24 rotations x 4 scalar phases = 96 elements; its scalars
    # are exactly the powers of i, so 2n-th-root phase bookkeeping suffices.
    ctx = make_context(4)
    seen = {UnitaryRn.identity(ctx): ()}
    frontier = [UnitaryRn.identity(ctx)]
    gens = [h0(ctx), s_gate(ctx)]
    while frontier:
        nxt = []
        for u in frontier:
            for g in gens:
                v = u @ g
                if v not in seen:
                    seen[v] = ()
                    nxt.append(v)
        frontier = nxt
    assert len(seen) == 96
    scalars = [u for u in seen if u.is_diagonal() and u.rows[0][0] == u.rows[1][1]]
    assert len(scalars) == 4
    ident = UnitaryRn.identity(ctx)
    assert all(
        equal_up_to_phase(u, ident) is not None and u.rows[0][0].abs2() == RingElem.one(ctx)
        for u in scalars
    )


def test_products_stay_unitary():
    # internal products skip the constructor check by closure; pin it here
    ctx = make_context(12)
    rng = random.Random(22)
    for _ in range(20):
        u = eval_sequence(random_sequence(ctx, rng, 15), ctx)
        assert u._is_unitary()
        assert u.dagger()._is_unitary()


def test_pauli_relations():
    ctx = make_context(4)
    x, y, z = (pauli(ctx, p) for p in "xyz")
    i_mat = scalar_gate(ctx, ctx.n // 2)
    assert x @ y == i_mat @ z
    assert x @ x == UnitaryRn.identity(ctx)

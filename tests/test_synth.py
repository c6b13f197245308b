"""Optimal synthesis: descent, the rewriting oracle, emission, membership."""

import copy
import pickle
import random

import pytest

from cycsynth import (
    GateSequence,
    IntegrityError,
    NotReducibleError,
    RingElem,
    UnitaryRn,
    as_zeta_power,
    axis_detect,
    bloch,
    brute_force_min_tcount,
    canonical_form,
    canonicalize_sequence,
    clifford_group,
    clifford_unitary,
    equal_up_to_phase,
    eval_sequence,
    h0,
    make_context,
    membership,
    random_unitary,
    rotation_generator,
    s_gate,
    scalar_gate,
    tcount,
    to_circuit,
    u_axis,
    uz_power,
)
from cycsynth.rings import _beta_exp_r
from cycsynth.synth import _RewriteState, bfs_cosets, witness_unitary
from oracles import random_sequence


# -- axis detection -----------------------------------------------------------


def test_axis_detect_recovers_leading_factor():
    rng = random.Random(40)
    for n in (4, 8, 12):
        ctx = make_context(n)
        cliffs = clifford_group(ctx)
        for _ in range(15):
            a1 = rng.randint(1, n // 2 - 1)
            a2 = rng.randint(1, n // 2 - 1)
            p1, p2 = rng.sample(["x", "y", "z"], 2)
            rot = (
                rotation_generator(ctx, p1, a1)
                @ rotation_generator(ctx, p2, a2)
                @ rng.choice(cliffs).rotation
            )
            assert axis_detect(rot) == (p1, a1)


def test_axis_detect_rejects_signed_permutation_region():
    ctx = make_context(4)
    cliff = clifford_group(ctx)[5]
    with pytest.raises(NotReducibleError):
        axis_detect(cliff.rotation)


# -- canonical form ---------------------------------------------------------------


def test_canonical_form_of_clifford_phase():
    ctx = make_context(12)
    u = scalar_gate(ctx, 7) @ clifford_unitary(ctx, clifford_group(ctx)[13])
    cf = canonical_form(u)
    assert cf.m == 0
    assert cf.residual == clifford_group(ctx)[13]
    assert cf.phase_power == 7


def test_canonical_form_of_z_rotation():
    ctx = make_context(12)
    for a in range(1, ctx.n // 2):
        cf = canonical_form(uz_power(ctx, a))
        assert (cf.axes, cf.exponents) == (("z",), (a,))
        assert cf.residual.word == () and cf.phase_power == 0


def test_canonical_form_two_factor_example():
    ctx = make_context(12)
    u = u_axis(ctx, "x", 1, 1) @ u_axis(ctx, "z", 1, 2) @ s_gate(ctx)
    cf = canonical_form(u)
    assert cf.axes == ("x", "z")
    assert cf.exponents == (1, 2)


def test_canonical_form_construct_and_recover():
    rng = random.Random(41)
    for n in (4, 6, 8, 12, 16):
        ctx = make_context(n)
        cliffs = clifford_group(ctx)
        for _ in range(10):
            m_len = rng.randint(0, 4)
            axes, exps = [], []
            prev = None
            for _ in range(m_len):
                p = rng.choice([ax for ax in "xyz" if ax != prev])
                prev = p
                axes.append(p)
                exps.append(rng.randint(1, n // 2 - 1))
            res = rng.choice(cliffs)
            ph = rng.randrange(ctx.order)
            u = scalar_gate(ctx, ph)
            for p, a in zip(axes, exps):
                u = u @ u_axis(ctx, p, 1, a)
            u = u @ clifford_unitary(ctx, res)
            cf = canonical_form(u)
            assert cf.axes == tuple(axes)
            assert cf.exponents == tuple(exps)
            assert cf.residual == res
            assert cf.phase_power == ph


def test_descent_strictly_decreases_exponent():
    from cycsynth import exponent_profile

    ctx = make_context(8)
    rng = random.Random(42)
    u = eval_sequence(random_sequence(ctx, rng, 25), ctx)
    m = bloch(u)
    profile = exponent_profile(m)[0]
    while True:
        from cycsynth import is_signed_permutation

        if is_signed_permutation(m) is not None:
            break
        q, b = axis_detect(m)
        m = rotation_generator(ctx, q, ctx.order - b) @ m
        nxt = exponent_profile(m)[0]
        assert nxt < profile
        profile = nxt


@pytest.mark.parametrize("n", [4, 12, 16])
def test_elements_pickle_and_deepcopy_onto_the_cached_context(n):
    # A context pickles as its n (Context.__reduce__), so matrices, ring
    # elements and rotations whose context holds lane tables copy, and go
    # to the --jobs pool, onto the cached context, not a copy of it.
    ctx = make_context(n)
    u, _ = random_unitary(ctx, 20, 3)
    canonical_form(u)  # builds the context's lane tables
    elem = next(e for row in u.rows for e in row if e.m)
    for x in (u, elem, bloch(u)):
        for copied in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x)):
            assert type(copied) is type(x) and copied == x and copied.ctx is x.ctx
    assert canonical_form(pickle.loads(pickle.dumps(u))) == canonical_form(u)


# -- the rewriting oracle -----------------------------------------------------------


def test_rewrite_merges_same_axis_blocks():
    ctx = make_context(12)
    cf = canonicalize_sequence(GateSequence(0, ("W^2", "W")), ctx)
    assert (cf.axes, cf.exponents) == (("z",), (3,))
    assert cf.phase_power == 0


def test_rewrite_handles_clifford_conjugation():
    ctx = make_context(12)
    cf = canonicalize_sequence(GateSequence(0, ("S", "W", "S", "S", "S")), ctx)
    assert (cf.axes, cf.exponents) == (("z",), (1,))


def test_rewrite_pure_clifford_with_phase():
    ctx = make_context(12)
    cf = canonicalize_sequence(GateSequence(0, ("H", "H")), ctx)
    assert cf.m == 0
    assert cf.residual.word == ()
    assert cf.phase_power == ctx.n // 2


def test_rewrite_agrees_with_descent_on_random_words():
    rng = random.Random(43)
    for n in (4, 6, 8, 12, 16):
        ctx = make_context(n)
        for _ in range(15):
            seq = random_sequence(ctx, rng, rng.randint(0, 18))
            cf1 = canonicalize_sequence(seq, ctx)
            cf2 = canonical_form(eval_sequence(seq, ctx))
            assert cf1 == cf2


def test_descent_agrees_with_rewriting_for_every_even_n_to_64():
    for n in range(4, 65, 2):
        ctx = make_context(n)
        for seed in range(3):
            u, seq = random_unitary(ctx, 12, 500 + seed)
            assert canonical_form(u) == canonicalize_sequence(seq, ctx), (n, seed)


@pytest.mark.parametrize("n", (4, 8, 12))
def test_rewrite_checks_its_factors_against_the_word(monkeypatch, n):
    # A factor turned from exponent 1 to 3 leaves a form of the right shape
    # whose pending Clifford still matches its word; only the whole form,
    # checked against the word, shows the fault.
    ctx = make_context(n)
    seq = GateSequence(1, ("H", "W", "S", "W^2", "H", "W"))
    want = canonicalize_sequence(seq, ctx)
    plain = _RewriteState.push_factor
    done = []

    def corrupt(self, p, sign, a):
        if a == 1 and not done:
            done.append(a)
            a = 3
        plain(self, p, sign, a)

    monkeypatch.setattr(_RewriteState, "push_factor", corrupt)
    with pytest.raises(IntegrityError):
        canonicalize_sequence(seq, ctx)
    assert done
    monkeypatch.undo()
    assert canonicalize_sequence(seq, ctx) == want == canonical_form(eval_sequence(seq, ctx))


@pytest.mark.parametrize("n", (2, 4, 12))
def test_rewrite_rejects_w_exponents_outside_range(n):
    ctx = make_context(n)
    for j in (0, ctx.order, ctx.order + 1):
        bad = GateSequence(0, ("H", "W^%d" % j, "S"))
        for read in (eval_sequence, canonicalize_sequence,
                     lambda seq, ctx: GateSequence.from_text(seq.to_text(), ctx)):
            with pytest.raises(ValueError, match=r"W exponent must lie in \[1, 2n\)"):
                read(bad, ctx)


def test_rewrite_angle_folding_keeps_range():
    ctx = make_context(12)
    rng = random.Random(44)
    for _ in range(25):
        seq = random_sequence(ctx, rng, 12)
        cf = canonicalize_sequence(seq, ctx)
        assert all(1 <= a < ctx.n // 2 for a in cf.exponents)
        assert all(x != y for x, y in zip(cf.axes, cf.axes[1:]))


# -- tcount and emission ----------------------------------------------------------------


def test_tcount_examples():
    ctx4 = make_context(4)
    assert tcount(eval_sequence(GateSequence(0, ("W",)), ctx4)) == 1  # the T gate
    assert tcount(h0(ctx4)) == 0
    ctx12 = make_context(12)
    for a in range(1, 6):
        assert tcount(uz_power(ctx12, a)) == min(a, 6 - a)


def test_to_circuit_simple_cases():
    ctx = make_context(12)
    cf = canonical_form(uz_power(ctx, 2))
    assert to_circuit(cf).tokens == ("W^2",)
    cf5 = canonical_form(uz_power(ctx, 5))
    seq5 = to_circuit(cf5)
    assert seq5.cost() == 1  # via the inversion identity
    assert eval_sequence(seq5, ctx) == uz_power(ctx, 5)


def test_to_circuit_round_trip_exact():
    rng = random.Random(45)
    for n in (4, 6, 12, 16):
        ctx = make_context(n)
        for _ in range(10):
            seq = random_sequence(ctx, rng, rng.randint(1, 15))
            u = eval_sequence(seq, ctx)
            cf = canonical_form(u)
            circ = to_circuit(cf)
            assert eval_sequence(circ, ctx) == u
            assert circ.cost() == cf.tcount()


def test_membership_of_generators():
    ctx = make_context(8)
    res = membership(h0(ctx))
    assert res.is_member
    assert res.sequence.cost() == 0
    assert res.sequence.to_text() == "H"
    res_w = membership(uz_power(ctx, 1))
    assert res_w.is_member and res_w.sequence.cost() == 1


def test_membership_round_trip_random():
    rng = random.Random(46)
    for n in (4, 12):
        ctx = make_context(n)
        for _ in range(10):
            u = eval_sequence(random_sequence(ctx, rng, 12), ctx)
            res = membership(u)
            assert res.is_member
            assert eval_sequence(res.sequence, ctx) == u


def _infinite_order_unit(ctx):
    """u = (-3 - sqrt(-7)) / 4: unit modulus, not a root of unity.

    sqrt(-7) is the quadratic Gauss sum sum_a (a|7) zeta_7^a, available
    whenever 7 divides the cyclotomic order; |u| = 1 because the Gauss-sum
    factor (−1 ± sqrt(−7))/2 of 2 has absolute value sqrt(2).
    """
    step = ctx.order // 7
    legendre = {1: 1, 2: 1, 4: 1, 3: -1, 5: -1, 6: -1}
    gauss = ctx.zero()
    for a, s in legendre.items():
        gauss = gauss + ctx.zeta(step * a) * s
    num = ctx.from_int(-3) - gauss
    u = RingElem(num, 2)
    assert u.abs2() == RingElem.one(ctx)
    assert as_zeta_power(u) is None
    return u


@pytest.mark.parametrize("n", [14, 28])
def test_membership_rejects_infinite_order_diagonal(n):
    ctx = make_context(n)
    u_val = _infinite_order_unit(ctx)
    one, zero = RingElem.one(ctx), RingElem.zero(ctx)
    u = UnitaryRn(ctx, ((one, zero), (zero, u_val)))
    res = membership(u)
    assert not res.is_member


@pytest.mark.parametrize("n", [14, 28])
def test_stuck_descent_names_its_step_and_exponent(n):
    # A canonical product of rotations, the last about x, times a diagonal
    # non-member: the descent peels the rotations and sticks on the rest,
    # at the step numbered by the rotations peeled.  The error carries the
    # step and the max exponent of each row of the rest as attributes.
    ctx = make_context(n)
    one, zero = RingElem.one(ctx), RingElem.zero(ctx)
    bad = UnitaryRn(ctx, ((one, zero), (zero, _infinite_order_unit(ctx))))
    stuck_rows = tuple(max([_beta_exp_r(e) for e in row if not e.is_zero()], default=0)
                       for row in bloch(bad).rows)
    stuck_max = max(stuck_rows)
    assert stuck_rows == {14: (2, 2, 0), 28: (4, 4, 0)}[n]
    factors = [("y", 3), ("z", 2), ("x", 1)]
    for m in range(len(factors) + 1):
        good = UnitaryRn.identity(ctx)
        for p, a in factors[len(factors) - m:]:
            good = good @ u_axis(ctx, p, 1, a)
        assert canonical_form(good).m == m
        want = "step %d (max exponent %d): no candidate strictly reduces the exponent" % (
            m, stuck_max)
        with pytest.raises(NotReducibleError) as exc:
            canonical_form(good @ bad)
        assert str(exc.value) == want
        assert (exc.value.step, exc.value.row_max) == (m, stuck_rows)
        assert membership(good @ bad).reason == "descent: " + want


def test_descent_calls_the_public_axis_detect_once_per_step(monkeypatch):
    # Tracing hooks synth.axis_detect by name, so each descent step must
    # go through it: one call per factor of the form, none for a Clifford.
    from cycsynth import synth

    calls = [0]
    plain = synth.axis_detect

    def counted(m):
        calls[0] += 1
        return plain(m)

    monkeypatch.setattr(synth, "axis_detect", counted)
    for n, tc in ((4, 0), (4, 9), (12, 20), (16, 8), (30, 5)):
        ctx = make_context(n)
        for seed in range(2):
            calls[0] = 0
            cf = canonical_form(random_unitary(ctx, tc, 60 + seed)[0])
            assert calls[0] == cf.m
            assert cf.m > 0 or tc == 0


# -- brute force -----------------------------------------------------------------------


def test_brute_force_examples():
    ctx = make_context(4)
    assert brute_force_min_tcount(h0(ctx), 3) == 0
    assert brute_force_min_tcount(uz_power(ctx, 1), 3) == 1
    assert brute_force_min_tcount(uz_power(ctx, 3), 3) == 1  # min(3, 1)


def test_brute_force_agrees_with_tcount_small():
    ctx = make_context(4)
    table = bfs_cosets(ctx, 3)
    for key, (depth, path) in table.items():
        u = witness_unitary(ctx, path)
        assert tcount(u) == depth
        assert brute_force_min_tcount(u, 3) == depth


def test_brute_force_bound_respected():
    ctx = make_context(6)
    u = uz_power(ctx, 1) @ u_axis(ctx, "x", 1, 1) @ uz_power(ctx, 1)
    assert brute_force_min_tcount(u, 1) is None


# -- random instances ----------------------------------------------------------------------


def test_random_unitary_hits_target():
    # 1000 samples spread over three gate sets
    for n in (4, 6, 12):
        ctx = make_context(n)
        for seed in range(334):
            target = seed % 9
            u, seq = random_unitary(ctx, target, seed)
            assert eval_sequence(seq, ctx) == u
            assert tcount(u) == target
            assert seq.cost() == target


def test_random_unitary_deterministic():
    ctx = make_context(8)
    u1, s1 = random_unitary(ctx, 4, 99)
    u2, s2 = random_unitary(ctx, 4, 99)
    assert u1 == u2 and s1 == s2


def test_random_unitary_target_zero_is_clifford():
    ctx = make_context(6)
    u, seq = random_unitary(ctx, 0, 5)
    assert tcount(u) == 0
    assert seq.cost() == 0


# -- relation-insertion uniqueness -------------------------------------------------------------


def _identity_gadgets(ctx, rng):
    """Token gadgets evaluating exactly to the identity (self-verifying)."""
    n = ctx.n
    gadgets = [
        (("S", "S", "S", "S"), 0),
        (("H", "H"), -(n // 2) % ctx.order),
        (("H", "S", "S", "H", "S", "S") * 2, 0),
    ]
    a = rng.randint(1, ctx.order - 1)
    body = ("W" if a == 1 else "W^%d" % a, "H", "S", "S", "H", "W" if a == 1 else "W^%d" % a, "H", "S", "S", "H")
    val = eval_sequence(GateSequence(0, body), ctx)
    lam = equal_up_to_phase(val, UnitaryRn.identity(ctx))
    j = as_zeta_power(lam)
    gadgets.append((body, -j % ctx.order))
    for toks, ph in gadgets:
        assert eval_sequence(GateSequence(ph, toks), ctx) == UnitaryRn.identity(ctx)
    return gadgets


def test_relation_insertion_preserves_canonical_form():
    rng = random.Random(47)
    for n in (4, 12):
        ctx = make_context(n)
        for _ in range(10):
            base = random_sequence(ctx, rng, rng.randint(1, 10))
            toks, ph = rng.choice(_identity_gadgets(ctx, rng))
            pos = rng.randint(0, len(base.tokens))
            variant = GateSequence(
                (base.phase_power + ph) % ctx.order,
                base.tokens[:pos] + toks + base.tokens[pos:],
            )
            assert eval_sequence(variant, ctx) == eval_sequence(base, ctx)
            assert canonicalize_sequence(variant, ctx) == canonicalize_sequence(base, ctx)
            assert canonical_form(eval_sequence(base, ctx)) == canonicalize_sequence(base, ctx)


def test_s_and_w_half_turn_interchangeable():
    ctx = make_context(8)
    rng = random.Random(48)
    for _ in range(10):
        base = random_sequence(ctx, rng, 8)
        if "S" not in base.tokens:
            continue
        idx = base.tokens.index("S")
        swapped = GateSequence(
            base.phase_power,
            base.tokens[:idx] + ("W^%d" % (ctx.n // 2),) + base.tokens[idx + 1 :],
        )
        assert eval_sequence(swapped, ctx) == eval_sequence(base, ctx)
        assert canonicalize_sequence(swapped, ctx) == canonicalize_sequence(base, ctx)


def test_synthesis_agrees_with_floating_point():
    # independent of both exact pipelines: compare numerics up to phase
    from oracles import unitary_complex

    rng = random.Random(50)
    ctx = make_context(12)
    for _ in range(10):
        u = eval_sequence(random_sequence(ctx, rng, 10), ctx)
        circ = to_circuit(canonical_form(u))
        a = unitary_complex(u)
        b = unitary_complex(eval_sequence(circ, ctx))
        ref = next(
            (r, c) for r in range(2) for c in range(2) if abs(a[r][c]) > 1e-9
        )
        lam = b[ref[0]][ref[1]] / a[ref[0]][ref[1]]
        assert abs(abs(lam) - 1) < 1e-9
        for r in range(2):
            for c in range(2):
                assert abs(lam * a[r][c] - b[r][c]) < 1e-9


def test_shared_context_parallel_reads():
    # contexts are shared read-only; lazy caches are idempotent, so
    # concurrent synthesis over one context must agree with serial runs
    import concurrent.futures

    ctx = make_context(8)
    rng = random.Random(51)
    seqs = [random_sequence(ctx, rng, 10) for _ in range(16)]
    serial = [canonical_form(eval_sequence(s, ctx)) for s in seqs]
    with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
        parallel = list(
            pool.map(lambda s: canonical_form(eval_sequence(s, ctx)), seqs)
        )
    assert parallel == serial


def test_n2_everything_is_clifford():
    ctx = make_context(2)
    rng = random.Random(49)
    for _ in range(10):
        u = eval_sequence(random_sequence(ctx, rng, 10), ctx)
        cf = canonical_form(u)
        assert cf.m == 0
        assert tcount(u) == 0

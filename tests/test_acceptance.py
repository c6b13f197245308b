"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to watch the per-criterion
progress; the whole file is exact (no tolerances anywhere) and the three
criteria with stated runtime targets assert them.
"""

import random
import time
from fractions import Fraction

from cycsynth import (
    GateSequence,
    UnitaryRn,
    as_zeta_power,
    beta_constant,
    beta_exponent,
    canonical_form,
    canonicalize_sequence,
    clifford_group,
    divides,
    equal_up_to_phase,
    eval_sequence,
    exponent_profile,
    fn_census,
    iter_census,
    make_context,
    membership,
    phase_condition,
    q_of,
    rotation_generator,
    scalar_gate,
    synthesize_ring,
    tcount,
    to_circuit,
    u_axis,
    verify_finite_lemma,
)
from cycsynth.cyclo import cyclotomic_poly
from cycsynth.synth import bfs_cosets, witness_unitary
from oracles import divides_oracle, product_eval_sequence, random_cycint, random_sequence


def _report(num, name):
    print("\n[acceptance] criterion %d (%s): PASS" % (num, name))


# -- 1. round-trip exactness ------------------------------------------------------


def test_criterion_1_round_trip_exactness():
    t0 = time.time()
    for n in (4, 6, 8, 12, 16):
        ctx = make_context(n)
        rng = random.Random(1000 + n)
        for _ in range(200):
            seq = random_sequence(ctx, rng, rng.randint(1, 40))
            u = eval_sequence(seq, ctx)
            circ = to_circuit(canonical_form(u))
            back = eval_sequence(circ, ctx)
            lam = equal_up_to_phase(back, u)
            assert lam is not None and as_zeta_power(lam) is not None
    elapsed = time.time() - t0
    assert elapsed < 300, "round-trip suite took %.1fs" % elapsed
    _report(1, "round-trip exactness, %.0fs" % elapsed)


# -- 2. optimality against the brute-force oracle -------------------------------------


def test_criterion_2_optimality_vs_oracle():
    from cycsynth import brute_force_min_tcount

    for n in (4, 6):
        ctx = make_context(n)
        table = bfs_cosets(ctx, 4)
        assert len(table) > 24
        for _, (depth, path) in table.items():
            u = witness_unitary(ctx, path)
            assert tcount(u) == brute_force_min_tcount(u, 4) == depth
    _report(2, "tcount matches exhaustive BFS on all cosets of cost <= 4")


# -- 3. the T-count law -------------------------------------------------------------------


def test_criterion_3_tcount_law():
    for n in (4, 6, 8, 10, 12, 14, 16):
        ctx = make_context(n)
        for p in "xyz":
            for sign in (1, -1):
                for a in range(1, n // 2):
                    u = u_axis(ctx, p, sign, a)
                    assert tcount(u) == min(a, n // 2 - a)
    _report(3, "tcount(U_{+-p}(a pi/n)) = min(a, n/2-a), n in 4..16")


# -- 4. canonical-form uniqueness under relation insertion ----------------------------------


def _gadget(ctx, rng):
    """A token block + phase adjustment evaluating exactly to the identity."""
    n = ctx.n
    kind = rng.randrange(5)
    if kind == 0:
        return ("S", "S", "S", "S"), 0
    if kind == 1:
        return ("H", "H"), (-(n // 2)) % ctx.order
    if kind == 2:
        return ("H", "S", "S", "H", "S", "S") * 2, 0
    if kind == 3:
        # the quarter-power relation W^(n/2) = S, closed off by S^3
        return ("W^%d" % (n // 2), "S", "S", "S"), 0
    a = rng.randint(1, ctx.order - 1)
    w_tok = "W" if a == 1 else "W^%d" % a
    body = (w_tok, "H", "S", "S", "H", w_tok, "H", "S", "S", "H")
    val = eval_sequence(GateSequence(0, body), ctx)
    lam = equal_up_to_phase(val, UnitaryRn.identity(ctx))
    j = as_zeta_power(lam)
    assert j is not None
    return body, (-j) % ctx.order


def test_criterion_4_uniqueness_under_relations():
    pairs = 0
    for n in (4, 6, 8, 12, 16):
        ctx = make_context(n)
        rng = random.Random(2000 + n)
        for _ in range(100):
            base = random_sequence(ctx, rng, rng.randint(1, 12))
            toks, ph = _gadget(ctx, rng)
            pos = rng.randint(0, len(base.tokens))
            variant = GateSequence(
                (base.phase_power + ph) % ctx.order,
                base.tokens[:pos] + toks + base.tokens[pos:],
            )
            assert variant.tokens != base.tokens
            u = eval_sequence(base, ctx)
            assert eval_sequence(variant, ctx) == u
            cf = canonical_form(u)
            assert canonicalize_sequence(base, ctx) == cf
            assert canonicalize_sequence(variant, ctx) == cf
            pairs += 1
    assert pairs == 500
    _report(4, "500 relation-equal sequence pairs share one canonical form")


# -- 5. the denominator-exponent pattern ---------------------------------------------------------


def test_criterion_5_denominator_pattern():
    for n in (4, 8, 12):
        ctx = make_context(n)
        bc = beta_constant(ctx)
        cliffs = clifford_group(ctx)
        rng = random.Random(3000 + n)
        for _ in range(300):
            m_len = rng.randint(1, 5)
            axes, exps = [], []
            prev = None
            for _ in range(m_len):
                p = rng.choice([ax for ax in "xyz" if ax != prev])
                prev = p
                axes.append(p)
                exps.append(rng.randint(1, n // 2 - 1))
            rot = rng.choice(cliffs).rotation
            for p, a in zip(reversed(axes), reversed(exps)):
                rot = rotation_generator(ctx, p, a) @ rot
            mx, rows = exponent_profile(rot)
            q_sum = sum(q_of(a, ctx) for a in exps)
            assert mx == q_sum
            attain = [i for i, r in enumerate(rows) if r == mx]
            assert len(attain) == 2
            deficient = [i for i in range(3) if i not in attain][0]
            assert "xyz"[deficient] == axes[0]
            assert rows[deficient] == q_sum - q_of(exps[0], ctx)
            # extremal witnesses are coprime to beta (odd norm)
            for i in attain:
                hits = []
                for e in rot.rows[i]:
                    if e.is_zero():
                        continue
                    r, w = beta_exponent(e, bc)
                    if r == mx:
                        hits.append(w)
                assert any(w.is_coprime_to_two() for w in hits)
            def_hits = []
            for e in rot.rows[deficient]:
                if e.is_zero():
                    continue
                r, w = beta_exponent(e, bc)
                if r == rows[deficient]:
                    def_hits.append(w)
            assert any(w.is_coprime_to_two() for w in def_hits)
    _report(5, "exponent pattern and coprime witnesses on 900 products")


# -- 6. the exhaustive mod-2 verification ------------------------------------------------------------


def test_criterion_6_finite_verification():
    t0 = time.time()
    for n in (2, 4, 6, 8, 12):
        assert verify_finite_lemma(n) is True
    elapsed = time.time() - t0
    assert elapsed < 120, "finite verification took %.1fs" % elapsed
    _report(6, "mod-2 reduction check true for n = 2,4,6,8,12, %.0fs" % elapsed)


# -- 7. the ring-equality pipeline --------------------------------------------------------------------


def test_criterion_7_ring_equality_pipeline():
    for n in (2, 4, 6, 8, 12):
        ctx = make_context(n)
        rng = random.Random(4000 + n)
        for _ in range(500):
            base = random_sequence(ctx, rng, rng.randint(5, 24))
            u = scalar_gate(ctx, rng.randrange(ctx.order)) @ product_eval_sequence(base, ctx)
            res = membership(u)
            assert res.is_member, "membership failed at n=%d" % n
            assert eval_sequence(res.sequence, ctx) == u
            ring_seq = synthesize_ring(u)
            assert eval_sequence(ring_seq, ctx) == u
            # the three routes agree: rewriting the ring circuit gives the
            # descent's canonical form
            assert canonicalize_sequence(ring_seq, ctx) == canonical_form(u)
    _report(7, "2500 ring unitaries synthesized by both pipelines, exactly, "
               "and rewritten to the descent's canonical form")


# -- 8. phase condition and census ----------------------------------------------------------------------


def test_criterion_8_phase_condition_and_census():
    for n in (2, 4, 6, 8, 12, 16):
        assert phase_condition(n) is True
    for n in (14, 28):
        assert phase_condition(n) is False
    _, f14 = fn_census(14)
    assert f14 == Fraction(6, 7)
    _, f1k = fn_census(1000)
    t0 = time.time()
    hits = 0
    total = 0
    for _, cond in iter_census(1_000_000):
        hits += cond
        total += 1
    elapsed = time.time() - t0
    f1m = Fraction(hits, total)
    assert elapsed < 600, "census took %.1fs" % elapsed
    assert f1m < f1k
    _report(
        8,
        "census: f_1e3 = %s > f_1e6 = %s, %.0fs" % (f1k, f1m, elapsed),
    )


# -- 9. the number-theory substrate -------------------------------------------------------------------------


def test_criterion_9_substrate():
    # divides against the integer linear-solve oracle: 1e4 pairs per n
    for n in (2, 4, 6, 8, 12):
        ctx = make_context(n)
        rng = random.Random(5000 + n)
        for trial in range(10_000):
            y = random_cycint(ctx, rng, 4)
            while y.is_zero():
                y = random_cycint(ctx, rng, 4)
            if trial % 3 == 0:
                x = y * random_cycint(ctx, rng, 4)
            else:
                x = random_cycint(ctx, rng, 9)
            assert divides(y, x) == divides_oracle(y, x)
    # norm multiplicativity: 1e4 pairs spread over the supported n
    for n in (2, 4, 6, 8, 12):
        ctx = make_context(n)
        rng = random.Random(6000 + n)
        for _ in range(2000):
            x, y = random_cycint(ctx, rng, 6), random_cycint(ctx, rng, 6)
            assert (x * y).norm() == x.norm() * y.norm()
    # parity of cyclotomic values at +-1, all 3 <= d <= 1e4
    for d in range(3, 10_001):
        p = cyclotomic_poly(d)
        at_plus = sum(p)
        at_minus = sum(c if j % 2 == 0 else -c for j, c in enumerate(p))
        if d & (d - 1) == 0:
            assert at_plus == 2 and at_minus == 2
        else:
            assert at_plus % 2 == 1 and at_minus % 2 == 1
    _report(9, "divides oracle, norm multiplicativity, cyclotomic parity law")

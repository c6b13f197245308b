"""Cyclotomic-integer substrate: contexts, ring ops, norms, valuations."""

import math
import random
import time
import tracemalloc

import pytest

from cycsynth import RingElem, as_zeta_power, cyclotomic_poly, divides, exact_quotient, make_context
from cycsynth.cyclo import Context, factorize
from oracles import (
    class_div_binomial,
    divides_oracle,
    mult_order_two,
    naive_cyclotomic,
    poly_eval,
    random_cycint,
    zeta_rows,
)

SUPPORTED = (2, 4, 6, 8, 12)


# -- contexts -------------------------------------------------------------------


def test_context_small_powers_of_two():
    ctx2 = make_context(2)
    assert ctx2.degree == 2 and list(ctx2.phi_poly) == [1, 0, 1]
    ctx4 = make_context(4)
    assert ctx4.degree == 4 and list(ctx4.phi_poly) == [1, 0, 0, 0, 1]


def test_context_n12_constants():
    ctx = make_context(12)
    assert ctx.degree == 8
    assert list(ctx.phi_poly) == [1, 0, 0, 0, -1, 0, 0, 0, 1]
    assert (ctx.k, ctx.s) == (2, 3)
    # g = (x^3 + 1) / Phi_3 = x + 1 mod 2, so g(x^4) has bits 0 and 4; the
    # subset steps keep lanes i with bit t of i // 3 clear
    assert ctx.mult_shifts == (0, 4)
    assert ctx.subset_steps == ((3, 0b000111000111), (6, 0b000000111111))
    assert naive_cyclotomic(24) == list(ctx.phi_poly)


def test_zeta_powers_match_the_naive_polynomial():
    for n in [*range(2, 65, 2), 90, 210, 330]:
        ctx = make_context(n)
        for j in range(ctx.order):
            assert ctx.zeta(j).coeffs == zeta_rows(n)[j], (n, j)
            z = RingElem.zeta(ctx, j)
            assert as_zeta_power(z) == j
            # no multiple, half or sum of two powers is a power
            for other in (z + z, z.half(), z + z.times_zeta(1)):
                assert as_zeta_power(other) is None, (n, j)
        assert ctx.zeta(-1) == ctx.zeta(ctx.order - 1)
        assert as_zeta_power(RingElem.zero(ctx)) is None


def test_context_keeps_one_small_table():
    # A context keeps no table of the powers of zeta: a dense 2n x phi(2n)
    # copy would be 1.6 million entries (about 13 MB) at n = 1000, and even
    # the sparse rows cost seconds and hundreds of MB at n = 6006.
    for n, degree in ((1000, 800), (6006, 2880), (8192, 8192)):
        start = time.perf_counter()
        Context(n)
        assert time.perf_counter() - start < 1.0, n
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            ctx = Context(n)
            kept = tracemalloc.get_traced_memory()[0] - before
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert ctx.degree == degree
        assert kept < 2 << 20 and peak < 2 << 20, n


@pytest.mark.parametrize("bad", [0, -2, 3, 7, 1])
def test_context_rejects_bad_n(bad):
    with pytest.raises(ValueError):
        make_context(bad)


def test_unique_prime_degree_identity():
    # one prime above 2: ramification index times residue degree (the
    # order of 2 mod s) exhausts the field degree
    for n in SUPPORTED:
        ctx = make_context(n)
        assert ctx.ram_index * mult_order_two(ctx.s) == ctx.degree


# -- ring operations --------------------------------------------------------------


def test_mul_reduces_by_cyclotomic_relation():
    ctx = make_context(2)
    z = ctx.zeta()
    assert (z * z) == ctx.from_int(-1)
    ctx12 = make_context(12)
    z4 = ctx12.zeta(4)
    assert z4 * z4 == ctx12.zeta(4) - ctx12.one()  # zeta^8 = zeta^4 - 1


def test_additive_inverse_and_int_scaling():
    ctx = make_context(8)
    rng = random.Random(1)
    for _ in range(50):
        x = random_cycint(ctx, rng)
        assert (x + (-x)).is_zero()
        assert x * 3 == x + x + x


def test_mixed_context_rejected():
    a = make_context(4).one()
    b = make_context(8).one()
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        a * b


def test_times_zeta_matches_mul():
    rng = random.Random(2)
    for n in (6, 12, 16):
        ctx = make_context(n)
        for _ in range(30):
            x = random_cycint(ctx, rng)
            k = rng.randrange(ctx.order)
            assert x.times_zeta(k) == x * ctx.zeta(k)


# -- Galois action ------------------------------------------------------------------


def test_galois_examples():
    ctx = make_context(4)
    z = ctx.zeta()
    assert z.galois(ctx.order - 1) == ctx.zeta(-1)
    assert ctx.from_int(5).galois(3) == ctx.from_int(5)
    assert (ctx.one() + z).galois(3) == ctx.one() + ctx.zeta(3)
    with pytest.raises(ValueError):
        z.galois(2)


def test_conjugation_is_ring_involution():
    rng = random.Random(3)
    for n in (4, 12):
        ctx = make_context(n)
        for _ in range(40):
            x, y = random_cycint(ctx, rng), random_cycint(ctx, rng)
            assert x.conj().conj() == x
            assert (x * y).conj() == x.conj() * y.conj()
            assert (x + y).conj() == x.conj() + y.conj()


# -- norms ----------------------------------------------------------------------------


def test_norm_examples():
    ctx2 = make_context(2)
    assert ctx2.one().norm() == 1
    assert (ctx2.one() + ctx2.zeta()).norm() == 2  # 1 + i
    ctx4 = make_context(4)
    assert ctx4.from_int(2).norm() == 16
    for a in range(ctx4.order):
        assert ctx4.zeta(a).norm() == 1


def test_norm_multiplicative():
    rng = random.Random(4)
    for n in SUPPORTED:
        ctx = make_context(n)
        for _ in range(60):
            x, y = random_cycint(ctx, rng, 6), random_cycint(ctx, rng, 6)
            assert (x * y).norm() == x.norm() * y.norm()


# -- divisibility ------------------------------------------------------------------------


def test_divides_gaussian_examples():
    ctx = make_context(2)
    one_plus_i = ctx.one() + ctx.zeta()
    two = ctx.from_int(2)
    assert divides(one_plus_i, two)
    assert not divides(two, one_plus_i)
    assert divides(one_plus_i, ctx.zero())
    assert exact_quotient(two, one_plus_i) == ctx.one() - ctx.zeta()  # 2/(1+i) = 1-i
    with pytest.raises(ValueError):
        divides(ctx.zero(), two)
    with pytest.raises(ValueError):
        exact_quotient(one_plus_i, two)


def test_divides_agrees_with_linear_solve_oracle():
    rng = random.Random(5)
    for n in SUPPORTED:
        ctx = make_context(n)
        checked = 0
        while checked < 150:
            y = random_cycint(ctx, rng, 4)
            if y.is_zero():
                continue
            # mix plain pairs with guaranteed multiples so both answers occur
            if checked % 3 == 0:
                x = y * random_cycint(ctx, rng, 4)
            else:
                x = random_cycint(ctx, rng, 9)
            assert divides(y, x) == divides_oracle(y, x)
            checked += 1


def test_is_coprime_to_two():
    ctx = make_context(2)
    assert ctx.zeta(3).is_coprime_to_two()
    assert not (ctx.one() + ctx.zeta()).is_coprime_to_two()
    assert ctx.from_int(3).is_coprime_to_two()
    with pytest.raises(ValueError):
        ctx.zero().is_coprime_to_two()


# -- mod 2 ------------------------------------------------------------------------------


def test_mod2_examples_and_laws():
    ctx = make_context(4)
    x = ctx.from_int(3) + ctx.zeta() * 2
    assert x.mod2() == ctx.one()
    rng = random.Random(6)
    for _ in range(60):
        a, b = random_cycint(ctx, rng), random_cycint(ctx, rng)
        assert (a + b * 2).mod2() == a.mod2()
        assert (a * b).mod2() == (a.mod2() * b.mod2()).mod2()
        assert a.conj().mod2() == a.mod2().conj().mod2()


# -- valuations ---------------------------------------------------------------------------


def test_valuation_examples():
    ctx2 = make_context(2)
    one_plus_i = ctx2.one() + ctx2.zeta()
    assert ctx2.one().valuation() == 0
    assert one_plus_i.valuation() == 1
    assert ctx2.from_int(2).valuation() == 2
    assert ctx2.zero().valuation() == math.inf
    ctx12 = make_context(12)
    assert ctx12.from_int(2).valuation() == 4
    assert (ctx12.one() + ctx12.zeta(6)).valuation() == 2


def test_valuation_cross_checked_by_iterated_division():
    # v(2) = number of times 1+i divides 2, in the Gaussian integers
    ctx = make_context(2)
    one_plus_i = ctx.one() + ctx.zeta()
    x = ctx.from_int(2)
    count = 0
    while divides(one_plus_i, x) and not x.is_zero():
        x = exact_quotient(x, one_plus_i)
        count += 1
    assert count == ctx.from_int(2).valuation() == ctx.ram_index


def test_valuation_additive_on_products():
    rng = random.Random(7)
    for n in SUPPORTED:
        ctx = make_context(n)
        for _ in range(40):
            x, y = random_cycint(ctx, rng, 5), random_cycint(ctx, rng, 5)
            if x.is_zero() or y.is_zero():
                continue
            assert (x * y).valuation() == x.valuation() + y.valuation()


def test_valuation_mod2_min_law():
    rng = random.Random(8)
    for n in SUPPORTED:
        ctx = make_context(n)
        v2 = ctx.from_int(2).valuation()
        for _ in range(60):
            x = random_cycint(ctx, rng)
            if x.is_zero():
                continue
            assert min(x.valuation(), v2) == min(x.mod2().valuation(), v2)


def test_valuation_rejects_unsupported_n():
    with pytest.raises(ValueError):
        make_context(10).one().valuation()
    with pytest.raises(ValueError):
        make_context(16).one().valuation()


# -- cyclotomic polynomials -------------------------------------------------------------------


def test_cyclotomic_small():
    assert cyclotomic_poly(1) == [-1, 1]
    assert cyclotomic_poly(2) == [1, 1]
    assert cyclotomic_poly(6) == [1, -1, 1]
    assert poly_eval(cyclotomic_poly(4), -1) == 2
    assert poly_eval(cyclotomic_poly(6), -1) == 3


def test_cyclotomic_matches_naive_oracle():
    for m in list(range(1, 130)) + [105, 210, 255, 384]:
        assert cyclotomic_poly(m) == naive_cyclotomic(m)


def test_cyclotomic_even_radicals_match_naive_oracle():
    # Phi_2r(x) = Phi_r(-x) for odd r > 1 serves every even squarefree
    # radical; check it on all of them up to 600, on 2*3*5*7*11, and under
    # the x -> x^q substitution of non-squarefree m.
    odd_squarefree = [r for r in range(3, 300, 2)
                      if all(r % (p * p) for p in range(3, int(r ** 0.5) + 1, 2))]
    for m in [2 * r for r in odd_squarefree] + [2310, 4 * 105, 18 * 35, 8 * 15]:
        assert cyclotomic_poly(m) == naive_cyclotomic(m), m


def test_block_division_matches_the_per_class_division(monkeypatch):
    # cyclo._div_binomial runs q[i] = q[i - e] - p[i] a block of e at a time
    # when e^2 > len(p), and one prefix sum per residue class otherwise; it
    # equals class_div_binomial on every division behind Phi_d for every
    # d <= 2,000 and for squarefree d of 2 to 5 primes up to 10^5, and
    # rejects an inexact division as it does on both paths.
    from cycsynth import IntegrityError, cyclo

    paths, divide = [], cyclo._div_binomial

    def both(p, e):
        paths.append(e * e > len(p))
        q = divide(p, e)
        assert q == class_div_binomial(p, e)
        return q

    monkeypatch.setattr(cyclo, "_div_binomial", both)
    build = cyclo._cyclotomic_squarefree.__wrapped__
    for d in range(1, 2001):
        if set(factorize(d).values()) <= {1}:
            build(d)
    rng, by_count = random.Random(9100), {count: [] for count in range(2, 6)}
    for d in range(15, 100_001, 2):
        primes = factorize(d)
        if len(primes) in by_count and set(primes.values()) == {1}:
            by_count[len(primes)].append(d)
    for ds in by_count.values():
        for d in rng.sample(ds, 4):
            build(d)
    assert True in paths and False in paths
    for p, e in [([1, 0, 1], 1), ([1, 0, 1], 2), ([1, 2, 3, 4, 5], 2), ([1, 2, 3, 4, 5], 3),
                 ([-1, 0, 0, 0, 0, 1, 1], 3), ([-1, 0, 0, 0, 0, 1, 1], 2), ([1, 0, 0], 4)]:
        with pytest.raises(IntegrityError):
            divide(p, e)
        with pytest.raises(IntegrityError):
            class_div_binomial(p, e)


def test_cyclotomic_degree_and_height_sentinels():
    # phi(105) = 48 and the first coefficient of magnitude 2 appears at m=105
    p105 = cyclotomic_poly(105)
    assert len(p105) - 1 == 48
    assert min(p105) == -2


def test_cyclotomic_rejects_nonpositive():
    with pytest.raises(ValueError):
        cyclotomic_poly(0)


# -- representation ------------------------------------------------------------------------------


def test_from_coeffs_validation():
    ctx = make_context(4)
    with pytest.raises(ValueError):
        ctx.from_coeffs([1, 2, 3])
    with pytest.raises(ValueError):
        ctx.from_coeffs([1, 2, 3, 4.5])
    assert ctx.from_coeffs([1, 2, 3, 4]).coeffs == (1, 2, 3, 4)


def test_memo_builds_each_entry_once():
    ctx = Context(4)
    calls = []

    def build():
        calls.append(1)
        return ("table",)

    assert ctx.memo("k", build) is ctx.memo("k", build)
    assert ctx.memo(("k", 2), lambda: 7) == 7
    assert len(calls) == 1


def test_factorize():
    assert factorize(1) == {}
    assert factorize(2) == {2: 1}
    assert factorize(360) == {2: 3, 3: 2, 5: 1}
    assert factorize(2 * 10007) == {2: 1, 10007: 1}
    assert list(factorize(3 * 5 * 7 * 11 * 13)) == [3, 5, 7, 11, 13]
    for m in range(1, 500):
        assert math.prod(p**a for p, a in factorize(m).items()) == m

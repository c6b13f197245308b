"""Ring-level synthesis: which unitaries over Z[zeta_2n, 1/2] are circuits.

For n in {2, 4, 6, 8, 12} every 2x2 unitary over the ring is synthesizable;
synthesize_ring() constructs a circuit by driving the first column down a
complexity measure (minus the minimum valuation of its entries) with
H0 U_z(pi k/n) steps, closing with an explicit base-case unitary and an
exact phase completion.  The column is loaded into packed lanes
(cyclo.Lanes) once, at the width where the unit check's products fit,
and carried on them from step to step (ColumnRn): each k is scored on
two lane valuations, the winner's two sums become the next column, which
is checked on lane valuations and on products of its own lanes, and no
ring element is built until the base case reads the last column.  The
emitted word is checked against the input by stripping it off, by the
su2 gate kernel.

The phase condition -- is -1 a power of 2 modulo the odd part of n? --
decides whether every unit-modulus ring element is a root of unity, i.e.
whether the z-rotation subgroup of the ring unitaries collapses to the 2n
discrete rotations.  fn_census() measures how often that holds.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product

from .cyclo import VALUATION_NS, Context, CycInt, Lanes, factorize, make_context, two_adic
from .errors import IntegrityError, NoPhaseMatchError, NoReducingKError
from .rings import (RingElem, _common_numerators, _is_unit_lanes, _unit_sum_denominators_fit,
                    as_zeta_power)
from .su2 import GateSequence, UnitaryRn, _strip, _word_gates, eval_sequence, token_w

__all__ = [
    "ColumnRn",
    "base_case_column",
    "complete_unitary",
    "fn_census",
    "iter_census",
    "mu_threshold",
    "phase_condition",
    "phase_condition_witness",
    "reduce_column_step",
    "synthesize_ring",
    "verify_finite_lemma",
    "z_rotation_classify",
]

# The n where every ring unitary is a circuit: those with a unique prime
# above 2, i.e. where the valuation is defined.
RING_EQUALITY_NS = VALUATION_NS


# -- the phase condition and census -------------------------------------------


def _half_order_of_two(s: int, factorize) -> int | None:
    """t with 2^t = -1 (mod s) for odd s > 1, or None if there is none.

    The order of 2 is found by dividing primes out of the group exponent
    phi(s), factored from `factorize` (m -> {p: a}) applied to s and to
    each p - 1.  In the cyclic group generated by 2 the only candidate
    square root of 1 besides 1 itself is 2^(ord/2), so t exists iff the
    order is even and that power is -1; then t = ord/2.
    """
    phi_fac: dict[int, int] = {}
    for p, a in factorize(s).items():
        for q, b in factorize(p - 1).items():
            phi_fac[q] = phi_fac.get(q, 0) + b
        if a > 1:
            phi_fac[p] = phi_fac.get(p, 0) + a - 1
    e = math.prod(p**a for p, a in phi_fac.items())
    for p in phi_fac:
        while e % p == 0 and pow(2, e // p, s) == 1:
            e //= p
    if e % 2 == 0 and pow(2, e // 2, s) == s - 1:
        return e // 2
    return None


def phase_condition_witness(n: int) -> tuple[bool, int, int | None]:
    """(condition, s, t) for n = 2^k s: t with 2^t = -1 (mod s), if any
    (the condition holds vacuously for s = 1, reported with t = 1)."""
    if n < 2 or n % 2:
        raise ValueError("n must be a positive even integer")
    s = n >> two_adic(n)
    if s == 1:
        return True, 1, 1
    t = _half_order_of_two(s, factorize)
    return t is not None, s, t


def phase_condition(n: int) -> bool:
    """True iff some positive t has 2^t = -1 modulo the odd part of n."""
    return phase_condition_witness(n)[0]


def _spf_factorizer(limit: int):
    """A factorizer for 2 <= m <= limit (m -> {p: a}) reading one
    smallest-prime-factor sieve."""
    spf = list(range(limit + 1))
    for p in range(2, int(limit**0.5) + 1):
        if spf[p] == p:
            for q in range(p * p, limit + 1, p):
                if spf[q] == q:
                    spf[q] = p

    def factorize_spf(m: int) -> dict[int, int]:
        out: dict[int, int] = {}
        while m > 1:
            p = spf[m]
            out[p] = out.get(p, 0) + 1
            m //= p
        return out

    return factorize_spf


def _check_census_bound(max_n: int) -> None:
    if max_n < 2 or max_n % 2:
        raise ValueError("census bound must be a positive even integer")


def iter_census(max_n: int, start_n: int = 2):
    """Yield (n, condition) for even n in [start_n, max_n], cheaply at scale.

    One smallest-prime-factor sieve serves all the order computations, and
    the per-odd-part verdict is memoized (the same s shows up for every
    n = 2^k s in range).
    """
    _check_census_bound(max_n)
    if start_n < 2 or start_n % 2:
        raise ValueError("census start must be a positive even integer")
    factorize_spf = _spf_factorizer(max(max_n >> 1, 2))
    verdict: dict[int, bool] = {1: True}
    for n in range(start_n, max_n + 1, 2):
        s = n >> two_adic(n)
        got = verdict.get(s)
        if got is None:
            got = verdict[s] = _half_order_of_two(s, factorize_spf) is not None
        yield n, got


def fn_census(max_n: int) -> tuple[list[tuple[int, bool]], Fraction]:
    """All (n, condition) rows up to max_n with the exact fraction of hits."""
    rows = list(iter_census(max_n))
    hits = sum(1 for _, c in rows if c)
    return rows, Fraction(hits, len(rows))


# -- z-rotation subgroup --------------------------------------------------------


def z_rotation_classify(u: UnitaryRn) -> int | None:
    """j with u = U_z(j pi / n), or None if the phase is not a zeta power."""
    if not u.is_diagonal():
        raise ValueError("input must be a diagonal unitary")
    if u.rows[0][0] != RingElem.one(u.ctx):
        raise ValueError("input must have top-left entry 1")
    return as_zeta_power(u.rows[1][1])


# -- the finite mod-2 verification ------------------------------------------------


def verify_finite_lemma(n: int) -> bool:
    """Exhaustive residue check behind the column-reduction step.

    Enumerates the unit-valuation residues mod 2 up to rotation by roots of
    unity (orbit representative = lexicographically least coefficient
    vector) and confirms that every pair (a, b) with |a|^2 + |b|^2 even
    admits k in [1, 2n] making v(a + zeta^k b mod 2) exceed v(2)/2.
    """
    if n not in RING_EQUALITY_NS:
        raise ValueError("finite verification is defined for n in %r" % (RING_EQUALITY_NS,))
    ctx = make_context(n)
    d = ctx.degree
    vp2 = ctx.from_int(2).valuation()
    half_vp2 = vp2 // 2

    def orbit_rep(x: CycInt) -> tuple[int, ...]:
        return min(x.times_zeta(k).mod2().coeffs for k in range(1, ctx.order + 1))

    reps = set()
    for bits in product((0, 1), repeat=d):
        x = CycInt(ctx, bits)
        if x.is_zero():
            continue
        if x.valuation() == 0:
            reps.add(orbit_rep(x))
    sprime = [CycInt(ctx, r) for r in sorted(reps)]
    for a in sprime:
        aa = (a * a.conj()).mod2()
        for b in sprime:
            bb = (b * b.conj()).mod2()
            if not (aa + bb).mod2().is_zero():
                continue
            ok = any(
                (a + b.times_zeta(k)).mod2().valuation() > half_vp2
                for k in range(1, ctx.order + 1)
            )
            if not ok:
                return False
    return True


# -- column reduction ---------------------------------------------------------------


def mu_threshold(ctx: Context) -> int:
    """Base-case threshold: the valuation of 1 + i."""
    return ctx.memo("mu_threshold", lambda: (ctx.one() + ctx.zeta(ctx.n // 2)).valuation())


class ColumnRn:
    """A normalized column (|x|^2 + |y|^2 = 1) over the ring, held as lanes:
    the numerators of x and y over a common 2^m as folded lanes px and py
    (cyclo.Lanes) within the headroom of lanes, and step, the steps taken
    from the column that was loaded.

    ColumnRn(x, y) loads the column once, at the width where its lanes are
    the factors of the unit check's products (Lanes.load_factors), and
    checks it there.  A step (apply_step, reduce_column_step) runs on the
    lanes and carries them to the next column, at that width or wider
    (Lanes.settle), so the unit check of a step's column multiplies the
    column's own lanes whenever they still lie in the products' headroom
    (_is_normalized).  x and y are unpacked into RingElems only when read,
    and the measure is read off the lanes once per column.
    """

    __slots__ = ("lanes", "px", "py", "m", "step", "_measure", "_xy")

    def __init__(self, x: RingElem, y: RingElem):
        if not _unit_sum_denominators_fit((x, y)):
            raise ValueError("column is not normalized")
        m, vecs = _common_numerators((x, y))
        self.lanes, self.px, self.py = x.ctx.lanes().load_factors(*vecs)
        self.m, self.step, self._measure, self._xy = m, 0, None, (x, y)
        if not self._is_normalized():
            raise ValueError("column is not normalized")

    @property
    def ctx(self) -> Context:
        return self.lanes.ctx

    @property
    def x(self) -> RingElem:
        return self._entries()[0]

    @property
    def y(self) -> RingElem:
        return self._entries()[1]

    def _entries(self) -> tuple[RingElem, RingElem]:
        if self._xy is None:
            ctx, unpack, m = self.ctx, self.lanes.unpack, self.m
            self._xy = (RingElem(CycInt(ctx, unpack(self.px)), m),
                        RingElem(CycInt(ctx, unpack(self.py)), m))
        return self._xy

    def measure(self) -> int:
        """mu(x, y), read off the lanes once per column (_lane_mu)."""
        if self._measure is None:
            self._measure = _lane_mu(self.lanes, self.px, self.py, self.m)
        return self._measure

    def apply_step(self, k: int) -> "ColumnRn":
        """The column H0 U_z(pi k / n) (x, y)^T, on the lanes: with s and
        d the lanes of x + zeta^k y and x - zeta^k y over 2^m, it is
        (s + zeta^(n/2) s, d + zeta^(n/2) d) / 2^(m+1), the su2 kernel's
        U_z and H0 on a column, settled (Lanes.settle)."""
        lanes = self.lanes
        zeta, half = lanes.zeta, self.ctx.n // 2
        yk = zeta(self.py, k)
        s, d = self.px + yk, self.px - yk
        col = object.__new__(ColumnRn)
        col.lanes, col.px, col.py, col.m = lanes.settle(s + zeta(s, half), d + zeta(d, half),
                                                        self.m + 1)
        col.step, col._measure, col._xy = self.step + 1, None, None
        return col

    def _is_normalized(self) -> bool:
        """|x|^2 + |y|^2 = 1: on the column's own lanes when both lie in
        the products' headroom (Lanes.factor_bits, rings._is_unit_lanes),
        else re-laned at the width Lanes.load_factors would pick for them
        (Lanes.relane)."""
        lanes, px, py = self.lanes, self.px, self.py
        g = lanes.factor_bits
        if not (lanes.fits(px, g) and lanes.fits(py, g)):
            wide = self.ctx.lanes().wide_enough(
                2 * lanes.bits(px, py) + (2 * self.ctx.degree).bit_length())
            lanes, (px, py) = wide, wide.relane(lanes, px, py)
        return _is_unit_lanes(lanes, (px, py), self.m)

    def __eq__(self, other):
        return isinstance(other, ColumnRn) and self._entries() == other._entries()

    def __hash__(self):
        return hash(self._entries())

    def __repr__(self):
        return "ColumnRn(x=%r, y=%r)" % self._entries()


def _lane_mu(lanes: Lanes, px: int, py: int, m: int) -> int:
    """mu(x, y) = m v(2) - min(v(px), v(py)) for the column px / 2^m,
    py / 2^m, by lane valuations (cyclo.Lanes.valuation)."""
    return m * lanes.ctx.ram_index - min(lanes.valuation(px), lanes.valuation(py))


def _first_reducing_k(lanes: Lanes, px: int, py: int, m: int, m0: int):
    """(k, score) for the smallest k whose step H0 U_z(pi k/n) takes the
    column (px, py) / 2^m, folded lanes, below measure m0, or None: each k
    is scored on two lane valuations (cyclo.Lanes.valuation) of the folded
    x + zeta^k y and x - zeta^k y.  zeta^(k+n) = -zeta^k swaps the two, so
    k <= n are all there is to try."""
    fold, zeta, val = lanes.fold, lanes.zeta, lanes.valuation
    base = (m + 1) * lanes.ctx.ram_index - mu_threshold(lanes.ctx)
    # the score base - min(v+, v-) is below m0 when both exceed base - m0
    floor = base - m0
    for k in range(1, lanes.ctx.n + 1):
        yk = zeta(py, k)
        v = val(fold(px + yk))
        if v > floor:
            v = min(v, val(fold(px - yk)))
            if v > floor:
                return k, base - v
    return None


def reduce_column_step(col: ColumnRn) -> tuple[int, ColumnRn]:
    """One strictly measure-decreasing step H0 U_z(pi k/n), smallest such k.

    Each k is scored without building the step: for x, y over a common
    2^m, H0 U_z(pi k/n) (x, y)^T = (1 + i) (x + zeta^k y, x - zeta^k y) /
    2^(m+1), and v(1 + i) is mu_threshold, so its measure is
    (m + 1) v(2) - mu_threshold - min(v(x + zeta^k y), v(x - zeta^k y)),
    both valuations read off the column's lanes (_first_reducing_k).
    The winner is built on the lanes (ColumnRn.apply_step), with no ring
    element; it must be normalized and its measure must be the score
    (IntegrityError otherwise, carrying the step and the measure it
    started from).
    """
    ctx = col.ctx
    if ctx.n not in RING_EQUALITY_NS:
        raise ValueError("column reduction is defined for n in %r" % (RING_EQUALITY_NS,))
    m0 = col.measure()
    if m0 <= mu_threshold(ctx):
        raise ValueError("column is already at or below the base-case measure")
    found = _first_reducing_k(col.lanes, col.px, col.py, col.m, m0)
    if found is None:
        raise NoReducingKError("no phase reduces the column measure", step=col.step, measure=m0)
    k, score = found
    nxt = col.apply_step(k)
    if not nxt._is_normalized():
        raise IntegrityError("column is not normalized", step=col.step, measure=m0)
    if nxt.measure() != score:
        raise IntegrityError("column step k=%d has measure %d, scored %d"
                             % (k, nxt.measure(), score), step=col.step, measure=m0)
    return k, nxt


def base_case_column(col: ColumnRn) -> tuple[UnitaryRn, GateSequence]:
    """A circuit unitary with the given low-measure column as first column.

    Scaling by 1 + i makes both entries integral with norm-square sum 2;
    the only shapes are (root, root), (root * (1+i), 0) and its swap, each
    realized by an explicit word whose first column is verified exactly.
    """
    ctx = col.ctx
    if ctx.n not in RING_EQUALITY_NS:
        raise ValueError("base case is defined for n in %r" % (RING_EQUALITY_NS,))
    if col.measure() > mu_threshold(ctx):
        raise ValueError("column measure exceeds the base-case threshold")
    n, order = ctx.n, ctx.order
    one_plus_i = RingElem(ctx.one() + ctx.zeta(n // 2), 0)
    xp = col.x * one_plus_i
    yp = col.y * one_plus_i
    if not (xp.is_integral() and yp.is_integral()):
        raise IntegrityError("scaled base-case column is not integral")
    if yp.is_zero():
        j = as_zeta_power(col.x)
        if j is None:
            raise IntegrityError("base case 2: column is not a root of unity")
        seq = GateSequence(j, ())
    elif xp.is_zero():
        j = as_zeta_power(col.y)
        if j is None:
            raise IntegrityError("base case 3: column is not a root of unity")
        # zeta^j X, built as PH[j - n/2] H S S H  (H0 S^2 H0 = i X).
        seq = GateSequence((j - n // 2) % order, ("H", "S", "S", "H"))
    else:
        j = as_zeta_power(xp)
        l = as_zeta_power(yp)
        if j is None or l is None:
            raise IntegrityError("base case 1: scaled entries are not roots of unity")
        # -i zeta^j U_z((l-j) pi/n) H0 U_z(-(l+j) pi/n)
        tokens: list[str] = []
        a1 = (l - j) % order
        if a1:
            tokens.append(token_w(a1))
        tokens.append("H")
        a2 = (-l - j) % order
        if a2:
            tokens.append(token_w(a2))
        seq = GateSequence((j - n // 2) % order, tuple(tokens))
    v = eval_sequence(seq, ctx)
    if v.first_column() != (col.x, col.y):
        raise IntegrityError("base-case word has the wrong first column")
    return v, seq


def complete_unitary(u: UnitaryRn, v: UnitaryRn) -> int:
    """j with u = v U_z(j pi/n), for unitaries sharing a first column."""
    if u.ctx.n != v.ctx.n:
        raise ValueError("mixed contexts")
    if u.first_column() != v.first_column():
        raise ValueError("unitaries do not share a first column")
    delta = u.det() * v.det().conj()
    j = as_zeta_power(delta)
    if j is None:
        raise NoPhaseMatchError("determinant ratio is not a power of zeta_2n")
    zeta_j = RingElem.zeta(u.ctx, j)
    if not (
        u.rows[0][1] == v.rows[0][1] * zeta_j and u.rows[1][1] == v.rows[1][1] * zeta_j
    ):
        raise NoPhaseMatchError("phase does not complete the unitary")
    return j


def synthesize_ring(u: UnitaryRn) -> GateSequence:
    """An exact circuit for any unitary over the ring (n in {2,4,6,8,12}).

    Reduces the first column below the base-case measure with steps
    G_i = H0 U_z(pi k_i / n), one reduce_column_step call each, on the
    column loaded into lanes once (ColumnRn) and carried on them from step
    to step; a failing step raises with its step and measure attached.
    Then it builds the base-case word V from the last column, strips the
    prefix G_1^dagger ... G_t^dagger V off u, reads the trailing
    z-rotation W^j from the rest, diag(1, zeta^j), and emits
    G_1^dagger ... G_t^dagger V W^j.  The result reproduces the input
    exactly, including the global phase.
    """
    ctx = u.ctx
    if ctx.n not in RING_EQUALITY_NS:
        raise ValueError("ring synthesis is defined for n in %r" % (RING_EQUALITY_NS,))
    n, order = ctx.n, ctx.order
    col = ColumnRn(*u.first_column())
    threshold = mu_threshold(ctx)
    ks: list[int] = []
    while col.measure() > threshold:
        k, col = reduce_column_step(col)
        ks.append(k)
    _, v_seq = base_case_column(col)
    # G^dagger = W^(2n-k) H up to the phase -i from H0^dagger = -i H0.
    phase = (v_seq.phase_power - len(ks) * (n // 2)) % order
    tokens: list[str] = []
    for k in ks:
        back = (order - k) % order
        if back:
            tokens.append(token_w(back))
        tokens.append("H")
    tokens.extend(v_seq.tokens)
    # u = prefix W^j exactly when stripping the prefix off u leaves diag(1, zeta^j).
    rest = _strip(u, _word_gates(ctx, tokens, phase))
    if not rest.is_diagonal() or rest.rows[0][0] != RingElem.one(ctx):
        raise IntegrityError("ring synthesis does not reproduce the input")
    j = as_zeta_power(rest.rows[1][1])
    if j is None:
        raise NoPhaseMatchError("determinant ratio is not a power of zeta_2n")
    if j:
        tokens.append(token_w(j))
    return GateSequence(phase, tuple(tokens))

"""The working ring Z[zeta_2n, 1/2] and its real subring.

A RingElem is a dyadic fraction num / 2^m over the cyclotomic integers,
kept normalized: either m = 0 or some coefficient of num is odd.  The
normalization makes equality canonical and pins the denominator-exponent
arithmetic below.

The denominator exponent of a nonzero real element x is the unique r >= 0
with x = w / beta^r where w is an algebraic integer not divisible by beta,
beta = 2 for n = 2s (s odd) and beta = 2 cos(pi / 2^k) for n = 2^k s with
k >= 2.  It is read from parity bits: beta has valuation 2 at every prime
above 2 and 2 has valuation 2^k there, so for a normalized x = num / 2^m
with m > 0 the exponent is r = m 2^(k-1) - floor(v / 2), where v is the
multiplicity of Phi_s in num mod 2 (see cyclo); r = m when k = 1 and r = 0
when m = 0.  This module is the one home of that formula, on the pair
(m, parity mask of num) (_parity_exponent, which the descent also calls on
parities it reads without building the element), of its parity-free
bracket on m alone (_exp_bounds), and of the reader of lane entries that
applies the bracket first and reads parity bits only where it is not
exact (_entries_max, _row_max), through which _beta_exp_r reads a
RingElem; all read k from the context alone.
BetaConstant holds only beta itself, the base of beta_exponent's witness.
Ring elements are brought over a common 2^m in one place,
_common_numerators: for sums, for the lane loads of the exact checks and
the column, and for the JSON form of a matrix.
"""

from __future__ import annotations

import math
from functools import reduce
from operator import add, or_

from .cyclo import Context, CycInt, Lanes, _check_same_context, two_adic
from .errors import IntegrityError

__all__ = [
    "BetaConstant",
    "RingElem",
    "as_zeta_power",
    "beta_constant",
    "beta_exponent",
    "mu",
    "q_of",
]


class RingElem:
    """Element of Z[zeta_2n, 1/2] as a normalized fraction num / 2^m."""

    __slots__ = ("num", "m")

    def __init__(self, num: CycInt, m: int = 0):
        if m < 0:
            raise ValueError("denominator exponent must be nonnegative")
        if num.is_zero():
            m = 0
        elif m:
            t = min(m, two_adic(reduce(or_, num.coeffs)))
            if t:
                num = CycInt(num.ctx, tuple(c >> t for c in num.coeffs))
                m -= t
        self.num = num
        self.m = m

    @property
    def ctx(self) -> Context:
        return self.num.ctx

    # -- factories ----------------------------------------------------------

    @classmethod
    def from_int(cls, ctx: Context, c: int) -> "RingElem":
        return cls(ctx.from_int(c))

    @classmethod
    def zeta(cls, ctx: Context, j: int) -> "RingElem":
        return cls(ctx.zeta(j))

    @classmethod
    def zero(cls, ctx: Context) -> "RingElem":
        return cls(ctx.zero())

    @classmethod
    def one(cls, ctx: Context) -> "RingElem":
        return cls(ctx.one())

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_integral(self) -> bool:
        return self.m == 0

    def as_int(self) -> int | None:
        if self.m != 0:
            return None
        return self.num.as_int()

    def is_real(self) -> bool:
        return self.num.conj() == self.num

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "RingElem") -> "RingElem":
        _check_same_context(self.num, other.num)
        # A zero term would be scaled to the other's 2^m for nothing.
        if other.is_zero():
            return self
        if self.is_zero():
            return other
        m, (x, y) = _common_numerators((self, other))
        return RingElem(CycInt(self.ctx, map(add, x, y)), m)

    def __sub__(self, other: "RingElem") -> "RingElem":
        return self + (-other)

    def __neg__(self) -> "RingElem":
        return RingElem(-self.num, self.m)

    def __mul__(self, other: "RingElem") -> "RingElem":
        return RingElem(self.num * other.num, self.m + other.m)

    def conj(self) -> "RingElem":
        return RingElem(self.num.conj(), self.m)

    def abs2(self) -> "RingElem":
        """x * conj(x); always an element of the real subring."""
        return self * self.conj()

    def times_zeta(self, j: int) -> "RingElem":
        return RingElem(self.num.times_zeta(j), self.m)

    def half(self) -> "RingElem":
        return RingElem(self.num, self.m + 1)

    # -- valuation -----------------------------------------------------------

    def valuation(self):
        """Valuation at the prime above 2; may be negative, inf for zero."""
        ctx = self.ctx
        v = self.num.valuation()
        if v is math.inf:
            return math.inf
        return v - self.m * ctx.ram_index

    # -- comparisons -----------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, RingElem)
            and self.m == other.m
            and self.num == other.num
        )

    def __hash__(self):
        return hash((self.num, self.m))

    def key(self):
        return (self.num.coeffs, self.m)

    def __repr__(self):
        if self.m == 0:
            return "RingElem(%r)" % (self.num,)
        return "RingElem(%r / 2^%d)" % (self.num, self.m)


def _common_numerators(elems) -> tuple[int, list]:
    """(m, vecs): the coefficient vectors of the numerators of elems over
    their common denominator 2^m, the largest of theirs."""
    m = max(e.m for e in elems)
    return m, [[c << (m - e.m) for c in e.num.coeffs] if e.m < m else e.num.coeffs
               for e in elems]


def _conj_products(elems, pairs) -> tuple[Lanes, int, dict]:
    """(lanes, m, x) with x[i, j] the numerator of elems[i] conj(elems[j])
    over 2^(2m) for each (i, j) in pairs, as lanes below n (not folded):
    the elements over their common 2^m, packed as the factors of products
    (Lanes.load_factors), conjugated and multiplied on lanes (Lanes.conj,
    Lanes.mul), with no CycInt product.  A sum of up to four of them,
    folded, stays clear of the ends of the lanes."""
    m, vecs = _common_numerators(elems)
    lanes, *ps = elems[0].ctx.lanes().load_factors(*vecs)
    conj = {j: lanes.conj(ps[j]) for j in {j for _, j in pairs}}
    mul = lanes.mul
    return lanes, m, {(i, j): mul(ps[i], conj[j]) for i, j in pairs}


def _unit_lanes(lanes: Lanes, m: int) -> int | None:
    """The folded lanes of 2^(2m), the numerator of 1 over 2^(2m), or None
    where 2^(2m) leaves lane 0, so that no folded sum of products that
    stays clear of the ends of the lanes can equal it."""
    return 1 << (2 * m) if 2 * m < lanes.width - 1 else None


def _unit_sum_denominators_fit(elems) -> bool:
    """False where the denominators alone rule out |x_1|^2 + ... +
    |x_r|^2 = 1, so that no check scales a numerator far past the others.
    With M the largest m and M' the next lower one, or 0, the sum of the
    |N|^2 over the x = N / 2^M is divisible by 4^(M - M'), and nonzero, as
    it is totally positive: one of its coefficients is at least
    4^(M - M').  For numerators with coefficients in [-2^g, 2^g), each is
    below r phi(2n) 4^g times the fold's growth G <= 2^(h-2)
    (Context.lane_head)."""
    ctx, top = elems[0].ctx, max(e.m for e in elems)
    if not top:
        return True
    below = max((e.m for e in elems if e.m < top), default=0)
    g = max(max(max(e.num.coeffs), ~min(e.num.coeffs)) for e in elems if e.m == top).bit_length()
    return 2 * (top - below) <= 2 * g + ctx.lane_head() + (len(elems) * ctx.degree).bit_length()


def _is_unit_lanes(lanes: Lanes, ps, m: int) -> bool:
    """Whether |x_1|^2 + ... + |x_r|^2 = 1 for up to four elements x_i with
    numerators ps over 2^m, folded lanes that are factors of products (every
    lane in [-2^g, 2^g), g <= lanes.factor_bits, as Lanes.load_factors
    packs them): the folded sum of the x_i conj(x_i) (Lanes.conj,
    Lanes.mul) must be 2^(2m), one lane, as the folded lanes of an element
    are unique."""
    mul, conj = lanes.mul, lanes.conj
    return lanes.fold(sum(mul(p, conj(p)) for p in ps)) == _unit_lanes(lanes, m)


def _is_unit_sum(elems) -> bool:
    """Whether |x_1|^2 + ... + |x_r|^2 = 1 for up to four RingElems x_i:
    _is_unit_lanes on their numerators over their common denominator,
    packed as the factors of products (Lanes.load_factors), where the
    denominators allow it."""
    if not _unit_sum_denominators_fit(elems):
        return False
    m, vecs = _common_numerators(elems)
    lanes, *ps = elems[0].ctx.lanes().load_factors(*vecs)
    return _is_unit_lanes(lanes, ps, m)


def mu(x: RingElem, y: RingElem) -> int:
    """Complexity measure -min(v(x), v(y)) of a nonzero ring vector."""
    if x.is_zero() and y.is_zero():
        raise ValueError("mu is undefined on the zero vector")
    v = min(x.valuation(), y.valuation())
    if v is math.inf:
        raise IntegrityError("finite valuation expected")
    return -v


def q_of(a: int, ctx: Context) -> int:
    """Denominator exponent contributed by a pi*a/n rotation, 1 <= a < n/2.

    Equals 2^(k-1), except when n / gcd(a, n) is a power of two 2^j where
    it drops to 2^(k-1) - 2^(k-j).
    """
    n = ctx.n
    if not 1 <= a < n // 2:
        raise ValueError("a must satisfy 1 <= a < n/2, got %d" % a)
    k = ctx.k
    g = n // math.gcd(a, n)
    if g & (g - 1) == 0:
        j = g.bit_length() - 1
        if not 2 <= j <= k:
            raise IntegrityError("impossible power-of-two index")
        q = (1 << (k - 1)) - (1 << (k - j))
    else:
        q = 1 << (k - 1)
    if q <= 0:
        raise IntegrityError("q must be positive in the open angle range")
    return q


class BetaConstant:
    """beta of the context, the base of beta_exponent's witness."""

    def __init__(self, ctx: Context):
        if ctx.k == 1:
            beta = ctx.from_int(2)
        else:
            step = ctx.order >> (ctx.k + 1)  # zeta^step has order 2^(k+1)
            beta = ctx.zeta(step) + ctx.zeta(-step)
        self.beta = beta


def beta_constant(ctx: Context) -> BetaConstant:
    return ctx.memo("beta_constant", lambda: BetaConstant(ctx))


def _parity_exponent(ctx: Context, m: int, mask: int) -> int:
    """Denominator exponent m 2^(k-1) - floor(v / 2) of a normalized
    num / 2^m, m >= 1, from the parity mask of num (its low plane,
    Lanes.low_plane; nonzero, as num is not even), v the multiplicity of
    Phi_s in it."""
    return (m << (ctx.k - 1)) - (ctx.parity_multiplicity(mask) >> 1)


def _exp_bounds(ctx: Context, m: int) -> tuple[int, int]:
    # The denominator exponent of a normalized nonzero x = num/2^m lies in
    # [(m-1)*k1 + 1, m*k1] for m >= 1 (k1 = 2^(k-1)) and equals 0 for m = 0,
    # because a normalized numerator is never divisible by beta^k1.  The
    # bracket is exact when k = 1 or m = 0, where _entries_max reads no bits.
    # An m <= 0 gets (0, 0), so that the upper end for m - t bounds
    # num / 2^m whenever 2^t divides num.
    if m <= 0:
        return 0, 0
    k1 = 1 << (ctx.k - 1)
    return (m - 1) * k1 + 1, m * k1


def _entries_max(lanes: Lanes, vals: list, entries, cutoff):
    """vals, the running max of each row, raised in place to the
    denominator exponents of the lane entries (r, (p, m)) of row r, or None
    once one provably exceeds cutoff (math.inf for none).  A normalized
    entry with m > 0 has an odd lane, so its parity mask is its low plane;
    it is read only where the bracket on m reaches above its row's max and
    is not exact.  entries may be lazy: none past the one that exceeds
    cutoff is taken."""
    ctx = lanes.ctx
    for r, (p, m) in entries:
        val = vals[r]
        lo, hi = _exp_bounds(ctx, m)  # (0, 0) for zero
        if hi <= val:
            continue
        if lo > cutoff:
            return None
        # an exact bracket (k = 1) needs no parity bits
        val = vals[r] = hi if lo == hi else max(val, _parity_exponent(ctx, m, lanes.low_plane(p)))
        if val > cutoff:
            return None
    return vals


def _row_max(lanes: Lanes, row) -> int:
    """Max denominator exponent of a row of lane entries, 0 for a row of
    integral entries."""
    return _entries_max(lanes, [0], ((0, e) for e in row), math.inf)[0]


def _beta_exp_r(x: RingElem) -> int:
    """Denominator exponent only (no witness), shared with beta_exponent:
    the row max of x alone, loaded into lanes."""
    if x.is_zero():
        raise ValueError("beta exponent of zero")
    lanes, p = x.ctx.lanes().load(x.num.coeffs)
    return _row_max(lanes, ((p, x.m),))


def beta_exponent(x: RingElem, bc: BetaConstant) -> tuple[int, CycInt]:
    """Denominator exponent r and witness w = x * beta^r of a real element.

    The witness is num * beta^r / 2^m, an exact coefficientwise shift.
    """
    r = _beta_exp_r(x)
    w = x.num
    for _ in range(r):
        w = w * bc.beta
    low = (1 << x.m) - 1
    if any(c & low for c in w.coeffs):
        raise IntegrityError("num * beta^r is not divisible by 2^m")
    return r, CycInt(w.ctx, tuple(c >> x.m for c in w.coeffs))


def as_zeta_power(x: RingElem) -> int | None:
    """j in [0, 2n) with x = zeta_2n^j exactly, or None.  zeta^j is +-1 in
    one lane, +-2^(W i), exactly when i = j mod n < phi(2n); so x is one
    iff some x zeta^-r, r = 0, phi(2n), 2 phi(2n), ... below n, is:
    j = r + i, plus n for -1."""
    if x.m != 0:
        return None
    ctx = x.ctx
    lanes, p = ctx.lanes().load(x.num.coeffs)
    for r in range(0, ctx.n, ctx.degree):
        q = lanes.fold(lanes.zeta(p, -r))
        a, sign = (q, 0) if q > 0 else (-q, ctx.n)
        t = a.bit_length() - 1
        if a and a == 1 << t and not t % lanes.width:
            return r + t // lanes.width + sign
    return None

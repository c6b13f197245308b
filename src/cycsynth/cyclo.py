"""Exact arithmetic in the cyclotomic ring Z[zeta_2n].

Elements are integer coefficient vectors in the power basis
1, zeta, ..., zeta^(d-1), d = phi(2n), always fully reduced modulo the
cyclotomic polynomial Phi_2n.  The power basis is an integral basis, so
the representation of each element is unique and all arithmetic is exact.
Coefficients are Python ints, i.e. arbitrary precision: synthesis of long
circuits grows them without bound and fixed-width integers are never safe.
CycInt keeps the coefficients; its products, rotations, Galois images and
valuation are the lanes' arithmetic (Lanes, below), at a width picked from
the coefficients' bit length, so a context holds no table of zeta^e.

2-adic data is read from coefficient parity bits.  Write n = 2^k s with s
odd; then Phi_2n = Phi_s^(2^k) (mod 2) with Phi_s squarefree mod 2, so the
primes above 2 are the factors of Phi_s mod 2, each with ramification
index 2^k.  For x not divisible by 2, the multiplicity of Phi_s in x mod 2
is the least valuation of x at a prime above 2.  It is read from a bitmask
int of the odd coefficients by one product with a fixed sparse polynomial
and a subset transform of k strided shift-and-mask steps, for every n
(Context.parity_multiplicity).  The valuation proper is only available for
n in {2, 4, 6, 8, 12}, where that prime is unique.

The gate kernel (su2), the descent step (synth) and the column step
(ringsynth) work on lanes instead (Lanes): a numerator as one int
of n balanced W-bit lanes of Z[x]/(x^n + 1), W = 16, 32, 64, ..., or,
for the gate kernel, two numerators in one int (the pair layout), where
zeta^j is one shift and one split, an add is one int add, and the low
bits of every lane are read at once: the power of 2 the lanes share
(Lanes.twos), their residues mod 4 as bit planes (Lanes.planes) and, for
n in {2, 4, 6, 8, 12}, the valuation above 2 (Lanes.valuation).  A product
is one int product split at lane n (Kronecker substitution, Lanes.mul) and
the conjugate a reversal of the lanes (Lanes.conj); the Bloch image and the
exact unitarity checks are built from those, and so are CycInt's
product, rotation, Galois image and valuation.  For n not a power of 2 a
fold brings the lanes back mod Phi_2n = P(x^(2^k)), block by block
through Q = x^deg P - P (Context.fold_q, the split the descent's residue
planes, read off its pencils' lanes, fold on too).  Each lane keeps
headroom for one gate; load picks the narrowest width whose headroom
holds its input, and a gate that leaves it doubles W, so a context holds
O(log bits) lane tables, in Context.memo.  Every width change of lanes
already packed goes through Lanes.relane: the doublings, and the
descent's first step, which narrows the Bloch image's lanes to the width
load would pick for them.  Contexts are cached for a
bounded number of n (make_context).
"""

from __future__ import annotations

import math
import struct
from array import array
from functools import lru_cache, reduce
from itertools import accumulate
from operator import add, mul, neg, sub

from .errors import IntegrityError

__all__ = [
    "Context",
    "CycInt",
    "Lanes",
    "cyclotomic_poly",
    "divides",
    "exact_quotient",
    "factorize",
    "make_context",
    "two_adic",
]

VALUATION_NS = (2, 4, 6, 8, 12)


def two_adic(v: int) -> int:
    """Exponent of 2 in a nonzero integer."""
    if v == 0:
        raise ValueError("two_adic(0) is infinite")
    return (v & -v).bit_length() - 1


def factorize(m: int, max_prime: int | None = None) -> dict[int, int] | None:
    """Prime factorization of m >= 1 by trial division, {p: exponent} with
    the primes in increasing order; None if m has a prime factor above
    max_prime, so that trial division never passes max_prime."""
    out: dict[int, int] = {}
    p = 2
    while p * p <= m:
        if max_prime is not None and p > max_prime:
            return None
        while m % p == 0:
            out[p] = out.get(p, 0) + 1
            m //= p
        p += 1 if p == 2 else 2
    if m > 1:
        if max_prime is not None and m > max_prime:
            return None
        out[m] = out.get(m, 0) + 1
    return out


def _mul_binomial(p: list[int], e: int) -> list[int]:
    # p * (x^e - 1)
    out = [0] * e + p
    n = len(p)
    out[:n] = [a - b for a, b in zip(out[:n], p)]
    return out


def _div_binomial(p: list[int], e: int) -> list[int]:
    # exact quotient p / (x^e - 1); q[i] = q[i-e] - p[i], i.e. per residue
    # class mod e the quotient is a running prefix sum of -p.  Run on to
    # len(p), the recurrence is exact iff its terms past len(p) - e are 0.
    # With e^2 > len(p) there are fewer blocks of e than classes, so it runs
    # one block at a time.
    nq = max(len(p) - e, 0)
    if e * e > len(p):
        q = [-c for c in p[:e]]
        for i in range(e, len(p), e):
            q += [a - c for a, c in zip(q[i - e:i], p[i:i + e])]
        if any(q[nq:]):
            raise IntegrityError("inexact polynomial division by x^%d - 1" % e)
        return q[:nq]
    q = [0] * nq
    for r in range(e):
        acc = list(accumulate(p[r::e]))
        cut = len(range(r, nq, e))
        q[r::e] = [-a for a in acc[:cut]]
        if any(acc[cut:]):
            raise IntegrityError("inexact polynomial division by x^%d - 1" % e)
    return q


# Contexts (and the squarefree cyclotomic polynomials behind them) are
# cached for a few dozen n at a time, so no stream of distinct n grows the
# process without bound.  An evicted context is rebuilt on demand; elements
# of the old and the new one mix, as contexts are compared by n.
CONTEXT_CACHE = 32


@lru_cache(maxsize=CONTEXT_CACHE)
def _cyclotomic_squarefree(r: int) -> tuple[int, ...]:
    # Phi_r for squarefree r, as the Moebius product over the divisors of r:
    # multiply all (x^d - 1) with mu(r/d) = +1, then divide out the rest.
    # An even r = 2m with m > 1 reads Phi_r(x) = Phi_m(-x) instead.
    if r == 1:
        return (-1, 1)
    if r % 2 == 0 and r > 2:
        base = _cyclotomic_squarefree(r // 2)
        return tuple(-c if j % 2 else c for j, c in enumerate(base))
    primes = factorize(r)
    divisors = [(1, len(primes) % 2)]  # (d, 1 if mu(r/d) = -1 else 0)
    for p in primes:
        divisors += [(d * p, 1 - odd) for d, odd in divisors]
    poly = [1]
    for d, odd in divisors:
        if not odd:
            poly = _mul_binomial(poly, d)
    for d, odd in divisors:
        if odd:
            poly = _div_binomial(poly, d)
    if poly[-1] != 1:
        raise IntegrityError("cyclotomic polynomial is not monic")
    return tuple(poly)


def cyclotomic_poly(m: int) -> list[int]:
    """Exact coefficient vector of the m-th cyclotomic polynomial.

    Constant term first; the result is monic of degree phi(m).  Uses the
    Moebius product over the divisors of an odd squarefree radical,
    Phi_2r(x) = Phi_r(-x) for an odd r > 1, and
    Phi_m(x) = Phi_rad(m)(x^(m/rad(m))).
    """
    if m < 1:
        raise ValueError("cyclotomic_poly requires m >= 1")
    rad = math.prod(factorize(m))
    base = _cyclotomic_squarefree(rad) if m > 1 else (-1, 1)
    q = m // rad if m > 1 else 1
    if q == 1:
        return list(base)
    out = [0] * ((len(base) - 1) * q + 1)
    out[::q] = base
    return out


@lru_cache(maxsize=CONTEXT_CACHE)
def make_context(n: int) -> "Context":
    """Build (and cache) the arithmetic context for gate-set parameter n."""
    return Context(n)


class Context:
    """Shared constants for Z[zeta_2n]: cyclotomic polynomial, its fold
    split, Galois exponents and the 2-splitting data n = 2^k s."""

    def __init__(self, n: int):
        if not isinstance(n, int) or n < 2 or n % 2 != 0:
            raise ValueError("n must be a positive even integer, got %r" % (n,))
        self.n = n
        self.order = 2 * n
        self.phi_poly = tuple(cyclotomic_poly(self.order))
        self.degree = len(self.phi_poly) - 1
        self.k = two_adic(n)
        self.s = n >> self.k
        self.galois_exponents = tuple(
            t for t in range(1, self.order) if math.gcd(t, self.order) == 1
        )
        if len(self.galois_exponents) != self.degree:
            raise IntegrityError("Galois group size does not match field degree")
        # For parity_multiplicity: the bit positions of g(x^(2^k)) =
        # g^(2^k) mod 2, g = (x^s + 1) / Phi_s mod 2 (by GF(2) long
        # division), and (s 2^t, M_t) for t < k, M_t the lanes i < n with
        # bit t of i // s clear.
        phi_s = sum((c & 1) << i for i, c in enumerate(cyclotomic_poly(self.s)))
        rest, g = (1 << self.s) | 1, 0
        while rest:
            top = rest.bit_length() - phi_s.bit_length()
            g, rest = g | (1 << top), rest ^ (phi_s << top)
        self.mult_shifts = tuple(i << self.k for i in range(g.bit_length()) if (g >> i) & 1)
        full, s = (1 << n) - 1, self.s
        self.subset_steps = tuple(
            (s << t, full // ((1 << (2 * s << t)) - 1) * ((1 << (s << t)) - 1))
            for t in range(self.k)
        )
        # Every prime above 2 has ramification index 2^k, so v(2) = 2^k.
        self.ram_index = 1 << self.k
        # Phi_2n(x) = P(x^w) with w = 2^k = ram_index, and fold_q holds the
        # coefficients of Q = x^deg P - P, of degree below deg P: blocks of
        # w lanes at or above w deg P = phi(2n) fold down by
        # x^(w B) = x^(w (B - deg P)) Q(x^w).  It is the one split that
        # every fold mod Phi_2n reads (synth's residue planes, Lanes); for
        # n = 2^k, P = x + 1 and no block lies above phi(2n) = n.
        self.fold_q = tuple(-c for c in self.phi_poly[:-1:self.ram_index])
        self.supports_valuation = n in VALUATION_NS
        self._memo: dict = {}
        # parity_multiplicity's results by mask, 255 until read, for a ring
        # of degree up to 16 (at most 64 KiB)
        self._parity_table = bytearray(b"\xff") * (1 << self.degree) if self.degree <= 16 else None

    def memo(self, key, build):
        """The value stored under key, or build() stored there on first use.

        Holds the lazily built tables of this context (the Clifford group,
        its index moves, each emission block, beta, ...), one entry each;
        build() must not return None.  Two threads may both build a missing
        entry, and either result is kept.
        """
        val = self._memo.get(key)
        if val is None:
            val = self._memo[key] = build()
        return val

    def __reduce__(self):
        # A context pickles and deep-copies as its n, and loads as the
        # cached one (make_context): its tables are rebuilt, not copied,
        # and elements of one context stay in one.
        return make_context, (self.n,)

    def parity_multiplicity(self, mask: int) -> int:
        """Multiplicity of Phi_s in the nonzero GF(2) polynomial `mask`
        (bit i the coefficient of x^i) of degree below phi(2n).

        It is v < 2^k, the multiplicity of y + 1, y = x^s, in
        h = mask g^(2^k), g = (x^s + 1) / Phi_s: x^s + 1 is squarefree mod 2
        for odd s, and g^(2^k) holds every other factor Phi_d, d | s, at
        least 2^k times.  h has degree below n = 2^k s, so it is
        sum_(r < s) x^r h_r(y) with each h_r of degree below 2^k, and v is
        the least multiplicity of y + 1 in an h_r.  By Lucas' theorem the
        coefficient of (y + 1)^j in sum c_i y^i = sum c_i ((y + 1) + 1)^i is
        the XOR of the c_i over the i whose bits contain those of j, and the
        k steps h ^= (h >> s 2^t) & M_t compute it in lane r + s j of every
        h_r at once; so v is the index of the lowest set bit over s.  For
        s = 1, g = 1 and h is the mask.

        A ring of degree phi(2n) <= 16 keeps v (< 2^k <= 16) in a table of
        one byte per mask, filled as masks are first read.
        """
        table = self._parity_table
        if table is not None:
            v = table[mask]
            if v != 255:
                return v
        h = 0
        for shift in self.mult_shifts:
            h ^= mask << shift
        for step, lanes in self.subset_steps:
            h ^= (h >> step) & lanes
        v = ((h & -h).bit_length() - 1) // self.s
        if table is not None:
            table[mask] = v
        return v

    def lanes(self, width: int | None = None) -> "Lanes":
        """The lane table of width bits, by default the narrowest,
        LANE_WIDTH, built on first use; Lanes widen by doubling, so a
        context keeps O(log bits) of them."""
        key = ("lanes", width or LANE_WIDTH)
        lanes = self._memo.get(key)  # the kernel's hot path: no closure
        return lanes if lanes is not None else self.memo(key, lambda: Lanes(self, key[1]))

    def lane_head(self) -> int:
        """Headroom bits h of a gate on lanes: x + y, then (1 + zeta^j) times
        that, grows lanes 4-fold, and the fold mod Phi_2n (Lanes.fold) by at
        most G, so lanes in [-2^(W-1-h), 2^(W-1-h)) before a gate stay in
        [-2^(W-1), 2^(W-1)) after it when 2^h >= 4 G.  Top-down, the fold
        has turned block B > b into y^(b + 1 - deg P) (y^(B - b - 1 + deg P)
        mod P), y = x^w, by the time it reaches block b, so a lane never
        holds more than its own value plus the rows y^B mod P,
        deg P <= B < s, of one column: G is 1 plus the largest column sum
        of their absolute values.  Each row is the last times y, its top
        term folded through Q (fold_q)."""
        def build():
            q = self.fold_q
            row, cols = q, [0] * len(q)
            for _ in range(len(q), self.s):
                cols = [c + abs(r) for c, r in zip(cols, row)]
                top = row[-1]
                row = [top * q[0]] + [r + top * c for r, c in zip(row, q[1:])]
            return 2 + max(cols).bit_length()
        return self.memo("lane_head", build)

    # -- element factories -------------------------------------------------

    def zero(self) -> "CycInt":
        return CycInt(self, (0,) * self.degree)

    def one(self) -> "CycInt":
        return self.from_int(1)

    def from_int(self, c: int) -> "CycInt":
        return CycInt(self, (c,) + (0,) * (self.degree - 1))

    def zeta(self, j: int = 1) -> "CycInt":
        return self.one().times_zeta(j)

    def from_coeffs(self, coeffs) -> "CycInt":
        return CycInt(self, _checked_coeffs(coeffs, self.degree))

    def __repr__(self):
        return "Context(n=%d)" % self.n


# The narrowest lane width, the struct codes of 16-, 32- and 64-bit
# signed lanes, and the array codes of items of those widths.
LANE_WIDTH = 16
_LANE_CODES = {16: "h", 32: "i", 64: "q"}
_ARRAY_CODES = {8 * array(c).itemsize: c for c in "qih"}


class Lanes:
    """Z[x]/(x^n + 1), which maps onto Z[zeta_2n] since zeta^n = -1, with a
    numerator packed into one int of n balanced W-bit lanes: the int is
    sum c_i 2^(W i) with every lane c_i in [-2^(W-1), 2^(W-1)), so add,
    subtract, negate and a right shift by the 2-adic part of every lane are
    one int op each.  Between gates every lane lies in the headroom
    [-2^f, 2^f), f = W - 1 - h (Context.lane_head): load picks a width
    where it holds the input, and pair_settle doubles W when a lane leaves
    it; within one gate lanes grow at most 2^h-fold, so no op wraps a lane.
    Lanes change width only through relane: pair_settle's doublings, the
    descent's (synth) and the column check's widening (ringsynth), and the
    Bloch step's narrowing to load's width, read off the lanes (bits, for
    wide_enough).

    zeta^j (zeta) is a left shift by j lanes and one balanced split at lane
    n: with off = 2^(W-1) in every lane below n, hi = (p + off) >> W n is
    the part at and above lane n and p - hi 2^(W n) the rest, in lanes
    below n, so the product is rest - hi.  The fold mod Phi_2n = P(x^w)
    (for s > 1) splits off one block of w lanes at a time, top first, the
    same way, and adds it times Q(x^w) (Context.fold_q) deg P blocks lower:
    p += hi C_B with the per-block constant C_B = Q(x^w) x^(w (B - deg P))
    - x^(w B), s - phi(s) steps.  The lanes of p + off, all in [0, 2^W),
    carry no borrows, so their low bits are those of the c_i, and
    (p + off) ^ off holds each c_i as a W-bit two's complement lane: for
    W in {16, 32, 64} packing and unpacking are one struct call each, and
    reversing the lanes (conj) is one array reversal.

    The pair layout carries two numerators in one int, the first in lanes
    0, ..., n - 1 and the second 2n lanes up (pair, unpair), so that the
    gate kernel (su2.apply_gates) runs the two lines of a 2x2 matrix as
    one.  A rotation by j < n lanes moves each into the n empty lanes
    above it and never into the other.  pair_zeta then splits the two at
    once: Q = (P << W j) + pair_off holds each lane of P, moved up j lanes,
    plus 2^(W-1), as a W-bit digit of Q, so (Q & pair_low) -
    ((Q >> W n) & pair_low), pair_low the lanes below n of each line, is,
    lane by lane, the part below n minus the part at and above it.
    pair_fold reads the block of each line the same way, from the digits,
    with one mask and offset for both, and pair_settle settles both lines
    after a gate.  One numerator p is the pair whose second line is empty
    (pair(p, 0) == p), and pair_zeta, pair_fold and pair_settle keep it
    empty, so the column step (ringsynth) runs on them too.
    """

    __slots__ = ("ctx", "width", "nw", "split", "off", "nbytes", "code", "items", "ones",
                 "full", "free", "factor_bits", "bounds", "room", "roomy_top", "folds",
                 "reads", "gap", "pair_off", "pair_low", "pair_split", "pair_block",
                 "pair_room", "pair_top")

    def __init__(self, ctx: Context, width: int):
        n, d, w = ctx.n, ctx.degree, width
        if width % 8 or width < 8:
            raise ValueError("lane width must be a positive multiple of 8")
        self.ctx, self.width = ctx, width

        def repunit(count):  # 1 in each of the lowest count lanes
            return ((1 << (w * count)) - 1) // ((1 << w) - 1)

        self.nw = w * n
        self.split = repunit(n) << (w - 1)
        # (split, bytes) of the plane reads (_low_bytes) of the lanes below
        # n and of the three pencils' 3n lanes (synth._PlaneScan)
        self.reads = {n: (self.split, self.nw // 8),
                      3 * n: (repunit(3 * n) << (w - 1), 3 * self.nw // 8)}
        self.ones = repunit(d)
        self.off = self.ones << (w - 1)
        self.nbytes = w * d // 8
        code = _LANE_CODES.get(w)
        self.code = code and struct.Struct("<%d%s" % (d, code))
        self.items = _ARRAY_CODES.get(w)
        # Lanes c in the headroom [-2^f, 2^f) are those of p + room with no
        # bit in roomy_top (fits at g = f); a width with f < 1 holds only
        # zero lanes.  bounds[g] is the (room, top) pair of fits at g,
        # built on first use, once per table.
        self.full = (1 << (w * d)) - 1
        self.free = f = w - 1 - ctx.lane_head()
        self.bounds = [None] * max(f + 1, 0)
        self.room, self.roomy_top = self._bounds(f) if f > 0 else (0, self.full)
        if f > 0:
            self.bounds[f] = self.room, self.roomy_top
        lanes = ctx.ram_index
        q = sum(c << (w * lanes * j) for j, c in enumerate(ctx.fold_q))
        dp = len(ctx.fold_q)
        self.folds = tuple(
            (repunit(lanes * b) << (w - 1), w * lanes * b,
             (q << (w * lanes * (b - dp))) - (1 << (w * lanes * b)))
            for b in range(n // lanes - 1, dp - 1, -1)
        )
        # load_factors' rule: the largest g with 2g + bit_length(2 phi(2n)) <= f
        self.factor_bits = (self.free - (2 * d).bit_length()) // 2
        # The pair layout: a constant c of one line is c * twin on both.
        # pair_block is one fold block's lanes, the lowest ctx.ram_index, and
        # its offsets, both for both lines.
        self.gap = 2 * self.nw
        twin = 1 + (1 << self.gap)
        self.pair_off = repunit(4 * n) << (w - 1)
        self.pair_low = ((1 << self.nw) - 1) * twin
        self.pair_split = repunit(2 * n) << (w - 1)
        self.pair_block = (((1 << (w * lanes)) - 1) * twin, (repunit(lanes) << (w - 1)) * twin)
        self.pair_room, self.pair_top = self.room * twin, self.roomy_top * twin

    def load(self, *vecs) -> tuple:
        """(lanes, p_1, ..., p_r) for the coefficient vectors vecs at the
        narrowest doubling of this width whose headroom [-2^f, 2^f) holds
        them all: every coefficient lies in [-2^g, 2^g), g its bit length
        (_bits), and none outside it, so f >= g is the test."""
        lanes = self.wide_enough(_bits(vecs))
        return (lanes, *map(lanes.pack, vecs))

    def load_factors(self, *vecs) -> tuple:
        """(lanes, p_1, ..., p_r) for the coefficient vectors vecs at the
        narrowest doubling of this width where every lane lies in
        [-2^g, 2^g) with 2g + bit_length(2 phi(2n)) <= f, the factors of
        products (mul): one product then has lanes below
        phi(2n) 2^(2g) < 2^(f-1), a sum of four lies in [-2^(f+1), 2^(f+1)),
        and its fold stays in [-2^(W-2), 2^(W-2)) (Context.lane_head)."""
        lanes = self.wide_enough(2 * _bits(vecs) + (2 * self.ctx.degree).bit_length())
        return (lanes, *map(lanes.pack, vecs))

    def wide_enough(self, need: int) -> "Lanes":
        """The narrowest doubling of this lane table with f >= need."""
        lanes = self
        while lanes.free < need:
            lanes = lanes.ctx.lanes(2 * lanes.width)
        return lanes

    def fits(self, p: int, g: int) -> bool:
        """Whether every lane of p lies in [-2^g, 2^g), g <= f, for lanes in
        [-2^(W-1), 2^(W-1)): as in the headroom test (g = f), adding 2^g
        to every lane moves those into [0, 2^(g+1)) with no carry, and the
        lowest lane outside it then sets a bit above that range in its own
        lane."""
        if g < 0:
            return not p
        bounds = self.bounds[g]
        if bounds is None:
            bounds = self.bounds[g] = self._bounds(g)
        return not (p + bounds[0]) & bounds[1]

    def _bounds(self, g: int) -> tuple[int, int]:
        # (room, top) of the test for [-2^g, 2^g): room is 2^g in every
        # lane, top is ones (2^W - 2^(g+1)), the bits above [0, 2^(g+1))
        room = self.ones << g
        return room, self.full + self.ones - (room << 1)

    def pack(self, coeffs) -> int:
        """The lanes of a coefficient vector, whose entries must fit in W
        bits (load picks a width where they do)."""
        if self.code is None:
            w = self.width
            return sum(c << (w * i) for i, c in enumerate(coeffs) if c)
        return (int.from_bytes(self.code.pack(*coeffs), "little") ^ self.off) - self.off

    def unpack(self, p: int) -> tuple[int, ...]:
        """The phi(2n) coefficients of folded lanes p."""
        raw = ((p + self.off) ^ self.off).to_bytes(self.nbytes, "little")
        if self.code is not None:
            return self.code.unpack(raw)
        b, half = self.width // 8, 1 << (self.width - 1)
        return tuple((int.from_bytes(raw[i:i + b], "little") ^ half) - half
                     for i in range(0, len(raw), b))

    def relane(self, src: "Lanes", *ps) -> list[int]:
        """The folded lanes ps of src's table at this table's width, whose
        lanes must hold them: the one width change, wider or narrower, of a
        numerator already on lanes."""
        return [self.pack(src.unpack(p)) for p in ps]

    def bits(self, *ps) -> int:
        """The least g with every lane of the folded lanes ps in
        [-2^g, 2^g), as _bits reads it off coefficient vectors: the need
        that wide_enough takes for ps."""
        return _bits([self.unpack(p) for p in ps])

    def pair(self, p: int, q: int) -> int:
        """The pair layout of lanes p and q below n: p in lanes 0, ...,
        n - 1 and q in lanes 2n, ..., 3n - 1."""
        return p + (q << self.gap)

    def unpair(self, p: int) -> tuple[int, int]:
        """The two numerators of the pair p, each as lanes below n."""
        hi = (p + self.pair_split) >> self.gap
        return p - (hi << self.gap), hi

    def pair_zeta(self, p: int, j: int) -> int:
        """zeta on each line of the pair p."""
        n = self.ctx.n
        j %= 2 * n
        if j >= n:
            p, j = -p, j - n
        if not j:
            return p
        p = (p << self.width * j) + self.pair_off
        low = self.pair_low
        return (p & low) - (p >> self.nw & low)

    def pair_fold(self, p: int) -> int:
        """fold on each line of the pair p: fold's steps, each block read
        off the digits of p + pair_off."""
        block, block_off = self.pair_block
        off = self.pair_off
        for _, shift, c in self.folds:
            p += (((p + off) >> shift & block) - block_off) * c
        return p

    def pair_settle(self, x: int, y: int, m: int) -> tuple["Lanes", int, int, int]:
        """(lanes, x, y, m) for the pairs x / 2^m, y / 2^m after a gate: each
        line folded, every power of 2 all four numerators share taken off
        (at most m), at this width, or at double it when a lane has left
        the headroom, read off the bits of x + pair_room in pair_top."""
        x, y = self.pair_fold(x), self.pair_fold(y)
        v = (x + self.pair_room) | (y + self.pair_room)
        if v & self.pair_top:
            wide = self.ctx.lanes(2 * self.width)
            x1, x2, y1, y2 = wide.relane(self, *self.unpair(x), *self.unpair(y))
            return wide.pair_settle(wide.pair(x1, x2), wide.pair(y1, y2), m)
        v |= v >> self.gap  # both lines' low bits in lanes 0, ..., n - 1
        if v & self.ones or not m:
            return self, x, y, m
        t = self.twos(v, m)
        return self, x >> t, y >> t, m - t

    def twos(self, v: int, limit: int) -> int:
        """The largest t <= limit with bits 0, ..., t - 1 clear in every
        lane of v, whose lanes lie in [0, 2^W).  For v = p + off, p nonzero
        and a limit of at most W - 1, 2^t is the power of 2 that p's lanes
        share, up to the limit: each lane of p + off holds that of p in its
        low W - 1 bits, and a lane -2^(W-1), which reads 0 there, is
        divisible by 2^(W-1).  pair_settle reads v = x + room | y + room,
        whose lanes hold those of x and y in their low f bits."""
        ones = self.ones
        t = 0
        while t < limit and not (v >> t) & ones:
            t += 1
        return t

    def _low_bytes(self, p: int, count: int) -> bytes:
        # the low byte of each of the lowest count lanes (n or 3n) of p,
        # the top one first; for folded p lanes phi(2n), ..., n - 1 read 0
        split, size = self.reads[count]
        b = self.width // 8
        return (p + split).to_bytes(size, "big")[b - 1::b]

    def planes(self, p: int, count: int | None = None) -> tuple[int, int]:
        """The lowest count lanes of p, n by default or 3n, mod 4 as bitmask
        planes (high, low): bit i of low is c_i mod 2 and bit i of high is
        (c_i >> 1) mod 2.  The lanes below n may be folded or not, as zeta
        leaves them; 3n lanes hold three such numerators at lanes 0, n and
        2n, added as ints (synth._PlaneScan packs its pencils so)."""
        raw = self._low_bytes(p, count or self.ctx.n)
        return int(raw.translate(_HIGH_BIT), 2), int(raw.translate(_LOW_BIT), 2)

    def low_plane(self, p: int) -> int:
        """The low plane of planes(p) alone: the bitmask of the odd lanes
        below n of p, the parity mask that Context.parity_multiplicity
        reads."""
        return int(self._low_bytes(p, self.ctx.n).translate(_LOW_BIT), 2)

    def valuation(self, p: int):
        """Valuation above 2 of folded lanes p: the exponent of the unique
        prime above 2 for n in VALUATION_NS (ValueError for any other n),
        math.inf for zero.  It is 2^k t, 2^t the power of 2 the lanes share,
        plus the multiplicity of Phi_s in the low plane of p / 2^t."""
        ctx = self.ctx
        _require_valuation(ctx)
        if not p:
            return math.inf
        t = self.twos(p + self.off, self.width - 1)
        return (t << ctx.k) + ctx.parity_multiplicity(self.low_plane(p >> t))

    def zeta(self, p: int, j: int) -> int:
        """p times zeta^j, as lanes below n (not folded)."""
        n = self.ctx.n
        j %= 2 * n
        if j >= n:
            p, j = -p, j - n
        if not j:
            return p
        p <<= self.width * j
        hi = (p + self.split) >> self.nw
        return p - (hi << self.nw) - hi

    def mul(self, p: int, q: int) -> int:
        """p q for lanes p and q below n, one of them folded, as lanes below
        n (not folded), by Kronecker substitution: the int product holds the
        lanes of the polynomial product, each a sum of at most phi(2n)
        products of a lane of p and one of q, which no lane wraps when the
        factors come from load_factors; x^n = -1 then splits it at lane n,
        as in zeta."""
        p *= q
        hi = (p + self.split) >> self.nw
        return p - (hi << self.nw) - hi

    def conj(self, p: int) -> int:
        """The complex conjugate of folded p as lanes below n (not folded):
        zeta^-i = -zeta^(n - i) sends lane i > 0 to lane n - i, negated, and
        keeps lane 0, so it is the phi(2n) lanes of p in reverse order
        times -zeta^(n - phi(2n) + 1).  For W in {16, 32, 64} the lanes
        are reversed in the bytes of p + off, each lane there c_i + 2^(W-1)
        in [0, 2^W), as items of an array; the reversed lanes then carry
        the same off.  Its lanes are p's, so products (mul) of factors and
        conjugates grow alike; fold the result once (entry) for n not a
        power of 2."""
        ctx = self.ctx
        if self.items:
            lanes = array(self.items, (p + self.off).to_bytes(self.nbytes, "little"))
            lanes.reverse()
            p = int.from_bytes(lanes, "little") - self.off
        else:
            p = self.pack(self.unpack(p)[::-1])
        return -self.zeta(p, ctx.n - ctx.degree + 1)

    def fold(self, p: int) -> int:
        """p reduced mod Phi_2n into the lowest phi(2n) lanes."""
        for off, shift, c in self.folds:
            p += ((p + off) >> shift) * c
        return p

    def entry(self, p: int, m: int) -> tuple[int, int]:
        """The lane entry (p', m') of p / 2^m for lanes p below n: p
        folded, and every power of 2 its lanes share (at most m) taken off,
        so that p' has an odd lane when m' > 0; (0, 0) for zero.  No
        nonzero lane in [-2^(W-1), 2^(W-1)) has more than W - 1 factors 2,
        so reading at most W - 1 of them (twos) misses none, however
        large m is."""
        p = self.fold(p)
        if not p:
            return 0, 0
        t = self.twos(p + self.off, min(m, self.width - 1))
        return p >> t, m - t


def _bits(vecs) -> int:
    """The least g with every coefficient of vecs in [-2^g, 2^g)."""
    return max(max(map(max, vecs)), ~min(map(min, vecs))).bit_length()


def _checked_coeffs(coeffs, degree: int) -> tuple[int, ...]:
    """coeffs as a tuple, which must hold `degree` ints (ValueError else)."""
    coeffs = tuple(coeffs)
    if len(coeffs) != degree:
        raise ValueError(
            "coefficient vector must have length %d, got %d" % (degree, len(coeffs))
        )
    if not all(isinstance(c, int) for c in coeffs):
        raise ValueError("coefficients must be integers")
    return coeffs


# The ASCII digit of bit 1 or bit 0 of a byte, so int(..., 2) packs a
# residue byte string into a bitmask.
_HIGH_BIT = bytes.maketrans(bytes(range(256)), bytes(b"01"[c >> 1 & 1] for c in range(256)))
_LOW_BIT = bytes.maketrans(bytes(range(256)), bytes(b"01"[c & 1] for c in range(256)))


def _require_valuation(ctx: Context) -> None:
    if not ctx.supports_valuation:
        raise ValueError(
            "valuation above 2 is only supported for n in %r" % (VALUATION_NS,)
        )


def _check_same_context(a: "CycInt", b: "CycInt") -> None:
    if a.ctx.n != b.ctx.n:
        raise ValueError(
            "mixed contexts: n=%d vs n=%d" % (a.ctx.n, b.ctx.n)
        )


class CycInt:
    """An element of Z[zeta_2n] as a reduced power-basis coefficient vector."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: Context, coeffs):
        self.ctx = ctx
        self.coeffs = tuple(coeffs)

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def as_int(self) -> int | None:
        """The rational integer value, or None if not rational."""
        if any(self.coeffs[1:]):
            return None
        return self.coeffs[0]

    # -- ring operations -----------------------------------------------------

    def __add__(self, other: "CycInt") -> "CycInt":
        _check_same_context(self, other)
        return CycInt(self.ctx, tuple(map(add, self.coeffs, other.coeffs)))

    def __sub__(self, other: "CycInt") -> "CycInt":
        _check_same_context(self, other)
        return CycInt(self.ctx, tuple(map(sub, self.coeffs, other.coeffs)))

    def __neg__(self) -> "CycInt":
        return CycInt(self.ctx, tuple(map(neg, self.coeffs)))

    def __mul__(self, other):
        """Product, on lanes (Lanes.mul): at the narrowest width where
        g + g' + bit_length(2 phi(2n)) <= f for factors in [-2^g, 2^g) and
        [-2^g', 2^g'), load_factors' bound for this one product."""
        if isinstance(other, int):
            return CycInt(self.ctx, tuple(other * a for a in self.coeffs))
        _check_same_context(self, other)
        ctx = self.ctx
        if not (any(self.coeffs) and any(other.coeffs)):
            return ctx.zero()
        a, b = self.coeffs, other.coeffs
        lanes = ctx.lanes().wide_enough(_bits((a,)) + _bits((b,)) + (2 * ctx.degree).bit_length())
        return CycInt(ctx, lanes.unpack(lanes.fold(lanes.mul(lanes.pack(a), lanes.pack(b)))))

    __rmul__ = __mul__

    def times_zeta(self, j: int) -> "CycInt":
        """Product with zeta^j: a rotation of the lanes (Lanes.zeta)."""
        ctx = self.ctx
        if not j % ctx.order:
            return self
        lanes, p = ctx.lanes().load(self.coeffs)
        return CycInt(ctx, lanes.unpack(lanes.fold(lanes.zeta(p, j))))

    # -- Galois action and derived maps ---------------------------------------

    def galois(self, t: int) -> "CycInt":
        """Image under zeta -> zeta^t for t coprime to 2n: c_i goes to lane
        i t mod 2n, negated at and above lane n (zeta^n = -1), one lane
        each, as i t mod 2n is one-to-one; then one fold."""
        ctx = self.ctx
        order, n = ctx.order, ctx.n
        if math.gcd(t, order) != 1:
            raise ValueError("t=%d is not coprime to %d" % (t, order))
        lanes = ctx.lanes().wide_enough(_bits((self.coeffs,)))
        w, p = lanes.width, 0
        for i, c in enumerate(self.coeffs):
            if c:
                e = i * t % order
                p += c << (w * e) if e < n else -c << (w * (e - n))
        return CycInt(ctx, lanes.unpack(lanes.fold(p)))

    def conj(self) -> "CycInt":
        """Complex conjugate (the Galois map t = 2n - 1)."""
        return self.galois(self.ctx.order - 1)

    def norm(self) -> int:
        """Product of all Galois conjugates; a rational integer."""
        if self.is_zero():
            return 0
        value = (self * _conjugate_product(self)).as_int()
        if value is None:
            raise IntegrityError("norm did not reduce to a rational integer")
        return value

    def is_coprime_to_two(self) -> bool:
        """True iff the norm is odd (no prime above 2 divides the element)."""
        if self.is_zero():
            raise ValueError("zero has no coprimality class")
        return self.norm() % 2 != 0

    def mod2(self) -> "CycInt":
        """Coefficientwise residue in {0, 1}, as an element of the ring."""
        return CycInt(self.ctx, tuple(c & 1 for c in self.coeffs))

    def valuation(self):
        """Exponent of the unique prime above 2 (n in {2,4,6,8,12} only;
        math.inf for zero), read off the lanes (Lanes.valuation)."""
        lanes, p = self.ctx.lanes().load(self.coeffs)
        return lanes.valuation(p)

    # -- comparisons / hashing -------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, CycInt)
            and self.ctx.n == other.ctx.n
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.ctx.n, self.coeffs))

    def __repr__(self):
        terms = []
        for j, c in enumerate(self.coeffs):
            if c:
                if j == 0:
                    terms.append(str(c))
                else:
                    terms.append("%d*z^%d" % (c, j))
        return "CycInt(%s)" % (" + ".join(terms) if terms else "0")


def _conjugate_product(y: CycInt) -> CycInt:
    # the product of the nontrivial Galois conjugates (degree >= 2 always)
    return reduce(mul, (y.galois(t) for t in y.ctx.galois_exponents[1:]))


def _quotient_coeffs(x: CycInt, y: CycInt) -> tuple[int, ...] | None:
    # Multiplies x by the product gamma of the nontrivial conjugates of y;
    # then x / y = x*gamma / (y*gamma) where y*gamma is the rational norm,
    # so the quotient is a coefficientwise integer division (None if inexact).
    if y.is_zero():
        raise ValueError("division by zero")
    gamma = _conjugate_product(y)
    b = (y * gamma).as_int()
    if b is None:
        raise IntegrityError("y * gamma did not reduce to a rational integer")
    xg = (x * gamma).coeffs
    if any(c % b for c in xg):
        return None
    return tuple(c // b for c in xg)


def divides(y: CycInt, x: CycInt) -> bool:
    """True iff x / y is an algebraic integer."""
    return _quotient_coeffs(x, y) is not None


def exact_quotient(x: CycInt, y: CycInt) -> CycInt:
    """x / y, which must be an algebraic integer (ValueError otherwise)."""
    q = _quotient_coeffs(x, y)
    if q is None:
        raise ValueError("quotient is not an algebraic integer")
    return CycInt(x.ctx, q)

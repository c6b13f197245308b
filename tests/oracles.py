"""Independent oracles used to freeze expected values in the test suite.

Everything here deliberately avoids the library's own algorithms: the
cyclotomic polynomials come from the plain recursive division, divisibility
from a fraction-free integer linear solve, and numeric cross-checks from floating-point
evaluation of the power basis.  The library's fast paths are checked against
the slow code they replaced: the gates H0, S, W^j, zeta^a I and
U_{+-p}(a pi/n) written out entry by entry (U_p as the expansion
((1 + zeta^a)/2) I + sign ((1 - zeta^a)/2) P), words evaluated by general
2x2 products of those, Bloch images from six 2x2 products with the SO(3)
check and the rotation generators built from them, the rewriting pass
with its pending Clifford kept as a unitary and its own phase
bookkeeping, the pass's Clifford index table from Rotation products,
column-reduction steps built and measured for every k, products reduced
by dense rows of zeta^e computed here from the naive cyclotomic
polynomial, valuations read off the rational norm, multiplicities of
Phi_s mod 2 found by carry-less long division on bit lists, denominator
exponents found by the iterated beta-divisibility chain, descent
candidates built as generator products and scored without pruning, the
axis scan with no bar below the current max, the scan of every
candidate on planes, as before an axis of one candidate was built, the
scan's planes built
column by column, as before it packed its pencils, and its residues on
integer lanes by long division, the
descent's exponent profile read entry by entry and its rotation step
built four basis rotations per pencil, as before the descent carried its
step state, its pencils, entries and residues mod 4 built on CycInt
tuples, as before the descent ran on packed lanes, its matrix unpacked
on every step, column steps scored on CycInt valuations and the column
loop on pairs of RingElems, as before it carried its column on lanes, dyadic
fractions normalized one halving at a time, the Bloch image from its 7
entry products on CycInt, as before it ran on lane products, and the
exact unitarity, column-normalization and unit-modulus checks on CycInt
products, the gate kernel one line at a time, on CycInt numerators and
on single-line lanes, as before it took a matrix's two lines in one pass,
the column step on single-line lanes with their own settle, as before it
ran through the gate kernel's loop,
the lane conjugate on a tuple of its lanes, as before it reversed
them in their bytes, two ring elements over their common denominator as
CycInts, lanes re-laned through a coefficient tuple, and the descent
that scores every candidate at its step's bar and raises on a tie, as
before it stopped at its first winner, and the division by x^e - 1 one
prefix sum per residue class mod e, as before it ran a block of e at a
time.
"""

from __future__ import annotations

import cmath
import itertools
import math
import random
from functools import cache, reduce
from operator import or_

from cycsynth import (
    CanonicalForm,
    CliffordRot,
    ColumnRn,
    CycInt,
    GateSequence,
    IntegrityError,
    NotReducibleError,
    RingElem,
    Rotation,
    UnitaryRn,
    base_case_column,
    complete_unitary,
    is_signed_permutation,
)
from cycsynth.cyclo import two_adic
from cycsynth.rings import _beta_exp_r, _common_numerators, _exp_bounds, mu
from cycsynth.su2 import AXES, token_w, w_exponent
from cycsynth.synth import _as_step, _PlaneScan


# -- naive cyclotomic polynomials (product recursion with long division) -------


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def poly_divmod(num, den):
    num = list(num)
    q = [0] * (len(num) - len(den) + 1)
    for i in range(len(q) - 1, -1, -1):
        c = num[i + len(den) - 1]
        if c % den[-1] != 0:
            raise ValueError("non-exact division")
        q[i] = c // den[-1]
        for j, dj in enumerate(den):
            num[i + j] -= q[i] * dj
    return q, num


def naive_cyclotomic(m: int) -> list[int]:
    poly = [-1] + [0] * (m - 1) + [1]  # x^m - 1
    for d in range(1, m):
        if m % d == 0:
            q, r = poly_divmod(poly, naive_cyclotomic(d))
            assert not any(r)
            poly = q
    return poly


def class_div_binomial(p: list[int], e: int) -> list[int]:
    # exact quotient p / (x^e - 1), one running prefix sum of -p per
    # residue class mod e, as cyclo._div_binomial divided before it ran the
    # recurrence a block of e at a time
    nq = len(p) - e
    q = [0] * nq
    for r in range(e):
        acc = list(itertools.accumulate(p[r::e]))
        cut = len(range(r, nq, e))
        q[r::e] = [-a for a in acc[:cut]]
        if any(acc[cut:]):
            raise IntegrityError("inexact polynomial division by x^%d - 1" % e)
    return q


def poly_eval(p, x):
    total = 0
    for c in reversed(p):
        total = total * x + c
    return total


# -- GF(2) polynomials as bit lists (constant term first) ----------------------


def gf2_trim(p):
    p = list(p)
    while p and not p[-1]:
        p.pop()
    return p


def gf2_mul(a, b):
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] ^= y
    return gf2_trim(out)


def gf2_divmod(num, den):
    """Quotient and remainder over GF(2); den must be nonzero."""
    num, den = gf2_trim(num), gf2_trim(den)
    q = [0] * max(len(num) - len(den) + 1, 0)
    for i in range(len(q) - 1, -1, -1):
        if num[i + len(den) - 1]:
            q[i] = 1
            for j, dj in enumerate(den):
                num[i + j] ^= dj
    return gf2_trim(q), gf2_trim(num)


@cache
def phi_mod2(s: int) -> tuple[int, ...]:
    return tuple(c & 1 for c in naive_cyclotomic(s))


def gf2_multiplicity(coeffs, s: int, shift: int = 0) -> int:
    """Multiplicity of Phi_s mod 2 in the GF(2) polynomial whose
    coefficients are the bits (c >> shift) & 1, by dividing while the
    remainder is zero (ValueError for the zero polynomial)."""
    poly = gf2_trim([(c >> shift) & 1 for c in coeffs])
    if not poly:
        raise ValueError("residue mod 2 is zero")
    phi = phi_mod2(s)
    mult = 0
    while True:
        q, r = gf2_divmod(poly, phi)
        if r:
            return mult
        poly, mult = q, mult + 1


# -- integer linear-solve divisibility oracle ------------------------------------


def divides_oracle(y: CycInt, x: CycInt) -> bool:
    """Solve x = y * z in the power basis; check z is integral.

    Integer-only: fraction-free (Bareiss) elimination brings the augmented
    system [M | x], M the multiplication-by-y matrix, to upper-triangular
    form, where every division by the previous pivot is exact; then back
    substitution solves for z from the last coordinate up, and z is
    integral iff every division by a diagonal entry along the way is exact
    (the coordinates already found are integers by then).
    """
    ctx = y.ctx
    d = ctx.degree
    cols = [y.times_zeta(j).coeffs for j in range(d)]
    rows = [[cols[j][i] for j in range(d)] + [x.coeffs[i]] for i in range(d)]
    prev = 1
    for k in range(d):
        piv = next((r for r in range(k, d) if rows[r][k]), None)
        if piv is None:
            raise ValueError("multiplication-by-y matrix is singular")
        rows[k], rows[piv] = rows[piv], rows[k]
        pk = rows[k][k]
        for r in range(k + 1, d):
            f = rows[r][k]
            rows[r] = [0] * (k + 1) + [(pk * a - f * b) // prev for a, b in
                                       zip(rows[r][k + 1:], rows[k][k + 1:])]
        prev = pk
    z = [0] * d
    for i in range(d - 1, -1, -1):
        rest = rows[i][d] - sum(rows[i][j] * z[j] for j in range(i + 1, d))
        q, rem = divmod(rest, rows[i][i])
        if rem:
            return False
        z[i] = q
    return True


# -- dense-row arithmetic, norm valuation, beta-divisibility chain --------------


@cache
def zeta_rows(n: int) -> tuple[tuple[int, ...], ...]:
    """zeta_2n^e in the power basis for e in [0, 2n): the remainder of x^e
    divided by the naive Phi_2n, each the remainder of x times the last."""
    phi = naive_cyclotomic(2 * n)
    d = len(phi) - 1
    rows = [(1,) + (0,) * (d - 1)]
    for _ in range(2 * n - 1):
        rows.append(tuple(poly_divmod((0,) + rows[-1], phi)[1][:d]))
    return tuple(rows)


def rows_lane_head(n: int) -> int:
    """Context.lane_head from the dense rows of zeta^(w B), w = 2^k,
    phi(2n) <= w B < n: 2 plus the bit length of the largest column sum of
    their absolute values."""
    rows = zeta_rows(n)
    d, w = len(rows[0]), n & -n
    return 2 + max(sum(abs(rows[e][j]) for e in range(d, n, w)) for j in range(d)).bit_length()


def zeta_cyc(ctx, e: int) -> CycInt:
    return CycInt(ctx, zeta_rows(ctx.n)[e % ctx.order])


def zeta_elem(ctx, e: int) -> RingElem:
    return RingElem(zeta_cyc(ctx, e), 0)


def dense_mul(a: CycInt, b: CycInt) -> CycInt:
    """Schoolbook product reduced by scanning the dense rows of zeta^e."""
    ctx = a.ctx
    d = ctx.degree
    conv = [0] * (2 * d - 1)
    for i, ai in enumerate(a.coeffs):
        for j, bj in enumerate(b.coeffs):
            conv[i + j] += ai * bj
    out = conv[:d]
    for e in range(d, 2 * d - 1):
        for j, rj in enumerate(zeta_rows(ctx.n)[e]):
            out[j] += conv[e] * rj
    return CycInt(ctx, tuple(out))


def _dense_scatter(x: CycInt, exponent_of) -> CycInt:
    ctx = x.ctx
    out = [0] * ctx.degree
    for i, c in enumerate(x.coeffs):
        for t, rt in enumerate(zeta_rows(ctx.n)[exponent_of(i) % ctx.order]):
            out[t] += c * rt
    return CycInt(ctx, tuple(out))


def dense_times_zeta(x: CycInt, j: int) -> CycInt:
    return _dense_scatter(x, lambda i: i + j)


def dense_galois(x: CycInt, t: int) -> CycInt:
    return _dense_scatter(x, lambda i: i * t)


def halving_normalize(num: CycInt, m: int) -> tuple[CycInt, int]:
    """(num, m) of num / 2^m in lowest terms (m = 0 for zero), halving one
    power of 2 at a time while every coefficient is even."""
    if num.is_zero():
        return num, 0
    while m > 0 and all(c % 2 == 0 for c in num.coeffs):
        num = CycInt(num.ctx, tuple(c // 2 for c in num.coeffs))
        m -= 1
    return num, m


def mult_order_two(s: int) -> int:
    """Multiplicative order of 2 modulo odd s (1 when s = 1)."""
    t, v = 1, 2 % s
    while s > 1 and v != 1:
        v = (v * 2) % s
        t += 1
    return t


def norm_valuation(x: CycInt):
    """v_2(|norm x|) / f, f the residue degree; exact when the prime above 2
    is unique.  The norm is built with the dense-row arithmetic."""
    ctx = x.ctx
    if x.is_zero():
        return math.inf
    acc = x
    for t in ctx.galois_exponents[1:]:
        acc = dense_mul(acc, dense_galois(x, t))
    norm = acc.coeffs[0]
    assert norm and not any(acc.coeffs[1:])
    v2 = (norm & -norm).bit_length() - 1
    f = mult_order_two(ctx.s)
    assert v2 % f == 0
    return v2 // f


@cache
def _conjugates_and_norm(beta: CycInt) -> tuple[CycInt, int]:
    # the product gamma of the nontrivial conjugates of beta, and the
    # rational norm beta gamma
    gamma = beta.ctx.one()
    for t in beta.ctx.galois_exponents[1:]:
        gamma = gamma * beta.galois(t)
    return gamma, (beta * gamma).as_int()


def chain_beta_exponent(x: RingElem, beta: CycInt) -> int:
    """Denominator exponent m 2^(k-1) - t of a normalized x = num / 2^m,
    clamped at 0, with t the largest power of beta dividing num, found by
    dividing by beta while possible: multiply by the product gamma of the
    nontrivial conjugates of beta, then divide by the rational norm.  Uses
    the library product, which dense_mul checks independently."""
    ctx = x.ctx
    num = x.num
    assert not num.is_zero()
    gamma, bnorm = _conjugates_and_norm(beta)
    t = 0
    while True:
        prod = num * gamma
        if any(c % bnorm for c in prod.coeffs):
            break
        num = CycInt(ctx, tuple(c // bnorm for c in prod.coeffs))
        t += 1
    return max(x.m * (1 << (ctx.k - 1)) - t, 0)


# -- gates from explicit entries, words and Bloch images by general products ----


@cache
def matrix_h0(ctx) -> UnitaryRn:
    """(1/2) [[1+i, 1+i], [1+i, -1-i]]."""
    hp = RingElem(ctx.one() + zeta_cyc(ctx, ctx.n // 2), 1)
    return UnitaryRn(ctx, ((hp, hp), (hp, -hp)))


@cache
def matrix_uz(ctx, a: int) -> UnitaryRn:
    """diag(1, zeta^a); S is a = n/2 and W^j is a = j."""
    one, zero = RingElem.one(ctx), RingElem.zero(ctx)
    return UnitaryRn(ctx, ((one, zero), (zero, zeta_elem(ctx, a))))


@cache
def matrix_scalar(ctx, a: int) -> UnitaryRn:
    """zeta^a I."""
    lam, zero = zeta_elem(ctx, a), RingElem.zero(ctx)
    return UnitaryRn(ctx, ((lam, zero), (zero, lam)))


@cache
def matrix_pauli(ctx, p: str) -> UnitaryRn:
    """X, Y = [[0, -i], [i, 0]] or Z, entry by entry."""
    one, zero = RingElem.one(ctx), RingElem.zero(ctx)
    i_val = zeta_elem(ctx, ctx.n // 2)
    if p == "x":
        return UnitaryRn(ctx, ((zero, one), (one, zero)))
    if p == "y":
        return UnitaryRn(ctx, ((zero, -i_val), (i_val, zero)))
    return UnitaryRn(ctx, ((one, zero), (zero, -one)))


@cache
def matrix_u_axis(ctx, p: str, sign: int, a: int) -> UnitaryRn:
    """((1 + zeta^a)/2) I + sign ((1 - zeta^a)/2) P, entry by entry."""
    za = zeta_cyc(ctx, a)
    h = RingElem(ctx.one() + za, 1)
    g = RingElem(ctx.one() - za, 1)
    if sign < 0:
        g = -g
    pm = matrix_pauli(ctx, p)
    one, zero = RingElem.one(ctx), RingElem.zero(ctx)
    ident = ((one, zero), (zero, one))
    return UnitaryRn(ctx, [[h * ident[r][c] + g * pm.rows[r][c] for c in range(2)]
                           for r in range(2)])


def lane_settle(lanes, x: int, y: int, m: int):
    """(lanes, x, y, m) for the numerators x / 2^m, y / 2^m of one line
    after a gate, as Lanes.settle did before the column step ran on the
    pair layout: folded, with every power of 2 both share taken off (at
    most m), at this width, or at double the width when a lane has left
    the headroom.  Within it every lane of x + room lies in
    [0, 2^(f + 1)), so a bit in roomy_top shows a lane outside, and
    otherwise the low bits are the lanes'."""
    x, y = lanes.fold(x), lanes.fold(y)
    v = (x + lanes.room) | (y + lanes.room)
    if v & lanes.roomy_top:
        wide = lanes.ctx.lanes(2 * lanes.width)
        return lane_settle(wide, *wide.relane(lanes, x, y), m)
    if v & lanes.ones or not m:
        return lanes, x, y, m
    t = lanes.twos(v, m)
    return lanes, x >> t, y >> t, m - t


def lane_column_step(lanes, px: int, py: int, m: int, k: int):
    """(lanes, px, py, m) of the column H0 U_z(pi k / n) (x, y)^T, as
    ColumnRn.apply_step built it on single-line lanes before it ran
    through the gate kernel: with s and d the lanes of x + zeta^k y and
    x - zeta^k y over 2^m, (s + zeta^(n/2) s, d + zeta^(n/2) d) / 2^(m+1),
    settled (lane_settle)."""
    zeta, half = lanes.zeta, lanes.ctx.n // 2
    yk = zeta(py, k)
    s, d = px + yk, px - yk
    return lane_settle(lanes, s + zeta(s, half), d + zeta(d, half), m + 1)


def lane_apply_line(a: RingElem, b: RingElem, gates, left: bool = False):
    """One line of su2.apply_gates, as the kernel ran before it took both
    lines through a word in one pass: (a, b) G_1 ... G_t as a row, or
    G_t ... G_1 (a, b)^T as a column, the numerators over their own common
    2^m as single-line lanes (Lanes.zeta, lane_settle)."""
    ctx = a.num.ctx
    m, vecs = _common_numerators((a, b))
    lanes, x, y = ctx.lanes().load(*vecs)
    half = ctx.n // 2
    conj = -half if left else half
    for kind, e in gates:
        zeta = lanes.zeta
        if kind == "z":
            y = zeta(y, e)
            continue
        if kind == "ph":
            x, y = zeta(x, e), zeta(y, e)
            continue
        if kind == "h":
            s, d = x + y, x - y
            x, y = s + zeta(s, half), d + zeta(d, half)
        elif kind == "x" or kind == "y":
            if kind == "y":
                y = zeta(y, conj)
            s, d = x + y, zeta(x - y, e)
            x, y = s + d, s - d
            if kind == "y":
                y = zeta(y, -conj)
        else:
            raise ValueError("unknown gate %r" % (kind,))
        lanes, x, y, m = lane_settle(lanes, x, y, m + 1)
    x, y = lanes.unpack(lanes.fold(x)), lanes.unpack(lanes.fold(y))
    return RingElem(CycInt(ctx, x), m), RingElem(CycInt(ctx, y), m)


def reference_apply_line(a: RingElem, b: RingElem, gates, left: bool = False):
    """One line of su2.apply_gates on CycInt numerators: (a, b) G_1 ... G_t
    as a row, or G_t ... G_1 (a, b)^T as a column, each gate by times_zeta
    shifts and CycInt adds, each bump followed by one halving of the shared
    power of 2."""
    x, y, m = over_common(a, b)
    half = x.ctx.n // 2
    conj = -half if left else half
    for kind, e in gates:
        if kind == "z":
            y = y.times_zeta(e)
            continue
        if kind == "ph":
            x, y = x.times_zeta(e), y.times_zeta(e)
            continue
        if kind == "h":
            s, d = x + y, x - y
            x, y = s + s.times_zeta(half), d + d.times_zeta(half)
        elif kind == "x" or kind == "y":
            if kind == "y":
                y = y.times_zeta(conj)
            s, d = x + y, (x - y).times_zeta(e)
            x, y = s + d, s - d
            if kind == "y":
                y = y.times_zeta(-conj)
        else:
            raise ValueError("unknown gate %r" % (kind,))
        m += 1
        bits = reduce(or_, x.coeffs, 0) | reduce(or_, y.coeffs, 0)
        t = min(m, two_adic(bits)) if bits else m
        if t:
            x = CycInt(x.ctx, tuple(c >> t for c in x.coeffs))
            y = CycInt(y.ctx, tuple(c >> t for c in y.coeffs))
            m -= t
    return RingElem(x, m), RingElem(y, m)


def product_eval_sequence(seq: GateSequence, ctx) -> UnitaryRn:
    """zeta^phase I times one general 2x2 product per token, left to right."""
    acc = matrix_scalar(ctx, seq.phase_power)
    for tok in seq.tokens:
        if tok == "H":
            acc = acc @ matrix_h0(ctx)
        elif tok == "S":
            acc = acc @ matrix_uz(ctx, ctx.n // 2)
        else:
            j = w_exponent(tok)
            if j is None:
                raise ValueError("unknown circuit token %r" % tok)
            acc = acc @ matrix_uz(ctx, j)
    return acc


def product_bloch(u: UnitaryRn) -> Rotation:
    """Column j expands U P_j U^dagger over the Paulis, from six 2x2
    products; the Rotation constructor checks SO(3)."""
    ctx = u.ctx
    ud = u.dagger()
    i_val = zeta_elem(ctx, ctx.n // 2)
    cols = []
    for p in AXES:
        (a00, a01), (a10, a11) = ((u @ matrix_pauli(ctx, p)) @ ud).rows
        cols.append(((a01 + a10).half(), (i_val * (a01 - a10)).half(),
                     (a00 - a11).half()))
    return Rotation(ctx, [[cols[j][i] for j in range(3)] for i in range(3)])


def entry_product_bloch(u: UnitaryRn) -> Rotation:
    """bloch() as it was before it ran on lanes: for s, t = a d* +- b c*
    and r = a b* - c d*, the rows (Re s, Im t, 2 Re a c*), (-Im s, Re t,
    -2 Im a c*), (Re r, Im r, |a|^2 - |c|^2) from 7 CycInt entry products;
    not checked."""
    (a, b), (c, d) = u.rows
    inv_i = -(u.ctx.n // 2)  # 1/i = zeta^(-n/2)

    def re(w):
        return (w + w.conj()).half()

    def im(w):
        return (w - w.conj()).times_zeta(inv_i).half()

    ad, bc, ac = a * d.conj(), b * c.conj(), a * c.conj()
    s, t = ad + bc, ad - bc
    r = a * b.conj() - c * d.conj()
    rows = (
        (re(s), im(t), re(ac + ac)),
        (-im(s), re(t), -im(ac + ac)),
        (re(r), im(r), a.abs2() - c.abs2()),
    )
    return Rotation(u.ctx, rows, check=False)


def over_common(a: RingElem, b: RingElem) -> tuple[CycInt, CycInt, int]:
    """Numerators of a and b over their common denominator 2^m, and m, as
    CycInts, each scaled by its own shift (RingElem.__add__ before it read
    rings._common_numerators)."""
    m = max(a.m, b.m)
    x, y = a.num, b.num
    if a.m < m:
        x = CycInt(x.ctx, tuple(c << (m - a.m) for c in x.coeffs))
    if b.m < m:
        y = CycInt(y.ctx, tuple(c << (m - b.m) for c in y.coeffs))
    return x, y, m


def cycint_is_unitary(u: UnitaryRn) -> bool:
    """UnitaryRn's check on CycInt products: |a|^2 + |b|^2 = 1,
    |c|^2 + |d|^2 = 1 and a c* + b d* = 0."""
    (a, b), (c, d) = u.rows
    one = RingElem.one(u.ctx)
    return (a.abs2() + b.abs2() == one and c.abs2() + d.abs2() == one
            and (a * c.conj() + b * d.conj()).is_zero())


def cycint_is_unit_sum(elems) -> bool:
    """|x_1|^2 + ... + |x_r|^2 = 1 on CycInt products: the check of
    ColumnRn (r = 2) and of equal_up_to_phase's scalar (r = 1)."""
    total = elems[0].abs2()
    for x in elems[1:]:
        total = total + x.abs2()
    return total == RingElem.one(elems[0].ctx)


@cache
def product_generator(ctx, p: str, a: int) -> Rotation:
    """product_bloch of the expanded U_p(a pi/n): the rotation table entry."""
    return product_bloch(matrix_u_axis(ctx, p, 1, a % ctx.order))


# -- reference rewriting pass -----------------------------------------------------


@cache
def clifford_words(ctx) -> dict:
    """Bloch image -> lexicographically first shortest {H, S} word (H before
    S), for the 24 Cliffords, from words evaluated by general products."""
    found = {}
    for length in itertools.count():
        for word in itertools.product("HS", repeat=length):
            u = product_eval_sequence(GateSequence(0, word), ctx)
            found.setdefault(product_bloch(u), word)
        if len(found) == 24:
            return found


def reference_canonicalize(seq: GateSequence, ctx) -> CanonicalForm:
    """The rewriting pass with its own phase bookkeeping, on explicit
    matrices.  The pending Clifford K_t ... K_1 g_1 ... g_s, with quarter
    turns K absorbed from the factor side and H, S tokens g from the
    right, is one unitary kept by general products; a W block's axis is
    the image of Z under it (product_bloch); a sign is removed by
    U_{-p}(a) = zeta^a U_p(2n - a), zeta^a joining the global phase; and
    the form's phase is read by stripping the residual's word off zeta^phase
    times the pending Clifford."""
    half, order = ctx.n // 2, ctx.order
    pend = matrix_scalar(ctx, 0)
    phase = seq.phase_power
    factors = []

    def absorb_left(p, quarters):
        nonlocal pend
        if quarters % 4:
            pend = matrix_u_axis(ctx, p, 1, quarters * half % order) @ pend

    for tok in seq.tokens:
        if tok in ("H", "S"):
            pend = pend @ (matrix_h0(ctx) if tok == "H" else matrix_uz(ctx, half))
            continue
        a = w_exponent(tok)
        z_image = [row[2].as_int() for row in product_bloch(pend).rows]
        i = next(i for i, v in enumerate(z_image) if v in (1, -1))
        p = AXES[i]
        if z_image[i] < 0:
            phase += a
            a = order - a
        quarters, a = divmod(a, half)
        absorb_left(p, quarters)
        if a and factors and factors[-1][0] == p:
            quarters, a = divmod(factors.pop()[1] + a, half)
            absorb_left(p, quarters)
        if a:
            factors.append((p, a))
    rot = product_bloch(pend)
    word = clifford_words(ctx)[rot]
    rest = (product_eval_sequence(GateSequence(0, word), ctx).dagger()
            @ matrix_scalar(ctx, phase % order) @ pend)
    j = next(j for j in range(order) if rest == matrix_scalar(ctx, j))
    return CanonicalForm(ctx.n, tuple(p for p, _ in factors), tuple(a for _, a in factors),
                         CliffordRot(rot, word), j)


def reference_clifford_moves(ctx, group) -> dict:
    """The rewriting pass's table over indices into group, from Rotation
    products, as the pass computed them before it kept an index: C_i times
    product_bloch of H0 or S on the right, product_generator of the quarter
    turn U_p(q pi/2) on the left, and Z's image read off the third column."""
    index = {c.rotation: i for i, c in enumerate(group)}
    gates = {"H": product_bloch(matrix_h0(ctx)), "S": product_bloch(matrix_uz(ctx, ctx.n // 2))}
    moves = {t: [index[c.rotation @ g] for c in group] for t, g in gates.items()}
    for p in AXES:
        for q in (1, 2, 3):
            turn = product_generator(ctx, p, q * (ctx.n // 2))
            moves[p, q] = [index[turn @ c.rotation] for c in group]
    moves["z"] = []
    for c in group:
        col = [row[2].as_int() for row in c.rotation.rows]
        i = next(i for i, v in enumerate(col) if v in (1, -1))
        moves["z"].append((AXES[i], col[i]))
    return moves


# -- reference column reduction ----------------------------------------------------


def reference_first_reducing_k(ctx, x: CycInt, y: CycInt, m: int, m0: int):
    """The column-step scoring on CycInt: for a column (x, y) / 2^m, each
    k in 1..2n scored as (m + 1) v(2) - mu_threshold - min(v(x + zeta^k y),
    v(x - zeta^k y)) by CycInt valuations; (k, score) for the first k
    scored below m0, or None."""
    base = (m + 1) * ctx.ram_index - (ctx.one() + ctx.zeta(ctx.n // 2)).valuation()
    for k in range(1, ctx.order + 1):
        yk = y.times_zeta(k)
        score = base - min((x + yk).valuation(), (x - yk).valuation())
        if score < m0:
            return k, score
    return None


def reference_reduce_column_step(col):
    """(k, column) of the smallest k whose step H0 U_z(pi k/n), applied by a
    general product with the explicit matrices, lowers the column's measure;
    every k up to the winner is built in full and measured."""
    ctx = col.ctx
    m0 = mu(col.x, col.y)
    for k in range(1, ctx.order + 1):
        (a, b), (c, d) = (matrix_h0(ctx) @ matrix_uz(ctx, k % ctx.order)).rows
        x, y = a * col.x + b * col.y, c * col.x + d * col.y
        if mu(x, y) < m0:
            return k, ColumnRn(x, y)
    raise AssertionError("no phase reduces the column measure")


def reference_column_steps(u) -> list:
    """[(k, x, y), ...]: the reduction of u's first column by the loop
    synthesize_ring ran before it carried its column on lanes: each column
    a pair of RingElems, each k scored on CycInt valuations
    (reference_first_reducing_k) over the pair's common 2^m, the winner
    built by the gate kernel on CycInt numerators (reference_apply_line)
    and measured by two valuations (rings.mu), which must be the score."""
    ctx = u.ctx
    threshold = (ctx.one() + ctx.zeta(ctx.n // 2)).valuation()
    x, y = u.first_column()
    m0, steps = mu(x, y), []
    while m0 > threshold:
        k, score = reference_first_reducing_k(ctx, *over_common(x, y), m0)
        x, y = reference_apply_line(x, y, (("z", k), ("h", 0)), left=True)
        m0 = mu(x, y)
        assert m0 == score
        steps.append((k, x, y))
    return steps


def reference_synthesize_ring(u) -> GateSequence:
    """synthesize_ring over reference_column_steps: the words
    G_i^dagger = W^(2n - k_i) H of the steps, the base-case word of the
    last column, and the trailing W^j that completes their product,
    evaluated by general products, to u (complete_unitary)."""
    ctx = u.ctx
    n, order = ctx.n, ctx.order
    steps = reference_column_steps(u)
    _, v_seq = base_case_column(ColumnRn(*(steps[-1][1:] if steps else u.first_column())))
    tokens = []
    for k, _, _ in steps:
        tokens += [token_w(order - k), "H"]
    tokens += v_seq.tokens
    phase = (v_seq.phase_power - len(steps) * (n // 2)) % order
    j = complete_unitary(u, product_eval_sequence(GateSequence(phase, tuple(tokens)), ctx))
    return GateSequence(phase, tuple(tokens) + ((token_w(j),) if j else ()))


# -- dense descent scan ----------------------------------------------------------


def dense_candidate_entries(m, qi: int, b: int) -> list:
    """Entries (i1, j), (i2, j), j = 0, 1, 2, of R_q^(-b) M (i1 < i2 the rows
    other than qi), as generator products c11 r1 + c12 r2, c21 r1 + c22 r2."""
    ctx = m.ctx
    i1, i2 = [i for i in range(3) if i != qi]
    rot = product_generator(ctx, AXES[qi], ctx.order - b)
    c11, c12 = rot.rows[i1][i1], rot.rows[i1][i2]
    c21, c22 = rot.rows[i2][i1], rot.rows[i2][i2]
    rows = m.rows
    out = []
    for j in range(3):
        out.append(c11 * rows[i1][j] + c12 * rows[i2][j])
        out.append(c21 * rows[i1][j] + c22 * rows[i2][j])
    return out


def reference_exponent_profile(m):
    """(max, per-row maxes) of the exponents of the nonzero entries, each
    read off its RingElem (0 for a row of zeros)."""
    row_max = tuple(max([_beta_exp_r(e) for e in row if not e.is_zero()], default=0)
                    for row in m.rows)
    return max(row_max), row_max


def reference_rotate(m, qi: int, b: int) -> Rotation:
    """R_q^(-b) M for q = AXES[qi], rows i1 < i2 other than qi: with
    shift = sigma_q n/2 and the pencil Z_j = r1_j - i sigma_q r2_j over a
    common 2^M, entry (i1, j) is Re(zeta^b Z_j) and entry (i2, j) is
    Re(zeta^(b + shift) Z_j), each built as (zeta^c Z_j + zeta^-c conj(Z_j))
    / 2^(M+1)."""
    i1, i2 = [i for i in range(3) if i != qi]
    shift = (1, -1, 1)[qi] * (m.ctx.n // 2)
    rows = list(m.rows)
    rows[i1], rows[i2] = [], []
    for a, c in zip(m.rows[i1], m.rows[i2]):
        x, y, top = over_common(a, c)
        y = y.times_zeta(shift)
        z, zbar = x - y, x + y
        for i, e in ((i1, b), (i2, b + shift)):
            rows[i].append(RingElem(z.times_zeta(e) + zbar.times_zeta(-e), top + 1))
    return Rotation(m.ctx, rows, check=False)


def reference_axis_pencils(rows, qi: int):
    """shift = sigma_q n/2 (zeta^shift = i sigma_q) and, per column j, the
    numerators of Z_j = r1_j - i sigma_q r2_j and conj(Z_j) over a common
    2^M, with M + 1, as CycInt; r1, r2 are the rows other than qi."""
    r1, r2 = [rows[i] for i in range(3) if i != qi]
    shift = (1, -1, 1)[qi] * (r1[0].ctx.n // 2)
    pencils = []
    for a, b in zip(r1, r2):
        x, y, top = over_common(a, b)
        y = y.times_zeta(shift)
        pencils.append((x - y, x + y, top + 1))
    return shift, pencils


def reference_pencil_entry(pencil, c: int) -> RingElem:
    """Re(zeta^c Z) = (zeta^c Z + zeta^-c conj(Z)) / 2^(M+1) on CycInt."""
    z, zbar, m = pencil
    return RingElem(z.times_zeta(c) + zbar.times_zeta(-c), m)


def eager_step_rows(rows, qi: int, step):
    """The matrix of step = R_q^(-b) M as the descent's rotation built it,
    before the matrix was unpacked only when read: row qi of M's rows
    carried as it is, and each entry of the other two rows unpacked from
    the step's lane entries into a RingElem."""
    lanes = step.lanes
    return tuple(rows[i] if i == qi else
                 tuple(RingElem(CycInt(lanes.ctx, lanes.unpack(p)), m) for p, m in step.ent[i])
                 for i in range(3))


def dense_axis_detect(m):
    """axis_detect by the dense scan: every candidate from generator
    products, scored exactly without pruning; same result and errors."""
    cur_max, row_max = reference_exponent_profile(m)
    scores = {}
    for qi, q in enumerate(AXES):
        for b in range(1, m.ctx.n // 2):
            exps = [_beta_exp_r(e)
                    for e in dense_candidate_entries(m, qi, b) if not e.is_zero()]
            scores[(q, b)] = max([row_max[qi]] + exps)
    best = min(scores.values())
    if best >= cur_max:
        raise NotReducibleError("no candidate strictly reduces the exponent")
    winners = [key for key, val in scores.items() if val == best]
    if len(winners) > 1:
        raise NotReducibleError("minimal candidate is not unique")
    return winners[0]


def uncapped_axis_detect(m):
    """axis_detect with its bar at math.inf, as before it started below the
    current max: every axis whose kept row does not exceed the best seen is
    scanned (_PlaneScan), its first candidate scored with no cutoff, and a
    best at or above the current max rejected only at the end; same result
    and errors.  The step keeps no scan."""
    half = m.ctx.n // 2
    if half < 2:
        raise NotReducibleError("no rotation candidates exist for n = 2")
    st = _as_step(m)
    row_max = st.row_max
    best, best_val, tie = None, math.inf, False
    for qi in sorted(range(3), key=lambda i: (row_max[i], i)):
        floor = row_max[qi]
        if floor > best_val:
            continue
        scan = _PlaneScan(st, qi)
        for b in range(1, half):
            val = scan.score(b, floor, best_val)
            if val is None:
                continue
            if val < best_val:
                best, best_val, tie = (AXES[qi], b), val, False
            elif val == best_val:
                tie = True
    if best is None or best_val >= max(row_max):
        raise NotReducibleError("no candidate strictly reduces the exponent")
    if tie:
        raise NotReducibleError("minimal candidate is not unique")
    return best


def plane_axis_detect(m):
    """axis_detect as before the axes up to n = 16 were built rather than
    scanned, and before its bar started at the smallest row max: every
    candidate, at every n, scored on the planes of its axis's scan
    (_PlaneScan.score) in one pass against one bar, one below the
    current max, then the best seen; same result and errors.  The step
    keeps no scan."""
    half = m.ctx.n // 2
    if half < 2:
        raise NotReducibleError("no rotation candidates exist for n = 2")
    st = _as_step(m)
    row_max = st.row_max
    best, best_val, tie = None, max(row_max) - 1, False
    for qi in sorted(range(3), key=lambda i: (row_max[i], i)):
        floor = row_max[qi]
        if floor > best_val:
            continue
        scan = _PlaneScan(st, qi)
        for b in range(1, half):
            val = scan.score(b, floor, best_val)
            if val is None:
                continue
            if best is None or val < best_val:
                best, best_val, tie = (AXES[qi], b), val, False
            elif val == best_val:
                tie = True
    if best is None:
        raise NotReducibleError("no candidate strictly reduces the exponent")
    if tie:
        raise NotReducibleError("minimal candidate is not unique")
    return best


def checked_descent(m):
    """canonical_form's descent of the Bloch matrix m, as before it stopped
    at its first winner: each step's (axis, b) from plane_axis_detect,
    which scores every candidate at or under its one bar and raises on a
    tie, and a stuck step's error named by its step and max exponent, with
    step and row_max as attributes.  Returns (axes, exponents, residual)
    of a descent that reaches a Clifford."""
    st = _as_step(m)
    axes, exps = [], []
    while True:
        residual = is_signed_permutation(st)
        if residual is not None:
            return axes, exps, residual
        try:
            q, b = plane_axis_detect(st)
            if axes and axes[-1] == q:
                raise NotReducibleError("descent produced adjacent repeated axes")
        except NotReducibleError as exc:
            raise NotReducibleError("step %d (max exponent %d): %s"
                                    % (len(axes), max(st.row_max), exc),
                                    step=len(axes), row_max=st.row_max) from None
        axes.append(q)
        exps.append(b)
        st = st.rotated(AXES.index(q), b)


def per_column_scan_planes(scan):
    """(zh, zl, wh, wl, mask, entries) of a synth._PlaneScan built column
    by column from its pencils, as before the scan packed them: per pencil
    and side, one plane read of its n lanes (Lanes.planes), its negacyclic
    extension E_(-2n), ..., E_(2n-1) and, for entry e = 2j + r at bit
    2n e, the window of E_(i - half - s) (Z side) or E_(i - half + s)
    (conj side), s = 0 for r = 0 and the scan's shift for r = 1."""
    ctx, lanes, shift = scan.ctx, scan.lanes, scan.shift
    n = ctx.n
    half, full, seg = n // 2, (1 << n) - 1, (1 << (2 * n)) - 1
    rep = 1 | (1 << (2 * n))

    def extension(h, l):
        return (h | (h ^ l) << n) * rep, (l | l << n) * rep

    zh = zl = wh = wl = mask = 0
    entries = []
    for j, (z, zbar, m) in enumerate(scan.pencils):
        ezh, ezl = extension(*lanes.planes(z))
        ewh, ewl = extension(*lanes.planes(zbar))
        bounds = tuple(_exp_bounds(ctx, m - t) for t in range(3))
        for r, s in enumerate((0, shift)):
            e = 2 * j + r
            off = 2 * n * e
            a, c = 2 * n - half - s, 2 * n - half + s
            zh |= ((ezh >> a) & seg) << off
            zl |= ((ezl >> a) & seg) << off
            wh |= ((ewh >> c) & seg) << off
            wl |= ((ewl >> c) & seg) << off
            mask |= full << off
            entries.append((off, m, e, bounds))
    entries.sort(key=lambda item: -item[1])
    return zh, zl, wh, wl, mask, entries


def tuple_conj(lanes, p: int) -> int:
    """cyclo.Lanes.conj as before it reversed the lanes in their bytes:
    the phi(2n) lanes of folded p unpacked into a tuple, reversed, packed
    again, and times -zeta^(n - phi(2n) + 1)."""
    ctx = lanes.ctx
    return -lanes.zeta(lanes.pack(lanes.unpack(p)[::-1]), ctx.n - ctx.degree + 1)


def tuple_relane(src, dst, p: int) -> int:
    """cyclo.Lanes.relane of one int, as every width change was written
    before it: the folded lanes p of src unpacked into a coefficient tuple
    and packed at dst's width."""
    return dst.pack(src.unpack(p))


def lane_values(p: int, width: int, count: int) -> list[int]:
    """The lowest count balanced width-bit lanes of the int p, lane 0
    first, peeled off one at a time."""
    out, top = [], 1 << width
    for _ in range(count):
        c = p & (top - 1)
        if c >= top >> 1:
            c -= top
        out.append(c)
        p = (p - c) >> width
    return out


@cache
def _cyclotomic(m: int) -> tuple[int, ...]:
    return tuple(naive_cyclotomic(m))


def reference_scan_residues(scan, b: int) -> tuple[int, int]:
    """(high, low) planes of candidate b's six numerators mod 4 from the
    scan's pencils peeled into integer lanes (lane_values): entry
    e = 2j + r, c = b + r shift, is zeta^c Z_j + zeta^-c conj(Z_j) on n
    integer lanes (x^n = -1), reduced mod Phi_2n by long division
    (naive_cyclotomic), its coefficients at bits 2n e, ..., 2n e + n - 1."""
    n, width = scan.ctx.n, scan.lanes.width
    phi = _cyclotomic(2 * n)
    d = len(phi) - 1

    def times_zeta(v, c):
        out = [0] * n
        for i, x in enumerate(v):
            wraps, k = divmod(i + c, n)
            out[k] = -x if wraps & 1 else x
        return out

    h = l = 0
    for e in range(6):
        z, zbar, _ = scan.pencils[e >> 1]
        c = b + (scan.shift if e & 1 else 0)
        num = [x + y for x, y in zip(times_zeta(lane_values(z, width, n), c),
                                     times_zeta(lane_values(zbar, width, n), -c))]
        for i in range(n - 1, d - 1, -1):
            q = num[i]
            for k, pk in enumerate(phi):
                num[i - d + k] -= q * pk
        for i, x in enumerate(num):
            h |= (x >> 1 & 1) << (2 * n * e + i)
            l |= (x & 1) << (2 * n * e + i)
    return h, l


# -- numeric embedding ----------------------------------------------------------


def cyc_complex(x: CycInt) -> complex:
    zeta = cmath.exp(1j * cmath.pi / x.ctx.n)
    return sum(c * zeta**j for j, c in enumerate(x.coeffs))


def ring_complex(x: RingElem) -> complex:
    return cyc_complex(x.num) / 2**x.m


def unitary_complex(u: UnitaryRn):
    return [[ring_complex(e) for e in row] for row in u.rows]


# -- random inputs ---------------------------------------------------------------


def random_cycint(ctx, rng: random.Random, bound: int = 9) -> CycInt:
    return CycInt(ctx, tuple(rng.randint(-bound, bound) for _ in range(ctx.degree)))


def random_ring_elem(ctx, rng: random.Random, bound: int = 9, max_denom: int = 4) -> RingElem:
    return RingElem(random_cycint(ctx, rng, bound), rng.randint(0, max_denom))


def random_gate_tokens(ctx, rng: random.Random, length: int) -> tuple[str, ...]:
    toks = []
    for _ in range(length):
        pick = rng.choice(("H", "S", "W", "Wj"))
        if pick == "Wj":
            j = rng.randint(1, ctx.order - 1)
            toks.append("W" if j == 1 else "W^%d" % j)
        else:
            toks.append("W" if pick == "W" else pick)
    return tuple(toks)


def random_sequence(ctx, rng: random.Random, length: int) -> GateSequence:
    return GateSequence(rng.randrange(ctx.order), random_gate_tokens(ctx, rng, length))

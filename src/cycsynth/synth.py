"""Optimal exact synthesis by denominator-exponent descent.

canonical_form() recovers, for any synthesizable unitary, the unique
decomposition U = U_{p1}(a1 pi/n) ... U_{pm}(am pi/n) D with adjacent axes
distinct, 1 <= a_i < n/2 and D a 2n-th root of unity times a Clifford.  The
descent peels one rotation per step by locating the unique candidate
R_q^(-b) M that minimizes the maximum denominator exponent of the Bloch
matrix M; ties or non-decreasing minima only occur outside the
synthesizable group and surface as NotReducibleError.  Candidates are built
without matrix products: a rotation by b pi/n about axis q multiplies the
complex combination r1 - i sigma_q r2 of the other two rows by zeta^b, so
each candidate entry is the real part of a root-of-unity multiple: on
numerators packed into lanes (cyclo.Lanes), two lane rotations, an add, a
fold and a right shift.  Up to n = 16, where an axis has at most seven
candidates, each candidate's six entries are built so and scored
(_EntryScan); above, an axis scores them without building entries at
all: the same rotations and adds act on the numerators mod 4, kept as
bit planes of n lanes (zeta^n = -1 for every n), which a fold reduces
mod Phi_2n, and an entry's exact exponent follows from its lowest
nonzero plane (_PlaneScan), the planes read off the low bits of the
pencils' lanes in one read per side of the axis, its three pencils
packed into one int.  Each candidate is scored against a
bar, the smallest row max, which the paper's exponent law says the winner
scores: an axis whose kept row sits above the bar gets no scan, and every
other candidate is cut once it provably passes it (axis_detect).  The
descent takes the first candidate that gets to the bar and scores no
other; a step where none does is stuck.  A descent that reaches a
Clifford needs no tie check, for its Bloch image is then in the group,
where each step's minimiser is unique; one that gets stuck is replayed
with the checked scan, whose bar is one below the current max and which
scores every candidate that gets there, for the arg-min and a tie, so
that a non-member's error is the checked descent's (canonical_form).
Each scan is one pass.  The descent carries its state from step to
step (_Step): each entry as lanes over its 2^m, and each row's max
exponent.  A step rewrites two rows and keeps row q, so it reads only the
six new entries, and it reads each once: a score keeps one running max
per new row, and the step takes the winner's pair of row maxima from it.
It builds the six entries once, on lanes, from the pencils and entries
the winning scan already holds (all six up to n = 16); no lane ever
wraps, as each step widens its lanes when a shifted numerator or a new
entry leaves the headroom.  A step builds no ring element: the descent
starts from the lane entries of the Bloch image (so3, products on
lanes), reads the final Clifford pattern off the lanes, and the matrix
is unpacked only when read.

canonicalize_sequence() computes the same form for a gate word by pure
algebraic rewriting (pseudo-commutation, angle merging, sign elimination)
and never looks at denominator exponents, so it serves as an independent
cross-check of the descent.  It reads the word once, as the kernel's
gates, which the kernel evaluates and the pass walks: H moves the pending
Clifford, and every U_z(a pi/n), S and W^j alike, goes onto the signed
axis the pending Clifford sends Z to.  It rewrites up to a global phase
and builds no unitary or rotation of its own: its pending Clifford is an
index into the 24-element Clifford group, moved by one per-context table
built once from Rotation products looked up in so3's signed-permutation
index of the group (_clifford_moves).  Both routes read the form's phase
one way: the form's gates are stripped off the unitary (the word's, for
the rewriting pass), and the rest must be zeta^j I; so the rewriting pass
checks its whole result, factors included, against the word.

to_circuit() emits each factor from a per-context block, its tokens and
phase delta, checked once against the factor's gate (_emission_block).
The descent has already stripped the form off the unitary, so the word
equals the unitary by construction, and membership does not evaluate it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .cyclo import Context, CycInt, Lanes, make_context
from .errors import IntegrityError, NotReducibleError, PhaseNotInRingError
from .rings import (
    RingElem,
    _entries_max,
    _exp_bounds,
    _parity_exponent,
    _row_max,
    as_zeta_power,
)
from .so3 import (
    CliffordRot,
    Rotation,
    _bloch_entries,
    _clifford_table,
    bloch,
    clifford_group,
    is_signed_permutation,
    rotation_generator,
)
from .su2 import (
    AXES,
    CONJ_WORDS,
    GateSequence,
    UnitaryRn,
    _strip,
    _word_gates,
    apply_gates,
    dagger_tokens,
    eval_sequence,
    token_w,
    u_axis,
)

__all__ = [
    "CanonicalForm",
    "MembershipResult",
    "axis_detect",
    "bfs_cosets",
    "brute_force_min_tcount",
    "canonical_form",
    "canonicalize_sequence",
    "exponent_profile",
    "membership",
    "random_unitary",
    "tcount",
    "to_circuit",
]


@dataclass(frozen=True)
class CanonicalForm:
    """The unique rotation-product normal form of a synthesizable unitary."""

    n: int
    axes: tuple[str, ...]
    exponents: tuple[int, ...]
    residual: CliffordRot
    phase_power: int

    @property
    def m(self) -> int:
        return len(self.axes)

    def tcount(self) -> int:
        half = self.n // 2
        return sum(min(a, half - a) for a in self.exponents)


@dataclass(frozen=True)
class MembershipResult:
    is_member: bool
    sequence: GateSequence | None
    reason: str | None


# -- descent ------------------------------------------------------------------


def exponent_profile(m: Rotation) -> tuple[int, tuple[int, int, int]]:
    """Max denominator exponent over all nonzero entries, and per-row maxes,
    read off the lane entries (_Step)."""
    row_max = _as_step(m).row_max
    return max(row_max), row_max


# sigma_q, the sign of the (i1, i2) entry of R_q(-b pi/n) for 0 < b < n/2,
# and the rows i1 < i2 other than q
_SIGMA = (1, -1, 1)
_OTHER_ROWS = ((1, 2), (0, 2), (0, 1))


def _repacked(src: Lanes, dst: Lanes, rows):
    """The lane entries of rows, at src's width, at dst's (Lanes.relane)."""
    return [list(zip(dst.relane(src, *(p for p, _ in row)), (m for _, m in row)))
            for row in rows]


def _lane_pencils(lanes: Lanes, r1, r2, shift: int):
    """(lanes, pencils): per column j, (Z_j, conj(Z_j), M + 1) as lanes
    below n, Z_j = x - zeta^shift y and conj(Z_j) = x + zeta^shift y for
    the entries x / 2^M, y / 2^M of the lane rows r1, r2 over a common 2^M
    (a left shift each), at the narrowest doubling of lanes where every
    shifted numerator lies in half the headroom, [-2^(f-1), 2^(f-1)): an
    entry built from the pencils (_EntryScan.entry), a sum of four such
    numerators folded, which grows lanes at most 4 G <= 2^h-fold
    (Context.lane_head), then lies in [-2^(W-2), 2^(W-2)], clear of the
    ends of the lanes.  The test is made on the entries before the shift,
    at 2^(f-1) over the shift, so that no lane spills into the next."""
    tops = [ma if ma > mb else mb for (_, ma), (_, mb) in zip(r1, r2)]
    while True:
        g, fits = lanes.free - 1, lanes.fits
        for top, (pa, ma), (pb, mb) in zip(tops, r1, r2):
            if not (fits(pa, g - top + ma) and fits(pb, g - top + mb)):
                break
        else:
            break
        wide = lanes.ctx.lanes(2 * lanes.width)
        r1, r2 = _repacked(lanes, wide, (r1, r2))
        lanes = wide
    zeta = lanes.zeta
    pencils = []
    for top, (pa, ma), (pb, mb) in zip(tops, r1, r2):
        x, y = pa << (top - ma), zeta(pb << (top - mb), shift)
        pencils.append((x - y, x + y, top + 1))
    return lanes, pencils


def _extension(n: int, h: int, l: int) -> tuple[int, int]:
    # Planes of E_(-2n), ..., E_(2n-1) in lanes 0, ..., 4n - 1, for the
    # negacyclic extension E_(i+n) = -E_i of the n lanes (h, l) mod 4;
    # -(h, l) = (h ^ l, l).  Planes holding several such n-lane blocks at
    # bits 4n j extend each one in bits 4n j, ..., 4n j + 4n - 1.
    rep = 1 | (1 << (2 * n))
    return (h | (h ^ l) << n) * rep, (l | l << n) * rep


def _scan_tables(ctx: Context):
    """(window, mask, blocks, shift, (q_h, q_l)) of _PlaneScan: window
    holds 2n bits at each pencil's base 4n j, j < 3, of the extended
    planes, and mask n bits at each entry's base 2n e, e < 6.  The rest
    is the fold mod Phi_2n(x) = P(x^w), w = 2^k, of six entries in lanes
    2n e, ..., 2n e + n - 1.  Block B, the lanes w B, ..., w B + w - 1,
    holds x^(w B) times a polynomial of degree below w, and
    x^(w B) = x^(w (B - deg P)) Q(x^w) mod P(x^w) with Q = x^(deg P) - P
    (Context.fold_q), of degree below deg P.  So the blocks B >= deg P,
    top first and all six entries at once, are shifted down by w deg P
    lanes and multiplied by Q mod 4, kept as planes (q_h, q_l) of its
    coefficients at lanes w j, where the copies of a block never overlap:
    the product is (b_h q_l ^ b_l q_h, b_l q_l).  No block for n = 2^k."""
    n, w = ctx.n, ctx.ram_index
    window = ((1 << (2 * n)) - 1) * sum(1 << (4 * n * j) for j in range(3))
    mask = ((1 << n) - 1) * sum(1 << (2 * n * e) for e in range(6))
    dp = len(ctx.fold_q)
    block = sum(((1 << w) - 1) << (2 * n * e) for e in range(6))
    q = [c % 4 for c in ctx.fold_q]
    planes = tuple(sum((c >> i & 1) << (w * j) for j, c in enumerate(q)) for i in (1, 0))
    blocks = [block << (w * b) for b in range(n // w - 1, dp - 1, -1)]
    return window, mask, blocks, w * dp, planes


def _windows(lanes: Lanes, window: int, p: int, a: int, c: int) -> tuple[int, int]:
    """The planes (high, low) of one side of a scan from p, the side's
    three pencils added at lanes 0, n and 2n: one plane read of the 3n
    lanes; pencil j's n bits spread to bit 4n j and extended there
    (_extension); then, in the planes of entry e = 2j + r at bit 2n e,
    the window of pencil j's extension from bit a for r = 0 and from bit
    c for r = 1."""
    n = lanes.ctx.n
    n2, full = 2 * n, (1 << n) - 1
    h, l = lanes.planes(p, 3 * n)
    h, l = _extension(n, h & full | (h >> n & full) << (2 * n2) | h >> n2 << (4 * n2),
                      l & full | (l >> n & full) << (2 * n2) | l >> n2 << (4 * n2))
    return (h >> a & window | (h >> c & window) << n2,
            l >> a & window | (l >> c & window) << n2)


class _EntryScan:
    """Scores the candidates R_q^(-b) M on one axis of a descent step
    (_Step) on their entries, built from the axis's pencils and kept.

    The pencils Z_j and conj(Z_j) of the axis are built once, exactly, on
    the step's lanes (_lane_pencils), widened when the shift to a common
    denominator leaves too little headroom.  Numerators are taken in n
    lanes, as elements of Z[x]/(x^n + 1), which maps onto Z[zeta_2n] since
    zeta^n = -1; there zeta^c is a lane rotation that negates the lanes it
    wraps.  Every entry is built by entry, once: what is built is kept, by
    (entry, b), so that a score or the rotation to the winning candidate
    (pair) builds only the entries still missing, and so are the new rows'
    maxima of a candidate that gets through its score (maxes), so that the
    rotation reads no exponent again.  A column costs three lane rotations
    in either build order: its first entry keeps the two rotated pencils
    its sibling is built from (turned).  axis_detect scores every axis so
    up to n = 16, reading no plane, and on planes above (_PlaneScan).
    """

    __slots__ = ("qi", "ctx", "half", "shift", "lanes", "pencils", "built", "maxes", "turned")

    def __init__(self, st: "_Step", qi: int):
        i1, i2 = _OTHER_ROWS[qi]
        self.ctx, self.qi, self.built, self.maxes, self.turned = st.ctx, qi, {}, {}, {}
        self.half = st.ctx.n // 2
        self.shift = _SIGMA[qi] * self.half
        self.lanes, self.pencils = _lane_pencils(st.lanes, st.ent[i1], st.ent[i2], self.shift)

    def pair(self, j: int, b: int) -> tuple[tuple[int, int], tuple[int, int]]:
        """Lane entries (i1, j) and (i2, j) of candidate b (entry)."""
        return self.entry(2 * j, b), self.entry(2 * j + 1, b)

    def entry(self, e: int, b: int) -> tuple[int, int]:
        """Lane entry e = 2 j + r of candidate b: the one already built, else,
        for A = zeta^b Z_j and B = zeta^-b conj(Z_j), (A + B) / 2^(M+1) for
        r = 0 and zeta^shift (A - B) / 2^(M+1) for r = 1, as
        zeta^-shift = -zeta^shift, built and kept; A and B are kept under
        (j, b) in turned until the column's other entry takes them."""
        x = self.built.get((e, b))
        if x is None:
            j = e >> 1
            z, zbar, m = self.pencils[j]
            lanes = self.lanes
            turned = self.turned.pop((j, b), None)
            if turned is None:
                turned = self.turned[j, b] = lanes.zeta(z, b), lanes.zeta(zbar, -b)
            a, c = turned
            x = self.built[e, b] = lanes.entry(lanes.zeta(a - c, self.shift) if e & 1 else a + c, m)
        return x

    def score(self, b: int, floor: int, cutoff):
        """The exact max denominator exponent of floor and the nonzero
        entries of candidate b, or None once it provably exceeds cutoff:
        _entries_max over the new rows (entry 2 j + r in row r), built one
        at a time (entry), none past the one that exceeds cutoff.  The rows'
        maxima are kept under b (maxes)."""
        entry = self.entry
        vals = _entries_max(self.lanes, [0, 0], ((e & 1, entry(e, b)) for e in range(6)), cutoff)
        if vals is None:
            return None
        self.maxes[b] = vals
        return max(floor, *vals)


class _PlaneScan(_EntryScan):
    """Scores the candidates R_q^(-b) M on one axis of a descent step
    (_Step) from its pencils mod 4, without reading an entry; axis_detect
    scans so from n = 18, where it beats building every entry.

    A residue mod 4 of a numerator is kept as two bitmask planes (high,
    low), one lane per coefficient; negation is (h ^ l, l), addition is
    (h1 ^ h2 ^ (l1 & l2), l1 ^ l2).  The three Z_j are added into one int
    at lanes n j, and so are the three conj(Z_j): one plane read per side
    (Lanes.planes of 3n lanes) and one negacyclic extension, with pencil j
    at bit 4n j (_windows), so that every rotation a candidate needs is
    one right shift: the six numerators of candidate b,
    zeta^c Z_j + zeta^-c conj(Z_j) for c = b, b + shift, sit in lanes
    2n e, ..., 2n e + n - 1 for entry e = 2j + (c != b) after two shifts, a
    mod-4 add and a mask, and a fold reduces them mod Phi_2n into the first
    phi(2n) lanes (none for n = 2^k, where Phi_2n = x^n + 1).  An entry's
    lowest nonzero plane gives its 2-adic drop t <= 1, hence its normalized
    denominator exponent m - t and parity mask, hence its exact exponent
    (rings._parity_exponent).  Entries with t >= 2 (or zero) are bounded by
    m - 2 and built in full from the pencils (entry) only when that bound
    reaches above its row's running max, and kept for the rotation.
    """

    __slots__ = ("full", "mask", "zh", "zl", "wh", "wl", "entries", "fold", "fold_shift",
                 "fold_q")

    def __init__(self, st: "_Step", qi: int):
        super().__init__(st, qi)
        ctx, lanes = self.ctx, self.lanes
        n, half, shift = ctx.n, self.half, self.shift
        self.full = (1 << n) - 1
        window, self.mask, self.fold, self.fold_shift, self.fold_q = ctx.memo(
            "plane_scan", lambda: _scan_tables(ctx))
        (z0, w0, m0), (z1, w1, m1), (z2, w2, m2) = self.pencils
        nw, a = lanes.nw, 2 * n - half
        # Z side: E_(i - half - s), conj side: E_(i - half + s), s = 0 for
        # row i1 and shift for row i2
        self.zh, self.zl = _windows(lanes, window, z0 + (z1 << nw) + (z2 << 2 * nw), a, a - shift)
        self.wh, self.wl = _windows(lanes, window, w0 + (w1 << nw) + (w2 << 2 * nw), a, a + shift)
        # the largest denominators first, so cutoffs prune early
        entries = []
        for _, j, m in sorted(((-m0, 0, m0), (-m1, 1, m1), (-m2, 2, m2))):
            # the brackets at the 2-adic drops t = 0, 1, 2 a residue tells apart,
            # spelled out, as a generator over t costs 0.5 us more per pencil
            bounds = _exp_bounds(ctx, m), _exp_bounds(ctx, m - 1), _exp_bounds(ctx, m - 2)
            e = 2 * j
            entries += (2 * n * e, m, e, bounds), (2 * n * (e + 1), m, e + 1, bounds)
        self.entries = entries

    def residues(self, b: int) -> tuple[int, int]:
        """(high, low) planes of the six numerators of candidate b mod 4,
        reduced mod Phi_2n, entry e in lanes 2n e, ..., 2n e + phi(2n) - 1:
        zeta^c Z_j lane p is E_(p - c), a right shift by half - b, and
        zeta^-c conj(Z_j) lane p is E_(p + c), a right shift by half + b."""
        u, v = self.half - b, self.half + b
        zl, wl = self.zl >> u, self.wl >> v
        mask = self.mask
        h, l = ((self.zh >> u) ^ (self.wh >> v) ^ (zl & wl)) & mask, (zl ^ wl) & mask
        for blk in self.fold:
            qh, ql = self.fold_q
            bh, bl = h & blk, l & blk
            h, l = h ^ bh, l ^ bl
            bh, bl = bh >> self.fold_shift, bl >> self.fold_shift
            xh, xl = bh * ql ^ bl * qh, bl * ql
            h, l = h ^ xh ^ (l & xl), l ^ xl
        return h, l

    def score(self, b: int, floor: int, cutoff):
        """The exact max denominator exponent of floor and the nonzero
        entries of candidate b, or None once it provably exceeds cutoff
        (math.inf for none), with a running max per new row (entry 2 j + r
        in row r), kept under b (maxes).  An entry's parity bits are read
        only when its bracket reaches above its row's max, and an entry read
        from no plane is built (entry) only when its bound does."""
        if floor > cutoff:
            return None
        h, l = self.residues(b)
        full, ctx = self.full, self.ctx
        vals, deferred = [0, 0], []
        for off, m, e, bounds in self.entries:
            r = e & 1
            mask = (l >> off) & full
            t = 0
            if not mask:
                mask = (h >> off) & full
                t = 1
                if not mask:
                    if bounds[2][1] > vals[r]:
                        deferred.append((e, bounds[2][1]))
                    continue
            lo, hi = bounds[t]
            val = vals[r]
            if hi <= val:
                continue
            if lo > cutoff:
                return None
            # an exact bracket (k = 1) needs no parity bits
            val = vals[r] = hi if lo == hi else max(val, _parity_exponent(ctx, m - t, mask))
            if val > cutoff:
                return None
        # a deferred entry's bound is checked again as its row's max rises
        if deferred and _entries_max(self.lanes, vals, (
                (e & 1, self.entry(e, b)) for e, top in deferred if top > vals[e & 1]),
                cutoff) is None:
            return None
        self.maxes[b] = vals
        return max(floor, *vals)


class _Step(Rotation):
    """A descent step: each entry as a lane entry (p, m), the numerator p as
    folded lanes (cyclo.Lanes) over 2^m, normalized, all at one width,
    within the lanes' headroom; the max exponent of each row; once
    axis_detect has run on it, the scan of the winning axis; and whether
    axis_detect takes its first candidate at the smallest row max
    (optimistic, set by canonical_form and passed on by rotated) rather
    than checking it for ties.

    R_q^(-b) leaves row q as it is, so rotated() carries that row's
    entries and max to the next step and takes the six new entries from
    the winning scan (_EntryScan.pair): all six as built up to n = 16,
    where the scan scored its candidates on them.  It reads no exponent of
    them again: the new rows' maxima are the ones the winner's score kept.
    It builds no RingElem.  When a new entry leaves the headroom, the step's
    lanes double.  The matrix (rows) is unpacked from the lanes only when
    something reads it; the descent reads only signed_perm_key, off the
    lanes.  A step holds no reference to the step before it.
    """

    __slots__ = ("lanes", "ent", "row_max", "scan", "optimistic", "_rows")

    def __init__(self, lanes: Lanes, ent, row_max, rows=None, optimistic=False):
        self.ctx, self.lanes, self.ent = lanes.ctx, lanes, ent
        self.row_max, self._rows = row_max, rows
        self.scan, self.optimistic = None, optimistic

    @property
    def rows(self):
        """The matrix, unpacked from the lane entries on first read."""
        if self._rows is None:
            ctx, unpack = self.ctx, self.lanes.unpack
            self._rows = tuple(tuple(RingElem(CycInt(ctx, unpack(p)), m) for p, m in row)
                               for row in self.ent)
        return self._rows

    def signed_perm_key(self):
        """Rotation.signed_perm_key off the lane entries: an entry is an
        integer only with m = 0 (a normalized entry with m > 0 has an odd
        lane), and then it is 0 or +-1 exactly when its lanes are."""
        key = tuple(p for row in self.ent for p, m in row if not m and -1 <= p <= 1)
        return key if len(key) == 9 else None

    def rotated(self, qi: int, b: int) -> "_Step":
        """The step R_q^(-b) M for q = AXES[qi], its new rows from the scan
        of axis qi that axis_detect kept, else from a new one; only entries
        that scan has not built are built.  The new rows' maxima are those
        its score of b kept, read (_row_max) only if it never scored b."""
        scan = self.scan
        if scan is None or scan.qi != qi:
            scan = _EntryScan(self, qi)
        pairs = [scan.pair(j, b) for j in range(3)]
        lanes, ent = scan.lanes, list(self.ent)
        if lanes is not self.lanes:  # the scan widened them for its pencils
            ent[qi] = _repacked(self.lanes, lanes, [ent[qi]])[0]
        row_max, maxes = list(self.row_max), scan.maxes.get(b)
        for r, i in enumerate(_OTHER_ROWS[qi]):
            ent[i] = row = [p[r] for p in pairs]
            row_max[i] = _row_max(lanes, row) if maxes is None else maxes[r]
        # a new entry that leaves the headroom doubles the step's lanes
        while True:
            room, top = lanes.room, 0
            for row in ent:
                for p, _ in row:
                    top |= p + room
            if not top & lanes.roomy_top:
                return _Step(lanes, ent, tuple(row_max), optimistic=self.optimistic)
            wide = self.ctx.lanes(2 * lanes.width)
            ent, lanes = _repacked(lanes, wide, ent), wide


def _as_step(m: Rotation) -> _Step:
    """m itself if it is a _Step, else m with every entry read into lanes
    at the narrowest width whose headroom holds them all (Lanes.load)."""
    if isinstance(m, _Step):
        return m
    lanes, *ps = m.ctx.lanes().load(*(e.num.coeffs for row in m.rows for e in row))
    ent = [list(zip(ps[i:i + 3], (e.m for e in row))) for i, row in zip((0, 3, 6), m.rows)]
    return _Step(lanes, ent, tuple(_row_max(lanes, row) for row in ent), m.rows)


def _bloch_step(u: UnitaryRn) -> _Step:
    """The descent's first step, the Bloch image of u: its lane entries
    (so3._bloch_entries), re-laned at the width Lanes.load would pick for
    them (Lanes.bits); the matrix is unpacked only when read."""
    src, rows = _bloch_entries(u)
    lanes = u.ctx.lanes().wide_enough(src.bits(*(p for row in rows for p, _ in row)))
    ent = _repacked(src, lanes, rows)
    return _Step(lanes, ent, tuple(_row_max(lanes, row) for row in ent))


def axis_detect(m: Rotation) -> tuple[str, int]:
    """The unique (axis, exponent) whose inverse rotation minimizes the
    maximum denominator exponent of the matrix.

    Scores the 3 (n/2 - 1) candidates R_q^(-b) M without matrix products:
    R_q(-b pi/n) fixes row q and multiplies Z = r1 - i sigma_q r2 (r1, r2
    the other rows) by zeta^b, so the candidate's rows are Re(zeta^b Z) and
    -sigma_q Re(zeta^(b - n/2) Z), two basis rotations and an add per entry.
    Up to n = 16 (at most seven candidates per axis) each candidate's six
    entries are built so from the pencils, one at a time, and scored on
    their exponents against the same floor and bar (_EntryScan.score, by
    _entries_max); the rotation takes the winner's, and their rows'
    maxima, as scored.  From n = 18 the rotations and adds run on the
    numerators mod 4 as two bitmask planes, read per axis off the lanes of
    its pencils, one read per side of the three pencils packed into one
    int, and reduced mod Phi_2n per candidate (_PlaneScan): an entry
    N / 2^m with an odd coefficient in N or N / 2 (2-adic drop t <= 1)
    gets its exact exponent from its planes, and only an entry with
    t >= 2, or zero, is built in full, when its bound m - 2 reaches above
    its row's running max.  The lane entries and row maxima come from the
    descent's step state (_Step), which canonical_form carries from step
    to step; a plain Rotation is read in full first, and the winning scan,
    with the row maxima of what it scored, is kept on the step for the
    rotation.
    A candidate is dropped as soon as its exponent provably exceeds the
    bar, then the best seen (entry exponents are bracketed by the
    power-of-two denominator before any parity bits are read), and an axis
    whose kept row, a free floor, sits above the bar gets no scan.  Each
    call makes one pass.  The checked scan, on any step but canonical_form's
    first-winner descent, has its bar one below the current max and scores
    every candidate that gets there, for the unique arg-min: ties raise
    NotReducibleError, and so does a step where nothing gets under the
    max.  A step of the first-winner descent (_Step.optimistic) has its bar
    at floor0, the smallest row max, if that is below the max: by the
    paper's exponent law (criterion 5) the winner of a synthesizable step
    scores exactly that, and no candidate scores below it, so the step
    takes the first candidate that gets there and scores no other; a step
    where none does is stuck (canonical_form replays such a descent with
    the checked scan).  The exponents and their bracket come from rings
    and need only the context; the element beta itself is only the base of
    rings.beta_exponent's witness, unused here.
    """
    half = m.ctx.n // 2
    if half < 2:
        raise NotReducibleError("no rotation candidates exist for n = 2")
    st = _as_step(m)
    row_max, first = st.row_max, st.optimistic
    # The deficient axis first: its floor is floor0, and for synthesizable
    # inputs the winner lives there, so the bar then dismisses the others.
    axis_order = sorted(range(3), key=lambda i: (row_max[i], i))
    best, best_val, tie, win = None, max(row_max) - 1, False, None
    if first:
        best_val = min(row_max[axis_order[0]], best_val)
    for qi in axis_order:
        floor = row_max[qi]
        if floor > best_val:
            continue
        # up to n = 16 an axis's few candidates are built, not scanned: the
        # rotation needs the winner's entries built anyway
        scan = _EntryScan(st, qi) if half <= 8 else _PlaneScan(st, qi)
        for b in range(1, half):
            val = scan.score(b, floor, best_val)
            if val is None:
                continue
            if first:
                st.scan = scan
                return AXES[qi], b
            if best is None or val < best_val:
                best, best_val, tie, win = (AXES[qi], b), val, False, scan
            elif val == best_val:
                tie = True
    if best is None:
        raise NotReducibleError("no candidate strictly reduces the exponent")
    if tie:
        raise NotReducibleError("minimal candidate is not unique")
    st.scan = win
    return best


def canonical_form(u: UnitaryRn) -> CanonicalForm:
    """Compute the canonical decomposition of a synthesizable unitary.

    Raises NotReducibleError if the Bloch descent gets stuck (the input is
    not synthesizable), its message naming the step (counted from 0, the
    number of rotations peeled before it) and that step's max exponent,
    and its attributes step and row_max holding the step and the max of
    each of its rows, and PhaseNotInRingError if the descent succeeds but
    the residual global phase is not a 2n-th root of unity.  Each step
    calls axis_detect once, on the step state it carries (_Step), from the
    first, the Bloch image's lane entries (_bloch_step), on.

    The descent runs first with the first-winner scan (_Step.optimistic):
    each step takes the first candidate that scores floor0, the smallest
    row max, and a step where none does is stuck.  A descent that reaches
    a Clifford needs no tie check: the Bloch image is then in the group,
    where each step's minimiser is unique and scores floor0 (acceptance
    criteria 4 and 5), so the first candidate at floor0 is it; and the
    form is still checked against u (_phased_form).  A descent that gets
    stuck is replayed from the Bloch image with the checked scan, its bar
    one below the max and every tie looked for (axis_detect), so a
    non-member's error, its step and row_max are the checked descent's;
    only non-members pay for the replay.
    """
    st = _bloch_step(u)
    st.optimistic = True
    try:
        return _descent(u, st)
    except NotReducibleError:
        pass
    return _descent(u, _bloch_step(u))


def _descent(u: UnitaryRn, st: _Step) -> CanonicalForm:
    """canonical_form's descent of u from its first step st."""
    axes: list[str] = []
    exps: list[int] = []
    while True:
        # only a step of integral entries, every row max 0, can be a Clifford
        residual = None if any(st.row_max) else is_signed_permutation(st)
        if residual is not None:
            break
        try:
            q, b = axis_detect(st)
            if axes and axes[-1] == q:
                raise NotReducibleError("descent produced adjacent repeated axes")
        except NotReducibleError as exc:
            raise NotReducibleError("step %d (max exponent %d): %s"
                                    % (len(axes), max(st.row_max), exc),
                                    step=len(axes), row_max=st.row_max) from None
        axes.append(q)
        exps.append(b)
        st = st.rotated(AXES.index(q), b)
    return _phased_form(u, axes, exps, residual, PhaseNotInRingError)


def _phased_form(u: UnitaryRn, axes, exps, residual: CliffordRot, phase_error) -> CanonicalForm:
    """The form of u with these factors and residual, its phase read off u:
    the form's gates stripped off u must leave zeta^j I, and j is the
    phase (IntegrityError for a non-scalar rest, phase_error for a scalar
    that is no power of zeta_2n)."""
    ctx = u.ctx
    lam = _strip(u, _form_gates(ctx, axes, exps, residual)).as_scalar()
    if lam is None:
        raise IntegrityError("form does not reproduce its input up to a scalar")
    j = as_zeta_power(lam)
    if j is None:
        raise phase_error("residual phase is not a power of zeta_2n")
    return CanonicalForm(ctx.n, tuple(axes), tuple(exps), residual, j)


def _form_gates(ctx: Context, axes, exps, residual: CliffordRot, phase: int = 0) -> list:
    """The kernel gates of zeta^phase U_{p1}(a1 pi/n) ... U_{pm}(am pi/n) C,
    C the residual's Clifford (its H, S word)."""
    return list(zip(axes, exps)) + _word_gates(ctx, residual.word, phase)


# -- rewriting oracle ----------------------------------------------------------


def _clifford_moves(ctx: Context) -> dict:
    """The rewriting pass's table over the indices into clifford_group(ctx):
    per index i, moves["H"][i] is the index of C_i H (H's Bloch image on
    the right), moves[p, q][i] that of U_p(q pi/2) C_i for q = 1, 2, 3,
    and moves["z"][i] the signed axis (p, sign) that C_i sends Z to, the
    signed unit in its third column.  Built once, from Rotation products
    looked up in so3's signed-permutation index of the group."""
    group, index = _clifford_table(ctx)
    h = next(c.rotation for c in group if c.word == ("H",))
    moves = {"H": [index[(c.rotation @ h).signed_perm_key()] for c in group]}
    for p in AXES:
        for q in (1, 2, 3):
            turn = rotation_generator(ctx, p, q * (ctx.n // 2))
            moves[p, q] = [index[(turn @ c.rotation).signed_perm_key()] for c in group]
    moves["z"] = []
    for pat in index:
        col = pat[2::3]
        i = next(i for i, v in enumerate(col) if v)
        moves["z"].append((AXES[i], col[i]))
    return moves


def canonicalize_sequence(seq: GateSequence, ctx: Context) -> CanonicalForm:
    """Canonical form of a gate word, by rewriting alone.

    The word is read once, as the kernel's gates (su2._word_gates, which
    rejects tokens it cannot read); the kernel evaluates that list, and the
    pass walks it, keeping the prefix up to a global phase as rotation
    factors (adjacent axes distinct) times a pending Clifford, held only as
    its index into clifford_group(ctx) and moved by _clifford_moves.  H
    joins the pending Clifford from the right.  A gate U_z(a pi/n) (S is
    a = n/2, W^j is a = j) is conjugated through the pending Clifford onto
    the signed axis it sends Z to, its sign removed by the inversion
    identity U_{-p}(a) = zeta^a U_p(2n - a), merged with a last factor on
    that axis, and its quarter turns split off into the pending Clifford.
    The result is a decomposition of the required shape, hence by
    uniqueness the same one the descent computes.  The pass keeps no phase:
    the word's unitary must be the whole result, factors included, up to
    zeta^j, and j is read off it as canonical_form reads its own.
    """
    gates = _word_gates(ctx, seq.tokens, seq.phase_power)
    u = apply_gates(UnitaryRn.identity(ctx), gates)
    moves = ctx.memo("clifford_moves", lambda: _clifford_moves(ctx))
    half, order = ctx.n // 2, ctx.order
    factors: list[tuple[str, int]] = []
    pend = 0  # clifford_group(ctx)[0] is the identity, word ()
    for kind, a in gates[1:]:  # gates[0] is the word's phase
        if kind == "h":
            pend = moves["H"][pend]
            continue
        p, sign = moves["z"][pend]
        a = sign * a % order
        if factors and factors[-1][0] == p:
            a += factors.pop()[1]
        quarters, rest = divmod(a, half)
        if quarters % 4:
            pend = moves[p, quarters % 4][pend]
        if rest:
            factors.append((p, rest))
    return _phased_form(u, [p for p, _ in factors], [a for _, a in factors],
                        clifford_group(ctx)[pend], IntegrityError)


# -- emission -------------------------------------------------------------------


def _emission_block(ctx: Context, p: str, a: int) -> tuple[tuple[str, ...], int]:
    """Tokens and phase delta d with zeta^d eval(tokens) = U_p(a pi/n), at W
    cost min(a, n/2 - a): C W^a C^dagger, C = CONJ_WORDS[p, +1], when
    a <= n/4, otherwise through the inversion identity U_p(a) =
    zeta^(a - n/2) U_p(pi/2) U_{-p}(n/2 - a) with U_p(pi/2) = C S C^dagger.
    Kept per context and checked once, on first use, against the kernel
    gate U_p(a pi/n) (IntegrityError otherwise)."""
    half = ctx.n // 2

    def conjugated(sign: int, middle: str):
        # C' middle C'^dagger, C' mapping Z to sign*p, is zeta^comp times the
        # conjugated gate, comp = h n/2 for the h tokens H in C' (H0^2 = i I).
        word = CONJ_WORDS[p, sign]
        inv, h_count = dagger_tokens(word)
        return word + (middle,) + inv, h_count * half

    def build():
        if a <= half // 2:
            toks, comp = conjugated(1, token_w(a))
        else:
            qt, qcomp = conjugated(1, "S")
            mt, mcomp = conjugated(-1, token_w(half - a))
            toks, comp = qt + mt, qcomp + mcomp + half - a
        delta = -comp % ctx.order
        if eval_sequence(GateSequence(delta, toks), ctx) != u_axis(ctx, p, 1, a):
            raise IntegrityError("emission block for U_%s(%d pi/n) does not reproduce "
                                 "its gate" % (p, a))
        return toks, delta

    return ctx.memo(("emission_block", p, a), build)


def to_circuit(cf: CanonicalForm) -> GateSequence:
    """Emit a {H, S, W} word for the canonical form with optimal W cost.

    Each factor U_p(a pi/n) costs min(a, n/2 - a).  Its block is checked
    against the kernel gate once per context (_emission_block), so the
    word is the form exactly: zeta^phase, each factor's block, the
    residual's word.
    """
    ctx = make_context(cf.n)
    tokens: list[str] = []
    # Each block evaluates to its gate times zeta^-delta, so the leading PH
    # token compensates by adding every delta.
    phase = cf.phase_power
    for p, a in zip(cf.axes, cf.exponents):
        toks, delta = _emission_block(ctx, p, a)
        tokens += toks
        phase += delta
    tokens += cf.residual.word
    return GateSequence(phase % ctx.order, tuple(tokens))


def tcount(u: UnitaryRn) -> int:
    """Minimal number of W = U_z(pi/n) gates implementing u up to phase."""
    return canonical_form(u).tcount()


def membership(u: UnitaryRn) -> MembershipResult:
    """Decide synthesizability; Member results carry an exact circuit.

    Member verdicts are always sound: canonical_form has stripped the
    form's gates off the input and read zeta^j I, and to_circuit emits each
    gate from a block checked against it, so the returned circuit evaluates
    to the input exactly.  NotMember verdicts are sound for synthesizable
    inputs by uniqueness of the canonical form; for n in {2, 4, 6, 8, 12}
    they are also complete (every unitary over the ring comes back Member),
    while for other n the stuck-descent rule has no completeness proof.
    """
    try:
        cf = canonical_form(u)
    except NotReducibleError as exc:
        return MembershipResult(False, None, "descent: %s" % exc)
    except PhaseNotInRingError:
        return MembershipResult(False, None, "phase")
    return MembershipResult(True, to_circuit(cf), None)


# -- brute-force oracle ----------------------------------------------------------


def _coset_key(rot: Rotation, patterns) -> tuple:
    # Canonical representative of rot * C over the 24 Cliffords, given by
    # their signed-permutation patterns: multiplying by a signed permutation
    # on the right permutes and signs columns, so candidates are cheap entry
    # shuffles; take the lexicographically least.
    base = [[rot.rows[i][j] for j in range(3)] for i in range(3)]
    best = None
    for pat in patterns:
        cand = []
        for i in range(3):
            for j in range(3):
                acc = None
                for t in range(3):
                    s = pat[3 * t + j]
                    if s:
                        acc = base[i][t] if s > 0 else -base[i][t]
                        break
                cand.append(acc.key())
        cand = tuple(cand)
        if best is None or cand < best:
            best = cand
    return best


def bfs_cosets(ctx: Context, bound: int) -> dict:
    """All right-Clifford cosets reachable with at most `bound` single
    pi/n rotations, mapped to (cost, generator list).  Memoized per
    (context, bound): the table is a pure function of both."""
    return ctx.memo(("bfs_cosets", bound), lambda: _bfs_table(ctx, bound))


def _bfs_table(ctx: Context, bound: int) -> dict:
    patterns = _clifford_table(ctx)[1]
    gens = []
    for p in AXES:
        for sign in (1, -1):
            gens.append(((p, sign), bloch(u_axis(ctx, p, sign, 1))))
    start = Rotation.identity(ctx)
    out = {_coset_key(start, patterns): (0, ())}
    frontier = [(start, ())]
    for depth in range(1, bound + 1):
        nxt = []
        for rot, path in frontier:
            for tag, gen in gens:
                cand = gen @ rot
                key = _coset_key(cand, patterns)
                if key not in out:
                    entry = (depth, path + (tag,))
                    out[key] = entry
                    nxt.append((cand, path + (tag,)))
        frontier = nxt
    return out


def brute_force_min_tcount(u: UnitaryRn, bound: int) -> int | None:
    """Minimal rotation count reaching u's Bloch coset, by exhaustive BFS."""
    ctx = u.ctx
    target = _coset_key(bloch(u), _clifford_table(ctx)[1])
    table = bfs_cosets(ctx, bound)
    hit = table.get(target)
    return hit[0] if hit is not None else None


# -- random instances -------------------------------------------------------------


def random_unitary(
    ctx: Context, target_tcount: int, seed: int
) -> tuple[UnitaryRn, GateSequence]:
    """Deterministic random canonical-shaped product with the given cost.

    Draws factors whose costs min(a, n/2 - a) sum to the target, adjacent
    axes distinct, then a random Clifford and global phase.  By uniqueness
    of the canonical form the synthesized cost equals the target.  The
    witness word is that form's emission, exact by its checked blocks.
    """
    if target_tcount < 0:
        raise ValueError("target_tcount must be nonnegative")
    rng = random.Random(seed)
    half = ctx.n // 2
    max_step = ctx.n // 4
    if target_tcount and max_step == 0:
        raise ValueError("n = 2 admits only Clifford unitaries (tcount 0)")
    factors: list[tuple[str, int]] = []
    budget = target_tcount
    prev = None
    while budget > 0:
        c = rng.randint(1, min(max_step, budget))
        a = c if (half - c == c or rng.random() < 0.5) else half - c
        p = rng.choice([ax for ax in AXES if ax != prev])
        factors.append((p, a))
        prev = p
        budget -= c
    residual = rng.choice(clifford_group(ctx))
    phase = rng.randrange(ctx.order)
    axes, exps = tuple(p for p, _ in factors), tuple(a for _, a in factors)
    u = apply_gates(UnitaryRn.identity(ctx), _form_gates(ctx, axes, exps, residual, phase))
    return u, to_circuit(CanonicalForm(ctx.n, axes, exps, residual, phase))

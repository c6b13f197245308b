"""2x2 unitaries over Z[zeta_2n, 1/2], gate generators and token sequences.

Gates are applied by shifts and adds, never by general 2x2 products.  A
row (x, y) of U (a column, for left multiplication) is a line; the two
lines of U go through a word together, their four numerators over one
common 2^m, each packed into balanced lanes (cyclo.Lanes), the x of both
lines in one int and the y of both in another, 2n lanes apart (the pair
layout of cyclo.Lanes).  Each gate is dispatched once for both lines, and
is a signed lane rotation of each line (Lanes.pair_zeta), adds and at most
one denominator bump:

- S, W^j and U_z(a pi/n) = diag(1, zeta^a) shift y by n/2, j or a;
- zeta^a I shifts x and y by a;
- H0 = ((1+i)/2) [[1, 1], [1, -1]] maps (x, y) to
  (s + zeta^(n/2) s, d + zeta^(n/2) d) / 2 with s = x + y, d = x - y;
- U_x(a pi/n) = ((1 + zeta^a)/2) I + ((1 - zeta^a)/2) X maps (x, y) to
  (s + d, s - d) / 2 with s = x + y, d = zeta^a (x - y);
- U_y(a pi/n) = D U_x(a pi/n) D^dagger with D = diag(1, i): y is shifted by
  n/2 before U_x and back after it on a row, the other way on a column.

After a bump, Lanes.pair_settle folds each line mod Phi_2n (for n not a
power of 2), takes off every power of 2 the four numerators share, read
from the lanes' low bits, and doubles the lane width when a lane has left
the headroom of the next gate, so no lane ever wraps; the numerators are
unpacked once, at the end, where each entry is normalized on its own
(RingElem), so the result is the same as each line's alone.

apply_gates() is that kernel and _run_gates its gate loop, which the
column step of ringsynth runs on one line, a pair whose second line is
empty.  eval_sequence(), and through it every word evaluation in the
package, runs on the kernel, and so does every check of a word against a
unitary u: _strip undoes the word's gates on u, and the rest is read off
directly (UnitaryRn.as_scalar gives zeta^j when the rest is zeta^j I, that
is when the word is zeta^-j u).  The gate constants h0, s_gate, uz_power,
w_gate, scalar_gate, u_axis and pauli (P = U_p(pi)) are the kernel applied
to I, so each gate has that one definition.

Circuit text format: whitespace-separated tokens ``PH[a]``, ``H``, ``S``,
``W``, ``W^j``, with a and j in ASCII decimal digits; ``PH[a]`` appears at
most once, first, and carries the exact global phase zeta_2n^a.  The
leftmost token is the leftmost matrix factor.

Matrix JSON format::

    {"n": int, "denom_exp": m, "entries": [[c00, c01], [c10, c11]]}

where each c is a vector of d = phi(2n) integers (numerator coefficients in
the zeta_2n power basis) and the entry value is sum_j c_j zeta^j / 2^m.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass, field

from .cyclo import Context, CycInt, _checked_coeffs, factorize, make_context
from .errors import IntegrityError
from .rings import (RingElem, _common_numerators, _conj_products, _is_unit_sum, _unit_lanes,
                    _unit_sum_denominators_fit)

__all__ = [
    "CONJ_WORDS",
    "GateSequence",
    "UnitaryRn",
    "apply_gates",
    "dagger_tokens",
    "equal_up_to_phase",
    "eval_sequence",
    "h0",
    "matrix_from_json",
    "matrix_to_json",
    "pauli",
    "s_gate",
    "scalar_gate",
    "token_w",
    "u_axis",
    "uz_power",
    "w_exponent",
    "w_gate",
]

AXES = ("x", "y", "z")

# Clifford conjugator words: eval(word) maps Z to sign*P under conjugation,
# so eval(word) U_z(theta) eval(word)^dagger = U_{sign p}(theta) exactly
# (word phases cancel in the conjugation).
CONJ_WORDS = {
    ("z", +1): (),
    ("x", +1): ("H",),
    ("y", +1): ("S", "H"),
    ("z", -1): ("H", "S", "S", "H"),
    ("x", -1): ("H", "H", "S", "S", "H"),
    ("y", -1): ("S", "S", "S", "H"),
}


# (i, j) for the products x_i conj(x_j) of (a, b, c, d) that the unitarity
# check reads
_UNITARY_PAIRS = ((0, 0), (1, 1), (2, 2), (3, 3), (0, 2), (1, 3))


class UnitaryRn:
    """A 2x2 unitary with entries in Z[zeta_2n, 1/2]."""

    __slots__ = ("ctx", "rows")

    def __init__(self, ctx: Context, rows, check: bool = True):
        rows = (tuple(rows[0]), tuple(rows[1]))
        self.ctx = ctx
        self.rows = rows
        if check:
            for row in rows:
                for e in row:
                    if e.ctx.n != ctx.n:
                        raise ValueError("entry context does not match matrix context")
            if not self._is_unitary():
                raise ValueError("matrix is not unitary over the ring")

    def _is_unitary(self) -> bool:
        # U U^dagger = I from its entries, on lanes: |a|^2 + |b|^2 = 1,
        # |c|^2 + |d|^2 = 1 and a c* + b d* = 0 ((1, 0) is its conjugate).
        (a, b), (c, d) = self.rows
        if not (_unit_sum_denominators_fit((a, b)) and _unit_sum_denominators_fit((c, d))):
            return False
        lanes, m, x = _conj_products((a, b, c, d), _UNITARY_PAIRS)
        one, fold = _unit_lanes(lanes, m), lanes.fold
        return (fold(x[0, 0] + x[1, 1]) == one and fold(x[2, 2] + x[3, 3]) == one
                and not fold(x[0, 2] + x[1, 3]))

    @classmethod
    def identity(cls, ctx: Context) -> "UnitaryRn":
        one, zero = RingElem.one(ctx), RingElem.zero(ctx)
        return cls(ctx, ((one, zero), (zero, one)), check=False)

    def dagger(self) -> "UnitaryRn":
        (a, b), (c, d) = self.rows
        return UnitaryRn(
            self.ctx, ((a.conj(), c.conj()), (b.conj(), d.conj())), check=False
        )

    def __matmul__(self, other: "UnitaryRn") -> "UnitaryRn":
        if self.ctx.n != other.ctx.n:
            raise ValueError("mixed contexts in matrix product")
        (a, b), (c, d) = self.rows
        (e, f), (g, h) = other.rows
        return UnitaryRn(
            self.ctx,
            (
                (a * e + b * g, a * f + b * h),
                (c * e + d * g, c * f + d * h),
            ),
            check=False,
        )

    def det(self) -> RingElem:
        (a, b), (c, d) = self.rows
        return a * d - b * c

    def is_diagonal(self) -> bool:
        return self.rows[0][1].is_zero() and self.rows[1][0].is_zero()

    def as_scalar(self) -> RingElem | None:
        """lam when this is lam I, else None."""
        lam = self.rows[0][0]
        return lam if self.is_diagonal() and self.rows[1][1] == lam else None

    def first_column(self) -> tuple[RingElem, RingElem]:
        return (self.rows[0][0], self.rows[1][0])

    def __eq__(self, other):
        return (
            isinstance(other, UnitaryRn)
            and self.ctx.n == other.ctx.n
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.ctx.n, tuple(e.key() for row in self.rows for e in row)))

    def __repr__(self):
        return "UnitaryRn(n=%d, %r)" % (self.ctx.n, self.rows)


# -- the gate-application kernel ----------------------------------------------

def apply_gates(u: UnitaryRn, gates, left: bool = False) -> UnitaryRn:
    """u G_1 ... G_t, or G_t ... G_1 u when left is true, exactly.

    Each gate is a pair (kind, a): ("z", a) is U_z(a pi/n) = diag(1, zeta^a)
    (S is a = n/2, W^j is a = j), ("x", a) and ("y", a) are U_x(a pi/n) and
    U_y(a pi/n) as in the module docstring, ("h", 0) is H0 and ("ph", a) is
    zeta^a I.  Right multiplication acts on each row and left
    multiplication on each column by the shifts and adds in the module
    docstring; the two lines go through the word together, in the pair
    layout of cyclo.Lanes (_run_gates), and no CycInt product is formed.
    """
    ctx = u.ctx
    r0, r1 = u.rows
    m, vecs = _common_numerators((r0[0], r1[0], r0[1], r1[1]) if left else r0 + r1)
    lanes, x1, y1, x2, y2 = ctx.lanes().load(*vecs)
    lanes, x, y, m = _run_gates(lanes, lanes.pair(x1, x2), lanes.pair(y1, y2), m, gates, left)
    fold, unpack = lanes.pair_fold, lanes.unpack
    (x1, x2), (y1, y2) = lanes.unpair(fold(x)), lanes.unpair(fold(y))
    # RingElem takes off the powers of 2 each entry has beyond the others
    x1, y1, x2, y2 = (RingElem(CycInt(ctx, unpack(p)), m) for p in (x1, y1, x2, y2))
    rows = ((x1, x2), (y1, y2)) if left else ((x1, y1), (x2, y2))
    return UnitaryRn(ctx, rows, check=False)


def _run_gates(lanes, x: int, y: int, m: int, gates, left: bool) -> tuple:
    """(lanes, x, y, m) after apply_gates' gates on the pairs x and y over
    2^m (the gate loop), of two lines or of one, the second line empty;
    unfolded after a trailing rotation."""
    half = lanes.ctx.n // 2
    conj = -half if left else half
    for kind, e in gates:
        zeta = lanes.pair_zeta
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
        # The bump m + 1, then every power of 2 the four numerators share
        # comes off, so the numerators of a long word stay as small as its
        # entries.
        lanes, x, y, m = lanes.pair_settle(x, y, m + 1)
    return lanes, x, y, m


# -- gate constants: the kernel applied to the identity -------------------------

def _gate(ctx: Context, *gates) -> UnitaryRn:
    return apply_gates(UnitaryRn.identity(ctx), gates)


def h0(ctx: Context) -> UnitaryRn:
    """The phase-adjusted Hadamard (1/2) [[1+i, 1+i], [1+i, -1-i]]."""
    return _gate(ctx, ("h", 0))


def s_gate(ctx: Context) -> UnitaryRn:
    return _gate(ctx, ("z", ctx.n // 2))


def uz_power(ctx: Context, a: int) -> UnitaryRn:
    """U_z(a pi / n) = diag(1, zeta_2n^a), 0 <= a < 2n."""
    if not 0 <= a < ctx.order:
        raise ValueError("rotation exponent %d out of range [0, 2n)" % a)
    return _gate(ctx, ("z", a))


def w_gate(ctx: Context, j: int = 1) -> UnitaryRn:
    if not 1 <= j < ctx.order:
        raise ValueError("W exponent must lie in [1, 2n)")
    return uz_power(ctx, j)


def scalar_gate(ctx: Context, a: int) -> UnitaryRn:
    """zeta_2n^a times the identity."""
    return _gate(ctx, ("ph", a % ctx.order))


def pauli(ctx: Context, p: str) -> UnitaryRn:
    """The Pauli matrix P, which is U_p(n pi/n) exactly."""
    if p not in AXES:
        raise ValueError("axis must be one of %r" % (AXES,))
    return _gate(ctx, (p, ctx.n))


def u_axis(ctx: Context, p: str, sign: int, a: int) -> UnitaryRn:
    """The rotation exp(i a pi/n (1 - sign*P)/2) about axis p.

    That is ((1 + zeta^a)/2) I + sign ((1 - zeta^a)/2) P, which agrees with
    conjugating U_z(a pi/n) by any Clifford mapping Z to sign*P.  Sign -1
    goes through the kernel as U_{-p}(a pi/n) = zeta^a U_p((2n - a) pi/n).
    """
    if p not in AXES:
        raise ValueError("axis must be one of %r" % (AXES,))
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if not 0 <= a < ctx.order:
        raise ValueError("rotation exponent %d out of range [0, 2n)" % a)
    if sign > 0:
        return _gate(ctx, (p, a))
    return _gate(ctx, (p, (ctx.order - a) % ctx.order), ("ph", a))


def _token_gate(ctx: Context, tok: str) -> tuple[str, int]:
    """The kernel gate of a circuit token H, S or W^j: the one check of a
    token, for the kernel's words (_word_gates) and for the circuit text
    (GateSequence.from_text)."""
    if tok == "H":
        return ("h", 0)
    if tok == "S":
        return ("z", ctx.n // 2)
    j = w_exponent(tok)
    if j is None:
        raise ValueError("unknown circuit token %r" % tok)
    if not 1 <= j < ctx.order:
        raise ValueError("W exponent must lie in [1, 2n)")
    return ("z", j)


# -- gate sequences ---------------------------------------------------------

_PH_TOKEN = re.compile(r"^PH\[([0-9]+)\]$")


def token_w(j: int) -> str:
    # One shared string per exponent: emitted words hold many W tokens.
    return "W" if j == 1 else sys.intern("W^%d" % j)


def w_exponent(tok: str) -> int | None:
    """j for a token W (j = 1) or W^j (j in ASCII decimal digits), else None."""
    if tok == "W":
        return 1
    digits = tok[2:]
    if tok[:2] == "W^" and digits.isascii() and digits.isdecimal():
        return int(digits)
    return None


@dataclass(frozen=True, slots=True)
class GateSequence:
    """A circuit word over {H, S, W^j} with an exact global-phase token.

    Slotted: a batch keeps one per circuit, and a per-instance dict would
    add about a tenth to each."""

    phase_power: int = 0
    tokens: tuple[str, ...] = field(default_factory=tuple)

    def cost(self) -> int:
        """Number of non-Clifford generator uses (W^j counts j)."""
        return sum(w_exponent(t) or 0 for t in self.tokens)

    def to_text(self) -> str:
        parts = []
        if self.phase_power:
            parts.append("PH[%d]" % self.phase_power)
        parts.extend(self.tokens)
        return " ".join(parts)

    @classmethod
    def from_text(cls, text: str, ctx: Context) -> "GateSequence":
        """The word of a circuit text: an optional PH[a] first, then tokens
        checked by _token_gate, each W^j kept as token_w(j)."""
        phase = 0
        tokens = []
        parts = text.split()
        for idx, tok in enumerate(parts):
            ph = _PH_TOKEN.match(tok)
            if ph:
                if idx != 0:
                    raise ValueError("PH token must appear first")
                phase = int(ph.group(1))
                if not 0 <= phase < ctx.order:
                    raise ValueError("PH exponent out of range [0, 2n)")
                continue
            _, j = _token_gate(ctx, tok)
            tokens.append(tok if tok in ("H", "S") else token_w(j))
        return cls(phase, tuple(tokens))

    def __iter__(self):
        return iter(self.tokens)


def _word_gates(ctx: Context, tokens, phase: int = 0) -> list[tuple[str, int]]:
    """The kernel gates of zeta^phase times a word of H, S and W^j tokens."""
    return [("ph", phase)] + [_token_gate(ctx, t) for t in tokens]


def eval_sequence(seq: GateSequence, ctx: Context) -> UnitaryRn:
    """Exact product zeta^phase * (leftmost token first).

    Each row (x, y) of the identity times zeta^phase goes through the tokens
    by the kernel (apply_gates): S and W^j shift y by n/2 and j, and H maps
    it to (s + zeta^(n/2) s, d + zeta^(n/2) d) / 2, s = x + y, d = x - y.
    """
    return apply_gates(UnitaryRn.identity(ctx), _word_gates(ctx, seq.tokens, seq.phase_power))


def _strip(u: UnitaryRn, gates) -> UnitaryRn:
    """(G_1 ... G_t)^-1 u for kernel gates G_i: each gate undone by its own
    kind with exponent -a mod 2n, and H0^-1 = zeta^(-n/2) H0 (H0^2 = i I)."""
    ctx = u.ctx
    inverse = [(kind, -a % ctx.order) for kind, a in gates]
    turns = sum(kind == "h" for kind, _ in inverse) * (ctx.n // 2)
    return apply_gates(u, inverse + [("ph", -turns % ctx.order)], left=True)


def dagger_tokens(word: tuple[str, ...]) -> tuple[tuple[str, ...], int]:
    """Tokens and H-count h with eval(word)^dagger = zeta^(-h*n/2) eval(out).

    H is its own inverse up to the phase i (H0^2 = i I), so each H in the
    word leaves a factor of -i = zeta^(-n/2); S^dagger = S^3 exactly.
    """
    out = []
    h_count = 0
    for tok in reversed(word):
        if tok == "H":
            out.append("H")
            h_count += 1
        elif tok == "S":
            out.extend(("S", "S", "S"))
        else:
            raise ValueError("conjugator words contain only H and S tokens")
    return tuple(out), h_count


def equal_up_to_phase(u: UnitaryRn, v: UnitaryRn) -> RingElem | None:
    """The scalar lam with u = lam * v, if one exists."""
    if u.ctx.n != v.ctx.n:
        raise ValueError("mixed contexts")
    p = u @ v.dagger()
    if not (p.rows[0][1].is_zero() and p.rows[1][0].is_zero()):
        return None
    if p.rows[0][0] != p.rows[1][1]:
        return None
    lam = p.rows[0][0]
    if not _is_unit_sum((lam,)):
        raise IntegrityError("proportionality scalar is not unit modulus")
    return lam


# -- serialization -----------------------------------------------------------


def matrix_to_json(u: UnitaryRn) -> dict:
    """Common-denominator JSON form of a unitary."""
    m, vecs = _common_numerators([e for row in u.rows for e in row])
    entries = [[list(vecs[0]), list(vecs[1])], [list(vecs[2]), list(vecs[3])]]
    return {"n": u.ctx.n, "denom_exp": m, "entries": entries}


def matrix_from_json(obj: dict) -> UnitaryRn:
    if not isinstance(obj, dict):
        raise ValueError("matrix JSON must be an object")
    for key in ("n", "denom_exp", "entries"):
        if key not in obj:
            raise ValueError("matrix JSON missing field %r" % key)
    # bool is a subclass of int, so JSON true/false must be turned away
    # explicitly here and in the coefficient vectors.
    n = obj["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 2 or n % 2:
        raise ValueError("field 'n' must be a positive even integer")
    m = obj["denom_exp"]
    if not isinstance(m, int) or isinstance(m, bool) or m < 0:
        raise ValueError("field 'denom_exp' must be a nonnegative integer")
    entries = obj["entries"]
    if not (isinstance(entries, list) and len(entries) == 2):
        raise ValueError("field 'entries' must be a 2x2 array")
    # The vectors are checked against phi(2n) before the context is built:
    # its lane tables cost O(n W (s - phi(s))) bits, n = 2^k s, for each
    # lane width W.  Every prime p | 2n has (p - 1) | phi(2n), so a prime
    # factor above L + 1 proves phi(2n) > L for the longest vector's length
    # L; trial division stops there, or past 2^16 to name phi(2n) where
    # that is quick.
    longest = max((len(vec) for row in entries if isinstance(row, list)
                   for vec in row if isinstance(vec, list)), default=0)
    primes = factorize(2 * n, max(longest + 1, 1 << 16))
    degree = None if primes is None else math.prod(
        (p - 1) * p ** (a - 1) for p, a in primes.items())
    rows = []
    for r, row in enumerate(entries):
        if not (isinstance(row, list) and len(row) == 2):
            raise ValueError("field 'entries' must be a 2x2 array")
        out_row = []
        for c, vec in enumerate(row):
            if not isinstance(vec, list):
                raise ValueError("entry (%d,%d) must be a coefficient vector" % (r, c))
            if any(isinstance(x, bool) for x in vec):
                raise ValueError("entry (%d,%d): coefficients must be integers, "
                                 "not booleans" % (r, c))
            if degree is None:
                raise ValueError("entry (%d,%d): coefficient vector must have length "
                                 "phi(%d) > %d, got %d" % (r, c, 2 * n, longest, len(vec)))
            try:
                out_row.append(_checked_coeffs(vec, degree))
            except ValueError as exc:
                raise ValueError("entry (%d,%d): %s" % (r, c, exc)) from None
        rows.append(out_row)
    ctx = make_context(n)
    return UnitaryRn(ctx, [[RingElem(CycInt(ctx, v), m) for v in row] for row in rows])

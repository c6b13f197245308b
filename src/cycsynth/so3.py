"""The Bloch-sphere image: exact SO(3) rotations over the real subring.

bloch() sends a unitary U to the 3x3 matrix R with column j holding the
expansion of U P_j U^dagger over the Paulis (P_1, P_2, P_3) = (X, Y, Z);
with this orientation bloch(UV) = bloch(U) bloch(V) holds exactly and
global phases vanish.  Cliffords map to the 24 signed permutation matrices
of determinant 1.

Each entry of R is a quadratic form in U's entries (Giles-Selinger): with
U's columns c0, c1, U X U^dagger = c0 c1^dagger + c1 c0^dagger,
U Y U^dagger = i (c1 c0^dagger - c0 c1^dagger), U Z U^dagger =
2 c0 c0^dagger - I, so R needs products x y* of two entries, no matrix
product.  Those run on packed lanes (cyclo.Lanes): each is one int product
of x's lanes and y*'s (Kronecker substitution), y* being y's lanes
reversed and rotated, and each entry of R is a sum of them, folded once
mod Phi_2n and normalized on the lanes; no CycInt product is formed.  The
descent starts from those lane entries (_bloch_entries); bloch() unpacks
them into a Rotation.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cyclo import Context, CycInt, Lanes
from .errors import IntegrityError
from .rings import RingElem, _conj_products
from .su2 import AXES, GateSequence, UnitaryRn, eval_sequence, h0, s_gate, u_axis

__all__ = [
    "CliffordRot",
    "Rotation",
    "bloch",
    "clifford_group",
    "clifford_unitary",
    "is_signed_permutation",
    "rotation_generator",
]


class Rotation:
    """A 3x3 orthogonal matrix of determinant 1 over the real subring."""

    __slots__ = ("ctx", "rows")

    def __init__(self, ctx: Context, rows, check: bool = True):
        self.ctx = ctx
        self.rows = tuple(tuple(row) for row in rows)
        if check:
            for row in self.rows:
                for e in row:
                    if not e.is_real():
                        raise ValueError("rotation entries must be real")
            if not self._is_special_orthogonal():
                raise ValueError("matrix is not a rotation (M M^T != I or det != 1)")

    def _is_special_orthogonal(self) -> bool:
        one = RingElem.one(self.ctx)
        for i in range(3):
            for j in range(i, 3):
                dot = _dot(self.rows[i], self.rows[j])
                want = one if i == j else RingElem.zero(self.ctx)
                if dot != want:
                    return False
        return self.det() == one

    @classmethod
    def identity(cls, ctx: Context) -> "Rotation":
        one, zero = RingElem.one(ctx), RingElem.zero(ctx)
        return cls(
            ctx,
            ((one, zero, zero), (zero, one, zero), (zero, zero, one)),
            check=False,
        )

    def __matmul__(self, other: "Rotation") -> "Rotation":
        if self.ctx.n != other.ctx.n:
            raise ValueError("mixed contexts in rotation product")
        orows = other.rows
        out = []
        for row in self.rows:
            acc = [None, None, None]
            for j in range(3):
                acc[j] = _combo(row, (orows[0][j], orows[1][j], orows[2][j]))
            out.append(tuple(acc))
        return Rotation(self.ctx, tuple(out), check=False)

    def det(self) -> RingElem:
        r = self.rows
        return (
            r[0][0] * (r[1][1] * r[2][2] - r[1][2] * r[2][1])
            - r[0][1] * (r[1][0] * r[2][2] - r[1][2] * r[2][0])
            + r[0][2] * (r[1][0] * r[2][1] - r[1][1] * r[2][0])
        )

    def key(self):
        return tuple(e.key() for row in self.rows for e in row)

    def signed_perm_key(self):
        """Small-integer pattern if every entry is 0 or +-1, else None."""
        out = []
        for row in self.rows:
            for e in row:
                v = e.as_int()
                if v is None or v not in (-1, 0, 1):
                    return None
                out.append(v)
        return tuple(out)

    def __eq__(self, other):
        return (
            isinstance(other, Rotation)
            and self.ctx.n == other.ctx.n
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.ctx.n, self.key()))

    def __repr__(self):
        return "Rotation(n=%d, %r)" % (self.ctx.n, self.rows)


def _dot(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _combo(weights, vec):
    # sum of weights[j] * vec[j] with fast paths for 0 and +-1 weights
    acc = None
    for w, x in zip(weights, vec):
        if w.is_zero():
            continue
        term = x if w.as_int() == 1 else (-x if w.as_int() == -1 else w * x)
        acc = term if acc is None else acc + term
    return RingElem.zero(vec[0].ctx) if acc is None else acc


# (i, j) for the products x_i conj(x_j) of (x_0, x_1, x_2, x_3) = (a, b, c, d)
# that the Bloch image reads: a d*, b c*, a c*, a b* and c d*, each with its
# conjugate, the same product swapped, and |a|^2 and |c|^2
_BLOCH_PAIRS = ((0, 3), (3, 0), (1, 2), (2, 1), (0, 2), (2, 0), (0, 1), (1, 0), (2, 3), (3, 2),
                (0, 0), (2, 2))


def _bloch_entries(u: UnitaryRn) -> tuple[Lanes, list]:
    """(lanes, rows): the entries of bloch(u) as lane entries (p, m)
    (Lanes.entry), p folded lanes over 2^m with every power of 2 their
    lanes share taken off, at the width of the products.

    With a, b, c, d over a common 2^M, each x y* is a numerator over
    2^(2M) (rings._conj_products), and Re w = (w + w*) / 2,
    Im w = (w - w*) zeta^(-n/2) / 2 with w* the swapped product, so the
    rows of bloch() are sums of those numerators, rotated on lanes for
    Im, each folded once, over 2^(2M+1) (or 2^(2M) for 2 Re a c* and
    |a|^2 - |c|^2)."""
    (a, b), (c, d) = u.rows
    lanes, m, x = _conj_products((a, b, c, d), _BLOCH_PAIRS)
    s, sc = x[0, 3] + x[1, 2], x[3, 0] + x[2, 1]
    t, tc = x[0, 3] - x[1, 2], x[3, 0] - x[2, 1]
    r, rc = x[0, 1] - x[2, 3], x[1, 0] - x[3, 2]
    p, pc = x[0, 2], x[2, 0]
    zeta, inv_i = lanes.zeta, -(u.ctx.n // 2)  # 1/i = zeta^(-n/2)
    h, w = 2 * m + 1, 2 * m
    rows = (((s + sc, h), (zeta(t - tc, inv_i), h), (p + pc, w)),
            ((zeta(sc - s, inv_i), h), (t + tc, h), (zeta(pc - p, inv_i), w)),
            ((r + rc, h), (zeta(r - rc, inv_i), h), (x[0, 0] - x[2, 2], w)))
    entry = lanes.entry
    return lanes, [[entry(q, k) for q, k in row] for row in rows]


def bloch(u: UnitaryRn) -> Rotation:
    """Exact SO(3) image; column j expands U P_j U^dagger over the Paulis.

    With columns c0 = (a, c), c1 = (b, d), U X U^dagger = c0 c1^dagger +
    c1 c0^dagger, U Y U^dagger = i (c1 c0^dagger - c0 c1^dagger) and
    U Z U^dagger = 2 c0 c0^dagger - I give, for s, t = a d* +- b c* and
    r = a b* - c d*, the rows (Re s, Im t, 2 Re a c*), (-Im s, Re t,
    -2 Im a c*), (Re r, Im r, |a|^2 - |c|^2).  They are computed on packed
    lanes, from products x y* by Kronecker substitution (_bloch_entries),
    and unpacked once into the Rotation; the descent reads the lane
    entries themselves.  u is a checked unitary, so the Rotation is not
    checked again.
    """
    ctx = u.ctx
    lanes, rows = _bloch_entries(u)
    unpack = lanes.unpack
    return Rotation(ctx, [[RingElem(CycInt(ctx, unpack(p)), m) for p, m in row] for row in rows],
                    check=False)


def rotation_generator(ctx: Context, p: str, a: int) -> Rotation:
    """Exact Bloch image of the pi*a/n rotation about axis p, built on each
    call: the descent builds its candidates without generators, and the
    rewriting pass reads its quarter turns from a table of Clifford indices."""
    if p not in AXES:
        raise ValueError("axis must be one of %r" % (AXES,))
    return bloch(u_axis(ctx, p, 1, a % ctx.order))


@dataclass(frozen=True)
class CliffordRot:
    """A signed permutation rotation with a shortest {H, S} word for it."""

    rotation: Rotation
    word: tuple[str, ...]


def clifford_group(ctx: Context) -> tuple[CliffordRot, ...]:
    """All 24 Clifford rotations, with lexicographically-first shortest words."""
    return ctx.memo("clifford_group", lambda: _clifford_closure(ctx))


def _clifford_closure(ctx: Context) -> tuple[CliffordRot, ...]:
    # Breadth-first closure from bloch(H0) and bloch(S); expanding H before
    # S makes the assigned words deterministic.
    gens = (("H", bloch(h0(ctx))), ("S", bloch(s_gate(ctx))))
    start = Rotation.identity(ctx)
    seen = {start.key(): CliffordRot(start, ())}
    frontier = [seen[start.key()]]
    while frontier:
        nxt = []
        for elem in frontier:
            for tok, gen in gens:
                rot = elem.rotation @ gen
                key = rot.key()
                if key not in seen:
                    entry = CliffordRot(rot, elem.word + (tok,))
                    seen[key] = entry
                    nxt.append(entry)
        frontier = nxt
    elems = tuple(sorted(seen.values(), key=lambda e: (len(e.word), e.word)))
    if len(elems) != 24:
        raise IntegrityError("Clifford closure has %d elements, expected 24" % len(elems))
    return elems


def _signed_perm_table(ctx: Context) -> dict:
    table = {e.rotation.signed_perm_key(): e for e in clifford_group(ctx)}
    if None in table:
        raise IntegrityError("Clifford rotation is not a signed permutation")
    return table


def is_signed_permutation(m: Rotation) -> CliffordRot | None:
    """Table lookup against the 24 Clifford rotations (with word), or None."""
    pat = m.signed_perm_key()
    if pat is None:
        return None
    ctx = m.ctx
    return ctx.memo("signed_perm_table", lambda: _signed_perm_table(ctx)).get(pat)


def clifford_unitary(ctx: Context, cr: CliffordRot) -> UnitaryRn:
    """A unitary realizing the rotation: its word, evaluated by the kernel."""
    return eval_sequence(GateSequence(0, cr.word), ctx)


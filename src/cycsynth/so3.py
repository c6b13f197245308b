"""The Bloch-sphere image: exact SO(3) rotations over the real subring.

bloch() sends a unitary U to the 3x3 matrix R with column j holding the
expansion of U P_j U^dagger over the Paulis (P_1, P_2, P_3) = (X, Y, Z);
with this orientation bloch(UV) = bloch(U) bloch(V) holds exactly and
global phases vanish.  Cliffords map to the 24 signed permutation matrices
of determinant 1.

Each entry of R is a quadratic form in U's entries (Giles-Selinger): with
U's columns c0, c1, U X U^dagger = c0 c1^dagger + c1 c0^dagger,
U Y U^dagger = i (c1 c0^dagger - c0 c1^dagger), U Z U^dagger =
2 c0 c0^dagger - I, so bloch() forms entry products, no matrix product.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cyclo import Context
from .errors import IntegrityError
from .rings import RingElem
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


def bloch(u: UnitaryRn) -> Rotation:
    """Exact SO(3) image; column j expands U P_j U^dagger over the Paulis.

    With columns c0 = (a, c), c1 = (b, d), U X U^dagger = c0 c1^dagger +
    c1 c0^dagger, U Y U^dagger = i (c1 c0^dagger - c0 c1^dagger) and
    U Z U^dagger = 2 c0 c0^dagger - I give, for s, t = a d* +- b c* and
    r = a b* - c d*, the rows (Re s, Im t, 2 Re a c*), (-Im s, Re t,
    -2 Im a c*), (Re r, Im r, |a|^2 - |c|^2): 7 entry products.  u is a
    checked unitary, so the Rotation is not checked again.
    """
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


"""Exact linear algebra over Q for parameter-valuation subspaces.

Subspaces of Q^n are stored as reduced-row-echelon bases, which makes them
canonical: two subspaces are equal iff their basis matrices are identical.
Elimination runs once per call on content-free integer rows (cross-
multiplication, no intermediate fractions); `nullspace` answers in integer
rows, and rationals are made only where a `Subspace` basis is built.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .poly import as_fraction, primitive_integers


def _echelon(rows, width: int):
    """Integer reduced row echelon form.

    Returns (pivots, pivot_rows): pivot columns ascending, and one
    content-free integer row per pivot, with a positive pivot entry and
    zeros in every other pivot column.  Zero and dependent rows eliminate
    to nothing.
    """
    pivots = []
    pivot_rows = []
    for row in rows:
        row, _ = primitive_integers([as_fraction(v) for v in row])
        if len(row) != width:
            raise ValueError("row width mismatch")
        # eliminate against existing pivots, then adopt as a new pivot row
        for col, prow in zip(pivots, pivot_rows):
            v = row[col]
            if v:
                p = prow[col]
                g = gcd(abs(v), p)
                a, b = p // g, v // g
                row = [a * x - b * y for x, y in zip(row, prow)]
        if not any(row):
            continue
        row, _ = primitive_integers(row)
        col = next(i for i, v in enumerate(row) if v)
        if row[col] < 0:
            row = [-x for x in row]
        pivots.append(col)
        pivot_rows.append(row)
    # back-substitute above pivots
    order = sorted(range(len(pivots)), key=lambda i: pivots[i])
    pivots = [pivots[i] for i in order]
    pivot_rows = [pivot_rows[i] for i in order]
    for i in range(len(pivot_rows) - 1, -1, -1):
        col = pivots[i]
        prow = pivot_rows[i]
        p = prow[col]
        for j in range(i):
            v = pivot_rows[j][col]
            if v:
                g = gcd(abs(v), p)
                a, b = p // g, v // g
                pivot_rows[j], _ = primitive_integers(
                    [a * x - b * y for x, y in zip(pivot_rows[j], prow)]
                )
    return pivots, pivot_rows


def rref(rows, width: int):
    """Canonical reduced row echelon form.

    Returns (basis, pivots): `basis` is a tuple of tuples of Fractions with
    unit pivots and zeros above and below them, `pivots` the pivot columns.
    """
    pivots, pivot_rows = _echelon(rows, width)
    basis = tuple(
        tuple(Fraction(v, row[col]) for v in row)
        for col, row in zip(pivots, pivot_rows)
    )
    return basis, tuple(pivots)


def nullspace(rows, width: int):
    """Basis of {v in Q^width : row . v = 0 for all rows} as content-free
    integer rows, each a positive multiple of the kernel's canonical RREF row.

    One elimination, on the reversed columns: the kernel vector of a free
    column f then has its first nonzero entry at f and zeros in every other
    free column, which is the kernel's RREF up to the scale of each row.
    """
    pivots, pivot_rows = _echelon([r[::-1] for r in rows], width)
    basis = []
    for f in reversed(range(width)):
        if f in pivots:
            continue
        deps = [(col, prow) for col, prow in zip(pivots, pivot_rows) if prow[f]]
        scale = lcm(*(prow[col] for col, prow in deps))
        v = [0] * width
        v[f] = scale
        for col, prow in deps:
            v[col] = -prow[f] * (scale // prow[col])
        g = gcd(*v)
        basis.append([x // g for x in reversed(v)])
    return basis


class Subspace:
    """A linear subspace of Q^n in canonical RREF basis form."""

    __slots__ = ("ambient_dim", "basis", "_pivots")

    def __init__(self, ambient_dim: int, basis, pivots):
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "basis", tuple(tuple(r) for r in basis))
        object.__setattr__(self, "_pivots", tuple(pivots))

    def __setattr__(self, *_):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def from_rows(cls, rows, ambient_dim: int) -> "Subspace":
        basis, pivots = rref(rows, ambient_dim)
        return cls(ambient_dim, basis, pivots)

    @classmethod
    def full(cls, n: int) -> "Subspace":
        eye = [
            tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n)
        ]
        return cls(n, eye, tuple(range(n)))

    @classmethod
    def zero(cls, n: int) -> "Subspace":
        return cls(n, (), ())

    @property
    def dim(self) -> int:
        return len(self.basis)

    def is_full(self) -> bool:
        return self.dim == self.ambient_dim

    def is_zero(self) -> bool:
        return self.dim == 0

    def contains(self, vector) -> bool:
        v = [as_fraction(x) for x in vector]
        if len(v) != self.ambient_dim:
            raise ValueError("vector dimension mismatch")
        for row, col in zip(self.basis, self._pivots):
            c = v[col]
            if c:
                for i in range(self.ambient_dim):
                    v[i] -= c * row[i]
        return not any(v)

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of Q^{self.ambient_dim})"

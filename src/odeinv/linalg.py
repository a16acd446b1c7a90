"""Exact linear algebra over Q for parameter-valuation subspaces.

Subspaces of Q^n are stored as reduced-row-echelon bases, which makes them
canonical: two subspaces are equal iff their basis matrices are identical.
Rows are sparse, {column: value}.  Elimination runs once per call on
content-free integer rows (cross-multiplication, no intermediate fractions);
`nullspace` answers in sparse integer rows, and rationals are made only
where a `Subspace` basis is built.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .poly import as_fraction, primitive_integers


def _primitive(row: dict) -> dict:
    """Content-free integer row proportional to the sparse rational row
    `row`, zero entries dropped."""
    cols = [k for k, v in row.items() if v]
    ints, _ = primitive_integers([row[k] for k in cols])
    return dict(zip(cols, ints))


def _eliminate(row: dict, col: int, prow: dict) -> dict:
    """a*row - b*prow with the least a > 0 that clears `col`, zeros dropped;
    `prow` has a positive entry at `col`."""
    v, p = row[col], prow[col]
    g = gcd(v, p)
    a, b = p // g, v // g
    out = {k: a * x for k, x in row.items()}
    for k, y in prow.items():
        x = out.get(k)
        out[k] = -b * y if x is None else x - b * y
    return {k: x for k, x in out.items() if x}


def _echelon(rows, width: int):
    """Integer reduced row echelon form of sparse rows {column: rational}.

    Returns (pivots, pivot_rows): pivot columns ascending, and one
    content-free integer row {column: int} per pivot, with a positive pivot
    entry and no entry in any other pivot column.  Zero and dependent rows
    eliminate to nothing.
    """
    echelon = {}  # pivot column -> row, in order of adoption
    for row in rows:
        row = _primitive(row)
        if row and not (min(row) >= 0 and max(row) < width):
            raise ValueError("row has a column outside the width")
        # an adopted row has no entry in the pivot columns adopted before
        # it, so one pass in adoption order clears every pivot column
        for col, prow in echelon.items():
            if col in row:
                row = _eliminate(row, col, prow)
        if not row:
            continue
        row = _primitive(row)
        col = min(row)
        if row[col] < 0:
            row = {k: -x for k, x in row.items()}
        echelon[col] = row
    pivots = sorted(echelon)
    # back-substitute above pivots
    for i in range(len(pivots) - 1, -1, -1):
        col = pivots[i]
        prow = echelon[col]
        for above in pivots[:i]:
            if col in echelon[above]:
                echelon[above] = _primitive(_eliminate(echelon[above], col, prow))
    return pivots, [echelon[col] for col in pivots]


def rref(rows, width: int):
    """Canonical reduced row echelon form of sparse rows {column: rational}.

    Returns (basis, pivots): `basis` is a tuple of dense tuples of Fractions
    with unit pivots and zeros above and below them, `pivots` the pivot
    columns.
    """
    pivots, pivot_rows = _echelon(rows, width)
    basis = []
    for col, row in zip(pivots, pivot_rows):
        dense = [Fraction(0)] * width
        p = row[col]
        for k, v in row.items():
            dense[k] = Fraction(v, p)
        basis.append(tuple(dense))
    return tuple(basis), tuple(pivots)


def nullspace(rows, width: int):
    """Basis of {v in Q^width : row . v = 0 for all rows} for sparse rows
    {column: rational}, as content-free sparse integer rows {column: int},
    each a positive multiple of the kernel's canonical RREF row.

    One elimination, on the reversed columns: the kernel vector of a free
    column f then has its first nonzero entry at f and zeros in every other
    free column, which is the kernel's RREF up to the scale of each row.
    """
    last = width - 1
    pivots, pivot_rows = _echelon(
        ({last - k: v for k, v in r.items()} for r in rows), width
    )
    # deps[f]: the pivot rows with an entry in free column f
    deps = {}
    for col, prow in zip(pivots, pivot_rows):
        for f, x in prow.items():
            if f != col:
                deps.setdefault(f, []).append((col, x, prow[col]))
    pivot_set = set(pivots)
    basis = []
    for f in range(last, -1, -1):
        if f in pivot_set:
            continue
        fdeps = deps.get(f, ())
        scale = lcm(*(p for _, _, p in fdeps))
        v = {last - f: scale}
        for col, x, p in fdeps:
            v[last - col] = -x * (scale // p)
        g = gcd(*v.values())
        basis.append({k: x // g for k, x in v.items()})
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

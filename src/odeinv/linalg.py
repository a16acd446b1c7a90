"""Exact linear algebra over Q for parameter-valuation subspaces.

Rows are sparse, {column: value}.  Gauss-Jordan elimination makes one
pass per call over content-free integer rows (cross-multiplication, no
intermediate fractions), each pivot row kept positive at its pivot and zero
in every other pivot column, and answers in such rows: `nullspace` returns
the kernel's, and a `Subspace` stores its integer echelon rows, one per
pivot, which are canonical, so two subspaces are equal iff their rows are.
Rationals enter only as given rows, through `poly.cleared`, and are made
only by callers that print or instantiate a row.  `combine` is the one
sparse product of the templates and the chains.
"""

from __future__ import annotations

from math import gcd, lcm

from .poly import cleared, content_free


def combine(coeffs: dict, rows) -> dict:
    """The sparse row sum of c * rows[k] over the sparse coefficients
    {k: c}, zero entries dropped in place."""
    acc: dict = {}
    for k, c in coeffs.items():
        for i, v in rows[k].items():
            acc[i] = acc.get(i, 0) + c * v
    for i in [i for i, x in acc.items() if not x]:
        del acc[i]
    return acc


def _primitive(row: dict) -> dict:
    """The integer row `row` divided by its content."""
    return dict(zip(row, content_free(row.values())))


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
    entry and no entry in any other pivot column, kept so from adoption on:
    a new row is cleared only at the pivot columns it holds, which brings in
    no other, and then its pivot is cleared from the pivot rows holding it.
    Zero and dependent rows eliminate to nothing.
    """
    echelon = {}  # pivot column -> row
    # cleared over one lcm: a row made content-free does not depend on it
    for row in cleared(rows)[0]:
        row = _primitive(row)
        if row and not (min(row) >= 0 and max(row) < width):
            raise ValueError("row has a column outside the width")
        for col in [c for c in row if c in echelon]:
            row = _eliminate(row, col, echelon[col])
        if not row:
            continue
        row = _primitive(row)
        col = min(row)
        if row[col] < 0:
            row = {k: -x for k, x in row.items()}
        for p, prow in echelon.items():
            if col in prow:
                echelon[p] = _primitive(_eliminate(prow, col, row))
        echelon[col] = row
    pivots = sorted(echelon)
    return pivots, [echelon[col] for col in pivots]


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
    """A linear subspace of Q^n, stored as its integer echelon rows.

    `pivots` are the pivot columns, ascending; `rows[i]` is the sparse
    content-free integer row {column: int} of pivots[i], positive there and
    zero in every other pivot column.  Each row is the canonical RREF row
    times the one positive scale that makes it content-free, so equal
    subspaces store equal rows.
    """

    __slots__ = ("ambient_dim", "pivots", "rows")

    def __init__(self, ambient_dim: int, pivots, rows):
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "pivots", tuple(pivots))
        object.__setattr__(self, "rows", tuple(rows))

    def __setattr__(self, *_):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def from_rows(cls, rows, ambient_dim: int) -> "Subspace":
        """The span of sparse rows {column: rational}."""
        return cls(ambient_dim, *_echelon(rows, ambient_dim))

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def is_full(self) -> bool:
        return self.dim == self.ambient_dim

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.ambient_dim, tuple(frozenset(r.items()) for r in self.rows)))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of Q^{self.ambient_dim})"

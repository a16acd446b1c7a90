"""Vector fields, Lie derivatives, and parameter-linear templates.

A template is a polynomial over the state variables whose coefficients are
linear forms in a disjoint parameter tuple.  Its monomials live in the state
universe only; parameters never enter monomials, which keeps templates
linear by construction and lets the precondition basis reduce templates one
state monomial at a time.  A template monomial, like a vector field's or a
polynomial's, is the universe's packed integer, the Groebner engine's own
monomial, so instances, drifts and reductions pass their keys on as they
are.

A template is stored as its parameters' instances, one integer column
{packed monomial: int} per parameter over one denominator: the chains use
only spans, so `lie`, `reduce_by` and `compose` run on integers, each
column combined with the images of its monomials or of the old columns by
the one sparse product `linalg.combine`, and the scale goes into the
denominator.  The columns are what an `Ideal` reads as the generators of
J; `forms` transposes them into the rows `nullspace` reads.
"""

from __future__ import annotations

from math import gcd, lcm

from .groebner import GroebnerReducer
from .linalg import Subspace, combine
from .poly import (
    Polynomial,
    Symbol,
    SymbolUniverse,
    cleared,
    exponent_overflow,
    monomials_up_to_degree,
)


class VectorField:
    """Drifts f_1..f_N aligned with the state variables of one universe.

    Lie images are read off one deriver per variable whose drift is
    nonzero, built once: (exponent field, shift, the integer drift terms
    shifted by -x_i), so the image of m takes e_i = (m & field) >> shift
    and adds m to each shifted term, with no exponent tuple made.
    """

    __slots__ = ("universe", "drifts", "denominator", "_derivers", "_lie_cache",
                 "_advance")

    def __init__(self, universe: SymbolUniverse, drifts):
        drifts = tuple(drifts)
        if len(drifts) != len(universe.symbols):
            raise ValueError("need exactly one drift per state variable")
        for sym in universe.symbols:
            if sym.kind != Symbol.STATE:
                raise ValueError("vector fields are defined over state variables only")
        for d in drifts:
            if d.universe is not universe:
                raise ValueError("drift from a different symbol universe")
        # D * f_i as integer terms on packed monomials, D the drifts' lcm denominator
        scaled, den = cleared(d._terms for d in drifts)
        packing = universe.packing
        derivers = tuple(
            (field, (field & -field).bit_length() - 1, [(de - x, dc) for de, dc in drift.items()])
            for field, x, drift in zip(packing.fields, packing.units, scaled)
            if drift
        )
        object.__setattr__(self, "universe", universe)
        object.__setattr__(self, "drifts", drifts)
        object.__setattr__(self, "denominator", den)
        object.__setattr__(self, "_derivers", derivers)
        object.__setattr__(self, "_lie_cache", {})
        # the float walk numcheck.compile_rk4 builds on first use
        object.__setattr__(self, "_advance", None)

    def __setattr__(self, *_):
        raise AttributeError("VectorField is immutable")

    def lie_monomial(self, m) -> dict:
        """Integer term map of D * L(m), D = `denominator`, for a packed
        monomial m, on packed monomials (cached): the sum over the
        derivers of e_i * m * (D * f_i) / x_i.

        Cancelled terms stay as zeros; `combine`, which every consumer
        reads it through, drops them.
        """
        cached = self._lie_cache.get(m)
        if cached is not None:
            return cached
        guards = self.universe.packing.guards
        total: dict = {}
        for field, shift, terms in self._derivers:
            e = (m & field) >> shift
            if not e:
                continue
            for dt, dc in terms:
                ne = m + dt
                if ne & guards:
                    raise exponent_overflow()
                acc = total.get(ne)
                total[ne] = e * dc if acc is None else acc + e * dc
        self._lie_cache[m] = total
        return total

    def __repr__(self):
        names = ", ".join(s.name for s in self.universe.symbols)
        return f"VectorField({names})"


def lie_derivative(p: Polynomial, field: VectorField) -> Polynomial:
    """Syntactic Lie derivative <grad p, F>, taken on integers."""
    if p.universe is not field.universe:
        raise ValueError("polynomial and field use different universes")
    (ints,), den = cleared([p._terms])
    terms = combine(ints, {m: field.lie_monomial(m) for m in ints})
    return Polynomial.from_packed(p.universe, terms.items(), den * field.denominator)


class Template:
    """A polynomial with parameter-linear coefficients.

    Stored as `columns`, one integer column {packed state monomial: int}
    per parameter, with no zero entry, over one positive `denominator`:
    column k is the instance at the k-th unit valuation times the
    denominator.  Columns and denominator are in lowest terms, so equal
    values have equal columns.  The columns are the template's own dicts,
    to be read, not changed.
    """

    __slots__ = ("universe", "params", "columns", "denominator")

    def __init__(self, universe: SymbolUniverse, params, columns, denominator: int = 1):
        """Integer columns without zero entries over a positive `denominator`."""
        columns = tuple(columns)
        g = denominator
        for col in columns:
            if g == 1:
                break
            g = gcd(g, *col.values())
        if g != 1:
            columns = tuple({m: v // g for m, v in col.items()} for col in columns)
        object.__setattr__(self, "universe", universe)
        object.__setattr__(self, "params", tuple(params))
        object.__setattr__(self, "columns", columns)
        object.__setattr__(self, "denominator", denominator // g)

    def __setattr__(self, *_):
        raise AttributeError("Template is immutable")

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_instances(cls, universe, params, polys) -> "Template":
        """Sum of param_k * poly_k, over the lcm of all their denominators."""
        polys = list(polys)
        if len(polys) != len(params):
            raise ValueError("one polynomial per parameter required")
        for p in polys:
            if p.universe is not universe:
                raise ValueError("instance from a different universe")
        columns, den = cleared(p._terms for p in polys)
        return cls(universe, params, columns, den)

    # -- views ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.columns)

    def forms(self):
        """Parameter forms as sparse integer rows {parameter index: int},
        one per monomial, the transpose of the columns: the template
        vanishes exactly where all do."""
        rows: dict = {}
        for k, col in enumerate(self.columns):
            for m, v in col.items():
                row = rows.get(m)
                if row is None:
                    rows[m] = {k: v}
                else:
                    row[k] = v
        return list(rows.values())

    def unit_instances(self):
        """Instantiations at the standard basis of the parameter space."""
        return [
            Polynomial.from_packed(self.universe, col.items(), self.denominator)
            for col in self.columns
        ]

    # -- operations ---------------------------------------------------------

    def lie(self, field: VectorField) -> "Template":
        """Lie derivative with linear expressions treated as constants."""
        if field.universe is not self.universe:
            raise ValueError("template and field use different universes")
        monomials = {m for col in self.columns for m in col}
        images = {m: field.lie_monomial(m) for m in monomials}
        columns = [combine(col, images) for col in self.columns]
        return Template(self.universe, self.params, columns, self.denominator * field.denominator)

    def compose(self, rows, new_params, denominator: int = 1) -> "Template":
        """Reparametrize by valuations v = y . rows / denominator.

        Each new parameter y_k stands for the sparse row rows[k] / denominator,
        rows[k] = {old parameter j: rational}, the API edge where rationals
        may enter; its column is the old columns combined by the row, once
        `poly.cleared` has put the rows over one lcm.
        """
        ints, den = cleared(rows)
        columns = [combine(row, self.columns) for row in ints]
        return Template(self.universe, new_params, columns, self.denominator * den * denominator)

    def reduce_by(self, reducer: GroebnerReducer) -> "Template":
        """Remainder template modulo the reducer's Groebner basis: each
        column combined with its monomials' normal forms over one scale."""
        flip = self.universe.packing.flip
        monomials = {m for col in self.columns for m in col}
        images, scale = reducer.images(sorted(monomials, key=flip.__xor__))
        columns = [combine(col, images) for col in self.columns]
        return Template(self.universe, self.params, columns, self.denominator * scale)

    def __eq__(self, other):
        return (
            isinstance(other, Template)
            and self.universe is other.universe
            and self.params == other.params
            and self.denominator == other.denominator
            and self.columns == other.columns
        )

    def __str__(self):
        parts = [
            f"{self.params[k].name}*({inst})"
            for k, inst in enumerate(self.unit_instances())
            if not inst.is_zero()
        ]
        return " + ".join(parts) or "0"

    __repr__ = __str__


def fresh_parameters(n: int, prefix: str = "a"):
    return tuple(Symbol(f"{prefix}{i + 1}", Symbol.PARAM) for i in range(n))


def complete_template(
    universe: SymbolUniverse, variables, degree: int, exclude=(), auxiliary=()
) -> Template:
    """One fresh parameter per monomial of total degree <= `degree`.

    Each auxiliary monomial m adds m and m*v for every template variable
    v; `exclude` then drops specific monomials, all packed, from the ansatz.
    Parameters are assigned in ascending (degree, order) sequence, so the
    first parameter always multiplies the constant monomial.
    """
    variables = list(variables)
    packing = universe.packing
    monos = set(monomials_up_to_degree(universe, variables, degree))
    units = [packing.units[universe.index_of(v)] for v in variables]
    for m in auxiliary:
        monos.add(m)
        monos.update(m + x for x in units)
    monos -= set(exclude)
    if any(m & packing.guards for m in monos):
        raise exponent_overflow()
    ordered = sorted(monos, key=lambda m: (packing.degree(m), m ^ packing.flip))
    params = fresh_parameters(len(ordered))
    return Template(universe, params, [{m: 1} for m in ordered])


def linear_combination_template(polys) -> Template:
    """Template sum a_i * q_i over the given polynomials."""
    polys = list(polys)
    if not polys:
        raise ValueError("need at least one polynomial")
    universe = polys[0].universe
    params = fresh_parameters(len(polys))
    return Template.from_instances(universe, params, polys)


def result_template(template: Template, space: Subspace) -> Template:
    """Fresh-parameter template b_1..b_d whose instances are exactly
    template[space].

    The k-th fresh parameter corresponds to the k-th row of `space.rows`,
    scaled to a unit pivot: the k-th row of the canonical RREF basis.
    """
    if space.ambient_dim != len(template.params):
        raise ValueError("subspace ambient dimension must match parameter count")
    params = fresh_parameters(space.dim, "b")
    pivots = [row[col] for col, row in zip(space.pivots, space.rows)]
    scale = lcm(*pivots)  # the rows over one denominator
    rows = [{j: v * (scale // p) for j, v in row.items()} for p, row in zip(pivots, space.rows)]
    return template.compose(rows, params, scale)

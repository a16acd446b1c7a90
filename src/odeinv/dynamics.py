"""Vector fields, Lie derivatives, and parameter-linear templates.

A template is a polynomial over the state variables whose coefficients are
linear forms in a disjoint parameter tuple.  Its monomials live in the state
universe only; parameters never enter monomials, which keeps templates
linear by construction and lets the precondition basis reduce templates one
state monomial at a time.  A template monomial, like a vector field's, is
the universe's packed integer, the Groebner engine's own monomial, so a
reduction hands its keys to the reducer as they are; exponent tuples appear
only where a template meets a `Polynomial`.

The chains use only spans, so a template holds integer forms over one
denominator: `lie`, `reduce_by` and `compose` run on integers, carry their
scale in the denominator, and every instance divides by it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .groebner import GroebnerReducer
from .linalg import Subspace
from .poly import (
    Polynomial,
    Symbol,
    SymbolUniverse,
    as_fraction,
    exponent_overflow,
    monomials_up_to_degree,
)


class VectorField:
    """Drifts f_1..f_N aligned with the state variables of one universe."""

    __slots__ = ("universe", "drifts", "denominator", "_scaled", "_lie_cache",
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
        den = lcm(*(c.denominator for d in drifts for c in d._terms.values()))
        pack = universe.packing.pack
        object.__setattr__(self, "universe", universe)
        object.__setattr__(self, "drifts", drifts)
        object.__setattr__(self, "denominator", den)
        # D = the lcm of the coefficients' denominators; the integer terms
        # of D * f_i on packed monomials
        object.__setattr__(self, "_scaled", tuple(
            [(pack(e), c.numerator * (den // c.denominator)) for e, c in d._terms.items()]
            for d in drifts
        ))
        object.__setattr__(self, "_lie_cache", {})
        # the float step numcheck.compile_rk4 builds on first use
        object.__setattr__(self, "_advance", None)

    def __setattr__(self, *_):
        raise AttributeError("VectorField is immutable")

    def lie_monomial(self, m) -> dict:
        """Integer term map of D * L(m), D = `denominator`, for a packed
        monomial m, on packed monomials (cached).

        Cancelled terms stay as zeros; every consumer ends in a constructor,
        which drops them.
        """
        cached = self._lie_cache.get(m)
        if cached is not None:
            return cached
        packing = self.universe.packing
        guards = packing.guards
        total: dict = {}
        for e, x, drift in zip(packing.unpack(m), packing.units, self._scaled):
            if not e:
                continue
            base = m - x
            for de, dc in drift:
                ne = base + de
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
    """Syntactic Lie derivative <grad p, F>."""
    if p.universe is not field.universe:
        raise ValueError("polynomial and field use different universes")
    packing = p.universe.packing
    acc: dict = {}
    for exps, c in p._terms.items():
        c /= field.denominator
        for ne, dc in field.lie_monomial(packing.pack(exps)).items():
            v = acc.get(ne)
            acc[ne] = c * dc if v is None else v + c * dc
    return Polynomial(p.universe, {packing.unpack(e): c for e, c in acc.items()})


class Template:
    """A polynomial with parameter-linear coefficients.

    Stored as integer forms {packed state monomial: {parameter index: int}}
    over one positive `denominator`, in lowest terms: equal values, equal
    forms.
    """

    __slots__ = ("universe", "params", "_terms", "denominator")

    def __init__(self, universe: SymbolUniverse, params, terms: dict, denominator: int = 1):
        """Integer forms `terms` over a positive `denominator`, in lowest terms."""
        g = denominator
        clean = {}
        for m, form in terms.items():
            form = {k: v for k, v in form.items() if v}
            if form:
                clean[m] = form
                if g != 1:
                    g = gcd(g, *form.values())
        if g != 1:
            clean = {e: {k: v // g for k, v in form.items()} for e, form in clean.items()}
        object.__setattr__(self, "universe", universe)
        object.__setattr__(self, "params", tuple(params))
        object.__setattr__(self, "_terms", clean)
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
        den = lcm(*(c.denominator for p in polys for c in p._terms.values()))
        pack = universe.packing.pack
        terms: dict = {}
        for k, p in enumerate(polys):
            if p.universe is not universe:
                raise ValueError("instance from a different universe")
            for exps, c in p._terms.items():
                terms.setdefault(pack(exps), {})[k] = c.numerator * (den // c.denominator)
        return cls(universe, params, terms, den)

    # -- views ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def forms(self):
        """Parameter forms as sparse integer rows {parameter index: int}, one
        per monomial: the template vanishes exactly where all do.  The rows
        are the template's own dicts, to be read, not changed."""
        return list(self._terms.values())

    # -- operations ---------------------------------------------------------

    def instantiate(self, valuation) -> Polynomial:
        """Substitute rationals for all parameters."""
        if isinstance(valuation, dict):
            v = [as_fraction(valuation[p]) for p in self.params]
        else:
            v = [as_fraction(x) for x in valuation]
        if len(v) != len(self.params):
            raise ValueError("valuation length does not match parameter count")
        unpack = self.universe.packing.unpack
        terms = {
            unpack(m): sum((coeff * v[k] for k, coeff in form.items()), Fraction(0))
            / self.denominator
            for m, form in self._terms.items()
        }
        return Polynomial(self.universe, terms)

    def unit_instances(self):
        """Instantiations at the standard basis of the parameter space."""
        n = len(self.params)
        cols: list = [dict() for _ in range(n)]
        den = self.denominator
        unpack = self.universe.packing.unpack
        for m, form in self._terms.items():
            exps = unpack(m)
            for k, c in form.items():
                # Fraction(c) of an int takes no gcd
                cols[k][exps] = Fraction(c) if den == 1 else Fraction(c, den)
        return [Polynomial(self.universe, col) for col in cols]

    def _map_monomials(self, images, denominator: int) -> "Template":
        """Apply the linear map sending the i-th state monomial to the i-th
        integer term map of `images`, over `denominator` more."""
        terms: dict = {}
        for form, image in zip(self._terms.values(), images):
            for ne, dc in image.items():
                dst = terms.get(ne)
                if dst is None:
                    dst = {}
                    terms[ne] = dst
                for k, v in form.items():
                    acc = dst.get(k)
                    dst[k] = v * dc if acc is None else acc + v * dc
        return Template(self.universe, self.params, terms, self.denominator * denominator)

    def lie(self, field: VectorField) -> "Template":
        """Lie derivative with linear expressions treated as constants."""
        if field.universe is not self.universe:
            raise ValueError("template and field use different universes")
        return self._map_monomials(map(field.lie_monomial, self._terms), field.denominator)

    def compose(self, rows, new_params, denominator: int = 1) -> "Template":
        """Reparametrize by valuations v = y . rows / denominator.

        Each new parameter y_k stands for the sparse row rows[k] / denominator,
        rows[k] = {old parameter j: rational}.  The rows are cleared by one lcm
        and indexed by column once, so the work follows their nonzeros.
        """
        den = lcm(*(r.denominator for row in rows for r in row.values()))
        cols: dict = {}
        for k, row in enumerate(rows):
            for j, r in row.items():
                cols.setdefault(j, []).append((k, r.numerator * (den // r.denominator)))
        terms: dict = {}
        for m, form in self._terms.items():
            dst: dict = {}
            for j, v in form.items():
                for k, r in cols.get(j, ()):
                    acc = dst.get(k)
                    dst[k] = v * r if acc is None else acc + v * r
            terms[m] = dst
        return Template(self.universe, new_params, terms, self.denominator * den * denominator)

    def reduce_by(self, reducer: GroebnerReducer) -> "Template":
        """Remainder template modulo the reducer's Groebner basis.

        The reducer is asked in ascending order, so each normal form finds
        the smaller ones it is built from cached and keeps few others."""
        flip = self.universe.packing.flip
        nfs = {m: reducer.monomial_terms(m) for m in sorted(self._terms, key=flip.__xor__)}
        parts = [nfs[m] for m in self._terms]
        scale = lcm(*(s for _, s in parts))
        images = (nf if s == scale else {e: v * (scale // s) for e, v in nf.items()}
                  for nf, s in parts)
        return self._map_monomials(images, scale)

    def __eq__(self, other):
        return (
            isinstance(other, Template)
            and self.universe is other.universe
            and self.params == other.params
            and self.denominator == other.denominator
            and self._terms == other._terms
        )

    def __str__(self):
        if not self._terms:
            return "0"
        parts = []
        for k, inst in enumerate(self.unit_instances()):
            if inst.is_zero():
                continue
            parts.append(f"{self.params[k].name}*({inst})")
        return " + ".join(parts)

    __repr__ = __str__


def fresh_parameters(n: int, prefix: str = "a"):
    return tuple(Symbol(f"{prefix}{i + 1}", Symbol.PARAM) for i in range(n))


def complete_template(
    universe: SymbolUniverse, variables, degree: int, exclude=(), auxiliary=()
) -> Template:
    """One fresh parameter per monomial of total degree <= `degree`.

    Each auxiliary monomial m, an exponent tuple, adds m and m*v for every
    template variable v; `exclude` then drops specific monomials from the
    ansatz.  Parameters are assigned in ascending (degree, order) sequence,
    so the first parameter always multiplies the constant monomial.
    """
    variables = list(variables)
    exps = set(monomials_up_to_degree(universe, variables, degree))
    for m in auxiliary:
        exps.add(m)
        for v in variables:
            i = universe.index_of(v)
            exps.add(m[:i] + (m[i] + 1,) + m[i + 1:])
    exps -= set(exclude)
    ordered = sorted(exps, key=lambda e: (sum(e), universe.key(e)))
    params = fresh_parameters(len(ordered))
    pack = universe.packing.pack
    return Template(universe, params, {pack(e): {k: 1} for k, e in enumerate(ordered)})


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

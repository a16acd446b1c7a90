"""Vector fields, Lie derivatives, and parameter-linear templates.

A template is a polynomial over the state variables whose coefficients are
linear forms in a disjoint parameter tuple.  Monomial keys live in the state
universe only; parameters never enter monomials, which keeps templates linear
by construction and lets the precondition basis reduce templates one state
monomial at a time.
"""

from __future__ import annotations

from fractions import Fraction

from .groebner import GroebnerReducer
from .linalg import Subspace
from .poly import (
    Polynomial,
    Symbol,
    SymbolUniverse,
    as_fraction,
    monomials_up_to_degree,
)


class TemplateLinearityError(ValueError):
    """A polynomial claimed to be a template is not parameter-linear."""


class VectorField:
    """Drifts f_1..f_N aligned with the state variables of one universe."""

    __slots__ = ("universe", "state_vars", "drifts", "_lie_cache", "_advance")

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
        object.__setattr__(self, "universe", universe)
        object.__setattr__(self, "state_vars", universe.symbols)
        object.__setattr__(self, "drifts", drifts)
        object.__setattr__(self, "_lie_cache", {})
        # the float step numcheck.compile_rk4 builds on first use
        object.__setattr__(self, "_advance", None)

    def __setattr__(self, *_):
        raise AttributeError("VectorField is immutable")

    def lie_monomial(self, exps) -> dict:
        """Term map of the Lie derivative of a single monomial (cached).

        Cancelled terms stay as zeros; every consumer ends in a constructor,
        which drops them.
        """
        cached = self._lie_cache.get(exps)
        if cached is not None:
            return cached
        total: dict = {}
        for i, e in enumerate(exps):
            if not e:
                continue
            drift = self.drifts[i]
            if drift.is_zero():
                continue
            base = list(exps)
            base[i] = e - 1
            for de, dc in drift._terms.items():
                ne = tuple(a + b for a, b in zip(base, de))
                acc = total.get(ne)
                total[ne] = e * dc if acc is None else acc + e * dc
        self._lie_cache[exps] = total
        return total

    def __repr__(self):
        names = ", ".join(s.name for s in self.state_vars)
        return f"VectorField({names})"


def lie_derivative(p: Polynomial, field: VectorField) -> Polynomial:
    """Syntactic Lie derivative <grad p, F>."""
    if p.universe is not field.universe:
        raise ValueError("polynomial and field use different universes")
    acc: dict = {}
    for exps, c in p._terms.items():
        for ne, dc in field.lie_monomial(exps).items():
            v = acc.get(ne)
            acc[ne] = c * dc if v is None else v + c * dc
    return Polynomial(p.universe, acc)


def lie_iterate(p: Polynomial, field: VectorField, j: int) -> Polynomial:
    """j-fold Lie derivative; j = 0 is the identity."""
    if j < 0:
        raise ValueError("iteration count must be non-negative")
    for _ in range(j):
        p = lie_derivative(p, field)
    return p


class Template:
    """A polynomial with parameter-linear coefficients.

    Stored as {state exponent tuple: {parameter index: Fraction}}; the
    constructor drops zero coefficients and empty forms.
    """

    __slots__ = ("universe", "params", "_terms")

    def __init__(self, universe: SymbolUniverse, params, terms: dict):
        object.__setattr__(self, "universe", universe)
        object.__setattr__(self, "params", tuple(params))
        clean = {}
        for exps, form in terms.items():
            form = {k: v for k, v in form.items() if v != 0}
            if form:
                clean[exps] = form
        object.__setattr__(self, "_terms", clean)

    def __setattr__(self, *_):
        raise AttributeError("Template is immutable")

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_instances(cls, universe, params, polys) -> "Template":
        """Sum of param_k * poly_k."""
        polys = list(polys)
        if len(polys) != len(params):
            raise ValueError("one polynomial per parameter required")
        terms: dict = {}
        for k, p in enumerate(polys):
            if p.universe is not universe:
                raise ValueError("instance from a different universe")
            for exps, c in p._terms.items():
                terms.setdefault(exps, {})[k] = c
        return cls(universe, params, terms)

    # -- views ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def forms(self):
        """Parameter forms as sparse rows {parameter index: coefficient},
        one per monomial: the template vanishes exactly where all do.  The
        rows are the template's own dicts, to be read, not changed."""
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
        terms = {
            exps: sum((coeff * v[k] for k, coeff in form.items()), Fraction(0))
            for exps, form in self._terms.items()
        }
        return Polynomial(self.universe, terms)

    def unit_instances(self):
        """Instantiations at the standard basis of the parameter space."""
        n = len(self.params)
        cols: list = [dict() for _ in range(n)]
        for exps, form in self._terms.items():
            for k, c in form.items():
                cols[k][exps] = c
        return [Polynomial(self.universe, col) for col in cols]

    def _map_monomials(self, image) -> "Template":
        """Apply the linear map sending each state monomial `exps` to the
        term map `image(exps)`, with parameter forms carried along."""
        terms: dict = {}
        for exps, form in self._terms.items():
            for ne, dc in image(exps).items():
                dst = terms.get(ne)
                if dst is None:
                    dst = {}
                    terms[ne] = dst
                for k, v in form.items():
                    acc = dst.get(k)
                    dst[k] = v * dc if acc is None else acc + v * dc
        return Template(self.universe, self.params, terms)

    def lie(self, field: VectorField) -> "Template":
        """Lie derivative with linear expressions treated as constants."""
        if field.universe is not self.universe:
            raise ValueError("template and field use different universes")
        return self._map_monomials(field.lie_monomial)

    def compose(self, rows, new_params) -> "Template":
        """Reparametrize by valuations v = y . rows.

        Each new parameter y_k stands for the sparse row rows[k] =
        {old parameter j: coordinate}, so new coefficient k = sum_j form[j] *
        rows[k][j].  The rows are indexed by column once, so the work follows
        their nonzeros.
        """
        cols: dict = {}
        for k, row in enumerate(rows):
            for j, r in row.items():
                cols.setdefault(j, []).append((k, r))
        terms: dict = {}
        for exps, form in self._terms.items():
            dst: dict = {}
            for j, v in form.items():
                for k, r in cols.get(j, ()):
                    acc = dst.get(k)
                    dst[k] = v * r if acc is None else acc + v * r
            terms[exps] = dst
        return Template(self.universe, new_params, terms)

    def reduce_by(self, reducer: GroebnerReducer) -> "Template":
        """Remainder template modulo the reducer's Groebner basis."""
        return self._map_monomials(reducer.monomial_terms)

    @classmethod
    def from_joint_polynomial(
        cls, p: Polynomial, nparams: int, state_universe: SymbolUniverse
    ) -> "Template":
        """Split a parameter-linear polynomial back into a template."""
        params = p.universe.symbols[:nparams]
        terms: dict = {}
        for exps, c in p._terms.items():
            ppart, spart = exps[:nparams], exps[nparams:]
            if sum(ppart) != 1:
                raise TemplateLinearityError(
                    "polynomial has a term of parameter degree "
                    f"{sum(ppart)}; templates must be parameter-linear"
                )
            k = ppart.index(1)
            terms.setdefault(spart, {})[k] = c
        return cls(state_universe, params, terms)

    def __eq__(self, other):
        return (
            isinstance(other, Template)
            and self.universe is other.universe
            and self.params == other.params
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
    universe: SymbolUniverse,
    variables,
    degree: int,
    prefix: str = "a",
    exclude=(),
    auxiliary=(),
) -> Template:
    """One fresh parameter per monomial of total degree <= `degree`.

    Each auxiliary monomial m adds m and m*v for every template variable v;
    `exclude` then drops specific monomials from the ansatz.  Parameters are
    assigned in ascending (degree, order) sequence, so the first parameter
    always multiplies the constant monomial.
    """
    variables = list(variables)
    exps = {m.exps for m in monomials_up_to_degree(universe, variables, degree)}
    for m in auxiliary:
        exps.add(m.exps)
        for v in variables:
            i = universe.index_of(v)
            exps.add(m.exps[:i] + (m.exps[i] + 1,) + m.exps[i + 1:])
    exps -= {m.exps for m in exclude}
    ordered = sorted(exps, key=lambda e: (sum(e), universe.key(e)))
    params = fresh_parameters(len(ordered), prefix)
    return Template(universe, params, {e: {k: Fraction(1)} for k, e in enumerate(ordered)})


def linear_combination_template(polys, prefix: str = "a") -> Template:
    """Template sum a_i * q_i over the given polynomials."""
    polys = list(polys)
    if not polys:
        raise ValueError("need at least one polynomial")
    universe = polys[0].universe
    params = fresh_parameters(len(polys), prefix)
    return Template.from_instances(universe, params, polys)


def result_template(
    template: Template, space: Subspace, prefix: str = "b"
) -> Template:
    """Fresh-parameter template whose instances are exactly template[space].

    The k-th fresh parameter corresponds to the k-th row of `space.rows`,
    scaled to a unit pivot: the k-th row of the canonical RREF basis.
    """
    if space.ambient_dim != len(template.params):
        raise ValueError("subspace ambient dimension must match parameter count")
    params = fresh_parameters(space.dim, prefix)
    rows = [
        {j: Fraction(v, row[col]) for j, v in row.items()}
        for col, row in zip(space.pivots, space.rows)
    ]
    return template.compose(rows, params)

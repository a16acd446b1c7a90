"""Cross-check oracles: slow, literal routes that the tests compare the
production path against.

Nothing in `odeinv` calls these.  Each recomputes an answer the package
gets another way: linear forms and ambient-space refinement instead of
restricted reparametrization, a dense `Fraction` Gauss-Jordan RREF instead
of sparse integer elimination, a kernel from two eliminations instead of
one, division in the joint parameter-state ring under a block elimination
order instead of cached monomial normal forms, j-fold Lie derivatives of
a template's instances instead of the template's own Lie iterates, each
monomial divided from scratch by an integer engine on exponent tuples
instead of multiplied up from smaller normal forms on packed monomials,
template Lie derivatives, remainders and
reparametrizations on `Fraction` forms instead of integer columns over one
denominator, a polynomial's value at a point by `Fraction` arithmetic
instead of integers over one running denominator, a template's value at
a valuation summed from its unit instances, which the package never needs, Buchberger's S-polynomial
criterion on plain `Polynomial` arithmetic instead of the integer engine,
ideal equality by comparing reduced bases instead of membership of the new
generators, the precondition chain one Lie derivative and one `Ideal.member` per
polynomial instead of one template remainder per step, each raw generator
handed to Buchberger instead of its remainder, textbook division with its
quotients instead of the engine's normal form, subspace membership of a
vector by one more elimination, a
finite-difference Lie rate instead of the symbolic derivative, and float
evaluators, an RK4 trajectory and a residual check that walk the terms on
every call instead of the compiled straight-line code of `numcheck`.
The bundled corpus is listed and loaded here too, with its pinned
reports: only the tests read those.

The oracles hold a monomial as an exponent tuple and order it by their own
keys (`ORDER_KEYS`, `BlockOrder`), never by the package's packed integers:
a package polynomial crosses into them through `exponent_dict` and back
through `from_exponents`, a template through `exponent_terms` and
`forms_template`, the only places that call `unpack` and `pack`.
"""

from __future__ import annotations

import heapq
import json
from fractions import Fraction
from importlib import resources
from math import gcd, lcm
from operator import add, le, neg, sub

import yaml

from odeinv import (
    Ideal,
    Polynomial,
    ResourceLimitError,
    Subspace,
    Symbol,
    SymbolUniverse,
    SystemSpec,
    lie_derivative,
)
from odeinv.dynamics import Template
from odeinv.groebner import buchberger_extend
from odeinv.linalg import nullspace
from odeinv.numcheck import ESCAPE_BOUND, STEP_RTOL
from odeinv.poly import as_fraction


def lex_key(exps):
    return exps


def grevlex_key(exps):
    return (sum(exps),) + tuple(-e for e in reversed(exps))


# the sort key of an exponent tuple under each order the package names
ORDER_KEYS = {"lex": lex_key, "grevlex": grevlex_key}


def order_key(universe):
    """The oracle's sort key of exponent tuples under the universe's order."""
    return ORDER_KEYS[universe.order.name]


def exponent_dict(p: Polynomial) -> dict:
    """The terms of `p` as {exponent tuple: Fraction}, lead first in the
    package's order, as the float code sums them."""
    unpack = p.universe.packing.unpack
    return {unpack(m): c for m, c in p.sorted_terms()}


def from_exponents(universe, terms: dict) -> Polynomial:
    """The polynomial of terms {exponent tuple: rational} over `universe`."""
    pack = universe.packing.pack
    return Polynomial(universe, {pack(e): c for e, c in terms.items()})


class LinearForm:
    """A linear expression over parameters, with no constant term."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict):
        self.coeffs = {s: as_fraction(c) for s, c in coeffs.items() if c != 0}

    def is_zero(self) -> bool:
        return not self.coeffs

    def __call__(self, valuation: dict) -> Fraction:
        return sum(
            (c * as_fraction(valuation[s]) for s, c in self.coeffs.items()),
            Fraction(0),
        )

    def vector(self, params) -> tuple:
        return tuple(self.coeffs.get(p, Fraction(0)) for p in params)

    def __eq__(self, other):
        return isinstance(other, LinearForm) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for s, c in sorted(self.coeffs.items(), key=lambda t: t[0].name):
            if c == 1:
                parts.append(f"+ {s.name}")
            elif c == -1:
                parts.append(f"- {s.name}")
            elif c > 0:
                parts.append(f"+ {c}*{s.name}")
            else:
                parts.append(f"- {-c}*{s.name}")
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else "-" + text[2:]

    __repr__ = __str__


def sparse(row) -> dict:
    """The sparse row {column: value} of a dense row, zeros dropped."""
    return {j: v for j, v in enumerate(row) if v}


def solve_homogeneous(constraints, params) -> Subspace:
    """Common nullspace of linear forms over an ordered parameter list."""
    params = list(params)
    rows = [sparse(f.vector(params)) for f in constraints]
    return Subspace.from_rows(nullspace(rows, len(params)), len(params))


def rref(rows, width: int):
    """Reduced row echelon form of dense rational rows by Gauss-Jordan
    elimination on `Fraction`s.

    Returns (basis, pivots): `basis` is a tuple of dense tuples of Fractions
    with unit pivots and zeros above and below them, `pivots` the pivot
    columns.
    """
    m = [[as_fraction(x) for x in r] for r in rows]
    if any(len(r) != width for r in m):
        raise ValueError("row length does not match the width")
    pivots = []
    for col in range(width):
        i = next((i for i in range(len(pivots), len(m)) if m[i][col]), None)
        if i is None:
            continue
        top = len(pivots)
        m[top], m[i] = m[i], m[top]
        p = m[top][col]
        m[top] = [x / p for x in m[top]]
        for k in range(len(m)):
            c = m[k][col]
            if k != top and c:
                m[k] = [x - c * y for x, y in zip(m[k], m[top])]
        pivots.append(col)
    return tuple(tuple(r) for r in m[: len(pivots)]), tuple(pivots)


def dense_basis(space: Subspace):
    """The canonical RREF basis of `space`: its rows as dense tuples of
    Fractions, each scaled to a unit pivot."""
    return tuple(
        tuple(Fraction(row.get(j, 0), row[col]) for j in range(space.ambient_dim))
        for col, row in zip(space.pivots, space.rows)
    )


def contains(space: Subspace, vector) -> bool:
    """Whether the dense vector lies in `space`: appending it to the stored
    rows leaves the rank unchanged."""
    if len(vector) != space.ambient_dim:
        raise ValueError("vector dimension mismatch")
    v = {j: as_fraction(x) for j, x in enumerate(vector)}
    return Subspace.from_rows((*space.rows, v), space.ambient_dim).dim == space.dim


def nullspace_two_pass(rows, width: int):
    """Canonical RREF kernel of dense rows the long way: RREF of the rows,
    one rational vector per free column, then RREF again of those vectors."""
    basis, pivots = rref(rows, width)
    vectors = []
    for f in (c for c in range(width) if c not in pivots):
        v = [Fraction(0)] * width
        v[f] = Fraction(1)
        for row, col in zip(basis, pivots):
            v[col] = -row[f]
        vectors.append(v)
    return rref(vectors, width)[0]


def refine(space: Subspace, constraints, params) -> Subspace:
    """space ∩ nullspace(constraints); the result is contained in space.

    Solves for the coordinates y of the kept vectors in the basis of
    `space`, then maps them back to the ambient space.
    """
    params = list(params)
    if len(params) != space.ambient_dim:
        raise ValueError("parameter count does not match ambient dimension")
    rows = [f.vector(params) for f in constraints if not f.is_zero()]
    if not rows or space.dim == 0:
        return space
    basis = dense_basis(space)
    reduced = [
        sparse(sum((c * b for c, b in zip(r, brow)), Fraction(0)) for brow in basis)
        for r in rows
    ]
    new_rows = [
        sparse(
            sum((y * basis[k][j] for k, y in yrow.items()), Fraction(0))
            for j in range(space.ambient_dim)
        )
        for yrow in nullspace(reduced, space.dim)
    ]
    return Subspace.from_rows(new_rows, space.ambient_dim)


def exponent_terms(template: Template) -> dict:
    """The template's integer forms {parameter index: int}, the rows of
    its columns, keyed by exponent tuples."""
    unpack = template.universe.packing.unpack
    terms: dict = {}
    for k, col in enumerate(template.columns):
        for m, v in col.items():
            terms.setdefault(unpack(m), {})[k] = v
    return terms


def forms_template(universe, params, terms: dict, den: int = 1) -> Template:
    """The template of integer forms {exps: {parameter index: int}} over
    `den`, zero entries dropped: each form's entries go to their
    parameters' columns."""
    pack = universe.packing.pack
    columns = [{} for _ in params]
    for e, form in terms.items():
        for k, v in form.items():
            if v:
                columns[k][pack(e)] = v
    return Template(universe, params, columns, den)


def instantiate(template: Template, valuation) -> Polynomial:
    """Substitute rationals for all parameters: the sum of v_k times the
    k-th unit instance, on `Fraction` polynomial arithmetic."""
    if isinstance(valuation, dict):
        valuation = [valuation[p] for p in template.params]
    v = [as_fraction(x) for x in valuation]
    if len(v) != len(template.params):
        raise ValueError("valuation length does not match parameter count")
    total = Polynomial.zero(template.universe)
    for c, inst in zip(v, template.unit_instances()):
        total = total + inst * c
    return total


def zero_constraints(template: Template):
    """Linear forms whose common vanishing makes the template instance zero."""
    terms = exponent_terms(template)
    return [
        LinearForm({template.params[k]: v for k, v in terms[exps].items()})
        for exps in sorted(terms, key=order_key(template.universe), reverse=True)
    ]


class BlockOrder:
    """Elimination order on exponent tuples of Q[params, states]: lex on the
    first `nparams` exponents, the parameter block, then the package order
    `state_order` on the rest.

    Every monomial containing a parameter exceeds every parameter-free
    monomial, so division by parameter-free divisors keeps a
    parameter-linear dividend parameter-linear.
    """

    def __init__(self, nparams: int, state_order):
        self.nparams = nparams
        self.state_key = ORDER_KEYS[state_order.name]

    def key(self, exps):
        n = self.nparams
        return exps[:n] + self.state_key(exps[n:])


def joint_polynomial(template: Template, joint: SymbolUniverse) -> Polynomial:
    """Embed a template into a universe listing the parameters before the
    states, under any package order."""
    np = len(template.params)
    for k, p in enumerate(template.params):
        if joint.symbols[k] is not p:
            raise ValueError("joint universe must list the parameters first")
    terms = {}
    for exps, form in exponent_terms(template).items():
        for k, c in form.items():
            unit = [0] * np
            unit[k] = 1
            terms[tuple(unit) + exps] = Fraction(c, template.denominator)
    return from_exponents(joint, terms)


def split_joint_polynomial(p: Polynomial, nparams: int, state_universe) -> Template:
    """The template of a parameter-linear polynomial of the joint ring;
    ValueError when a term has parameter degree other than 1."""
    params = p.universe.symbols[:nparams]
    den = lcm(*(c.denominator for c in p._terms.values()))
    terms: dict = {}
    for exps, c in exponent_dict(p).items():
        ppart, spart = exps[:nparams], exps[nparams:]
        if sum(ppart) != 1:
            raise ValueError(
                "polynomial has a term of parameter degree "
                f"{sum(ppart)}; templates must be parameter-linear"
            )
        terms.setdefault(spart, {})[ppart.index(1)] = c.numerator * (den // c.denominator)
    return forms_template(state_universe, params, terms, den)


def template_remainder_via_division(
    template: Template, basis, state_order=None
) -> Template:
    """Divide in Q[params, states] under a block elimination order, on
    exponent tuples; the joint universe, under lex, only holds the dividend
    and the remainder.

    Raises ValueError when the remainder is not parameter-linear, which
    indicates the order does not dominate the states by the parameters.
    """
    state_universe = template.universe
    np = len(template.params)
    order = BlockOrder(
        np, state_order if state_order is not None else state_universe.order
    )
    joint = SymbolUniverse(tuple(template.params) + state_universe.symbols)
    pad = (0,) * np
    lifted = [{pad + exps: c for exps, c in exponent_dict(g).items()} for g in basis]
    rem, _ = _divide(exponent_dict(joint_polynomial(template, joint)), lifted, order.key)
    return split_joint_polynomial(from_exponents(joint, rem), np, state_universe)


def leading(p: Polynomial):
    """(exps, coeff) of the leading term under the oracle's order key;
    raises on the zero polynomial."""
    if p.is_zero():
        raise ValueError("the zero polynomial has no leading term")
    key = order_key(p.universe)
    return max(exponent_dict(p).items(), key=lambda t: key(t[0]))


class DivisionResult:
    """Outcome of dividing p by an ordered divisor list.

    Invariants: p = sum(quotients[i] * divisors[i]) + remainder, no monomial
    of the remainder is divisible by any divisor's leading term, and every
    quotient*divisor product has multidegree <= multideg(p).
    """

    __slots__ = ("remainder", "quotients")

    def __init__(self, remainder: Polynomial, quotients):
        self.remainder = remainder
        self.quotients = tuple(quotients)


def divide(p: Polynomial, divisors) -> DivisionResult:
    """Textbook multivariate division on `Fraction` terms, deterministic in
    the divisor order."""
    universe = p.universe
    divisors = list(divisors)
    for d in divisors:
        if d.universe is not universe:
            raise ValueError("divisor from a different symbol universe")
        if d.is_zero():
            raise ValueError("zero polynomial among divisors")
    remainder, quotients = _divide(
        exponent_dict(p), [exponent_dict(d) for d in divisors], order_key(universe)
    )
    return DivisionResult(
        from_exponents(universe, remainder),
        [from_exponents(universe, q) for q in quotients],
    )


def _divide(terms: dict, divisors, key):
    """(remainder, quotients) of dividing {exps: rational} terms by divisor
    term dicts, under the sort key `key` of exponent tuples."""
    leads = [max(d.items(), key=lambda t: key(t[0])) for d in divisors]
    work = dict(terms)
    quotients = [dict() for _ in divisors]
    remainder: dict = {}
    while work:
        e = max(work, key=key)
        c = work.pop(e)
        for i, (le, lc) in enumerate(leads):
            for a, b in zip(le, e):
                if a > b:
                    break
            else:
                shift = tuple(x - y for x, y in zip(e, le))
                coeff = c / lc
                q = quotients[i]
                q[shift] = q.get(shift, Fraction(0)) + coeff
                for de, dc in divisors[i].items():
                    if de == le:
                        continue
                    ne = tuple(x + y for x, y in zip(de, shift))
                    acc = work.get(ne, Fraction(0)) - coeff * dc
                    if acc:
                        work[ne] = acc
                    else:
                        work.pop(ne, None)
                break
        else:
            remainder[e] = c
    return remainder, quotients


def oracle_evaluate(p: Polynomial, point: dict) -> Fraction:
    """`Polynomial.evaluate` as a `Fraction` loop over the exponent tuples:
    each term a product of `Fraction` powers, the sum a `Fraction`."""
    values = [as_fraction(point[s]) for s in p.universe.symbols]
    total = Fraction(0)
    for exps, c in exponent_dict(p).items():
        term = c
        for v, e in zip(values, exps):
            term *= v**e
        total += term
    return total


def lie_iterate(p: Polynomial, field, j: int) -> Polynomial:
    """j-fold Lie derivative; j = 0 is the identity."""
    if j < 0:
        raise ValueError("iteration count must be non-negative")
    for _ in range(j):
        p = lie_derivative(p, field)
    return p


# The integer engine on exponent tuples, which the package's packed engine
# replaced; it shares no monomial arithmetic with it.


def _primitive(items):
    """Content-free integer (exps, coeff) terms of rational ones, first
    coefficient positive."""
    den = lcm(*(c.denominator for _, c in items))
    ints = [c.numerator * (den // c.denominator) for _, c in items]
    g = gcd(*ints) or 1
    if ints and ints[0] < 0:
        g = -g
    return [(e, c // g) for (e, _), c in zip(items, ints)]


class _GPoly:
    """Engine-side polynomial: integer terms split into lead and tail."""

    __slots__ = ("lead_exps", "lead_coeff", "tail", "degree")

    def __init__(self, terms):
        self.lead_exps, self.lead_coeff = terms[0]
        self.tail = terms[1:]
        self.degree = max(sum(e) for e, _ in terms)

    def terms(self):
        return [(self.lead_exps, self.lead_coeff)] + list(self.tail)


def _gpoly(p: Polynomial, key) -> _GPoly:
    return _GPoly(_primitive(sorted(exponent_dict(p).items(), key=lambda t: key(t[0]), reverse=True)))


def _neg(key):
    return tuple(map(neg, key))


def _divisor_of(divisors, exps):
    """The first of `divisors` whose lead divides x^exps, or None."""
    for d in divisors:
        if all(map(le, d.lead_exps, exps)):
            return d
    return None


def _nf_int(terms, divisors, key):
    """Reduce integer terms by divisors; return (remainder_terms, scale).

    `scale` is the positive integer by which the dividend was cross-
    multiplied overall, so exact_remainder = remainder / scale.  The
    remainder is NOT content-stripped; it is sorted lead first, as the
    heap pops monomials largest first.  `terms` holds distinct monomials;
    a zero coefficient among them is skipped.
    """
    work = dict(terms)
    heap = [(_neg(key(e)), e) for e in work]
    heapq.heapify(heap)
    emitted = []  # (exps, coeff, scale at emission)
    scale = 1
    while heap:
        _, e = heapq.heappop(heap)
        c = work.get(e)
        if not c:
            continue
        del work[e]
        red = _divisor_of(divisors, e)
        if red is None:
            emitted.append((e, c, scale))
            continue
        g = gcd(abs(c), red.lead_coeff)
        mult_work = red.lead_coeff // g
        mult_div = c // g
        if mult_work != 1:
            for k2 in work:
                work[k2] *= mult_work
            scale *= mult_work
        shift = tuple(map(sub, e, red.lead_exps))
        for de, dc in red.tail:
            ne = tuple(map(add, de, shift))
            acc = work.get(ne)
            if acc is None:
                work[ne] = -mult_div * dc
                heapq.heappush(heap, (_neg(key(ne)), ne))
            else:
                acc -= mult_div * dc
                if acc:
                    work[ne] = acc
                else:
                    del work[ne]
    remainder = [(e, c * (scale // s)) for e, c, s in emitted]
    return remainder, scale


def monomial_normal_form(basis, universe: SymbolUniverse):
    """NF(x^exps) as {exps: Fraction}, each monomial divided from scratch
    by one reduction of the tuple engine, with no memo between monomials."""
    key = order_key(universe)
    divisors = [_gpoly(d, key) for d in basis if not d.is_zero()]

    def nf(exps) -> dict:
        rem, scale = _nf_int([(exps, 1)], divisors, key)
        return {e: Fraction(c, scale) for e, c in rem}

    return nf


def rational_template(universe, params, terms: dict) -> Template:
    """The template of rational forms {exps: {parameter index: rational}},
    over the lcm of their denominators."""
    den = lcm(*(v.denominator for form in terms.values() for v in form.values()))
    return forms_template(universe, params, {
        e: {k: v.numerator * (den // v.denominator) for k, v in form.items()}
        for e, form in terms.items()
    }, den)


def rational_forms(template: Template) -> dict:
    """The template's forms as {exps: {parameter index: Fraction}}."""
    den = template.denominator
    return {
        e: {k: Fraction(v, den) for k, v in form.items()}
        for e, form in exponent_terms(template).items()
    }


def _map_monomials(template: Template, image) -> Template:
    """Apply the linear map sending each state monomial `exps` to the
    rational term map `image(exps)`, with the forms carried along on
    Fractions."""
    terms: dict = {}
    for exps, form in rational_forms(template).items():
        for ne, dc in image(exps).items():
            dst = terms.setdefault(ne, {})
            for k, v in form.items():
                dst[k] = dst.get(k, Fraction(0)) + v * dc
    return rational_template(template.universe, template.params, terms)


def lie_monomial(field, exps) -> dict:
    """The Lie derivative of one monomial as {exps: Fraction}, read off
    the rational drifts."""
    total: dict = {}
    for i, e in enumerate(exps):
        if e:
            base = list(exps)
            base[i] = e - 1
            for de, dc in exponent_dict(field.drifts[i]).items():
                ne = tuple(a + b for a, b in zip(base, de))
                total[ne] = total.get(ne, Fraction(0)) + e * dc
    return total


def template_lie(template: Template, field) -> Template:
    return _map_monomials(template, lambda exps: lie_monomial(field, exps))


def template_reduce_by(template: Template, basis) -> Template:
    return _map_monomials(template, monomial_normal_form(basis, template.universe))


def template_compose(template: Template, rows, new_params) -> Template:
    """New coefficient k = sum_j form[j] * rows[k][j], on Fractions."""
    terms = {}
    for exps, form in rational_forms(template).items():
        terms[exps] = {
            k: sum((v * row.get(j, 0) for j, v in form.items()), Fraction(0))
            for k, row in enumerate(rows)
        }
    return rational_template(template.universe, new_params, terms)


def template_result(template: Template, space: Subspace, prefix: str = "b") -> Template:
    """The result template from the canonical RREF rows as `Fraction` rows."""
    rows = [
        {j: Fraction(v, row[col]) for j, v in row.items()}
        for col, row in zip(space.pivots, space.rows)
    ]
    params = tuple(Symbol(f"{prefix}{i + 1}", Symbol.PARAM) for i in range(space.dim))
    return template_compose(template, rows, params)


def s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    """lcm/LT(f) * f - lcm/LT(g) * g, on plain polynomial arithmetic."""
    (ef, cf), (eg, cg) = leading(f), leading(g)
    lcm = tuple(max(a, b) for a, b in zip(ef, eg))

    def cofactor(exps, c):
        return from_exponents(f.universe, {tuple(a - b for a, b in zip(lcm, exps)): 1 / c})

    return cofactor(ef, cf) * f - cofactor(eg, cg) * g


def is_groebner_basis(G) -> bool:
    """Buchberger's criterion: every S-polynomial divides to zero by G.

    Uses textbook `divide`, not the engine's integer reduction, so the
    check does not reuse the code it is meant to check.
    """
    G = [g for g in G if not g.is_zero()]
    return all(
        divide(s_polynomial(f, g), G).remainder.is_zero()
        for i, f in enumerate(G)
        for g in G[i + 1 :]
    )


def extend(ideal, gens):
    """`ideal` with the nonzero `gens` appended to its generators, its basis
    completed from the ideal's reducer under its caps.  Each generator
    enters Buchberger as it is, not as its remainder modulo the ideal."""
    gens = [g for g in gens if not g.is_zero()]
    gb = buchberger_extend(
        ideal.reducer(), gens, pair_budget=ideal.pair_budget, max_degree=ideal.max_degree
    )
    return ideal._known(ideal.generators + tuple(gens), gb)


def pre_by_polynomials(postcondition, field, *, max_iterations: int = 64, **caps):
    """The weakest-precondition chain one polynomial at a time: each Lie
    derivative is taken on its own and asked of the ideal by `Ideal.member`;
    when one is not a member, all of them extend it.  Returns the stable
    ideal and its iteration count, as `pre` does."""
    ideal = Ideal(field.universe, postcondition, **caps)
    current = list(postcondition)
    for m in range(max_iterations):
        current = [lie_derivative(p, field) for p in current]
        if all(ideal.member(p) for p in current):
            return ideal, m
        ideal = extend(ideal, current)
    raise ResourceLimitError(f"precondition chain exceeded {max_iterations} iterations")


def load_entry(name: str, **settings) -> SystemSpec:
    """The bundled corpus entry `name`, parsed, with `settings` made by
    `SystemSpec.override` as the CLI's flags are."""
    path = resources.files("odeinv") / "corpus" / f"{name}.yaml"
    spec = SystemSpec.from_text(path.read_text(encoding="utf-8"), source=f"corpus:{name}")
    spec.override(**settings)
    return spec


def stress_entry(name: str, degree: int) -> SystemSpec:
    """The corpus entry `name` with its complete template raised to
    `degree` and the numeric check off, as the benchmark's stress tier
    builds it."""
    path = resources.files("odeinv") / "corpus" / f"{name}.yaml"
    data = yaml.safe_load(path.read_text(encoding="utf-8"))
    data["query"]["template"]["degree"] = degree
    data["numeric_check"]["enabled"] = False
    return SystemSpec.from_text(yaml.safe_dump(data, sort_keys=False))


def entry_names(tier: str | None = None) -> list[str]:
    """Names of the bundled corpus entries, optionally filtered by tier."""
    names = sorted(
        p.name[: -len(".yaml")]
        for p in (resources.files("odeinv") / "corpus").iterdir()
        if p.name.endswith(".yaml")
    )
    if tier is None:
        return names
    return [n for n in names if load_entry(n).tier == tier]


def expected_report(name: str):
    """The pinned report of a corpus entry (timings stripped), or None."""
    path = resources.files("odeinv") / "corpus" / "expected" / f"{name}.json"
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        return None
    return json.loads(text)


def ideal_equal(a, b) -> bool:
    """Equality of two ideals via their unique reduced Groebner bases."""
    if a.universe is not b.universe:
        raise ValueError("ideals over different universes")
    return list(a.reduced_groebner_basis()) == list(b.reduced_groebner_basis())


def lie_rate_estimate(field, p: Polynomial, point, h: float = 1.0 / 1024):
    """Estimate of d/dt p(x(t)) at t=0 from RK4 steps around the point.

    Richardson-extrapolated central differences at steps h and h/2, so the
    estimate carries an O(h^4) error and comfortably meets a 1e-6 relative
    comparison against the symbolic rate.
    """
    rhs = field_evaluator(field)
    state = [float(v) for v in point]
    ev = float_evaluator(p)

    def central(step):
        fwd = rk4_step(rhs, state, step)
        bwd = rk4_step(rhs, state, -step)
        return (ev(fwd) - ev(bwd)) / (2.0 * step)

    coarse = central(h)
    fine = central(h / 2.0)
    return (4.0 * fine - coarse) / 3.0


def float_evaluator(p: Polynomial):
    """Float evaluator of `p` that walks its terms, lead first, on every
    call."""
    terms = [
        ([(i, e) for i, e in enumerate(exps) if e], float(c))
        for exps, c in exponent_dict(p).items()
    ]

    def evaluate(state):
        total = 0.0
        for powers, c in terms:
            v = c
            for i, e in powers:
                v *= state[i] ** e
            total += v
        return total

    return evaluate


def abs_float_evaluator(p: Polynomial):
    """Float evaluator of the sum of absolute term magnitudes of `p`."""
    terms = [
        ([(i, e) for i, e in enumerate(exps) if e], abs(float(c)))
        for exps, c in exponent_dict(p).items()
    ]

    def evaluate(state):
        total = 0.0
        for powers, c in terms:
            v = c
            for i, e in powers:
                v *= abs(state[i]) ** e
            total += v
        return total

    return evaluate


def field_evaluator(field):
    fs = [float_evaluator(d) for d in field.drifts]

    def rhs(state):
        return [f(state) for f in fs]

    return rhs


def rk4_step(rhs, state, h: float):
    k1 = rhs(state)
    s2 = [x + 0.5 * h * k for x, k in zip(state, k1)]
    k2 = rhs(s2)
    s3 = [x + 0.5 * h * k for x, k in zip(state, k2)]
    k3 = rhs(s3)
    s4 = [x + h * k for x, k in zip(state, k3)]
    k4 = rhs(s4)
    return [
        x + (h / 6.0) * (a + 2.0 * b + 2.0 * c + d)
        for x, a, b, c, d in zip(state, k1, k2, k3, k4)
    ]


def oracle_trajectory(field, start, horizon: float, step: float):
    """`numcheck.trajectory` as a loop over interpreted RK4 steps: the same
    step doubling, overflow and escape stops, checked in the same order.
    The generator returns why the walk ended: "horizon", "escape",
    "overflow", "nan" (in either step's state) or "step_error"."""
    rhs = field_evaluator(field)
    state = [float(v) for v in start]
    t = 0.0
    yield t, state
    n = max(1, round(horizon / step))
    half = step / 2.0
    for _ in range(n):
        if any(v != v or abs(v) > ESCAPE_BOUND for v in state):
            return "escape"
        try:
            full = rk4_step(rhs, state, step)
            fine = rk4_step(rhs, rk4_step(rhs, state, half), half)
        except OverflowError:
            return "overflow"
        if any(v != v for v in full + fine):
            return "nan"
        scale = 1.0 + max(abs(v) for v in fine)
        if any(abs(a - b) > STEP_RTOL * scale for a, b in zip(full, fine)):
            return "step_error"
        state = fine
        t += step
        if any(v != v or abs(v) > ESCAPE_BOUND for v in state):
            return "escape"
        yield t, state
    return "horizon"


def oracle_check_invariants(polys, field, points, horizon, step, tolerance):
    """`numcheck.check_invariants` as a loop over the interpreted
    evaluators, one state and one polynomial at a time.  Returns the
    records and the number of (state, polynomial) evaluations that
    overflowed; an overflow stops only the polynomial it happened in."""
    symbols = field.universe.symbols
    checked = [
        (p, float_evaluator(p), abs_float_evaluator(p)) for p in polys if not p.is_zero()
    ]
    records, overflows = [], 0
    for point in points:
        start = [point[s] for s in symbols]
        m = len(checked)
        residual, scale = [0.0] * m, [0.0] * m
        fail_time, stopped = [None] * m, [False] * m
        for t, state in oracle_trajectory(field, start, float(horizon), float(step)):
            for k, (_, value, magnitude) in enumerate(checked):
                if stopped[k]:
                    continue
                try:
                    # value first, so an overflow in either sum raises
                    r, w = abs(value(state)), magnitude(state)
                except OverflowError:
                    stopped[k] = True
                    overflows += 1
                    continue
                scale[k] = max(scale[k], w)
                if r > residual[k] or r != r:
                    residual[k] = r
                # a NaN residual is outside every band
                if fail_time[k] is None and not r <= tolerance * (1.0 + scale[k]):
                    fail_time[k] = t
        for k, (p, _, _) in enumerate(checked):
            records.append(
                {
                    "polynomial": str(p),
                    "point": {s.name: str(point[s]) for s in symbols},
                    "passed": fail_time[k] is None,
                    "max_residual": residual[k],
                    "scale": scale[k],
                    "fail_time": fail_time[k],
                }
            )
    return records, overflows

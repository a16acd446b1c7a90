"""The postcondition and precondition chain algorithms.

`post` runs the double chain: a descending sequence of parameter-valuation
subspaces V_m refined by remainder templates, paired with an ascending
sequence of ideals J_m, each generated by the Lie iterates L^0..L^m of the
template restricted to V_m, whose instances its `Ideal` reads; it stops at
the least step where both stabilize.  After V moves, J_j is not completed
over L^0..L^j when L^1 already lies in J_0: by Leibniz J_0 is then
Lie-closed and equals J_j.  Nor is it completed when L^{j+2} moves V: a
Lie-closed J_j inside the precondition ideal I would put L^{j+2} in I, so
that J_j cannot be stable.  `_verify_post` certifies every answer by the
independent `check_invariant_ideal`.  `pre` iterates Lie derivatives of the
linear combination template over the postcondition generators until the
generated ideal stops growing.  Both ideal chains step through `_grow`.
Every membership test in J is `Ideal.member`, a division from scratch;
only the precondition ideal's reducer, asked again at every step of V,
keeps a memo of normal forms.  Safety checking and invariant-ideal
checking are thin layers over these.
"""

from __future__ import annotations

from fractions import Fraction

from . import groebner
from .dynamics import (
    Template,
    VectorField,
    fresh_parameters,
    lie_derivative,
    linear_combination_template,
    result_template,
)
from .groebner import Ideal, ResourceLimitError
from .linalg import Subspace, combine, nullspace
from .poly import Polynomial, SymbolUniverse


class ModeError(ValueError):
    """An operation required an exact vanishing-ideal mode."""


MODE_AUTO = "auto"
MODE_GENERATORS = "generators"
MODE_SINGLETON = "singleton"
MODE_GRAPH = "graph"
MODE_TRUSTED = "trusted"

_MODES = (MODE_AUTO, MODE_GENERATORS, MODE_SINGLETON, MODE_GRAPH, MODE_TRUSTED)

DEFAULT_MAX_ITERATIONS = 64


def triangular_bindings(generators, universe: SymbolUniverse):
    """Recognize generator sets that carve out a graph over free variables.

    Looks for an ordering g_1..g_k and distinct symbols z_1..z_k with
    g_i = c_i*z_i + h_i, c_i a nonzero rational and z_i absent from h_i;
    each pick substitutes z_i away in the remaining generators.  For such
    systems <Q> equals the full vanishing ideal of Var(Q), because modulo
    the bindings every polynomial has a unique representative over the free
    variables.

    Returns a list of (symbol, defining polynomial) in pick order, or None.
    To evaluate a point, bind free symbols and walk the list in reverse.
    """
    packing = universe.packing
    remaining = [g for g in generators if not g.is_zero()]
    bindings = []
    while remaining:
        pick = None
        for idx, g in enumerate(remaining):
            for sym in sorted(g.symbols(), key=universe.index_of):
                i = universe.index_of(sym)
                lin, field = packing.units[i], packing.fields[i]
                coeff = g._terms.get(lin)
                if coeff is None:
                    continue
                if any(m & field and m != lin for m in g._terms):
                    continue
                pick = (idx, sym, coeff, lin)
                break
            if pick:
                break
        if pick is None:
            return None
        idx, sym, coeff, lin = pick
        g = remaining.pop(idx)
        h = Polynomial(
            g.universe,
            {e: -c / coeff for e, c in g._terms.items() if e != lin},
        )
        bindings.append((sym, h))
        new_remaining = []
        for other in remaining:
            other = other.substitute_symbol(sym, h)
            if not other.is_zero():
                new_remaining.append(other)
        remaining = new_remaining
    return bindings


def _is_singleton_pattern(generators, universe: SymbolUniverse) -> bool:
    covered = set()
    units = universe.packing.units
    for g in generators:
        monomials = [m for m in g._terms if m]  # all but the constant 0
        if len(monomials) != 1 or monomials[0] not in units:
            return False
        sym = universe.symbols[units.index(monomials[0])]
        if sym in covered:
            return False
        covered.add(sym)
    return covered == set(universe.symbols)


class PreconditionAnalysis:
    """The radical mode `analyze` resolved, whether that mode is exact, the
    precondition's `Ideal`, which holds its nonzero generators and reduced
    basis, and the generators' `triangular_bindings` when they made the
    mode graph, else None.  Sampling reads the generators and the bindings
    (`sample_points`)."""

    __slots__ = ("effective_mode", "exact", "ideal", "bindings")

    def __init__(self, effective_mode, exact, ideal, bindings):
        self.effective_mode = effective_mode
        self.exact = exact
        self.ideal = ideal
        self.bindings = bindings


class Precondition:
    """An algebraic precondition Var(Q) plus a vanishing-ideal policy.

    Modes: `generators` uses I = <Q>, always sound; `singleton` and `graph`
    certify I = Id(Var(Q)) from the shape of Q; `trusted` takes the caller's
    word that the generators span the full vanishing ideal (unchecked);
    `auto` picks the strongest applicable of the above.
    """

    __slots__ = ("generators", "mode")

    def __init__(self, generators, mode: str = MODE_AUTO):
        if mode not in _MODES:
            raise ValueError(f"unknown radical mode {mode!r}")
        self.generators = tuple(generators)
        self.mode = mode

    def analyze(self, universe: SymbolUniverse, **caps) -> PreconditionAnalysis:
        ideal = Ideal(universe, self.generators, **caps)
        gens = ideal.generators
        singleton = _is_singleton_pattern(gens, universe)
        mode = self.mode
        if mode == MODE_SINGLETON and not singleton:
            raise ModeError(
                "singleton mode requires generators x_i - c_i covering every "
                "state variable"
            )
        # the bindings, searched only where the mode decision reads them
        bindings = None
        if mode == MODE_GRAPH or (mode == MODE_AUTO and not singleton):
            bindings = triangular_bindings(gens, universe)
        if mode == MODE_GRAPH and bindings is None:
            raise ModeError(
                "graph mode requires a triangular generator set (each "
                "generator solving one variable with a constant coefficient)"
            )
        if mode == MODE_AUTO:
            if singleton:
                mode = MODE_SINGLETON
            elif bindings is not None:
                mode = MODE_GRAPH
            else:
                mode = MODE_GENERATORS
        # <0> = Id(R^N) and a unit ideal matches the empty variety, so
        # these two degenerate shapes are exact even in the sound mode.
        basis = ideal.reduced_groebner_basis()
        exact = mode != MODE_GENERATORS or not basis or basis[0].degree() == 0
        return PreconditionAnalysis(mode, exact, ideal, bindings)


_SAMPLE_POOL = tuple(map(Fraction, ("1", "2", "1/2", "-1", "3/2", "-1/2", "3", "1/3", "-2", "5/2")))


def sample_points(generators, universe: SymbolUniverse, count: int, bindings=None):
    """Rational points on Var(generators), via their `triangular_bindings`:
    `bindings` when the caller has them, else searched here.

    Free variables draw from a fixed small-rational pool, point s taking
    pool[s + k] for its k-th free variable (cyclically), so at most
    len(pool) points are made, and one when no variable is free; bound
    variables are computed exactly.  Returns no point when the generators
    have no triangular bindings.  No emptiness test is needed: there are
    none when a generator is or becomes a nonzero constant, and bindings
    that exist leave a point for every choice of the free variables.
    """
    if bindings is None:
        bindings = triangular_bindings(generators, universe)
    if bindings is None:
        return []
    bound = {sym for sym, _ in bindings}
    free = [s for s in universe.symbols if s not in bound]
    n = len(_SAMPLE_POOL)
    points = []
    for s_idx in range(min(count, n if free else 1)):
        point = {}
        for k, sym in enumerate(free):
            point[sym] = _SAMPLE_POOL[(s_idx + k) % n]
        for sym, h in reversed(bindings):
            point[sym] = h.evaluate(point) if not h.is_zero() else Fraction(0)
        if all(g.evaluate(point) == 0 for g in generators):
            points.append(point)
    return points


class PostResult:
    """Outcome of the postcondition chain."""

    __slots__ = ("space", "result", "ideal", "iterations", "analysis", "trace")

    def __init__(self, space, result, ideal, iterations, analysis, trace):
        self.space = space
        self.result = result
        self.ideal = ideal
        self.iterations = iterations
        self.analysis = analysis
        self.trace = tuple(trace)


def post(
    precondition,
    template: Template,
    field: VectorField,
    *,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    pair_budget: int = groebner.DEFAULT_PAIR_BUDGET,
    max_degree: int | None = None,
) -> PostResult:
    """Largest valuation space V with template[V] invariant from the
    precondition, plus the smallest invariant ideal containing template[V].

    In an exact mode both directions of the characterization hold; in the
    sound generator mode only the inclusions are guaranteed.

    V is held by its basis B alone, and the chain keeps L^j(T∘B), T∘B the
    template restricted to V = span(B).  Lie derivation commutes with
    restriction, so a refinement of V restricts L^{j+1} by its
    coordinates.  When V has moved, J_j is rebuilt from L^0..L^{j-1}(T∘B)
    and the chain's own L^j, T∘B composed from the caller's template
    there and nowhere else; at j = 0 it is the chain's own L^0.

    A rebuilt J_j is first tried as J_0 = <T∘B> (`_iterates_ideal`), by
    `Ideal.member`, which stops at the first instance that escapes:
    when L(g) lies in J_0 for every instance g, the Leibniz rule
    L(sum h_i g_i) = sum L(h_i) g_i + h_i L(g_i) keeps J_0 Lie-closed, so
    J_j = J_0 holds L^{j+1} and the step is stable without completing
    L^0..L^j.  `_verify_post` still certifies J by `check_invariant_ideal`,
    which divides from scratch and does not rely on this test.

    When that test misses at j >= 1, L^{j+2} and its constraints modulo
    the precondition ideal I are derived first, and the next step reads
    them instead of deriving them again.  Nonzero constraints mean V moves
    next, so J_j is not Lie-closed: J_j ⊆ I as V is stable, and a
    Lie-closed J_j ⊆ I puts L^{j+2}(T∘B) in I.  The step is recorded
    unstable, counted by the uncompleted `Ideal`'s
    `generator_count`, and J_j is never completed.  Zero constraints run
    the J step as usual; when that step is stable, the lookahead was one
    Lie derivative and one remainder spent for nothing.  At j = 0 the J
    step is one membership test and no lookahead is made.
    """
    universe = field.universe
    caps = {"pair_budget": pair_budget, "max_degree": max_degree}
    if isinstance(precondition, PreconditionAnalysis):
        analysis = precondition
    else:
        analysis = precondition.analyze(universe, **caps)
    if template.universe is not universe or analysis.ideal.universe is not universe:
        raise ValueError("template, precondition and field use different universes")
    reducer = analysis.ideal.reducer()
    n = len(template.params)

    rows = template.reduce_by(reducer).forms()
    basis_rows = nullspace(rows, n)
    trace = [{"j": 0, "dim": len(basis_rows), "constraints": len(rows)}]

    # Invariant: current = L^j(T∘B) for the current basis B = basis_rows,
    # sparse integer rows that the final Subspace.from_rows brings to
    # echelon form.
    current = template.compose(basis_rows, fresh_parameters(len(basis_rows), "y"))

    def derive(t):
        """t's Lie derivative and its constraints modulo the precondition."""
        t = t.lie(field)
        return t, t.reduce_by(reducer).forms()

    j = 0
    ideal = None  # J_j, rebuilt after each refinement of V
    ahead = None  # L^{j+1} and its constraints, when a lookahead derived them
    while True:
        if j >= max_iterations:
            raise ResourceLimitError(
                f"postcondition chain exceeded {max_iterations} iterations"
            )
        nxt, rows = ahead or derive(current)
        ahead = None
        entry = {"j": j + 1, "constraints": len(rows)}
        if rows:
            d = len(basis_rows)
            coords = nullspace(rows, d)
            assert len(coords) < d, "nonzero constraints must shrink the space"
            basis_rows = [combine(y, basis_rows) for y in coords]
            current = nxt.compose(coords, fresh_parameters(len(coords), "y"))
            ideal = None
            entry.update({"dim": len(basis_rows), "v_stable": False})
            trace.append(entry)
            j += 1
            continue
        # V stabilized at this step; check the ideal chain.
        entry.update({"dim": len(basis_rows), "v_stable": True})
        closed = False
        if ideal is None:
            ideal, closed = _iterates_ideal(template, basis_rows, current, j, field, caps)
            if j and not closed:
                ahead = derive(nxt)
        if ahead and ahead[1]:
            grown, stable = None, False  # V moves next, so J_j is not Lie-closed
        else:
            grown = ideal if closed else _grow(ideal, nxt)
            stable = grown is ideal
        entry.update({"j_checked": True, "j_stable": stable, "j_generators": ideal.generator_count})
        trace.append(entry)
        if stable:
            break
        ideal = grown
        del grown  # else J and its basis outlive a refinement of V
        current = nxt
        j += 1

    space = Subspace.from_rows(basis_rows, n)
    out_template = result_template(template, space)
    result = PostResult(space, out_template, ideal, j, analysis, trace)
    _verify_post(result, field)
    return result


def _iterates_ideal(template: Template, rows, top: Template, j: int, field: VectorField, caps):
    """J_j = <L^0..L^j(T∘B)>, and whether it is known to be Lie-closed.

    T∘B, `template` restricted to the span of `rows`, is composed here,
    the one place `post` reads it; at j = 0 it is `top`, the chain's own
    L^j.  Only L^1..L^{j-1} are derived here.  For j >= 1, J_0 = <T∘B> is
    completed first and L(T∘B) tested against it by `Ideal.member`,
    column by column, up to the first column whose remainder is nonzero;
    when it lies in J_0, J_0 is Lie-closed (see `post`) and J_j, its
    generators kept, takes J_0's basis.  Otherwise J_j is
    completed from scratch over L^0..L^j.  At j = 0 the test would be the
    caller's own J step, so it is left to it.
    """
    base = template.compose(rows, fresh_parameters(len(rows), "y")) if j else top
    generators = [base]
    for _ in range(j - 1):
        generators.append(generators[-1].lie(field))
    if j:
        generators.append(top)
        j0 = Ideal(base.universe, [base], **caps)
        if j0.member(generators[1]):
            return j0._known(generators, j0.reduced_groebner_basis()), True
    return Ideal(base.universe, generators, **caps), False


def _grow(ideal: Ideal, t: Template) -> Ideal:
    """The J step of both chains: `ideal` itself when every instance of `t`
    lies in it (`Ideal.member`, which stops at the first that escapes),
    else `ideal` with `t` appended to its generators.  On a miss `t` itself
    goes to Buchberger, whose entry divides each instance by the basis."""
    if ideal.member(t):
        return ideal
    gb = groebner.buchberger_extend(
        ideal.reducer(), [t], pair_budget=ideal.pair_budget, max_degree=ideal.max_degree
    )
    return ideal._known(ideal.generators + (t,), gb)


def _verify_post(res: PostResult, field: VectorField):
    """Post-run soundness assertions: instances lie in J (`Ideal.member`
    on the result template) and J is Lie-closed."""
    if not res.ideal.member(res.result):
        raise AssertionError("result-template instance escapes the invariant ideal")
    if not check_invariant_ideal(res.ideal, field):
        raise AssertionError("computed ideal is not Lie-closed")
    dims = [t["dim"] for t in res.trace]
    if any(a < b for a, b in zip(dims, dims[1:])):
        raise AssertionError("valuation-space chain must be descending")


class PreResult:
    """Outcome of the precondition chain."""

    __slots__ = ("ideal", "iterations")

    def __init__(self, ideal, iterations):
        self.ideal = ideal
        self.iterations = iterations


def pre(
    postcondition,
    field: VectorField,
    *,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    pair_budget: int = groebner.DEFAULT_PAIR_BUDGET,
    max_degree: int | None = None,
) -> PreResult:
    """Weakest algebraic precondition of Var(postcondition).

    Builds the ascending ideal chain generated by iterated Lie derivatives
    and returns the first stable ideal; its variety is the largest set of
    initial states keeping all postcondition polynomials at zero.  The
    derivatives are the instances of the Lie iterates of the template
    sum a_i * p_i, and the chain ascends, so it is stable once they lie in
    the ideal.
    """
    P = list(postcondition)
    if not P:
        raise ValueError("postcondition must contain at least one polynomial")
    ideal = Ideal(field.universe, P, pair_budget=pair_budget, max_degree=max_degree)
    current = linear_combination_template(P)
    for m in range(max_iterations):
        current = current.lie(field)
        grown = _grow(ideal, current)
        if grown is ideal:
            return PreResult(ideal, m)
        ideal = grown
    raise ResourceLimitError(
        f"precondition chain exceeded {max_iterations} iterations"
    )


HOLDS = "holds"
FAILS = "fails"
INCONCLUSIVE = "inconclusive"


class SafetyResult:
    """Verdict on `precondition implies [field] Var(postcondition)`."""

    __slots__ = ("verdict", "post_result", "postcondition", "witness")

    def __init__(self, verdict, post_result, postcondition, witness):
        self.verdict = verdict
        self.post_result = post_result
        self.postcondition = tuple(postcondition)
        self.witness = witness


def check_safety(
    precondition,
    postcondition,
    field: VectorField,
    **options,
) -> SafetyResult:
    """Decide the safety assertion by relativized strongest postcondition.

    The linear-combination template over the postcondition generators is
    propagated by `post`; the assertion holds iff every combination stays a
    conservation law, i.e. iff the returned valuation space is full.  With
    an exact vanishing ideal the negative answer is definite; otherwise a
    proper subspace is reported as inconclusive.
    """
    Q = [q for q in postcondition if not q.is_zero()]
    if not Q:
        raise ValueError("postcondition must contain a nonzero polynomial")
    template = linear_combination_template(Q)
    res = post(precondition, template, field, **options)
    if res.space.is_full():
        return SafetyResult(HOLDS, res, Q, None)
    if not res.analysis.exact:
        return SafetyResult(INCONCLUSIVE, res, Q, None)
    witness = _find_witness(res, Q, field)
    return SafetyResult(FAILS, res, Q, witness)


def _find_witness(res: PostResult, Q, field: VectorField):
    """Best effort: a precondition point where some derivative of some
    postcondition polynomial is nonzero."""
    analysis = res.analysis
    points = sample_points(analysis.ideal.generators, field.universe, 5, analysis.bindings)
    horizon = res.iterations + 2
    for point in points:
        for q in Q:
            p = q
            for order in range(horizon + 1):
                value = p.evaluate(point)
                if value != 0:
                    return {
                        "point": point,
                        "polynomial": q,
                        "derivative_order": order,
                        "value": value,
                    }
                p = lie_derivative(p, field)
    return None


def check_invariant_ideal(ideal: Ideal, field: VectorField) -> bool:
    """True iff the Lie derivative of the ideal stays inside the ideal.

    Checking the reduced basis suffices: the derivative of h*g expands to
    h*L(g) + L(h)*g, both sides staying in the ideal when L(g) does.
    Membership is the public `groebner.normal_form`, divided from scratch
    over the basis polynomials, not `Ideal.member`, which the chains step
    by: as the self-check of `post`, it stays independent of the answers
    it checks.
    """
    gb = ideal.reduced_groebner_basis()
    return all(groebner.normal_form(lie_derivative(g, field), gb).is_zero() for g in gb)


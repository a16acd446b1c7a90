import json
import random
from fractions import Fraction
from importlib import resources

import pytest
import yaml

from odeinv import (
    FAILS,
    HOLDS,
    INCONCLUSIVE,
    Ideal,
    ModeError,
    Polynomial,
    Precondition,
    ResourceLimitError,
    Symbol,
    SymbolUniverse,
    VectorField,
    check_invariant_ideal,
    check_safety,
    complete_template,
    lie_derivative,
    linear_combination_template,
    post,
    pre,
)
from odeinv import algorithms, groebner
from odeinv.algorithms import sample_points, triangular_bindings
from odeinv.dynamics import Template
from odeinv.numcheck import verify_from_analysis
from odeinv.poly import Lex
from odeinv.report import run
from odeinv.sysspec import NumericSpec, SystemSpec
from conftest import same_span
from oracles import (
    contains,
    ideal_equal,
    leading,
    lie_iterate,
    load_entry,
    pre_by_polynomials,
    stress_entry,
)
from props import rand_field, rand_poly


def test_post_running_example(running):
    U, (x, y), (X, Y), F = running
    res = post(Precondition([X - Y]), complete_template(U, [x, y], 2), F)
    assert res.iterations == 0
    assert res.space.dim == 3
    assert res.analysis.exact
    assert [str(g) for g in res.ideal.reduced_groebner_basis()] == ["x - y"]
    assert same_span(
        res.result.unit_instances(),
        [Y * Y - X * X, X * Y - X * X, Y - X],
    )
    # both chains were verified one step past the answer
    last = res.trace[-1]
    assert last["j"] == 1 and last["v_stable"] and last["j_stable"]


def test_post_constraint_shape_matches_reference(running):
    # V is carved out by a1 = 0, a2 = -a3, a4 = -a5 - a6
    U, (x, y), _, F = running
    res = post(Precondition([Polynomial.variable(U, x) - Polynomial.variable(U, y)]),
               complete_template(U, [x, y], 2), F)
    V = res.space
    assert contains(V, [0, -1, 1, 0, 0, 0])
    assert contains(V, [0, 0, 0, -1, 1, 0])
    assert contains(V, [0, 0, 0, -1, 0, 1])
    assert not contains(V, [1, 0, 0, 0, 0, 0])
    assert not contains(V, [0, 1, 1, 0, 0, 0])


def test_post_ghost_example(ghost):
    U, syms, (X, Y, X0, Y0), F = ghost
    res = post(
        Precondition([X - X0, Y - Y0]),
        complete_template(U, syms, 2),
        F,
    )
    gb = res.ideal.reduced_groebner_basis()
    assert len(gb) == 1
    expected = X * X - Y * Y - X0 * X0 + Y0 * Y0
    lead_coeff = leading(expected)[1]
    assert gb[0] == expected * (1 / lead_coeff)
    assert res.space.dim == 1


def test_post_trivial_precondition(running):
    U, (x, y), _, F = running
    res = post(Precondition([]), complete_template(U, [x, y], 2), F)
    assert res.analysis.exact  # the zero ideal is the full vanishing ideal here
    assert res.space.dim == 0
    assert res.result.is_zero()
    assert not res.ideal.reduced_groebner_basis()


def test_post_iteration_cap(running):
    U, (x, y), _, F = running
    with pytest.raises(ResourceLimitError):
        post(
            Precondition([]),
            complete_template(U, [x, y], 2),
            F,
            max_iterations=0,
        )


def test_post_chain_dimensions_descend(ghost):
    U, syms, (X, Y, X0, Y0), F = ghost
    res = post(Precondition([X - X0, Y - Y0]), complete_template(U, syms, 2), F)
    dims = [t["dim"] for t in res.trace]
    assert all(a >= b for a, b in zip(dims, dims[1:]))


def test_post_ideal_is_lie_closed(ghost):
    U, syms, (X, Y, X0, Y0), F = ghost
    res = post(Precondition([X - X0, Y - Y0]), complete_template(U, syms, 2), F)
    assert check_invariant_ideal(res.ideal, F)
    for inst in res.result.unit_instances():
        assert res.ideal.member(inst)


def test_ipsi_stabilizes_with_degree(ghost):
    # raising the ansatz degree beyond 2 must not change the answer, and
    # degree 1 finds nothing
    U, syms, _, F = ghost
    psi = Precondition(
        [
            Polynomial.variable(U, syms[0]) - Polynomial.variable(U, syms[2]),
            Polynomial.variable(U, syms[1]) - Polynomial.variable(U, syms[3]),
        ]
    )
    res1 = post(psi, complete_template(U, syms, 1), F)
    res2 = post(psi, complete_template(U, syms, 2), F)
    res3 = post(psi, complete_template(U, syms, 3), F)
    assert not res1.ideal.reduced_groebner_basis()
    assert ideal_equal(res2.ideal, res3.ideal)


def test_pre_example(running):
    U, _, (X, Y), F = running
    q = X * X - X * Y
    res = pre([q], F)
    assert res.iterations == 1
    q1 = lie_derivative(q, F)
    q2 = lie_iterate(q, F, 2)
    assert ideal_equal(res.ideal, Ideal(U, [q, q1]))
    assert res.ideal.member(q2)
    assert res.ideal.instances() == [q, q1]


def test_pre_trivial_cases(running):
    U, _, (X, Y), F = running
    res0 = pre([Polynomial.zero(U)], F)
    assert res0.iterations == 0 and not res0.ideal.reduced_groebner_basis()
    res1 = pre([Polynomial.constant(U, 1)], F)
    assert res1.iterations == 0
    assert [str(g) for g in res1.ideal.reduced_groebner_basis()] == ["1"]
    with pytest.raises(ValueError):
        pre([], F)


def test_check_safety_holds(running):
    U, _, (X, Y), F = running
    res = check_safety(Precondition([X - Y]), [X * X - X * Y], F)
    assert res.verdict == HOLDS
    assert res.post_result.space.is_full()


def test_check_safety_stationary_field(running):
    U, _, (X, Y), _ = running
    Fz = VectorField(U, [Polynomial.zero(U), Polynomial.zero(U)])
    res = check_safety(Precondition([X - Y]), [X - Y, 2 * X - 2 * Y], Fz)
    assert res.verdict == HOLDS


def test_check_safety_fails_with_witness(running):
    U, (x, y), (X, Y), F = running
    res = check_safety(Precondition([X - Y]), [X], F)
    assert res.verdict == FAILS
    w = res.witness
    assert w is not None
    assert w["value"] != 0
    point = w["point"]
    assert point[x] == point[y]  # the witness lies on the precondition


def test_check_safety_inconclusive_in_sound_mode(running):
    U, _, (X, Y), F = running
    res = check_safety(
        Precondition([X - Y], mode="generators"), [X], F
    )
    assert res.verdict == INCONCLUSIVE


def test_post_and_check_refuse_an_analysis_over_another_universe():
    # x' = 0, y' = 1 over (x, y): x = 0 stays x = 0, but the same
    # precondition analyzed over (y, x) packs x as the field's y
    x, y = Symbol("x"), Symbol("y")
    U, other = SymbolUniverse([x, y], Lex()), SymbolUniverse([y, x], Lex())
    F = VectorField(U, [Polynomial.zero(U), Polynomial.constant(U, 1)])
    X = Polynomial.variable(U, x)
    assert check_safety(Precondition([X]).analyze(U), [X], F).verdict == HOLDS
    crossed = Precondition([Polynomial.variable(other, x)]).analyze(other)
    with pytest.raises(ValueError):
        check_safety(crossed, [X], F)
    with pytest.raises(ValueError):
        post(crossed, complete_template(U, [x, y], 1), F)


def test_check_invariant_ideal(running):
    U, _, (X, Y), F = running
    assert check_invariant_ideal(Ideal(U, [X - Y]), F)
    assert check_invariant_ideal(Ideal(U, [Polynomial.constant(U, 1)]), F)
    Fc = VectorField(U, [Polynomial.constant(U, 1), Polynomial.zero(U)])
    assert not check_invariant_ideal(Ideal(U, [X]), Fc)


def test_weakest_precondition_cross_check(running):
    # from an exact seed, post's J is the weakest precondition of the
    # template's variety, so it equals pre's ideal
    U, _, (X, Y), F = running
    res = post(Precondition([X - 1, Y - 1]), linear_combination_template([X - Y]), F)
    assert res.analysis.exact
    assert ideal_equal(res.ideal, pre([X - Y], F).ideal)


def test_weakest_precondition_zero_space(running):
    U, (x, y), _, F = running
    res = post(Precondition([]), complete_template(U, [x, y], 2), F)
    assert res.analysis.exact
    assert res.result.is_zero()
    assert not res.ideal.reduced_groebner_basis()


def test_mode_detection(running):
    U, _, (X, Y), _ = running
    assert Precondition([X - 1, Y - 2]).analyze(U).effective_mode == "singleton"
    assert Precondition([X - Y]).analyze(U).effective_mode == "graph"
    # the parabola y = x^2 is a graph too: its generator solves y exactly
    assert Precondition([X * X - Y]).analyze(U).effective_mode == "graph"
    # x^2 + y^2 has no linearly solvable variable; over the reals its
    # variety is the origin, whose vanishing ideal is strictly larger
    an = Precondition([X * X + Y * Y]).analyze(U)
    assert an.effective_mode == "generators" and not an.exact
    forced = Precondition([X - Y], mode="generators").analyze(U)
    assert forced.effective_mode == "generators" and not forced.exact
    trusted = Precondition([X * X + Y * Y], mode="trusted").analyze(U)
    assert trusted.exact
    # x also sits in the nonlinear term x*y, so x - x*y solves no variable
    an = Precondition([X - X * Y]).analyze(U)
    assert an.effective_mode == "generators" and not an.exact
    # x bound twice: no singleton and no graph, but <x - 1, x - 2> is the
    # unit ideal, the vanishing ideal of the empty variety
    an = Precondition([X - 1, X - 2]).analyze(U)
    assert an.effective_mode == "generators" and an.exact
    with pytest.raises(ModeError):
        Precondition([X - Y], mode="singleton").analyze(U)
    with pytest.raises(ModeError):
        Precondition([X * X + Y * Y], mode="graph").analyze(U)


def test_unit_ideal_precondition_is_exact(running):
    U, _, (X, Y), _ = running
    an = Precondition([Polynomial.constant(U, 1)], mode="generators").analyze(U)
    assert an.exact  # empty variety: the unit ideal is its vanishing ideal


def test_triangular_bindings_nonlinear_graph(running):
    # v bound to a product of previously bound variables is still a graph
    syms = [Symbol(n) for n in ("v", "q", "u")]
    U = SymbolUniverse(syms)
    V, Q, Uu = (Polynomial.variable(U, s) for s in syms)
    bindings = triangular_bindings([V - Q * Uu, Q - 2], U)
    assert bindings is not None
    assert {s.name for s, _ in bindings} == {"v", "q"}
    assert triangular_bindings([V * V + Q * Q], U) is None


@pytest.mark.parametrize(
    "mode, gens, searched",
    [
        ("generators", "xy", 0),
        ("trusted", "xy", 0),
        ("singleton", "xy", 0),
        ("auto", "xy", 0),  # the singleton pattern decides it alone
        ("auto", "x", 1),
        ("auto", "circle", 1),
        ("graph", "x", 1),
    ],
)
def test_bindings_are_searched_only_for_the_mode_decision(running, monkeypatch, mode, gens, searched):
    """`analyze` looks for triangular bindings only where `auto` or
    `graph` reads them, and keeps them only where they made the mode
    graph, for sampling to reuse."""
    U, _, (X, Y), _ = running
    gens = {"xy": [X - 1, Y - 2], "x": [X - Y * Y], "circle": [X * X + Y * Y - 1]}[gens]
    calls = []

    def counting(*args):
        calls.append(args)
        return triangular_bindings(*args)

    monkeypatch.setattr(algorithms, "triangular_bindings", counting)
    an = Precondition(gens, mode=mode).analyze(U)
    assert len(calls) == searched
    if an.effective_mode == "graph":
        assert an.bindings == triangular_bindings(gens, U) is not None
    else:
        assert an.bindings is None


def test_sample_points_satisfy_generators(ghost):
    U, syms, (X, Y, X0, Y0), F = ghost
    pts = sample_points([X - X0, Y - Y0], U, 4)
    assert len(pts) == 4
    for p in pts:
        assert (X - X0).evaluate(p) == 0
        assert (Y - Y0).evaluate(p) == 0
    # no points for an empty variety
    assert sample_points([Polynomial.constant(U, 1), X - X0], U, 3) == []
    assert sample_points([X - X0, (X - X0) * Y + 1], U, 3) == []


def test_sample_points_are_distinct():
    # the pool holds 10 values, so 25 asked give the 10 distinct points
    built = load_entry("running-post").build()
    pts = sample_points(built.precondition.generators, built.universe, 25)
    assert len(pts) == 10
    assert len({tuple(sorted((s.name, v) for s, v in p.items())) for p in pts}) == 10


def test_sample_points_bind_every_variable_once(running):
    # no variable is free, so the precondition has exactly one point
    U, (x, y), (X, Y), F = running
    gens = [X - 1, Y - 2]
    assert sample_points(gens, U, 5) == [{x: Fraction(1), y: Fraction(2)}]
    numeric = NumericSpec(samples=5, horizon=Fraction(1, 16), step=Fraction(1, 64))
    records, _ = verify_from_analysis([X * Y - 2], F, gens, numeric)
    assert len(records) == 1


@pytest.mark.parametrize(
    "name, searched",
    [
        ("kepler", 0),  # generators mode, numeric check off
        ("ghost-post", 1),
        ("running-check", 1),
        ("running-check-corrupted", 1),  # the witness samples too
        ("running-invariant", 2),  # the empty precondition, then the basis
    ],
)
def test_post_and_check_sample_from_the_bindings_analyze_found(monkeypatch, name, searched):
    """A post or check query samples its precondition from the bindings
    that made its mode graph; pre and invariant search their computed
    basis's bindings, and nothing searches bindings no one reads."""
    calls = []

    def counting(*args):
        calls.append(args)
        return triangular_bindings(*args)

    monkeypatch.setattr(algorithms, "triangular_bindings", counting)
    report = run(load_entry(name).build())
    assert len(calls) == searched
    assert report.data.get("numeric_check", {}).get("passed") is not False


def test_pre_stable_step_adds_no_generator():
    built = load_entry("running-pre").build()
    res = pre(built.polynomials, built.field)
    pinned = json.loads(
        (resources.files("odeinv") / "corpus" / "expected" / "running-pre.json").read_text()
    )["result"]
    assert [str(g) for g in res.ideal.instances()] == pinned["derivative_closure"]
    assert res.ideal.generator_count == pinned["ideal"]["generator_count"] == 2


def test_post_reduces_by_the_precondition_ideal_reducer(running):
    U, (x, y), (X, Y), F = running
    analysis = Precondition([X - Y]).analyze(U)
    reducer = analysis.ideal.reducer()
    assert not reducer._cache
    post(analysis, complete_template(U, [x, y], 2), F)
    assert analysis.ideal.reducer() is reducer
    assert U.packing.pack((2, 0)) in reducer._cache  # x^2, asked by the degree-2 template


def _pre_or_none(chain, P, field, **options):
    try:
        return chain(P, field, **options)
    except ResourceLimitError:
        return None


def test_pre_matches_the_per_polynomial_chain():
    # one template remainder per step decides what one Ideal.member per
    # Lie derivative decides: same iterations, generators and reduced basis
    built = load_entry("running-pre").build()
    cases = [(built.polynomials, built.field, {})]
    rng = random.Random(7007)
    for _ in range(40):
        U, F = rand_field(rng)
        origin = {s: 0 for s in U.symbols}  # through the origin: few unit ideals
        P = [p - p.evaluate(origin) for p in (rand_poly(rng, U, 3, 2) for _ in range(3))]
        cases.append((P, F, {"max_iterations": 6, "pair_budget": 2000, "max_degree": 12}))
    compared = 0
    for P, F, options in cases:
        res = _pre_or_none(pre, P, F, **options)
        oracle = _pre_or_none(pre_by_polynomials, P, F, **options)
        assert (res is None) == (oracle is None)
        if res is None:
            continue
        ideal, m = oracle
        assert res.iterations == m
        assert [str(g) for g in res.ideal.instances()] == [str(g) for g in ideal.generators]
        assert res.ideal.reduced_groebner_basis() == ideal.reduced_groebner_basis()
        compared += 1
    assert compared >= 35


def test_post_rebuilds_ideal_after_refinement():
    # Kepler as bundled: j=1 is V-stable but J-unstable, j=2 refines V 71 -> 32,
    # and j=3 rebuilds the J basis from the restricted template's Lie iterates.
    built = load_entry("kepler").build()
    spec = built.spec
    res = post(
        built.precondition,
        built.template,
        built.field,
        max_iterations=spec.max_iterations,
        pair_budget=spec.pair_budget,
        max_degree=spec.max_degree,
    )
    assert list(res.trace) == [
        {"j": 0, "dim": 71, "constraints": 139},
        {"j": 1, "constraints": 0, "dim": 71, "v_stable": True,
         "j_checked": True, "j_stable": False, "j_generators": 71},
        {"j": 2, "constraints": 54, "dim": 32, "v_stable": False},
        {"j": 3, "constraints": 0, "dim": 32, "v_stable": True,
         "j_checked": True, "j_stable": False, "j_generators": 96},
        {"j": 4, "constraints": 3, "dim": 29, "v_stable": False},
        {"j": 5, "constraints": 0, "dim": 29, "v_stable": True,
         "j_checked": True, "j_stable": True, "j_generators": 145},
    ]
    assert res.ideal.generator_count == 145
    assert [str(g) for g in res.ideal.reduced_groebner_basis()] == [
        "r*u - 1",
        "dA^2 + 1/4*GM*a*ecc^2 - 1/4*GM*a",
    ]


@pytest.mark.parametrize("name, extensions", [("kepler", 1), ("running-pre", 1), ("running-post", 0)])
def test_chains_extend_only_when_the_ideal_grows(name, extensions, monkeypatch):
    """A stable J step is decided by membership, so `buchberger_extend` runs
    once per growing step only: kepler's J grows at j = 1 but is never
    completed at j = 3, where the lookahead sees V move at j = 4, and
    running-pre's chain grows once."""
    calls = []
    extend = groebner.buchberger_extend

    def counting(*args, **kwargs):
        calls.append(args)
        return extend(*args, **kwargs)

    monkeypatch.setattr(groebner, "buchberger_extend", counting)
    run(load_entry(name, numeric=False).build())
    assert len(calls) == extensions


def test_kepler_post_reduces_and_derives_each_template_once(monkeypatch):
    """Counts, not timings: one kepler `post` takes 6 template remainders
    (`GroebnerReducer.images`), all modulo the precondition, 4 template
    membership tests (`Ideal.member`), 9 template Lie derivatives and 6
    template compositions.  A growing J step hands its iterate to
    Buchberger instead of reducing it first, a rebuilt J takes the chain's
    own L^j instead of deriving it anew from the restricted template, T∘B
    is composed from the full template only where J is rebuilt, one
    compose per rebuild, and the lookahead at j = 3 hands its L^4 and
    constraints to the step that moves V, in place of the J step's
    membership test.  The J_0 closure test at j = 3 misses and stops at
    its first escaping column, so it divides fewer columns than L(T∘B)
    has."""
    calls = {"images": 0, "member": 0, "lie": 0, "compose": 0}
    tests = []  # (monomials of the template, its nonzero columns, columns divided, verdict)
    divided = None
    images, member = groebner.GroebnerReducer.images, groebner.Ideal.member
    lie, compose = Template.lie, Template.compose
    nf_int = groebner._nf_int

    def counting_images(self, monomials):
        calls["images"] += 1
        return images(self, monomials)

    def counting_member(self, g):
        nonlocal divided
        if not isinstance(g, Template):
            return member(self, g)
        calls["member"] += 1
        self.reduced_groebner_basis()  # Buchberger's divisions are not counted
        divided = 0
        try:
            verdict = member(self, g)
        finally:
            monomials = {m for col in g.columns for m in col}
            tests.append((monomials, sum(1 for col in g.columns if col), divided, verdict))
            divided = None
        return verdict

    def counting_nf_int(*args):
        nonlocal divided
        if divided is not None:
            divided += 1
        return nf_int(*args)

    def counting_lie(self, field):
        calls["lie"] += 1
        return lie(self, field)

    def counting_compose(self, *args):
        calls["compose"] += 1
        return compose(self, *args)

    monkeypatch.setattr(groebner.GroebnerReducer, "images", counting_images)
    monkeypatch.setattr(groebner.Ideal, "member", counting_member)
    monkeypatch.setattr(groebner, "_nf_int", counting_nf_int)
    monkeypatch.setattr(Template, "lie", counting_lie)
    monkeypatch.setattr(Template, "compose", counting_compose)
    built = load_entry("kepler").build()
    spec = built.spec
    res = post(
        built.precondition,
        built.template,
        built.field,
        max_iterations=spec.max_iterations,
        pair_budget=spec.pair_budget,
        max_degree=spec.max_degree,
    )
    assert res.iterations == 4
    assert calls == {"images": 6, "member": 4, "lie": 9, "compose": 6}
    # the J step at j = 1, the closure tests at j = 3 (a miss) and j = 5,
    # then `_verify_post`'s
    assert [verdict for *_, verdict in tests] == [False, False, True, True]
    monomials, columns, miss_divided, _ = tests[1]
    assert len(monomials) == 94
    assert miss_divided < columns
    assert all(divided == columns for _, columns, divided, _ in tests[2:])


@pytest.mark.parametrize(
    "spec, compositions",
    [
        pytest.param(lambda: load_entry("ghost-post"), 5, id="ghost-post"),
        pytest.param(lambda: stress_entry("collision-avoidance", 3), 7, id="collision-avoidance-3"),
    ],
)
def test_post_composes_the_restricted_template_only_where_j_is_rebuilt(
    monkeypatch, spec, compositions
):
    """Counts, not timings: one `Template.compose` for V_0, one per V
    move, which restricts only the chain's L^{j+1}, one per J rebuild
    after a move, which composes T∘B from the caller's template, and one
    for the result template.  Ghost-post moves V twice and collision-
    avoidance at degree 3 four times; each rebuilds J once after a move."""
    calls = 0
    compose = Template.compose

    def counting_compose(self, *args):
        nonlocal calls
        calls += 1
        return compose(self, *args)

    monkeypatch.setattr(Template, "compose", counting_compose)
    spec = spec()
    spec.override(numeric=False)
    assert run(spec.build()).exit_code == 0
    assert calls == compositions


def _post_of_entry(name, order):
    """The corpus entry `name` under the monomial order `order`, and its
    `post` answer under the entry's caps."""
    text = (resources.files("odeinv") / "corpus" / f"{name}.yaml").read_text(encoding="utf-8")
    data = yaml.safe_load(text)
    data["order"] = order
    built = SystemSpec.from_text(yaml.safe_dump(data, sort_keys=False)).build()
    spec = built.spec
    caps = {"pair_budget": spec.pair_budget, "max_degree": spec.max_degree}
    res = post(
        built.precondition,
        built.template,
        built.field,
        max_iterations=spec.max_iterations,
        **caps,
    )
    return built, caps, res


@pytest.mark.parametrize("order", ["lex", "grevlex"])
@pytest.mark.parametrize(
    "name", ["kepler", "ghost-post", "collision-avoidance", "airplane-vertical", "running-post"]
)
def test_lies_in_agrees_with_a_zero_remainder_on_the_post_corpus(name, order):
    """`Ideal.member` on a template stops at the first escaping column,
    yet decides as the whole remainder does: on each corpus `post` entry,
    for the template, the answer and their Lie derivatives, modulo the
    precondition and modulo J."""
    built, _, res = _post_of_entry(name, order)
    verdicts = set()
    for t in (built.template, res.result):
        for u in (t, t.lie(built.field)):
            for ideal in (res.analysis.ideal, res.ideal):
                verdict = ideal.member(u)
                assert verdict == u.reduce_by(ideal.reducer()).is_zero()
                verdicts.add(verdict)
    assert verdicts == {True, False}


@pytest.mark.parametrize("order", ["lex", "grevlex"])
@pytest.mark.parametrize(
    "name", ["kepler", "ghost-post", "collision-avoidance", "airplane-vertical"]
)
def test_post_ideal_is_completed_over_all_its_lie_iterates(name, order, monkeypatch):
    """When L(T∘B) lies in J_0 = <T∘B>, `post` gives J_j the basis of J_0
    instead of completing L^0..L^j, as each of these entries does at its
    last step: the answer must still be generated by the whole chain of
    Lie iterates, have the reduced basis Buchberger computes from scratch
    over them, and count their nonzero instances."""
    closed = []
    iterates_ideal = algorithms._iterates_ideal

    def recording(*args):
        ideal, is_closed = iterates_ideal(*args)
        closed.append(is_closed)
        return ideal, is_closed

    monkeypatch.setattr(algorithms, "_iterates_ideal", recording)
    built, caps, res = _post_of_entry(name, order)
    assert closed[-1]
    gens = res.ideal.generators
    assert same_span(gens[0].unit_instances(), res.result.unit_instances())
    iterates = [gens[0]]
    for _ in range(res.iterations):
        iterates.append(iterates[-1].lie(built.field))
    # an Ideal keeps its nonzero generators only
    assert [t.unit_instances() for t in gens] == [
        t.unit_instances() for t in iterates if not t.is_zero()
    ]
    assert list(res.ideal.reduced_groebner_basis()) == groebner.buchberger(gens, **caps)
    instances = [p for t in gens for p in t.unit_instances() if not p.is_zero()]
    assert res.ideal.generator_count == len(instances)


def test_kepler_last_step_completes_j0_alone(monkeypatch):
    """Kepler's J stops at j = 5 over 145 instances of L^0..L^5, but J_0,
    the 29 instances of the final L^0, is already Lie-closed: Buchberger
    runs over those 29 alone there.  At j = 3 it runs over J_0's 32 only:
    the closure test misses and the lookahead finds L^4 moving V, so the
    J of L^0..L^2, 96 instances, is counted but never completed."""
    built = load_entry("kepler").build()
    spec = built.spec
    analysis = built.precondition.analyze(built.universe)
    sizes = []
    buchberger = groebner.buchberger

    def counting(gens, **kwargs):
        sizes.append(sum(len(groebner._instances(g)) for g in gens))
        return buchberger(gens, **kwargs)

    monkeypatch.setattr(groebner, "buchberger", counting)
    res = post(
        analysis,
        built.template,
        built.field,
        max_iterations=spec.max_iterations,
        pair_budget=spec.pair_budget,
        max_degree=spec.max_degree,
    )
    assert sizes == [71, 32, 29]
    assert [t.get("j_generators") for t in res.trace] == [None, 71, None, 96, None, 145]


def test_chains_never_turn_a_template_into_a_polynomial(monkeypatch):
    """Each J is generated by whole templates, whose columns the engine
    reads as they are: `post` on kepler and `pre` on running-pre complete,
    with their pinned answers, while every unit instance is refused."""

    def refuse(self):
        raise AssertionError("a chain instantiated a template")

    monkeypatch.setattr(Template, "unit_instances", refuse)
    kepler = load_entry("kepler").build()
    spec = kepler.spec
    res = post(
        kepler.precondition,
        kepler.template,
        kepler.field,
        max_iterations=spec.max_iterations,
        pair_budget=spec.pair_budget,
        max_degree=spec.max_degree,
    )
    assert [t.get("j_generators") for t in res.trace] == [None, 71, None, 96, None, 145]
    assert res.ideal.generator_count == 145
    assert [str(g) for g in res.ideal.reduced_groebner_basis()] == [
        "r*u - 1",
        "dA^2 + 1/4*GM*a*ecc^2 - 1/4*GM*a",
    ]
    running = load_entry("running-pre").build()
    res = pre(running.polynomials, running.field)
    pinned = json.loads(
        (resources.files("odeinv") / "corpus" / "expected" / "running-pre.json").read_text()
    )["result"]
    assert [str(g) for g in res.ideal.instances()] == pinned["derivative_closure"]
    assert [str(g) for g in res.ideal.reduced_groebner_basis()] == (
        pinned["ideal"]["reduced_groebner_basis"]
    )


@pytest.mark.parametrize("name", ["running-post", "ghost-post", "kepler"])
def test_time_and_template_scaling_keep_both_chains(name):
    """F -> (3/7)F scales L^j by (3/7)^j, and T -> (-5/2)T scales every
    instance: neither moves a span, so neither moves V or J."""
    built = load_entry(name).build()
    U, F, T = built.universe, built.field, built.template
    slow = VectorField(U, [d * Fraction(3, 7) for d in F.drifts])
    assert slow.denominator == 7 * F.denominator
    scaled = Template.from_instances(
        U, T.params, [p * Fraction(-5, 2) for p in T.unit_instances()]
    )
    assert scaled.denominator == 2 * T.denominator
    want = post(built.precondition, T, F)
    for template, field in ((T, slow), (scaled, F)):
        got = post(built.precondition, template, field)
        assert got.iterations == want.iterations
        assert [e["dim"] for e in got.trace] == [e["dim"] for e in want.trace]
        assert got.space.rows == want.space.rows
        assert got.ideal.reduced_groebner_basis() == want.ideal.reduced_groebner_basis()

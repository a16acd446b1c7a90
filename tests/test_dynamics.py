import random
from fractions import Fraction
from math import gcd

import pytest

from odeinv import (
    Ideal,
    Polynomial,
    Subspace,
    Symbol,
    SymbolUniverse,
    VectorField,
    buchberger,
    complete_template,
    lie_derivative,
    linear_combination_template,
    result_template,
)
from odeinv import groebner
from odeinv.dynamics import GroebnerReducer, Template, fresh_parameters
from odeinv.linalg import nullspace
from odeinv.poly import GrevLex, Lex, monomials_up_to_degree
from oracles import (
    dense_basis,
    exponent_terms,
    instantiate,
    joint_polynomial,
    lie_iterate,
    lie_monomial,
    lie_rate_estimate,
    rational_template,
    solve_homogeneous,
    sparse,
    split_joint_polynomial,
    template_compose,
    template_lie,
    template_reduce_by,
    template_remainder_via_division,
    template_result,
    zero_constraints,
)
from conftest import in_span, same_span
from props import rand_field, rand_poly, run_lie_laws, run_template_commutation


def test_lie_derivative_table(running):
    U, _, (X, Y), F = running
    p = X - Y
    assert lie_derivative(p, F) == Y * Y - X * Y
    assert lie_iterate(p, F, 2) == 2 * X * Y**2 - X**2 * Y - Y**3
    q = X * X - X * Y
    assert lie_derivative(q, F) == -(X**2 * Y) + 2 * X * Y**2 - Y**3
    assert lie_iterate(q, F, 2) == -(X**3 * Y) + 4 * X**2 * Y**2 - 5 * X * Y**3 + 2 * Y**4


def test_lie_of_constant_is_zero(running):
    U, _, _, F = running
    assert lie_derivative(Polynomial.constant(U, 7), F).is_zero()


def test_lie_iterate_identity(running):
    U, _, (X, Y), F = running
    p = X * X - X * Y
    assert lie_iterate(p, F, 0) == p
    with pytest.raises(ValueError):
        lie_iterate(p, F, -1)


def test_lie_rejects_foreign_polynomial(running):
    U, _, _, F = running
    other = SymbolUniverse([Symbol("x"), Symbol("y")])
    with pytest.raises(ValueError):
        lie_derivative(Polynomial.variable(other, other.by_name("x")), F)


def test_lie_laws_small():
    run_lie_laws(100, seed=73)


def test_complete_template_shape(running):
    U, (x, y), _, _ = running
    pi = complete_template(U, [x, y], 2)
    assert len(pi.params) == 6
    # ascending (degree, order) assignment: a1 multiplies the constant
    insts = pi.unit_instances()
    assert str(insts[0]) == "1"
    assert {str(p) for p in insts} == {"1", "x", "y", "x^2", "x*y", "y^2"}
    k0 = complete_template(U, [x, y], 0)
    assert len(k0.params) == 1 and str(k0.unit_instances()[0]) == "1"
    big = SymbolUniverse([Symbol(f"v{i}") for i in range(18)])
    assert len(complete_template(big, big.symbols, 2).params) == 190


def test_lie_template_restricted_matches_reference(running):
    # parameters are assigned ascending, so a2*y + a3*x and a4*y^2 + a5*x*y
    # + a6*x^2; restricting the derivative by a1=0, a2=-a3, a4=-a5-a6 must
    # collapse onto span{y^2 - x*y, x^2*y - 2*x*y^2 + y^3}
    U, (x, y), (X, Y), F = running
    pi = complete_template(U, [x, y], 2)
    pi1 = pi.lie(F)
    rows = [
        [0, -1, 1, 0, 0, 0],   # free linear direction (a3 = 1, a2 = -1)
        [0, 0, 0, -1, 1, 0],   # free quadratic direction a5 (x*y)
        [0, 0, 0, -1, 0, 1],   # free quadratic direction a6 (x^2)
    ]
    rows = [sparse(r) for r in rows]
    restricted = pi1.compose(rows, [Symbol(f"b{i}", Symbol.PARAM) for i in (1, 2, 3)])
    b1, b2, b3 = restricted.unit_instances()
    assert b1 == Y * Y - X * Y
    assert b2 == X**2 * Y - 2 * X * Y**2 + Y**3
    assert b3.is_zero()


def test_constant_only_parameter_contributes_nothing(running):
    U, (x, y), _, F = running
    pi = complete_template(U, [x, y], 0)
    assert pi.lie(F).is_zero()


def test_template_commutation_small():
    run_template_commutation(40, seed=79)


def test_compose_matches_instantiating_the_combined_row(running):
    # t.compose(rows, ys) at y equals t at sum_k y_k * rows_k, on random
    # sparse rows with empty rows and an empty row list among them
    rng = random.Random(101)
    U = running[0]
    monomials = [(i, j) for i in range(3) for j in range(3)]
    values = (1, -2, 3, Fraction(1, 2), Fraction(-4, 3))
    for _ in range(60):
        n = rng.randint(1, 6)
        t = rational_template(U, fresh_parameters(n), {
            e: {k: rng.choice(values) for k in rng.sample(range(n), rng.randint(1, n))}
            for e in rng.sample(monomials, rng.randint(0, len(monomials)))
        })
        m = rng.randint(0, 4)
        rows = [
            {j: rng.choice(values) for j in rng.sample(range(n), rng.randint(0, n))}
            for _ in range(m)
        ]
        y = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(m)]
        v = [sum((yk * row.get(j, 0) for yk, row in zip(y, rows)), Fraction(0)) for j in range(n)]
        assert instantiate(t.compose(rows, fresh_parameters(m, "y")), y) == instantiate(t, v)


def _same_template(fast, slow):
    """Equal values, in lowest terms, with equal instances."""
    assert fast == slow
    assert fast.denominator > 0
    assert gcd(fast.denominator, *(v for f in fast.forms() for v in f.values())) == 1
    assert fast.unit_instances() == slow.unit_instances()


def test_projective_template_ops_equal_the_fraction_oracle():
    # integer forms over one denominator give exactly the instances of the
    # Fraction oracles: rational template coefficients, drifts whose
    # denominators clear to D > 1, and bases with rational coefficients
    rng = random.Random(103)
    values = (1, -2, 3, Fraction(1, 2), Fraction(-4, 3), Fraction(5, 6))
    fields_with_d, rational_bases, scaled = 0, 0, 0
    for _ in range(30):
        U, F = rand_field(rng, max_vars=2)
        fields_with_d += F.denominator > 1
        monomials = [U.packing.unpack(m) for m in monomials_up_to_degree(U, U.symbols, 2)]
        n = rng.randint(1, 5)
        t = rational_template(U, fresh_parameters(n), {
            e: {k: rng.choice(values) for k in rng.sample(range(n), rng.randint(1, n))}
            for e in rng.sample(monomials, rng.randint(1, len(monomials)))
        })
        gens = [rand_poly(rng, U, 4, 2) for _ in range(rng.randint(1, 2))]
        gens = [p for p in gens if len(p._terms) > 1]
        basis = buchberger(gens, max_degree=8) if gens else []
        rational_bases += any(c.denominator > 1 for g in basis for c in g._terms.values())
        reducer = GroebnerReducer(basis)
        for _ in range(3):
            rem = t.reduce_by(reducer)
            _same_template(rem, template_reduce_by(t, basis))
            scaled += rem.denominator > 1
            kernel = nullspace(rem.forms(), n)
            ys = fresh_parameters(len(kernel), "y")
            _same_template(t.compose(kernel, ys), template_compose(t, kernel, ys))
            space = Subspace.from_rows(kernel, n)
            _same_template(result_template(t, space), template_result(t, space))
            d = rng.randint(1, 6)
            rows = [{j: rng.choice(values) for j in rng.sample(range(n), rng.randint(0, n))}]
            divided = [{j: Fraction(v) / d for j, v in rows[0].items()}]
            ys = fresh_parameters(1, "y")
            _same_template(t.compose(rows, ys, d), template_compose(t, divided, ys))
            derived = t.lie(F)
            _same_template(derived, template_lie(t, F))
            t = derived
    assert fields_with_d > 10 and rational_bases > 10 and scaled > 10


def test_template_remainder_examples(running):
    U, (x, y), (X, Y), F = running
    pi = complete_template(U, [x, y], 2)
    r0 = pi.reduce_by(GroebnerReducer([X - Y]))
    forms = zero_constraints(r0)
    a = pi.params
    assert [str(f) for f in forms] == ["a4 + a5 + a6", "a2 + a3", "a1"]
    V0 = solve_homogeneous(forms, a)
    assert V0.dim == 3

    r1 = pi.lie(F).reduce_by(GroebnerReducer([X - Y]))
    rows = [sparse(r) for r in dense_basis(V0)]
    restricted = r1.compose(rows, [Symbol(f"b{i}", Symbol.PARAM) for i in range(3)])
    assert restricted.is_zero()

    assert pi.reduce_by(GroebnerReducer([])) == pi


def test_template_remainder_matches_division_oracle(running):
    rng = random.Random(83)
    for _ in range(40):
        U, F = rand_field(rng, max_vars=2)
        pi = complete_template(U, U.symbols, 2)
        for _ in range(rng.randint(0, 2)):
            pi = pi.lie(F)
        divisor = rand_poly(rng, U, 3, 2)
        if divisor.is_zero():
            continue
        from odeinv import buchberger

        basis = buchberger([divisor])
        fast = pi.reduce_by(GroebnerReducer(basis))
        slow = template_remainder_via_division(pi, basis)
        assert fast == slow
        # and instantiation commutes with reduction at random valuations
        from odeinv import normal_form

        v = [Fraction(rng.randint(-2, 2)) for _ in pi.params]
        assert instantiate(fast, v) == normal_form(instantiate(pi, v), basis)


def test_joint_division_linearity_guard(running):
    # the oracle's split refuses a polynomial that is not parameter-linear,
    # as a remainder can be without parameter dominance
    U, (x, y), (X, Y), _ = running
    pi = complete_template(U, [x, y], 1)
    joint = SymbolUniverse(tuple(pi.params) + U.symbols)
    p = joint_polynomial(pi, joint)
    assert split_joint_polynomial(p, len(pi.params), U) == pi
    with pytest.raises(ValueError, match="parameter degree 2"):
        # a parameter-quadratic polynomial in the joint ring
        split_joint_polynomial(p * p, len(pi.params), U)


def test_zero_constraints_examples(running):
    U, (x, y), (X, Y), _ = running
    pi = complete_template(U, [x, y], 2)
    r0 = pi.reduce_by(GroebnerReducer([X - Y]))
    forms = zero_constraints(r0)
    assert len(forms) == 3
    assert zero_constraints(Template(U, (), ())) == []
    # footnote template (a1+a2)*x1 + a3*x2
    a = [Symbol(f"a{i}", Symbol.PARAM) for i in (1, 2, 3)]
    t = Template(
        U,
        a,
        [{U.packing.pack((1, 0)): 1}, {U.packing.pack((1, 0)): 1}, {U.packing.pack((0, 1)): 1}],
    )
    got = {str(f) for f in zero_constraints(t)}
    assert got == {"a1 + a2", "a3"}


def test_result_template_span(running):
    U, (x, y), (X, Y), F = running
    pi = complete_template(U, [x, y], 2)
    r0 = pi.reduce_by(GroebnerReducer([X - Y]))
    V0 = solve_homogeneous(zero_constraints(r0), pi.params)
    out = result_template(pi, V0)
    assert len(out.params) == 3
    assert all(p.name.startswith("b") for p in out.params)
    targets = [Y * Y - X * X, X * Y - X * X, Y - X]
    assert same_span(out.unit_instances(), targets)

    zero = result_template(pi, Subspace.from_rows([], 6))
    assert zero.is_zero() and len(zero.params) == 0

    full = result_template(pi, Subspace.from_rows([{i: 1} for i in range(6)], 6))
    assert same_span(full.unit_instances(), pi.unit_instances())


def test_result_template_scales_rows_to_unit_pivots(running):
    # the stored integer row 2*a1 + a2 stands for the RREF row a1 + a2/2
    U, _, (X, Y), _ = running
    t = linear_combination_template([X, Y])
    space = Subspace.from_rows([{0: 2, 1: 1}], 2)
    assert space.rows == ({0: 2, 1: 1},)
    (inst,) = result_template(t, space).unit_instances()
    assert inst == X + Y * Fraction(1, 2)


def test_result_template_members_vanish_on_constraints(running):
    rng = random.Random(89)
    U, (x, y), (X, Y), F = running
    pi = complete_template(U, [x, y], 2)
    r0 = pi.reduce_by(GroebnerReducer([X - Y]))
    forms = zero_constraints(r0)
    V0 = solve_homogeneous(forms, pi.params)
    for row in dense_basis(V0):
        assert all(f({s: v for s, v in zip(pi.params, row)}) == 0 for f in forms)
    # random members of the space instantiate into the span of the basis
    basis_instances = result_template(pi, V0).unit_instances()
    for _ in range(20):
        coeffs = [Fraction(rng.randint(-3, 3)) for _ in range(V0.dim)]
        v = [
            sum((c * row[j] for c, row in zip(coeffs, dense_basis(V0))), Fraction(0))
            for j in range(6)
        ]
        assert in_span(instantiate(pi, v), basis_instances)


def test_linear_combination_template(running):
    U, _, (X, Y), _ = running
    q = X * X - X * Y
    t = linear_combination_template([q, X - Y])
    assert len(t.params) == 2
    assert instantiate(t, [1, 0]) == q
    assert instantiate(t, [0, 1]) == X - Y


def test_rk4_rate_matches_lie_derivative(running):
    rng = random.Random(97)
    U, (x, y), _, F = running
    for _ in range(50):
        p = rand_poly(rng, U, max_terms=4, max_degree=2)
        point = [
            Fraction(rng.randint(-2, 2), rng.randint(1, 2)),
            Fraction(rng.randint(-2, 2), rng.randint(1, 2)),
        ]
        exact = lie_derivative(p, F).evaluate({x: point[0], y: point[1]})
        estimate = lie_rate_estimate(F, p, point)
        assert abs(estimate - float(exact)) <= 1e-6 * (1.0 + abs(float(exact)))


@pytest.mark.parametrize("order", [Lex(), GrevLex()], ids=["lex", "grevlex"])
def test_lie_monomial_derivers_match_the_tuple_engine(order):
    # the per-variable derivers against the oracle's exponent-tuple Lie
    # derivative, on random monomials: zero drifts (no deriver), constant
    # drifts, drifts in the variable itself, and random drifts
    rng = random.Random(2828)
    syms = [Symbol(n) for n in ("w", "x", "y", "z")]
    U = SymbolUniverse(syms, order)
    W, X, Y, Z = (Polynomial.variable(U, s) for s in syms)
    zero = Polynomial.zero(U)
    fields = [
        [zero, Polynomial.constant(U, Fraction(3, 2)), zero, -Z],
        [Fraction(1, 3) * W, X * X - 2 * Y, Polynomial.constant(U, -5), zero],
        [zero, zero, zero, zero],
    ]
    fields += [[rand_poly(rng, U, max_terms=3, max_degree=3) for _ in syms] for _ in range(8)]
    for drifts in fields:
        F = VectorField(U, drifts)
        assert len(F._derivers) == sum(1 for d in drifts if not d.is_zero())
        for _ in range(25):
            exps = tuple(rng.randint(0, 4) for _ in syms)
            got = {
                U.packing.unpack(m): Fraction(c, F.denominator)
                for m, c in F.lie_monomial(U.packing.pack(exps)).items()
                if c
            }
            assert got == {e: c for e, c in lie_monomial(F, exps).items() if c}


def test_lies_in_stops_at_the_first_escaping_column(running, monkeypatch):
    # `Ideal.member` on a template divides column by column, each from
    # scratch by `_nf_int`, and stops at the first column that escapes
    U, _, (X, Y), _ = running
    zero = Polynomial.zero(U)
    a = fresh_parameters(3)
    inside = [X - Y, X * X - Y * Y, X * Y - Y * Y]
    ideal = Ideal(U, [X - Y])
    ideal.reduced_groebner_basis()  # Buchberger's own divisions done first
    divided = []
    nf_int = groebner._nf_int

    def counting(terms, *args):
        divided.append(dict(terms))
        return nf_int(terms, *args)

    monkeypatch.setattr(groebner, "_nf_int", counting)
    # only the last column escapes: every column is checked
    assert not ideal.member(Template.from_instances(U, a, inside[:2] + [X + Y]))
    assert len(divided) == 3
    assert ideal.member(Template.from_instances(U, a, inside))
    # a zero template, with and without parameters
    assert ideal.member(Template.from_instances(U, a, [zero] * 3))
    assert ideal.member(Template(U, (), []))
    # the first column escapes: it is all that is divided
    divided.clear()
    assert not ideal.member(Template.from_instances(U, a, [X + Y] + inside[1:]))
    pack = U.packing.pack
    assert divided == [{pack((0, 1)): 1, pack((1, 0)): 1}]


def test_vector_field_validation(running):
    U, _, (X, Y), _ = running
    with pytest.raises(ValueError):
        VectorField(U, [X])  # missing drift
    pu = SymbolUniverse([Symbol("a", Symbol.PARAM), Symbol("x")])
    with pytest.raises(ValueError):
        VectorField(pu, [Polynomial.zero(pu), Polynomial.zero(pu)])


def test_cancelling_lie_and_reduction_store_no_zero_terms(running):
    # lie_monomial may cache a cancelled term; `combine` drops it
    U, _, (X, Y), _ = running
    F = VectorField(U, [X, -Y])
    pack = U.packing.pack
    assert F.lie_monomial(pack((1, 1))) == {pack((1, 1)): 0}
    assert lie_derivative(X * Y + X, F) == X
    a = [Symbol(f"a{i}", Symbol.PARAM) for i in (1, 2)]
    # a1*(x*y + x) + a2*x: x*y cancels in the Lie derivative
    t = Template.from_instances(U, a, [X * Y + X, X])
    d = t.lie(F)
    assert exponent_terms(d) == {(1, 0): {0: 1, 1: 1}}
    # a1*(x - y) + a2*(y - x): both forms cancel modulo x - y
    r = Template.from_instances(U, a, [X - Y, Y - X])
    assert r.reduce_by(GroebnerReducer([X - Y])).columns == ({}, {})
    # a1*x + a2*x: the coefficient of x cancels at a1 = -a2
    assert instantiate(Template.from_instances(U, a, [X, X]), [1, -1])._terms == {}
    # a1*(x^2 + y^2): 2xy - 2xy leaves an empty column
    rot = VectorField(U, [Y, -X])
    assert Template.from_instances(U, a[:1], [X * X + Y * Y]).lie(rot).columns == ({},)

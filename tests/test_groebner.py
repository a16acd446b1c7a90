import random
from fractions import Fraction
from math import gcd
from operator import add, le, sub
from types import SimpleNamespace

import pytest

from odeinv import (
    Ideal,
    Polynomial,
    ResourceLimitError,
    Symbol,
    SymbolUniverse,
    buchberger,
    complete_template,
    lie_derivative,
    monomials_up_to_degree,
    normal_form,
)
from odeinv import groebner
from odeinv.groebner import GroebnerReducer
from odeinv.dynamics import Template, VectorField, fresh_parameters
from odeinv.poly import EXPONENT_CAP, GrevLex, Lex
from odeinv.report import run
from oracles import (
    ORDER_KEYS,
    divide,
    exponent_dict,
    extend,
    ideal_equal,
    is_groebner_basis,
    lie_iterate,
    load_entry,
    monomial_normal_form,
)
from props import (
    pairs_in_random_order,
    rand_poly,
    run_buchberger_closure,
    run_division_contract,
    run_extension_agreement,
    run_membership_oracle,
    run_reduced_gb_canonicity,
)


@pytest.mark.parametrize("order", [Lex(), GrevLex()], ids=["lex", "grevlex"])
def test_packing_laws(order):
    # over 1-18 variables, with exponents up to the cap: the packed integer
    # round-trips, orders as the tuple key does, and its product, quotient,
    # lcm and divisibility test are the tuple operations; an exponent, or a
    # grevlex degree, of EXPONENT_CAP is refused, and an overflowing
    # product shows its guard bit
    rng = random.Random(131)
    cap = EXPONENT_CAP

    def draw(n):
        return tuple(rng.choice((0, 0, 1, 2, 3, cap - 1, rng.randrange(cap))) for _ in range(n))

    def packable(exps):
        return max(exps) < cap and (not order.graded or sum(exps) < cap)

    overflows = 0
    for n in range(1, 19):
        U = SymbolUniverse([Symbol(f"x{i}") for i in range(n)], order)
        P = U.packing
        for _ in range(40):
            a, b = draw(n), draw(n)
            if not (packable(a) and packable(b)):
                with pytest.raises(ResourceLimitError):
                    P.pack(a if not packable(a) else b)
                continue
            pa, pb = P.pack(a), P.pack(b)
            assert P.unpack(pa) == a and P.unpack(pb) == b
            assert (pa ^ P.flip < pb ^ P.flip) == (ORDER_KEYS[order.name](a) < ORDER_KEYS[order.name](b))
            assert (pa == pb) == (a == b)
            divides = all(map(le, a, b))
            lead = [SimpleNamespace(lead_exps=pa)]
            assert (groebner._divisor_of(lead, pb, P.guards) is not None) == divides
            if divides:
                assert P.unpack(pb - pa) == tuple(map(sub, b, a))
            product = tuple(map(add, a, b))
            if packable(product):
                assert not (pa + pb) & P.guards
                assert pa + pb == P.pack(product)
            else:
                overflows += 1
                assert (pa + pb) & P.guards
                with pytest.raises(ResourceLimitError):
                    P.pack(product)
            lcm = tuple(map(max, a, b))
            if packable(lcm):
                assert P.lcm(pa, pb) == P.pack(lcm)
            else:
                with pytest.raises(ResourceLimitError):
                    P.lcm(pa, pb)
        for big in (cap, 2 * cap, 2**40):
            with pytest.raises(ResourceLimitError, match="exponent cap"):
                P.pack((0,) * (n - 1) + (big,))
    assert overflows > 10


@pytest.mark.parametrize("order", [Lex(), GrevLex()], ids=["lex", "grevlex"])
def test_an_overflowing_monomial_raises_in_every_engine_path(order):
    # x^top is the largest power a field holds (and, under grevlex, the
    # largest degree): every path that multiplies past it raises, never
    # wraps into the next field
    x, y = Symbol("x"), Symbol("y")
    U = SymbolUniverse([x, y], order)
    X, Y = (Polynomial.variable(U, s) for s in (x, y))
    top = EXPONENT_CAP - 1
    pack = U.packing.pack
    # the Lie derivative of x^top along x' = x^2 is top * x^(top + 1);
    # along x' = x it stays in the field, and along x' = x*y only the
    # grevlex degree field overflows
    zero = Polynomial.zero(U)
    field = VectorField(U, [X * X, zero])
    with pytest.raises(ResourceLimitError, match="exponent cap"):
        field.lie_monomial(pack((top, 0)))
    assert VectorField(U, [X, zero]).lie_monomial(pack((top, 0))) == {pack((top, 0)): top}
    if order.graded:
        with pytest.raises(ResourceLimitError, match="exponent cap"):
            VectorField(U, [X * Y, zero]).lie_monomial(pack((top, 0)))
    else:
        assert VectorField(U, [X * Y, zero]).lie_monomial(pack((top, 0))) == {pack((top, 1)): top}
    # the auxiliary monomial x^top of a complete template adds x^(top + 1)
    with pytest.raises(ResourceLimitError, match="exponent cap"):
        complete_template(U, [x, y], 1, auxiliary=[pack((top, 0))])
    if order.graded:
        # the lcm of x^(cap/2) and y^(cap/2) has degree EXPONENT_CAP; a
        # graded reduction never raises the degree
        half = EXPONENT_CAP // 2
        generators = [X**half - 1, Y**half - 1]
        with pytest.raises(ResourceLimitError, match="exponent cap"):
            buchberger(generators)
        return
    # x * y^top = y^(top + 1) modulo x - y, by division; x * y =
    # y^(top + 1) modulo x - y^top, by the memo's multiplication step
    with pytest.raises(ResourceLimitError, match="exponent cap"):
        normal_form(X * Y**top, [X - Y])
    with pytest.raises(ResourceLimitError, match="exponent cap"):
        GroebnerReducer([X - Y**top]).monomial_terms(pack((1, 1)))
    # the S-polynomial of x*y^top - 1 and x^2 - y holds y^(top + 1)
    with pytest.raises(ResourceLimitError, match="exponent cap"):
        buchberger([X * Y**top - 1, X * X - Y])


def test_divide_examples(running):
    U, _, (X, Y), _ = running
    res = divide(X * X - X * Y, [X - Y])
    assert res.remainder.is_zero()
    assert res.quotients[0] == X

    one = Polynomial.constant(U, 1)
    assert divide(one, [X - Y]).remainder == one

    # empty divisor list: the dividend is its own remainder
    p = X * X + Y
    assert divide(p, []).remainder == p


def test_divide_rejects_zero_divisor(running):
    U, _, (X, Y), _ = running
    with pytest.raises(ValueError):
        divide(X, [Polynomial.zero(U)])


def test_division_contract_small():
    run_division_contract(100, seed=31)


def test_buchberger_trivial_cases(running):
    U, _, (X, Y), _ = running
    assert buchberger([X - Y]) == [X - Y]
    assert buchberger([]) == []
    assert buchberger([Polynomial.zero(U)]) == []


def test_buchberger_frozen_oracle(running):
    # S-pair closure of {x^2 - y, x^3 - x} computed by hand:
    #   S(f1,f2) -> xy - x;  S(f1, xy - x) -> y^2 - y;  all others reduce to 0
    U, _, (X, Y), _ = running
    gb = buchberger([X**2 - Y, X**3 - X])
    assert gb == [X**2 - Y, X * Y - X, Y**2 - Y]


def test_buchberger_closure_small():
    run_buchberger_closure(40, seed=37)


def test_member_examples(running):
    U, _, (X, Y), F = running
    q = X * X - X * Y
    q1 = lie_derivative(q, F)
    q2 = lie_iterate(q, F, 2)
    I1 = Ideal(U, [q, q1])
    assert I1.member(q2)
    assert I1.member(Polynomial.zero(U))
    assert not Ideal(U, [X - Y]).member(Polynomial.constant(U, 1))


def test_groebner_basis_oracle_rejects_non_basis(running):
    # under lex the S-polynomial of x^2 - y and x*y - 1 reduces to x - y^2
    U, _, (X, Y), _ = running
    gens = [X * X - Y, X * Y - 1]
    assert not is_groebner_basis(gens)
    assert is_groebner_basis(buchberger(gens))


def test_membership_oracle_agreement_small():
    run_membership_oracle(40, seed=41)


def test_ideal_equality_and_containment(running):
    U, _, (X, Y), F = running
    assert ideal_equal(Ideal(U, [X - Y]), Ideal(U, [2 * X - 2 * Y, X - Y]))
    q = X * X - X * Y
    q1 = lie_derivative(q, F)
    q2 = lie_iterate(q, F, 2)
    assert ideal_equal(Ideal(U, [q, q1]), Ideal(U, [q, q1, q2]))
    assert Ideal(U, [X, Y]).member(X)
    assert not Ideal(U, [X]).member(Y)


def _crossed_universes():
    """x over the lex universe (x, y) and y over (y, x): both pack to the
    top field, so a mix of the two would read y as x."""
    x, y = Symbol("x"), Symbol("y")
    U1, U2 = SymbolUniverse([x, y], Lex()), SymbolUniverse([y, x], Lex())
    return U1, Polynomial.variable(U1, x), Polynomial.variable(U2, y)


def test_normal_form_refuses_a_divisor_from_another_universe():
    _, X1, Y2 = _crossed_universes()
    with pytest.raises(ValueError):
        normal_form(Y2, [X1])


def test_member_refuses_a_generator_from_another_universe():
    U1, X1, Y2 = _crossed_universes()
    with pytest.raises(ValueError):
        Ideal(U1, [X1]).member(Y2)
    with pytest.raises(ValueError):
        Ideal(U1, [X1]).member(Template.from_instances(Y2.universe, fresh_parameters(1), [Y2]))


def test_reduced_gb_canonicity_small():
    run_reduced_gb_canonicity(20, seed=43)


def test_gb_elements_certified_by_independent_oracle():
    # both directions of ideal preservation: generators reduce to zero by
    # the basis (run_buchberger_closure), and each basis element has an
    # explicit combination certificate over the generators
    import random as _random

    from props import _oracle_member, rand_poly
    from odeinv.poly import GrevLex, SymbolUniverse
    from odeinv.poly import Symbol as Sym

    rng = _random.Random(59)
    for _ in range(15):
        U = SymbolUniverse([Sym(f"x{i}") for i in range(rng.randint(1, 3))], GrevLex())
        gens = [
            g
            for g in (rand_poly(rng, U, 3, 2) for _ in range(rng.randint(1, 2)))
            if not g.is_zero()
        ]
        if not gens:
            continue
        for g in buchberger(gens):
            assert any(
                _oracle_member(g, gens, d) for d in range(max(g.degree(), 2), 11)
            ), "basis element has no low-degree certificate over the inputs"


def test_cached_basis_generates_same_ideal():
    rng = random.Random(47)
    from props import rand_poly, small_universe

    for _ in range(25):
        U = small_universe(rng)
        gens = [
            g
            for g in (rand_poly(rng, U, 3, 2) for _ in range(rng.randint(1, 3)))
            if not g.is_zero()
        ]
        ideal = Ideal(U, gens)
        gb = ideal.reduced_groebner_basis()
        for g in gens:
            assert normal_form(g, gb).is_zero() if gb else g.is_zero()
        if gb:
            other = Ideal(U, list(gb))
            for g in gb:
                assert other.member(g)
            assert ideal_equal(ideal, other)


def test_pair_budget_is_distinct_error(running):
    U, _, (X, Y), _ = running
    with pytest.raises(ResourceLimitError):
        buchberger([X**3 - Y, X * Y**2 - X - 1, Y**3 - X * Y + 2], pair_budget=1)


def _pair_count_systems(order):
    syms = [Symbol(n) for n in ("x", "y", "z")]
    U = SymbolUniverse(syms, order)
    X, Y, Z = (Polynomial.variable(U, s) for s in syms)
    return [
        [X**3 - Y, X * Y**2 - X - 1, Y**3 - X * Y + 2],
        [X * Y * Z - 1, X**2 - Y, Y**2 - Z],
        [X**2 * Y + Z, Y**2 * Z + X, Z**2 * X + Y],
        [X**2 - 2 * X * Z + 5, X * Y**2 + Y * Z**3, 3 * Y**2 - 8 * Z**3],
    ]


@pytest.mark.parametrize(
    "order, counts", [(Lex(), [6, 11, 11, 7]), (GrevLex(), [11, 11, 11, 2])], ids=["lex", "grevlex"]
)
def test_buchberger_pair_counts_are_pinned(order, counts):
    # the S-pairs each basis takes, pinned: a change to pair selection or to
    # the Gebauer-Moeller criteria shows here first.  Without the chain
    # criterion the counts read 6, 15, 11, 8 (lex) and 13, 11, 14, 2 (grevlex)
    for gens, n in zip(_pair_count_systems(order), counts):
        buchberger(gens, pair_budget=n)
        with pytest.raises(ResourceLimitError):
            buchberger(gens, pair_budget=n - 1)


def test_shuffle_changes_the_pair_sequence(monkeypatch):
    # a run whose pair heap is re-keyed at random (props) must give the
    # default basis through another sequence of S-pairs; a re-keying the
    # engine did not pop by would repeat the default sequence
    taken = []
    spoly = groebner._spoly_int

    def recording(f, g, lcm):
        taken.append((f.lead_exps, g.lead_exps))
        return spoly(f, g, lcm)

    monkeypatch.setattr(groebner, "_spoly_int", recording)
    differ = 0
    for gens in _pair_count_systems(GrevLex()):
        for seed in range(3):
            taken.clear()
            reference = buchberger(gens)
            default = list(taken)
            taken.clear()
            with pairs_in_random_order(random.Random(seed)):
                assert buchberger(gens) == reference
            differ += taken != default
    assert differ > 0


def test_degree_cap_is_distinct_error(running):
    U, _, (X, Y), _ = running
    with pytest.raises(ResourceLimitError):
        buchberger([X**4 - Y, X * Y**3 - X - 1, Y**5 - X * Y + 2], max_degree=2)


def test_resource_caps_propagate_through_membership(running):
    U, _, (X, Y), _ = running
    ideal = Ideal(U, [X**3 - Y, X * Y**2 - X - 1, Y**3 - X * Y + 2], pair_budget=1)
    with pytest.raises(ResourceLimitError):
        ideal.member(X)


def test_ideal_extend_appends_nonzero_generators(running):
    U, _, (X, Y), _ = running
    zero = Polynomial.zero(U)
    ideal = Ideal(U, [X**2 - Y], pair_budget=50, max_degree=6)
    grown = extend(ideal, [zero, X * Y - 1, zero, Y**2 - X])
    assert grown.generators == (X**2 - Y, X * Y - 1, Y**2 - X)
    assert (grown.pair_budget, grown.max_degree) == (50, 6)
    assert ideal.generators == (X**2 - Y,)
    assert list(grown.reduced_groebner_basis()) == buchberger(grown.generators)
    # an extend by nothing new keeps the ideal
    assert ideal_equal(extend(grown, [zero, X * (X * Y - 1)]), grown)


def test_ideal_extend_carries_the_pair_budget(running):
    U, _, (X, Y), _ = running
    ideal = Ideal(U, [X**2 - Y], pair_budget=0)
    assert list(ideal.reduced_groebner_basis()) == [X**2 - Y]
    with pytest.raises(ResourceLimitError):
        extend(ideal, [X * Y - 1])  # the pair (x^2 - y, x*y - 1) must be reduced


def test_extend_and_reduce_return_the_reduced_basis(running):
    U, _, (X, Y), _ = running
    gb = buchberger([X**2 - Y, X**3 - X])
    # scaled and with a redundant multiple: a Groebner basis, not reduced
    loose = [3 * g for g in gb] + [X * gb[0]]
    assert groebner.buchberger_extend(GroebnerReducer(gb), []) == gb
    assert groebner.buchberger_extend(GroebnerReducer(loose), []) == gb
    # a member reduces to zero as it enters Buchberger; the seed is reduced
    # anyway
    assert groebner.buchberger_extend(GroebnerReducer(loose), [X * gb[0]]) == gb
    assert groebner.buchberger_extend(GroebnerReducer([]), []) == []


def test_extend_by_members_returns_the_same_basis(running):
    U, _, (X, Y), _ = running
    ideal = Ideal(U, [X**3 - Y, X * Y**2 - X - 1])
    gb = ideal.reduced_groebner_basis()
    grown = extend(ideal, [X * gb[0] - 3 * gb[-1], Y**2 * gb[-1]])
    assert grown.reduced_groebner_basis() == gb
    assert ideal_equal(grown, ideal)


def test_extension_agrees_with_buchberger_from_scratch():
    # most instances extend by a generator outside the seed's ideal
    assert run_extension_agreement(30, seed=47) >= 15


def test_normal_form_matches_divide():
    rng = random.Random(53)
    from props import rand_poly, small_universe

    for _ in range(100):
        U = small_universe(rng)
        p = rand_poly(rng, U, 5, 3)
        divisors = [
            d
            for d in (rand_poly(rng, U, 3, 2) for _ in range(rng.randint(1, 3)))
            if not d.is_zero()
        ]
        if not divisors:
            continue
        assert normal_form(p, divisors) == divide(p, divisors).remainder


def _rational_nf(reducer, universe, m):
    """The reducer's NF(m) of a packed monomial as {exps: Fraction}:
    numerators / scale, checked to be in lowest terms over a positive
    scale."""
    nums, scale = reducer.monomial_terms(m)
    assert scale > 0 and gcd(scale, *nums.values()) == 1
    return {universe.packing.unpack(e): Fraction(v, scale) for e, v in nums.items()}


def _assert_reducer_matches_normal_form(basis, universe, variables):
    """Every monomial of a degree-4 template reduces as `normal_form` does."""
    reducer = GroebnerReducer(basis)
    for m in monomials_up_to_degree(universe, variables, 4):
        nf = normal_form(Polynomial(universe, {m: Fraction(1)}), basis)
        assert _rational_nf(reducer, universe, m) == exponent_dict(nf)


def test_reducer_monomial_terms_match_normal_form():
    rng = random.Random(89)
    from props import rand_poly

    syms = [Symbol(n) for n in ("x", "y", "z")]
    leads = set()
    for trial in range(12):
        U = SymbolUniverse(syms, Lex() if trial % 2 else GrevLex())
        gens = []
        while len(gens) < 2 + trial % 2:
            p = rand_poly(rng, U, 3, 2)
            if p.is_zero():
                continue
            # integer leading coefficient other than 1
            lead = p.sorted_terms()[0][1]
            gens.append(p * (rng.choice((2, -3, 6)) / lead))
        basis = buchberger(gens, max_degree=8)
        leads.update(groebner._gpoly(g).lead_coeff for g in basis)
        _assert_reducer_matches_normal_form(basis, U, syms)
    # the engine form of the monic basis has non-unit leading coefficients
    assert leads - {1}


def test_reducer_matches_normal_form_on_kepler_precondition():
    built = load_entry("kepler").build()
    basis = built.precondition.analyze(built.universe).ideal.reduced_groebner_basis()
    template_vars = [built.universe.by_name(n) for n in ("GM", "a", "ecc", "r", "u", "dA")]
    _assert_reducer_matches_normal_form(basis, built.universe, template_vars)


def test_reducer_converts_its_basis_once(running, monkeypatch):
    U, _, (X, Y), F = running
    basis = buchberger([X * X - 2 * Y, X * Y - 3])
    converted = []
    real = groebner._gpoly

    def counted(p):
        converted.append(p)
        return real(p)

    monkeypatch.setattr(groebner, "_gpoly", counted)
    reducer = GroebnerReducer(basis)
    template = complete_template(U, U.symbols, 3).lie(F)
    template.reduce_by(reducer)
    assert len(reducer._cache) > len(basis)
    assert converted == list(basis)


def _kepler_and_airplane_bases():
    """Each basis with the variables to enumerate and the degree; the
    second kepler case reaches the pure-monomial leads th, vr and s."""
    out = []
    for name, names, degree in (
        ("kepler", ("GM", "a", "ecc", "r", "u", "dA"), 8),
        ("kepler", ("r", "th", "vr", "u", "s", "dA"), 5),
        ("airplane-vertical", ("u", "w", "x", "q", "th", "c", "s"), 8),
    ):
        built = load_entry(name).build()
        U = built.universe
        basis = built.precondition.analyze(U).ideal.reduced_groebner_basis()
        out.append((basis, U, [U.by_name(n) for n in names], degree))
    return out


def _small_bases():
    """A grevlex basis, one over a parameter and states under lex (which
    orders as the block order over lex does), the empty basis and the unit
    ideal <1>, each with the variables to enumerate."""
    x, y, z = (Symbol(n) for n in ("x", "y", "z"))
    U = SymbolUniverse([x, y, z], GrevLex())
    X, Y, Z = (Polynomial.variable(U, s) for s in (x, y, z))
    grevlex = buchberger([X * X - 2 * Y * Z + 1, 3 * X * Y - Z * Z, Y**3 - X])
    a = Symbol("a", Symbol.PARAM)
    E = SymbolUniverse([a, x, y], Lex())
    A, EX, EY = (Polynomial.variable(E, s) for s in (a, x, y))
    block = buchberger([A * EX - EY, EX * EX - 2 * A, EY * EY * EX - A - 3])
    unit = [Polynomial.constant(U, 1)]
    return [
        (grevlex, U, U.symbols, 8),
        (block, E, E.symbols, 8),
        ([], U, U.symbols, 8),
        (unit, U, U.symbols, 8),
    ]


def test_reducer_equals_the_from_scratch_oracle_up_to_degree_8():
    cases = _kepler_and_airplane_bases() + _small_bases()
    assert [len(basis) for basis, _, _, _ in cases][-2:] == [0, 1]
    # kepler's basis holds the pure monomials th, vr and s: zero at once
    assert sum(len(g.sorted_terms()) == 1 for g in cases[1][0]) == 3
    for basis, U, variables, degree in cases:
        monomials = monomials_up_to_degree(U, variables, degree)
        assert 0 in monomials
        oracle = monomial_normal_form(basis, U)
        want = [oracle(U.packing.unpack(m)) for m in monomials]
        cold = GroebnerReducer(basis)
        assert [_rational_nf(cold, U, m) for m in monomials] == want
        if not basis:
            # every monomial is standard: no intermediate entries
            assert len(cold._cache) == len(monomials)
        # warmed from the other end, the memo holds other intermediates
        warm = GroebnerReducer(basis)
        for m in reversed(monomials):
            warm.monomial_terms(m)
        assert [_rational_nf(warm, U, m) for m in monomials] == want


def test_reducer_follows_a_deep_quotient_chain_without_recursion():
    # lex over (x, y): NF(x^k) = NF(x * NF(x^(k-1))) chains down to 1
    x, y = Symbol("x"), Symbol("y")
    U = SymbolUniverse([x, y], Lex())
    X, Y = (Polynomial.variable(U, s) for s in (x, y))
    reducer = GroebnerReducer([X - 2 * Y])
    pack = U.packing.pack
    assert reducer.monomial_terms(pack((3000, 0))) == ({pack((0, 3000)): 2**3000}, 1)


@pytest.mark.parametrize("order", [Lex(), GrevLex()], ids=["lex", "grevlex"])
def test_single_term_leads_settle_what_they_divide_at_once(order):
    # modulo <y, x - z^2> the binomial comes first in the reduced basis,
    # yet a monomial that y divides is settled as zero by the search,
    # which tries single-term leads first: no intermediate memo entry
    syms = [Symbol(n) for n in ("x", "y", "z")]
    U = SymbolUniverse(syms, order)
    X, Y, Z = (Polynomial.variable(U, s) for s in syms)
    basis = buchberger([Y, X - Z**2])
    assert [len(g._terms) for g in basis] == [2, 1]
    rng = random.Random(77)
    pack, flip = U.packing.pack, U.packing.flip
    reducer = GroebnerReducer(basis)
    divisible = sorted(
        {pack((rng.randint(0, 4), rng.randint(1, 3), rng.randint(0, 4))) for _ in range(40)},
        key=flip.__xor__,
    )
    images, _ = reducer.images(divisible)
    assert set(reducer._cache) == set(divisible)
    assert all(nums == {} for nums in images.values())
    # every image is the remainder of textbook division
    monomials = sorted(
        {pack(tuple(rng.randint(0, 4) for _ in syms)) for _ in range(60)},
        key=flip.__xor__,
    )
    images, scale = reducer.images(monomials)
    for m in monomials:
        got = Polynomial.from_packed(U, images[m].items(), scale)
        assert got == divide(Polynomial.from_packed(U, [(m, 1)], 1), basis).remainder


def test_reducer_memo_stays_near_the_requested_monomials(monkeypatch):
    """Only the precondition's reducer is asked a monomial in a kepler
    query: each J_0 and J is asked membership by division.  It keeps a
    memo of at most 1.5 times the distinct monomials asked of it: the
    choice of variable to strip, and the standard products x_i * t left
    out, decide how many intermediates it keeps."""
    requested = {}  # reducer -> the distinct monomials asked of it

    class Recording(GroebnerReducer):
        __slots__ = ()

        def __init__(self, *args):
            super().__init__(*args)
            requested[self] = set()

        def monomial_terms(self, exps):
            requested[self].add(exps)
            return super().monomial_terms(exps)

    monkeypatch.setattr(groebner, "GroebnerReducer", Recording)
    run(load_entry("kepler", numeric=False).build())
    asked = {r: m for r, m in requested.items() if m}
    assert len(asked) == 1
    assert max(map(len, asked.values())) > 2000
    for reducer, monomials in asked.items():
        assert len(reducer._cache) <= 1.5 * len(monomials)


@pytest.mark.parametrize("order", [Lex(), GrevLex()], ids=["lex", "grevlex"])
def test_ideal_of_templates_equals_ideal_of_their_instances(order, monkeypatch):
    # a template generator stands for its nonzero unit instances: from
    # scratch and as an extension, the engine is handed the same content-
    # free term lists, lead first with a positive lead, and the ideal has
    # the same reduced basis, generator count and instances; random
    # templates with zero columns and rational denominators
    handed = []
    core = groebner._buchberger_core

    def recording(seed, gens, *args):
        handed.append([g.terms() for g in gens])
        return core(seed, gens, *args)

    def completed(make):
        """The ideal `make` returns, with its reduced basis and what the
        engine was handed for it, each term list content-free with a
        positive lead."""
        handed.clear()
        ideal = make()
        gb = ideal.reduced_groebner_basis()
        calls = handed[:]
        for terms in (terms for call in calls for terms in call):
            assert terms[0][1] > 0 and gcd(*(c for _, c in terms)) == 1
        return ideal, (gb, calls)

    monkeypatch.setattr(groebner, "_buchberger_core", recording)
    rng = random.Random(139)
    zero_columns = denominators = 0
    for _ in range(25):
        U = SymbolUniverse([Symbol(f"x{i}") for i in range(rng.randint(1, 3))], order)
        n = rng.randint(1, 4)
        polys = [rand_poly(rng, U, 3, 2) for _ in range(n)]
        t = Template.from_instances(U, fresh_parameters(n), polys)
        instances = t.unit_instances()
        nonzero = [p for p in instances if not p.is_zero()]
        zero_columns += len(nonzero) < n
        denominators += t.denominator > 1
        ideal, engine = completed(lambda: Ideal(U, [t], max_degree=12))
        assert engine == completed(lambda: Ideal(U, instances, max_degree=12))[1]
        assert ideal.generator_count == len(nonzero)
        assert ideal.instances() == nonzero
        base = Ideal(U, [rand_poly(rng, U, 3, 2)], max_degree=12)
        base.reducer()
        grown, engine = completed(lambda: extend(base, [t]))
        assert engine == completed(lambda: extend(base, instances))[1]
        assert grown.generator_count == base.generator_count + len(nonzero)
    assert zero_columns > 3 and denominators > 3

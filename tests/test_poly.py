import random
from fractions import Fraction
from math import isqrt, lcm

import pytest

from odeinv import (
    GrevLex,
    Lex,
    Polynomial,
    Symbol,
    SymbolUniverse,
    monomials_up_to_degree,
)
from odeinv.poly import MAX_PRODUCT_TERM_PAIRS, ResourceLimitError, cleared
from oracles import ORDER_KEYS, BlockOrder, from_exponents, oracle_evaluate
from props import rand_poly, small_universe


def test_additive_inverse(running):
    U, _, (X, Y), _ = running
    assert ((X - Y) + (Y - X)).is_zero()


def test_sum_keeps_distinct_terms(running):
    U, (x, y), (X, Y), _ = running
    p = X * X + X * Y
    pack = U.packing.pack
    assert dict(p.sorted_terms()) == {pack((2, 0)): 1, pack((1, 1)): 1}


def test_remainder_reconstruction_by_addition(running):
    # a4*y^2 + a5*y^2 + a6*y^2 + a2*y + a3*y + a1 collapses to three groups;
    # lex with the parameters first orders as the block order over lex does
    U = SymbolUniverse(
        [Symbol(f"a{i}", Symbol.PARAM) for i in range(1, 7)] + [Symbol("x"), Symbol("y")]
    )
    a = {i: Polynomial.variable(U, U.by_name(f"a{i}")) for i in range(1, 7)}
    y = Polynomial.variable(U, U.by_name("y"))
    r0 = a[4] * y**2 + a[5] * y**2 + a[6] * y**2 + a[2] * y + a[3] * y + a[1]
    assert len(r0.sorted_terms()) == 6
    assert r0 == (a[4] + a[5] + a[6]) * y**2 + (a[2] + a[3]) * y + a[1]


def test_mul_examples(running):
    U, _, (X, Y), _ = running
    assert X * (X - Y) == X * X - X * Y
    assert (X - Y) * Polynomial.zero(U) == Polynomial.zero(U)
    assert (X - Y) * (X + Y) == X * X - Y * Y


def test_evaluate_examples(running):
    U, (x, y), (X, Y), _ = running
    assert (X - Y).evaluate({x: 1, y: 1}) == 0
    assert (X * X - X * Y).evaluate({x: 2, y: 1}) == 2
    assert Polynomial.constant(U, 1).evaluate({x: 5, y: -7}) == 1
    with pytest.raises(ValueError):
        (X * Y).evaluate({x: 1})


def test_evaluate_matches_the_fraction_oracle():
    # seeded random polynomials, the zero and constant ones among them, at
    # points holding zeros, negative values and non-integers
    rng = random.Random(23)
    values = [Fraction(n, d) for n in range(-4, 5) for d in (1, 2, 3, 7)]
    for _ in range(300):
        U = small_universe(rng)
        polys = [rand_poly(rng, U, max_terms=6, max_degree=4) for _ in range(3)]
        polys += [Polynomial.zero(U), Polynomial.constant(U, rng.choice(values) or 1)]
        point = {s: rng.choice(values) for s in U.symbols}
        for p in polys:
            got = p.evaluate(point)
            assert type(got) is Fraction
            assert got == oracle_evaluate(p, point), (str(p), point)
    # an int or an exact string binds a value too
    U = SymbolUniverse([Symbol("x"), Symbol("y")])
    X, Y = (Polynomial.variable(U, s) for s in U.symbols)
    assert (Fraction(1, 3) * X * X - Y).evaluate({U.symbols[0]: -2, U.symbols[1]: "1/6"}) == Fraction(7, 6)


def test_evaluate_names_an_unbound_symbol():
    U = SymbolUniverse([Symbol("x"), Symbol("y")])
    X, Y = (Polynomial.variable(U, s) for s in U.symbols)
    with pytest.raises(ValueError) as info:
        (X - Y * Y).evaluate({U.symbols[0]: Fraction(1, 2)})
    assert str(info.value) == "unbound symbol y in evaluation point"
    # a symbol the polynomial does not read may stay unbound
    assert (X * 4).evaluate({U.symbols[0]: Fraction(1, 2)}) == 2


def test_monomials_up_to_degree_counts(running):
    U, (x, y), _, _ = running
    monos = monomials_up_to_degree(U, [x, y], 2)
    assert len(monos) == 6
    rendered = {str(Polynomial(U, {m: Fraction(1)})) for m in monos}
    assert rendered == {"1", "x", "y", "x^2", "x*y", "y^2"}
    assert monomials_up_to_degree(U, [x, y], 0) == [0]
    big = SymbolUniverse([Symbol(f"v{i}") for i in range(18)])
    assert len(monomials_up_to_degree(big, big.symbols, 2)) == 190
    with pytest.raises(ValueError):
        monomials_up_to_degree(U, [x], -1)


def test_monomials_descend_in_active_order(running):
    U, (x, y), _, _ = running
    monos = monomials_up_to_degree(U, [x, y], 3)
    keys = [ORDER_KEYS[U.order.name](U.packing.unpack(m)) for m in monos]
    assert keys == sorted(keys, reverse=True)


def test_ring_laws_random():
    rng = random.Random(7)
    for _ in range(200):
        U = small_universe(rng)
        p, q, r = (rand_poly(rng, U) for _ in range(3))
        assert p + q == q + p
        assert (p + q) + r == p + (q + r)
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r


def test_degree_multiplicative():
    rng = random.Random(11)
    for _ in range(200):
        U = small_universe(rng)
        p, q = rand_poly(rng, U), rand_poly(rng, U)
        if p.is_zero() or q.is_zero():
            continue
        assert (p * q).degree() == p.degree() + q.degree()


def test_evaluate_is_ring_homomorphism():
    rng = random.Random(13)
    for _ in range(200):
        U = small_universe(rng)
        p, q, r = (rand_poly(rng, U) for _ in range(3))
        point = {s: Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for s in U.symbols}
        assert (p * q + r).evaluate(point) == p.evaluate(point) * q.evaluate(point) + r.evaluate(point)


def test_order_laws():
    # the packing alone holds the order: on random exponent tuples over 1-5
    # variables, `pack(e) ^ flip` sorts as the oracle's tuple key does,
    # unpack inverts pack, and a product's key is the sum of the keys, so
    # the order is a monomial order (1 least, compatible with products)
    rng = random.Random(17)
    for order in (Lex(), GrevLex()):
        key = ORDER_KEYS[order.name]
        for n in range(1, 6):
            P = SymbolUniverse([Symbol(f"x{i}") for i in range(n)], order).packing
            exps = [tuple(rng.randint(0, 6) for _ in range(n)) for _ in range(60)]
            packed = {e: P.pack(e) for e in exps}
            assert all(P.unpack(m) == e for e, m in packed.items())
            assert sorted(exps, key=key) == sorted(exps, key=lambda e: packed[e] ^ P.flip)
            assert all(P.pack((0,) * n) ^ P.flip <= m ^ P.flip for m in packed.values())
            for _ in range(60):
                a, b = rng.choice(exps), rng.choice(exps)
                assert packed[a] + packed[b] == P.pack(tuple(i + j for i, j in zip(a, b)))


def test_an_order_without_a_layout_is_refused():
    with pytest.raises(ValueError, match="no packed layout"):
        SymbolUniverse([Symbol("a1", Symbol.PARAM), Symbol("x")], BlockOrder(1, Lex()))


def test_block_elimination_order_dominance():
    # the oracle's block order on exponent tuples, with a grevlex state block
    key = BlockOrder(1, GrevLex()).key
    # a > x^9*y^9
    assert key((1, 0, 0)) > key((0, 9, 9))
    # the state block compares degrees first: x*y^2 > x^2, unlike lex
    assert key((0, 1, 2)) > key((0, 2, 0))


def test_substitute_symbol(running):
    U, (x, y), (X, Y), _ = running
    p = X**2 - X * Y
    assert p.substitute_symbol(x, Y) == Polynomial.zero(U)
    assert p.substitute_symbol(y, X + Y) == X**2 - X * (X + Y)


def test_universe_mismatch_rejected(running):
    U, _, (X, Y), _ = running
    other = SymbolUniverse([Symbol("x"), Symbol("y")])
    with pytest.raises(ValueError):
        X + Polynomial.variable(other, other.by_name("x"))


def test_float_coefficients_rejected(running):
    U, _, _, _ = running
    with pytest.raises(TypeError):
        Polynomial.constant(U, 0.1)


def test_canonical_printing(running):
    U, _, (X, Y), _ = running
    assert str(X * X - 2 * X * Y + Y * Y) == "x^2 - 2*x*y + y^2"
    assert str(Polynomial.zero(U)) == "0"
    assert str(Fraction(1, 2) * X) == "1/2*x"
    assert str(-X + Y) == "-x + y"


def _stores_no_zero(p):
    return all(c != 0 for c in p._terms.values())


def test_cancelling_operations_store_no_zero_terms(running):
    # the constructor is the one place zero terms are dropped
    U, _, (X, Y), _ = running
    total = (X + Y) + (Y - X)
    assert total == 2 * Y and _stores_no_zero(total)
    product = (X + Y) * (X - Y)
    assert product == X * X - Y * Y and _stores_no_zero(product)
    assert (X * 0).is_zero() and Polynomial.constant(U, 0).is_zero()


def test_cleared_then_from_packed_is_the_identity():
    # `cleared` is the one way from rationals into the integer core and
    # `Polynomial.from_packed` the way back
    rng = random.Random(24)
    for _ in range(200):
        U = small_universe(rng)
        polys = [rand_poly(rng, U, max_terms=6, coeff_bound=9) for _ in range(rng.randint(1, 3))]
        ints, den = cleared(dict(p.sorted_terms()) for p in polys)
        assert den == lcm(*(c.denominator for p in polys for _, c in p.sorted_terms()))
        assert all(type(v) is int and v for col in ints for v in col.values())
        assert [Polynomial.from_packed(U, col.items(), den) for col in ints] == polys


def test_a_product_over_the_term_pair_cap_is_refused():
    # two polynomials of `side` terms each make side^2 term pairs, just over
    # the cap: refused before any pair is formed
    U = SymbolUniverse([Symbol("x"), Symbol("y")])
    side = isqrt(MAX_PRODUCT_TERM_PAIRS) + 1
    p = from_exponents(U, {(i, 0): Fraction(1) for i in range(side)})
    q = from_exponents(U, {(0, i): Fraction(1) for i in range(side)})
    with pytest.raises(ResourceLimitError, match="term pairs"):
        p * q
    assert len((p * from_exponents(U, {(0, 1): Fraction(1)})).sorted_terms()) == side

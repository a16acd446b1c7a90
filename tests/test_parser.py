import random
from fractions import Fraction

import pytest

from odeinv import ParseError, ResourceLimitError, parse_polynomial
from odeinv.poly import MAX_COEFFICIENT_BITS
from props import rand_poly, small_universe


def test_reference_polynomials(running):
    U, _, (X, Y), _ = running
    assert parse_polynomial("x^2 - x*y", U) == X * X - X * Y
    assert parse_polynomial("0", U).is_zero()
    assert parse_polynomial("(x - y)^2", U) == X * X - 2 * X * Y + Y * Y


def test_rational_and_decimal_literals(running):
    U, _, (X, Y), _ = running
    assert parse_polynomial("1/2*x", U) == Fraction(1, 2) * X
    assert parse_polynomial("0.25*y", U) == Fraction(1, 4) * Y
    assert parse_polynomial("-1/2*x^2 + 3", U) == Fraction(-1, 2) * X * X + 3


def test_unary_minus_and_nesting(running):
    U, _, (X, Y), _ = running
    assert parse_polynomial("-x", U) == -X
    assert parse_polynomial("-(x - y)*(x + y)", U) == Y * Y - X * X
    assert parse_polynomial("x - (-y)", U) == X + Y
    with pytest.raises(ParseError):
        parse_polynomial("x - -y", U)  # sign only at expression start


def test_syntax_errors_carry_position(running):
    U, _, _, _ = running
    with pytest.raises(ParseError) as err:
        parse_polynomial("x + ", U)
    assert err.value.position == 4
    with pytest.raises(ParseError):
        parse_polynomial("x y", U)  # implicit multiplication
    with pytest.raises(ParseError):
        parse_polynomial("(x", U)
    with pytest.raises(ParseError):
        parse_polynomial("x @ y", U)
    for text, position in (("3/0", 0), ("0/0", 0), ("x + 1/00", 4)):
        with pytest.raises(ParseError) as err:
            parse_polynomial(text, U)
        assert err.value.position == position


def test_unknown_identifier(running):
    U, _, _, _ = running
    with pytest.raises(ParseError) as err:
        parse_polynomial("x + z", U)
    assert "z" in str(err.value)


def test_negative_exponent_rejected(running):
    U, _, _, _ = running
    with pytest.raises(ParseError):
        parse_polynomial("x^-2", U)


def test_print_parse_round_trip():
    rng = random.Random(23)
    for _ in range(200):
        U = small_universe(rng)
        p = rand_poly(rng, U, max_terms=6, max_degree=4, coeff_bound=9)
        assert parse_polynomial(str(p), U) == p


def test_every_coefficient_a_parse_admits_prints_and_parses_back(running):
    # the longest literal, the largest power and the longest exponent the
    # caps admit each print, and the text parses back; one digit or one
    # squaring more is refused
    U, _, (X, _), _ = running
    top = str((1 << MAX_COEFFICIENT_BITS) - 1)
    admitted = (f"{top}*x", f"{top}/{top[:-1]}1*x", f"0.{top[1:]}", "(1/3)^4096*x", "x^2147483647")
    for text in admitted:
        p = parse_polynomial(text, U)
        assert parse_polynomial(str(p), U) == p
    refused = (f"{top}9*x", f"1/{1 << MAX_COEFFICIENT_BITS}", "(1/3)^8192*x", "2^8192", "x^2147483648")
    for text in refused:
        with pytest.raises(ResourceLimitError):
            parse_polynomial(text, U)
    assert parse_polynomial("10^400*x", U) == 10**400 * X

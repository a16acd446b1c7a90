from fractions import Fraction

import pytest

from odeinv import Polynomial, Subspace, Symbol, SymbolUniverse, VectorField
from odeinv.poly import Lex
from oracles import contains, sparse


@pytest.fixture
def running():
    """The planar system x' = y^2, y' = x*y with its universe handles."""
    x, y = Symbol("x"), Symbol("y")
    U = SymbolUniverse([x, y], Lex())
    X = Polynomial.variable(U, x)
    Y = Polynomial.variable(U, y)
    F = VectorField(U, [Y * Y, X * Y])
    return U, (x, y), (X, Y), F


@pytest.fixture
def ghost():
    """The planar system extended with zero-drift initial-value ghosts."""
    syms = [Symbol(n) for n in ("x", "y", "x0", "y0")]
    U = SymbolUniverse(syms, Lex())
    X, Y, X0, Y0 = (Polynomial.variable(U, s) for s in syms)
    F = VectorField(U, [Y * Y, X * Y, Polynomial.zero(U), Polynomial.zero(U)])
    return U, syms, (X, Y, X0, Y0), F


def coefficient_rows(polys, universe):
    monos = sorted({e for p in polys for e in p._terms}, key=universe.packing.flip.__xor__)
    return [
        [p._terms.get(e, Fraction(0)) for e in monos] for p in polys
    ], monos


def in_span(p, polys):
    """Exact linear-span membership of a polynomial."""
    rows, monos = coefficient_rows(list(polys) + [p], p.universe)
    space = Subspace.from_rows([sparse(r) for r in rows[:-1]], len(monos))
    return contains(space, rows[-1])


def same_span(polys_a, polys_b):
    return all(in_span(p, polys_b) for p in polys_a) and all(
        in_span(p, polys_a) for p in polys_b
    )

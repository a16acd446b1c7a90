"""Cross-validation against independent routes.

The naive chain below recomputes the postcondition fixpoint literally:
ambient-space refinement, full ideal comparisons each step, no restricted
reparametrization. The SymPy comparison checks the Groebner engine against
an unrelated implementation.
"""

import random
from fractions import Fraction

import sympy

from odeinv import (
    GrevLex,
    Ideal,
    Lex,
    Polynomial,
    Precondition,
    Symbol,
    SymbolUniverse,
    VectorField,
    buchberger,
    complete_template,
    post,
)
from odeinv.dynamics import GroebnerReducer
from oracles import (
    dense_basis,
    ideal_equal,
    instantiate,
    leading,
    solve_homogeneous,
    zero_constraints,
)
from props import rand_poly


def naive_post(gens, template, field, max_iter=12):
    """Literal double-chain fixpoint, quadratic in work, for tiny cases."""
    U = field.universe
    basis = buchberger(gens)
    derivs = [template]
    for _ in range(max_iter + 2):
        derivs.append(derivs[-1].lie(field))

    def space(i):
        forms = []
        for j in range(i + 1):
            forms.extend(zero_constraints(derivs[j].reduce_by(GroebnerReducer(basis))))
        return solve_homogeneous(forms, template.params)

    def ideal(i, v):
        collected = []
        for j in range(i + 1):
            collected.extend(
                inst for inst in [instantiate(derivs[j], r) for r in dense_basis(v)] if not inst.is_zero()
            )
        return Ideal(U, collected)

    for m in range(max_iter):
        v_m, v_next = space(m), space(m + 1)
        if v_m != v_next:
            continue
        if ideal_equal(ideal(m, v_m), ideal(m + 1, v_next)):
            return m, v_m, ideal(m, v_m)
    raise AssertionError("naive chain did not stabilize")


def test_post_agrees_with_naive_chain():
    rng = random.Random(101)
    checked = 0
    for _ in range(40):
        order = Lex() if rng.random() < 0.5 else GrevLex()
        U = SymbolUniverse([Symbol("x"), Symbol("y")], order)
        drifts = [rand_poly(rng, U, 2, 2, 2) for _ in range(2)]
        F = VectorField(U, drifts)
        gens = [
            g
            for g in (rand_poly(rng, U, 2, 2, 2) for _ in range(rng.randint(0, 2)))
            if not g.is_zero()
        ]
        template = complete_template(U, U.symbols, rng.randint(1, 2))
        fast = post(Precondition(gens), template, F, max_iterations=16)
        m, v, ideal_naive = naive_post(gens, template, F)
        assert fast.iterations == m
        assert fast.space == v
        assert ideal_equal(fast.ideal, ideal_naive)
        checked += 1
    assert checked == 40


def _to_sympy(p, syms):
    total = sympy.Integer(0)
    for exps, c in p._terms.items():
        term = sympy.Rational(c.numerator, c.denominator)
        for s, e in zip(syms, exps):
            if e:
                term *= s**e
        total += term
    return total


def _from_sympy(expr, syms, universe):
    poly = sympy.Poly(expr, *syms, domain="QQ")
    terms = {}
    for exps, coeff in poly.terms():
        q = sympy.Rational(coeff)
        terms[tuple(int(e) for e in exps)] = Fraction(int(q.p), int(q.q))
    return Polynomial(universe, terms)


def test_groebner_matches_sympy():
    rng = random.Random(103)
    for _ in range(40):
        nvars = rng.randint(1, 3)
        use_lex = rng.random() < 0.5
        U = SymbolUniverse(
            [Symbol(f"x{i}") for i in range(nvars)],
            Lex() if use_lex else GrevLex(),
        )
        syms = sympy.symbols([f"x{i}" for i in range(nvars)])
        if nvars == 1:
            syms = [syms[0]] if isinstance(syms, (list, tuple)) else [syms]
        gens = [
            g
            for g in (rand_poly(rng, U, 3, 2, 3) for _ in range(rng.randint(1, 3)))
            if not g.is_zero()
        ]
        if not gens:
            continue
        mine = buchberger(gens)
        theirs = sympy.groebner(
            [_to_sympy(g, syms) for g in gens],
            *syms,
            order="lex" if use_lex else "grevlex",
        )
        converted = []
        for e in theirs.exprs:
            p = _from_sympy(e, syms, U)
            converted.append(p * (1 / leading(p)[1]))  # sympy emits primitive, not monic
        assert set(mine) == set(converted), (
            f"basis disagreement on {[str(g) for g in gens]}"
        )

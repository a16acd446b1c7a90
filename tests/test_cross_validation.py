"""Cross-validation against independent routes.

The naive chain below recomputes the postcondition fixpoint literally:
ambient-space refinement, full ideal comparisons each step, no restricted
reparametrization. The SymPy comparison checks the Groebner engine against
an unrelated implementation.
"""

import random
from fractions import Fraction

import pytest
import sympy

from odeinv import (
    GrevLex,
    Ideal,
    Lex,
    Precondition,
    Symbol,
    SymbolUniverse,
    VectorField,
    buchberger,
    complete_template,
    post,
)
from odeinv import algorithms
from odeinv.dynamics import GroebnerReducer, Template
from odeinv.parser import parse_polynomial
from oracles import (
    dense_basis,
    exponent_dict,
    from_exponents,
    ideal_equal,
    instantiate,
    leading,
    solve_homogeneous,
    zero_constraints,
)
from props import rand_poly


def naive_post(gens, template, field, max_iter=12):
    """Literal double-chain fixpoint, quadratic in work, for tiny cases.

    Returns the answer's step m, V_m and J_m, and for every step k up to
    m + 1 at which V is stable, whether J_k equals J_{k-1}."""
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

    j_stable = {}
    for m in range(max_iter):
        v_m, v_next = space(m), space(m + 1)
        if v_m != v_next:
            continue
        j_stable[m + 1] = ideal_equal(ideal(m, v_m), ideal(m + 1, v_next))
        if j_stable[m + 1]:
            return m, v_m, ideal(m, v_m), j_stable
    raise AssertionError("naive chain did not stabilize")


def assert_agrees(gens, template, field):
    """`post` against the naive chain: the answer, and at every V-stable
    step of its trace the J verdict, also where the lookahead skips the
    J step."""
    fast = post(Precondition(gens), template, field, max_iterations=16)
    m, v, ideal_naive, j_stable = naive_post(gens, template, field)
    assert fast.iterations == m
    assert fast.space == v
    assert ideal_equal(fast.ideal, ideal_naive)
    assert {t["j"]: t["j_stable"] for t in fast.trace if t.get("v_stable")} == j_stable
    return fast


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
        assert_agrees(gens, template, F)
        checked += 1
    assert checked == 40


# Chains found by a seeded search over 2-3-variable systems with drifts of
# degree <= 2, each reaching the lookahead at j = 1 of the loop: V moved at
# trace step 1, V is stable at step 2, and L^1 escapes J_0.  The lookahead's
# L^3 then moves V ("skip", no J step at step 2), or keeps it and J_1 is
# not ("stay") or is ("closed") Lie-closed.  Each is a lex drift list, a
# generator list and a template degree, then the pinned trace steps
# (constraints, j_stable) and the counts of `post`'s template Lie
# derivatives and `_grow` calls.
LOOKAHEAD_CHAINS = {
    "skip": (
        ["-1", "1/3*x^2"], ["x + y", "1/2*y"], 1,
        [(1, None), (1, None), (0, False), (1, None), (0, True)],
        {"lie": 6, "grow": 0},
    ),
    "stay": (
        ["0", "-x*z", "0"], ["2/3*x*y", "y^2 + 1/3*z^2"], 2,
        [(8, None), (1, None), (0, False), (0, True)],
        {"lie": 3, "grow": 2},  # L^3 is derived once, by the lookahead
    ),
    "closed": (
        ["y^2", "0"], ["2*x + 1/2*y^2", "-2/3*x*y"], 2,
        [(3, None), (1, None), (0, True)],
        {"lie": 3, "grow": 1},  # the lookahead's L^3 is wasted
    ),
}


@pytest.mark.parametrize("name", sorted(LOOKAHEAD_CHAINS))
def test_lookahead_agrees_with_naive_chain(name, monkeypatch):
    """The J verdicts of the steps the lookahead decides match the naive
    chain's ideal comparisons, and a kept V reuses the lookahead's L^3."""
    drifts, gens, degree, steps, counts = LOOKAHEAD_CHAINS[name]
    U = SymbolUniverse([Symbol(v) for v in "xyz"[: len(drifts)]], Lex())
    F = VectorField(U, [parse_polynomial(d, U) for d in drifts])
    gens = [parse_polynomial(g, U) for g in gens]
    template = complete_template(U, U.symbols, degree)
    calls = {"lie": 0, "grow": 0}
    lie, grow = Template.lie, algorithms._grow

    def counting_lie(self, field):
        calls["lie"] += 1
        return lie(self, field)

    def counting_grow(ideal, t):
        calls["grow"] += 1
        return grow(ideal, t)

    monkeypatch.setattr(Template, "lie", counting_lie)
    monkeypatch.setattr(algorithms, "_grow", counting_grow)
    fast = post(Precondition(gens), template, F, max_iterations=16)
    assert [(t["constraints"], t.get("j_stable")) for t in fast.trace] == steps
    assert calls == counts
    monkeypatch.undo()
    assert_agrees(gens, template, F)


def _to_sympy(p, syms):
    total = sympy.Integer(0)
    for exps, c in exponent_dict(p).items():
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
    return from_exponents(universe, terms)


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

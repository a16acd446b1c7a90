"""Shared randomized property suites.

Each function runs `n` seeded-random instances and raises AssertionError on
the first violation.  The membership oracle here is deliberately
independent of the engine: plain Gaussian elimination over a truncated
monomial basis.
"""

from __future__ import annotations

import heapq
import random
from contextlib import contextmanager
from fractions import Fraction

from odeinv import (
    GrevLex,
    Lex,
    Polynomial,
    Symbol,
    SymbolUniverse,
    VectorField,
    buchberger,
    complete_template,
    groebner,
    lie_derivative,
    monomials_up_to_degree,
    normal_form,
)
from odeinv.groebner import GroebnerReducer, buchberger_extend
from oracles import (
    divide,
    exponent_dict,
    from_exponents,
    instantiate,
    is_groebner_basis,
    leading,
    lie_iterate,
    order_key,
)


def rand_poly(rng, universe, max_terms=4, max_degree=2, coeff_bound=4):
    n = len(universe)
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = [0] * n
        for _ in range(rng.randint(0, max_degree)):
            exps[rng.randrange(n)] += 1
        c = Fraction(rng.randint(-coeff_bound, coeff_bound), rng.randint(1, 3))
        if c:
            terms[tuple(exps)] = terms.get(tuple(exps), Fraction(0)) + c
    return from_exponents(universe, {e: c for e, c in terms.items() if c})


def small_universe(rng, max_vars=3, order=None):
    n = rng.randint(1, max_vars)
    syms = [Symbol(f"x{i}") for i in range(n)]
    if order is None:
        order = Lex() if rng.random() < 0.5 else GrevLex()
    return SymbolUniverse(syms, order)


def run_division_contract(n: int, seed: int = 1001):
    """Reassembly, remainder irreducibility, and the multidegree bound."""
    rng = random.Random(seed)
    for _ in range(n):
        U = small_universe(rng)
        p = rand_poly(rng, U, max_terms=6, max_degree=3)
        divisors = [
            q
            for q in (rand_poly(rng, U, max_terms=3, max_degree=2) for _ in range(rng.randint(1, 3)))
            if not q.is_zero()
        ]
        if not divisors:
            continue
        res = divide(p, divisors)
        recon = res.remainder
        for q, d in zip(res.quotients, divisors):
            recon = recon + q * d
        assert recon == p, "division reassembly failed"
        for exps in exponent_dict(res.remainder):
            for d in divisors:
                lead = leading(d)[0]
                assert not all(a <= b for a, b in zip(lead, exps)), (
                    "remainder monomial divisible by a divisor's leading term"
                )
        if not p.is_zero():
            key = order_key(U)
            bound = key(leading(p)[0])
            for q, d in zip(res.quotients, divisors):
                if q.is_zero():
                    continue
                prod = q * d
                assert key(leading(prod)[0]) <= bound, (
                    "quotient*divisor exceeds the dividend's multidegree"
                )


def run_buchberger_closure(n: int, seed: int = 2002):
    """Every S-polynomial of the output reduces to zero, and the output
    generates the same ideal as the input."""
    rng = random.Random(seed)
    for _ in range(n):
        U = small_universe(rng)
        gens = [
            q
            for q in (rand_poly(rng, U, max_terms=3, max_degree=2) for _ in range(rng.randint(1, 3)))
            if not q.is_zero()
        ]
        gb = buchberger(gens)
        assert is_groebner_basis(gb), "S-polynomial does not reduce to zero"
        for g in gens:
            if gb:
                assert normal_form(g, gb).is_zero(), "input generator escapes the output basis"
            else:
                assert g.is_zero()


@contextmanager
def pairs_in_random_order(rng):
    """Buchberger pops its S-pairs in a random order while this is open:
    `groebner._update_pairs` re-keys the heap it returns with random keys.
    The engine reads only the pair and its lcm from a popped entry."""
    update = groebner._update_pairs

    def rekeyed(G, P, f, packing):
        heap = [(rng.random(), i, j, lcm) for _, i, j, lcm in update(G, P, f, packing)]
        heapq.heapify(heap)
        return heap

    groebner._update_pairs = rekeyed
    try:
        yield
    finally:
        groebner._update_pairs = update


def run_reduced_gb_canonicity(n: int, seed: int = 3003):
    """Permuted inputs and randomized pair selection give identical bases."""
    rng = random.Random(seed)
    for k in range(n):
        U = small_universe(rng)
        gens = [
            q
            for q in (rand_poly(rng, U, max_terms=3, max_degree=2) for _ in range(rng.randint(2, 4)))
            if not q.is_zero()
        ]
        if not gens:
            continue
        reference = buchberger(gens)
        perm = list(gens)
        rng.shuffle(perm)
        assert buchberger(perm) == reference, "input permutation changed the reduced basis"
        with pairs_in_random_order(random.Random(seed + k)):
            shuffled = buchberger(gens)
        assert shuffled == reference, "pair-selection order changed the reduced basis"


def run_extension_agreement(n: int, seed: int = 3113):
    """Extending a Groebner basis agrees with Buchberger from scratch, for
    new generators that all lie in the ideal, for zero generators and for
    arbitrary ones; returns how many instances had a generator outside the
    ideal.  Orders alternate between lex and grevlex, and every other seed
    is scaled with a redundant multiple added (a basis, not a reduced one).
    """
    rng = random.Random(seed)
    escaped = 0
    for k in range(n):
        U = small_universe(rng, order=Lex() if k % 2 else GrevLex())
        seed_gens = [
            q
            for q in (rand_poly(rng, U, max_terms=3, max_degree=2) for _ in range(rng.randint(1, 2)))
            if not q.is_zero()
        ]
        gb = buchberger(seed_gens)
        loose = gb
        if gb and k % 4 >= 2:
            loose = [g * Fraction(rng.choice((-3, 2, 5)), rng.randint(1, 3)) for g in gb]
            loose.append(rand_poly(rng, U, max_terms=2, max_degree=1) * gb[0])
        members = [rand_poly(rng, U, max_terms=2, max_degree=2) * g for g in gb]
        members.append(sum(members, Polynomial.zero(U)))
        others = [rand_poly(rng, U, max_terms=3, max_degree=2) for _ in range(rng.randint(1, 2))]
        zeros = [Polynomial.zero(U)]
        # one reducer for every extension, as an Ideal shares its own
        reducer = GroebnerReducer(loose)
        for gens in (members, zeros, others, members + others):
            want = buchberger(seed_gens + gens)
            assert buchberger_extend(reducer, gens) == want, "extension differs from Buchberger"
        # members reduce to zero before Buchberger: no pair is formed
        assert buchberger_extend(reducer, members, pair_budget=0) == gb
        if any(not normal_form(g, gb).is_zero() for g in others):
            escaped += 1
    return escaped


def _oracle_member(p, gens, max_total_degree):
    """Membership via exact linear algebra: does p = sum h_i g_i with
    deg(h_i g_i) <= max_total_degree?  One-sided (a failure proves nothing
    beyond the degree bound)."""
    universe = p.universe
    columns = []
    for g in gens:
        room = max_total_degree - g.degree()
        if room < 0:
            continue
        for m in monomials_up_to_degree(universe, universe.symbols, room):
            columns.append(Polynomial(universe, {m: Fraction(1)}) * g)
    monos = sorted(
        {e for q in columns for e in q._terms} | set(p._terms),
        key=universe.packing.flip.__xor__,
    )
    index = {e: i for i, e in enumerate(monos)}
    rows = [[Fraction(0)] * len(columns) for _ in monos]
    target = [Fraction(0)] * len(monos)
    for j, q in enumerate(columns):
        for e, c in q._terms.items():
            rows[index[e]][j] = c
    for e, c in p._terms.items():
        target[index[e]] = c
    # plain Gauss-Jordan, built here on purpose (independent of the engine)
    m, ncols = len(rows), len(columns)
    aug = [rows[i] + [target[i]] for i in range(m)]
    pivot_row = 0
    for col in range(ncols):
        sel = next((r for r in range(pivot_row, m) if aug[r][col] != 0), None)
        if sel is None:
            continue
        aug[pivot_row], aug[sel] = aug[sel], aug[pivot_row]
        pv = aug[pivot_row][col]
        aug[pivot_row] = [v / pv for v in aug[pivot_row]]
        for r in range(m):
            if r != pivot_row and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[pivot_row])]
        pivot_row += 1
        if pivot_row == m:
            break
    for r in range(pivot_row, m):
        if aug[r][ncols] != 0:
            return False
    for r in range(m):
        if all(v == 0 for v in aug[r][:ncols]) and aug[r][ncols] != 0:
            return False
    return True


def run_membership_oracle(n: int, seed: int = 4004):
    """GB membership agrees with the truncated-linear-algebra oracle."""
    rng = random.Random(seed)
    for _ in range(n):
        nvars = rng.randint(1, 3)
        # graded order so division certificates respect total degree
        U = SymbolUniverse([Symbol(f"x{i}") for i in range(nvars)], GrevLex())
        gens = [
            q
            for q in (rand_poly(rng, U, max_terms=3, max_degree=2) for _ in range(rng.randint(1, 2)))
            if not q.is_zero()
        ]
        if not gens:
            continue
        if rng.random() < 0.5:
            p = Polynomial.zero(U)
            for g in gens:
                p = p + rand_poly(rng, U, max_terms=2, max_degree=1) * g
        else:
            p = rand_poly(rng, U, max_terms=4, max_degree=3)
        gb = buchberger(gens)
        claimed = p.is_zero() or (bool(gb) and normal_form(p, gb).is_zero())
        if claimed:
            found = any(
                _oracle_member(p, gens, d)
                for d in range(max(p.degree(), 2), 9)
            )
            assert found, "engine claims membership the oracle cannot certify"
        else:
            cap = max(p.degree(), 2) + 3
            assert not _oracle_member(p, gens, cap), (
                "oracle certifies membership the engine denies"
            )


def running_example():
    x, y = Symbol("x"), Symbol("y")
    U = SymbolUniverse([x, y], Lex())
    X = Polynomial.variable(U, x)
    Y = Polynomial.variable(U, y)
    F = VectorField(U, [Y * Y, X * Y])
    return U, (x, y), (X, Y), F


def rand_field(rng, max_vars=3):
    U = small_universe(rng, max_vars=max_vars, order=Lex())
    drifts = [rand_poly(rng, U, max_terms=3, max_degree=2) for _ in U.symbols]
    return U, VectorField(U, drifts)


def run_lie_laws(n: int, seed: int = 5005):
    """Sum and product rules of the syntactic Lie derivative."""
    rng = random.Random(seed)
    for _ in range(n):
        U, F = rand_field(rng)
        p = rand_poly(rng, U, max_terms=4, max_degree=3)
        q = rand_poly(rng, U, max_terms=4, max_degree=3)
        assert lie_derivative(p + q, F) == lie_derivative(p, F) + lie_derivative(q, F)
        assert lie_derivative(p * q, F) == p * lie_derivative(q, F) + lie_derivative(p, F) * q


def run_template_commutation(n: int, seed: int = 6006):
    """Instantiate-then-derive equals derive-then-instantiate, j <= 3."""
    rng = random.Random(seed)
    for _ in range(n):
        U, F = rand_field(rng, max_vars=2)
        template = complete_template(U, U.symbols, 2)
        v = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in template.params]
        j = rng.randint(0, 3)
        derived = template
        for _ in range(j):
            derived = derived.lie(F)
        assert lie_iterate(instantiate(template, v), F, j) == instantiate(derived, v)

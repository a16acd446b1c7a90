import random
from fractions import Fraction
from math import gcd

from odeinv import Subspace, Symbol
from odeinv.linalg import nullspace, rref
from oracles import LinearForm, nullspace_two_pass, refine, solve_homogeneous


def _params(n):
    return [Symbol(f"a{i}", Symbol.PARAM) for i in range(1, n + 1)]


def test_example_constraint_system():
    # coefficients of the reduced degree-2 ansatz on the line x = y:
    # a4 + a5 + a6, a2 + a3, a1
    a = _params(6)
    forms = [
        LinearForm({a[3]: 1, a[4]: 1, a[5]: 1}),
        LinearForm({a[1]: 1, a[2]: 1}),
        LinearForm({a[0]: 1}),
    ]
    V0 = solve_homogeneous(forms, a)
    assert V0.dim == 3
    assert V0.contains([0, 0, 0, -1, 0, 1])
    assert V0.contains([0, 1, -1, 0, 0, 0])
    assert not V0.contains([1, 0, 0, 0, 0, 0])


def test_empty_constraints_full_space():
    a = _params(4)
    V = solve_homogeneous([], a)
    assert V.is_full() and V.dim == 4


def test_footnote_constraints():
    a = _params(3)
    V = solve_homogeneous([LinearForm({a[0]: 1, a[1]: 1}), LinearForm({a[2]: 1})], a)
    assert V.dim == 1
    assert V.basis == ((Fraction(1), Fraction(-1), Fraction(0)),)


def test_refine_monotone_idempotent():
    rng = random.Random(61)
    a = _params(5)
    for _ in range(50):
        forms1 = [
            LinearForm({a[i]: rng.randint(-2, 2) for i in range(5)})
            for _ in range(rng.randint(0, 3))
        ]
        forms2 = [
            LinearForm({a[i]: rng.randint(-2, 2) for i in range(5)})
            for _ in range(rng.randint(0, 3))
        ]
        V = solve_homogeneous(forms1, a)
        W = refine(V, forms2, a)
        assert all(V.contains(row) for row in W.basis)
        assert refine(W, forms2, a) == W


def test_refine_examples():
    a = _params(3)
    full = Subspace.full(3)
    assert refine(full, [], a) == full
    hyper = refine(full, [LinearForm({a[0]: 1})], a)
    assert hyper.dim == 2 and all(row[0] == 0 for row in hyper.basis)
    # annihilating every basis direction collapses to the zero space
    V = solve_homogeneous([LinearForm({a[0]: 1, a[1]: 1})], a)
    annihilators = [
        LinearForm({s: c for s, c in zip(a, row) if c})
        for row in V.basis
    ]
    assert refine(V, annihilators, a).is_zero()


def test_subspace_equality_and_membership():
    a = _params(6)
    forms = [
        LinearForm({a[3]: 1, a[4]: 1, a[5]: 1}),
        LinearForm({a[1]: 1, a[2]: 1}),
        LinearForm({a[0]: 1}),
    ]
    V1 = solve_homogeneous(forms, a)
    V2 = solve_homogeneous(list(reversed(forms)), a)
    assert V1 == V2
    assert V1 == V2 and hash(V1) == hash(V2)


def test_rref_canonical_under_row_operations():
    rng = random.Random(67)
    for _ in range(50):
        n = rng.randint(2, 6)
        rows = [
            [Fraction(rng.randint(-3, 3)) for _ in range(n)]
            for _ in range(rng.randint(1, 4))
        ]
        ref, _ = rref(rows, n)
        mixed = [list(r) for r in rows]
        for _ in range(6):
            i, j = rng.randrange(len(mixed)), rng.randrange(len(mixed))
            scale = Fraction(rng.randint(1, 3))
            if i != j:
                mixed[i] = [x + scale * y for x, y in zip(mixed[i], mixed[j])]
            else:
                mixed[i] = [scale * x for x in mixed[i]]
        rng.shuffle(mixed)
        assert rref(mixed, n)[0] == ref


def test_nullspace_dimension_formula():
    rng = random.Random(71)
    for _ in range(50):
        n = rng.randint(1, 6)
        rows = [
            [Fraction(rng.randint(-2, 2)) for _ in range(n)]
            for _ in range(rng.randint(0, 4))
        ]
        _, pivots = rref(rows, n)
        assert len(nullspace(rows, n)) == n - len(pivots)


def test_nullspace_rows_scale_the_two_pass_kernel():
    # zero rows, duplicate rows and width 0 included
    rng = random.Random(73)
    for _ in range(300):
        width = rng.randint(0, 7)
        rows = [
            [Fraction(rng.choice((0, 0, 0, 1, -1, 2, -3)), rng.choice((1, 1, 2, 3)))
             for _ in range(width)]
            for _ in range(rng.randint(0, 5))
        ]
        if rows and rng.random() < 0.4:
            rows.append([2 * v for v in rng.choice(rows)])
        if rng.random() < 0.4:
            rows.append([Fraction(0)] * width)
        rng.shuffle(rows)
        kernel = nullspace(rows, width)
        reference = nullspace_two_pass(rows, width)
        _, pivots = rref(rows, width)
        assert len(kernel) == width - len(pivots) == len(reference)
        for got, ref in zip(kernel, reference):
            assert all(type(v) is int for v in got)
            lead = next(v for v in got if v)
            assert lead > 0 and gcd(*got) == 1
            assert all(sum(r * v for r, v in zip(row, got)) == 0 for row in rows)
            assert tuple(Fraction(v, lead) for v in got) == ref

import random
from fractions import Fraction
from math import gcd

import pytest

from odeinv import Subspace, Symbol
from odeinv.linalg import combine, nullspace
from oracles import (
    LinearForm,
    contains,
    dense_basis,
    nullspace_two_pass,
    refine,
    rref,
    solve_homogeneous,
    sparse,
)


def _params(n):
    return [Symbol(f"a{i}", Symbol.PARAM) for i in range(1, n + 1)]


def _combine_by_definition(coeffs, rows):
    """Each column, in order of first appearance over the rows taken in
    `coeffs` order, summed on its own; the zero sums left out."""
    columns = dict.fromkeys(i for k in coeffs for i in rows[k])
    sums = {i: sum(c * rows[k].get(i, 0) for k, c in coeffs.items()) for i in columns}
    return [(i, x) for i, x in sums.items() if x]


@pytest.mark.parametrize("bits", [8, 450], ids=["small-keys", "packed-450-bit-keys"])
def test_combine_matches_the_definition_key_order_included(bits):
    rng = random.Random(1000 + bits)
    # few distinct columns, so rows share them and sums cancel
    pool = [rng.getrandbits(bits) | 1 << (bits - 1) for _ in range(12)]
    cancelled = 0
    for _ in range(300):
        rows = [
            {i: rng.randint(-3, 3) for i in rng.sample(pool, rng.randint(0, 6))}
            for _ in range(rng.randint(1, 5))
        ]
        coeffs = {k: rng.choice([-2, -1, 1, 2]) for k in range(len(rows)) if rng.random() < 0.8}
        if len(rows) >= 2 and rng.random() < 0.3:
            # a row and its negation: everything they hold cancels
            rows.append({i: -v for i, v in rows[0].items()})
            coeffs[0] = coeffs[len(rows) - 1] = 1
        expected = _combine_by_definition(coeffs, rows)
        got = combine(coeffs, rows)
        assert list(got.items()) == expected
        assert all(got.values())
        cancelled += len(set().union(*(rows[k] for k in coeffs))) > len(got)
    assert cancelled > 50  # the sums that cancel to zero were exercised
    assert combine({}, []) == {} and combine({0: 5}, [{}]) == {}


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
    assert contains(V0, [0, 0, 0, -1, 0, 1])
    assert contains(V0, [0, 1, -1, 0, 0, 0])
    assert not contains(V0, [1, 0, 0, 0, 0, 0])


def test_empty_constraints_full_space():
    a = _params(4)
    V = solve_homogeneous([], a)
    assert V.is_full() and V.dim == 4


def test_footnote_constraints():
    a = _params(3)
    V = solve_homogeneous([LinearForm({a[0]: 1, a[1]: 1}), LinearForm({a[2]: 1})], a)
    assert V.dim == 1
    assert dense_basis(V) == ((Fraction(1), Fraction(-1), Fraction(0)),)


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
        assert all(contains(V, row) for row in dense_basis(W))
        assert refine(W, forms2, a) == W


def test_refine_examples():
    a = _params(3)
    full = Subspace.from_rows([{i: 1} for i in range(3)], 3)
    assert refine(full, [], a) == full
    hyper = refine(full, [LinearForm({a[0]: 1})], a)
    assert hyper.dim == 2 and all(row[0] == 0 for row in dense_basis(hyper))
    # annihilating every basis direction collapses to the zero space
    V = solve_homogeneous([LinearForm({a[0]: 1, a[1]: 1})], a)
    annihilators = [
        LinearForm({s: c for s, c in zip(a, row) if c})
        for row in dense_basis(V)
    ]
    assert refine(V, annihilators, a).dim == 0


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


def test_subspace_rows_are_canonical_under_row_operations():
    # random row operations, shuffles, duplicate and zero rows leave the
    # stored rows, the hash and the dense RREF unchanged
    rng = random.Random(67)
    for _ in range(200):
        n = rng.randint(1, 6)
        rows = [
            [Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 3))) for _ in range(n)]
            for _ in range(rng.randint(0, 4))
        ]
        V = Subspace.from_rows([sparse(r) for r in rows], n)
        mixed = [list(r) for r in rows]
        for _ in range(6 if mixed else 0):
            i, j = rng.randrange(len(mixed)), rng.randrange(len(mixed))
            scale = Fraction(rng.choice((1, 2, 3, -1, -2)), rng.choice((1, 2, 5)))
            if i != j:
                mixed[i] = [x + scale * y for x, y in zip(mixed[i], mixed[j])]
            else:
                mixed[i] = [scale * x for x in mixed[i]]
        if mixed and rng.random() < 0.5:
            mixed.append(list(rng.choice(mixed)))
        if rng.random() < 0.5:
            mixed.append([Fraction(0)] * n)
        rng.shuffle(mixed)
        W = Subspace.from_rows([sparse(r) for r in mixed], n)
        assert W == V and hash(W) == hash(V)
        reference, pivots = rref(rows, n)
        assert W.pivots == pivots and dense_basis(W) == reference
        for col, row in zip(W.pivots, W.rows):
            assert all(type(v) is int and v for v in row.values())
            assert min(row) == col and row[col] > 0 and gcd(*row.values()) == 1
            assert not any(c in row for c in W.pivots if c != col)


def test_subspace_contains():
    V = Subspace.from_rows([{0: 2, 1: 1}, {2: Fraction(1, 3)}], 4)
    assert contains(V, [2, 1, 0, 0]) and contains(V, [4, 2, Fraction(-5, 7), 0])
    assert contains(V, [0, 0, 0, 0])
    assert not contains(V, [1, 1, 0, 0]) and not contains(V, [0, 0, 0, 1])
    assert not contains(Subspace.from_rows([], 2), [0, 1])
    with pytest.raises(ValueError):
        contains(V, [1, 2, 3])


def test_nullspace_dimension_formula():
    rng = random.Random(71)
    for _ in range(50):
        n = rng.randint(1, 6)
        rows = [
            [Fraction(rng.randint(-2, 2)) for _ in range(n)]
            for _ in range(rng.randint(0, 4))
        ]
        _, pivots = rref(rows, n)
        assert len(nullspace([sparse(r) for r in rows], n)) == n - len(pivots)


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
        kernel = nullspace([sparse(r) for r in rows], width)
        reference = nullspace_two_pass(rows, width)
        _, pivots = rref(rows, width)
        assert len(kernel) == width - len(pivots) == len(reference)
        for got, ref in zip(kernel, reference):
            got = [got.get(j, 0) for j in range(width)]
            assert all(type(v) is int for v in got)
            lead = next(v for v in got if v)
            assert lead > 0 and gcd(*got) == 1
            assert all(sum(r * v for r, v in zip(row, got)) == 0 for row in rows)
            assert tuple(Fraction(v, lead) for v in got) == ref


def test_nullspace_sparse_rows_match_the_dense_oracle():
    # sparse rows drawn directly, with empty rows, duplicate rows, rational
    # and integer entries and width 0; the same rows dense-derived, zeros
    # stored, give the same kernel, and each kernel row is a positive
    # multiple of the dense two-pass oracle's row
    rng = random.Random(97)
    values = (1, -1, 2, -3, Fraction(1, 2), Fraction(-5, 3), Fraction(4, 7))
    for _ in range(300):
        width = rng.randint(0, 8)
        rows = [
            {j: rng.choice(values) for j in rng.sample(range(width), rng.randint(0, width))}
            for _ in range(rng.randint(0, 6))
        ]
        if rows and rng.random() < 0.4:
            rows.append(dict(rng.choice(rows)))
        if rng.random() < 0.3:
            rows.append({})
        rng.shuffle(rows)
        dense = [[row.get(j, Fraction(0)) for j in range(width)] for row in rows]
        kernel = nullspace(rows, width)
        assert nullspace([dict(enumerate(r)) for r in dense], width) == kernel
        reference = nullspace_two_pass(dense, width)
        assert len(kernel) == len(reference)
        for got, ref in zip(kernel, reference):
            assert got and all(type(v) is int and v for v in got.values())
            assert all(0 <= j < width for j in got)
            lead = got[min(got)]
            assert lead > 0 and gcd(*got.values()) == 1
            assert tuple(Fraction(got.get(j, 0), lead) for j in range(width)) == ref


def test_rows_outside_the_width_are_rejected():
    with pytest.raises(ValueError):
        nullspace([{3: 1}], 3)
    with pytest.raises(ValueError):
        Subspace.from_rows([{-1: 1}], 2)

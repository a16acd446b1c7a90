from fractions import Fraction

from odeinv import Polynomial, Precondition, numcheck
from odeinv.numcheck import check_invariants, trajectory, verify_from_analysis


def test_ghost_invariant_within_band(ghost):
    U, syms, (X, Y, X0, Y0), F = ghost
    invariant = X * X - Y * Y - X0 * X0 + Y0 * Y0
    point = {syms[0]: Fraction(2), syms[1]: Fraction(1),
             syms[2]: Fraction(2), syms[3]: Fraction(1)}
    records = check_invariants(
        [invariant], F, [point], horizon=Fraction(1), step=Fraction(1, 256)
    )
    assert len(records) == 1
    assert records[0]["passed"]
    assert records[0]["max_residual"] <= 1e-6 * (1 + records[0]["scale"])


def test_zero_polynomial_trivially_passes(ghost):
    U, syms, _, F = ghost
    point = {s: Fraction(1) for s in syms}
    records = check_invariants([Polynomial.zero(U)], F, [point])
    assert records == []


def test_one_integration_per_start_point(running, monkeypatch):
    U, (x, y), (X, Y), F = running
    polys = [X * X - X * Y, X - 2 * Y, X - Y]
    points = [{x: Fraction(1), y: Fraction(1)}, {x: Fraction(1, 2), y: Fraction(1, 2)}]
    alone = [r for p in polys for r in check_invariants([p], F, points)]
    calls = []

    def counted(*args):
        calls.append(args)
        return trajectory(*args)

    monkeypatch.setattr(numcheck, "trajectory", counted)
    records = check_invariants(polys, F, points)
    assert len(calls) == len(points)
    assert [r["point"]["x"] for r in records] == ["1"] * 3 + ["1/2"] * 3

    def keyed(recs):
        return {(r["polynomial"], tuple(r["point"].items())): r for r in recs}

    assert keyed(records) == keyed(alone)
    assert len(keyed(records)) == len(polys) * len(points)
    assert not all(r["passed"] for r in records)


def test_corrupted_invariant_fails(running):
    U, (x, y), (X, Y), F = running
    corrupted = X - 2 * Y
    point = {x: Fraction(1), y: Fraction(1)}
    records = check_invariants([corrupted], F, [point])
    assert len(records) == 1
    assert not records[0]["passed"]
    assert records[0]["fail_time"] is not None
    assert records[0]["fail_time"] <= 1.0


def test_true_invariant_from_line_passes(running):
    # x^2 - x*y vanishes along trajectories from the diagonal
    U, (x, y), (X, Y), F = running
    records = check_invariants(
        [X * X - X * Y], F, [{x: Fraction(1), y: Fraction(1)}]
    )
    assert records[0]["passed"]


def test_trajectory_truncates_before_blowup(running):
    # the diagonal solution blows up at t = 1/x0; the walk must stop early
    # rather than overflow
    U, _, _, F = running
    times = [t for t, _ in trajectory(F, [2.0, 2.0], 1.0, 1.0 / 256)]
    assert times[-1] < 0.5
    assert len(times) > 10


def test_verify_from_analysis_without_sample_points(running):
    U, _, (X, Y), F = running
    # x^2 + y^2 admits no triangular solution pattern
    analysis = Precondition([X * X + Y * Y]).analyze(U)
    records, note = verify_from_analysis([X - Y], F, analysis)
    assert records == []
    assert note is not None


def test_verify_with_user_supplied_points(ghost):
    U, syms, (X, Y, X0, Y0), F = ghost
    invariant = X * X - Y * Y - X0 * X0 + Y0 * Y0
    analysis = Precondition([X - X0, Y - Y0]).analyze(U)
    records, note = verify_from_analysis(
        [invariant],
        F,
        analysis,
        points=[{"x": "2", "y": "1", "x0": "2", "y0": "1"}],
    )
    assert note is None
    assert len(records) == 1 and records[0]["passed"]
    import pytest

    with pytest.raises(ValueError):
        verify_from_analysis(
            [invariant], F, analysis,
            points=[{"x": "2", "y": "1", "x0": "3", "y0": "1"}],
        )
    with pytest.raises(ValueError):
        verify_from_analysis(
            [invariant], F, analysis, points=[{"x": "2"}],
        )

import inspect
import math
import random
import re
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odeinv import (
    Polynomial,
    ResourceLimitError,
    Symbol,
    SymbolUniverse,
    VectorField,
)
from odeinv import lie_derivative, numcheck
from odeinv.numcheck import (
    MAX_RK4_STEPS,
    check_invariants,
    trajectory,
    verify_from_analysis,
)
from odeinv.sysspec import NumericSpec, SystemSpec
from oracles import entry_names, load_entry, oracle_check_invariants, oracle_trajectory

DEFAULTS = NumericSpec()
SETTINGS = (DEFAULTS.horizon, DEFAULTS.step, DEFAULTS.tolerance)


def _same(a: float, b: float) -> bool:
    """Float for float: NaN equals NaN, and -0.0 differs from 0.0."""
    if a != a or b != b:
        return a != a and b != b
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def _assert_matches_oracle(
    field, starts, polys, steps=(1.0 / 256, 1.0 / 16, 0.5), tolerances=(1e-6, 0.5)
):
    """Trajectories equal the oracle's state for state, and the records of
    `check_invariants` equal the interpreted residual check's: residuals
    and scales float for float, fail times and verdicts equal.  Returns a
    Counter of the oracle's stop reasons, of its residual overflows
    ("overflows") and of the records that failed after t = 0
    ("late_fails")."""
    points = [dict(zip(field.universe.symbols, start)) for start in starts]
    counts = Counter()
    for step in steps:
        for start in starts:
            got = list(trajectory(field, start, 1.0, step))
            want, reason = _walked(oracle_trajectory(field, start, 1.0, step))
            counts[reason] += 1
            assert len(got) == len(want), (start, step)
            for (t, state), (t0, state0) in zip(got, want):
                assert _same(t, t0)
                assert len(state) == len(state0)
                assert all(map(_same, state, state0)), (start, step, t)
        for tolerance in tolerances:
            got = check_invariants(polys, field, points, 1.0, step, tolerance)
            want, n = oracle_check_invariants(polys, field, points, 1.0, step, tolerance)
            counts["overflows"] += n
            assert len(got) == len(want)
            for a, b in zip(got, want):
                where = (a["polynomial"], a["point"], step, tolerance)
                assert a["polynomial"] == b["polynomial"] and a["point"] == b["point"]
                assert _same(a["max_residual"], b["max_residual"]), where
                assert _same(a["scale"], b["scale"]), where
                assert a["fail_time"] == b["fail_time"], where
                assert a["passed"] == b["passed"], where
                counts["late_fails"] += bool(b["fail_time"])
    return counts


def _walked(states):
    """The items of the generator `states` and the value it returns."""
    items = []
    while True:
        try:
            items.append(next(states))
        except StopIteration as stop:
            return items, stop.value


def _corpus_fields():
    seen = {}
    for name in entry_names():
        spec = load_entry(name)
        key = (tuple(spec.variables), tuple(sorted(spec.field.items())))
        seen.setdefault(key, spec.build().field)
    return list(seen.values())


# start values from -3 to 1e3; the larger ones blow up within the horizon
START_POOL = tuple(
    Fraction(v) for v in ("-3", "-1", "-1/2", "0", "1/3", "1/2", "1", "2", "3", "10", "1000")
)


def _synthetic_fields():
    """Fields whose sums meet every shortcut of the generated source: +-1
    coefficients first and last, -1 terms that are zero at a zero start,
    constants +-1, exponent 1 beside exponents >= 2, rational coefficients,
    and a zero drift beside a sum whose two terms reach inf within a step,
    where inf - inf makes a stage's drift NaN."""
    x, y, z = Symbol("x"), Symbol("y"), Symbol("z")
    U = SymbolUniverse([x, y, z])
    X, Y, Z = (Polynomial.variable(U, s) for s in (x, y, z))
    V = SymbolUniverse([x, y])
    P, Q = Polynomial.variable(V, x), Polynomial.variable(V, y)
    return [
        VectorField(U, [
            -X * Y + Fraction(2, 3) * Y**2 - 1,
            X * X * Y - Y + 1,
            X - Z - Fraction(5, 7) * Y * Z**3,
        ]),
        VectorField(V, [Fraction(1, 3) * P**2 - Q, -P + Fraction(5, 2)]),
        VectorField(U, [10**100 * Y * Z - 10**100 * X * Z, X - Y, Polynomial.zero(U)]),
    ]


def _synthetic_polys(field):
    X, Y = (Polynomial.variable(field.universe, s) for s in field.universe.symbols[:2])
    one = Polynomial.constant(field.universe, 1)
    return [-X - Y, -X * Y**2 + 1, X**3 * Y - Fraction(7, 3) * X + Y, -one, one]


def test_compiled_trajectory_matches_the_oracle():
    rng = random.Random(9)
    counts = Counter()
    for field in _corpus_fields() + _synthetic_fields():
        n = len(field.drifts)
        starts = [[rng.choice(START_POOL) for _ in range(n)] for _ in range(4)]
        starts.append([Fraction(0)] * n)
        # a start is checked before its escape test: x**2 overflows there
        starts.append([Fraction(10**200)] + [Fraction(1)] * (n - 1))
        polys = list(field.drifts) + _synthetic_polys(field)
        polys += [lie_derivative(d, field) for d in field.drifts if not d.is_zero()]
        # x^200 overflows once |x| > 35 and not below
        x = Polynomial.variable(field.universe, field.universe.symbols[0])
        polys.append(x**200 * Fraction(1, 3))
        counts += _assert_matches_oracle(field, starts, polys)
    # the walks ended for every reason: a step-doubling failure, an escape,
    # an OverflowError in a drift power, a NaN and the full horizon; the
    # checks met an overflow, and a residual that left its band after the
    # start; and every one agreed with the oracle
    for reason in ("step_error", "escape", "overflow", "nan", "horizon"):
        assert counts[reason] > 0, reason
    assert counts["overflows"] > 0
    assert counts["late_fails"] > 0


# -1 meets the `- t` first term, -1/3 and 5/7 a bound coefficient
SIGNED_COEFFICIENTS = tuple(map(Fraction, ("1", "-1", "-1/3", "5/7")))
# 10^-170 squares below the least double; 10^150 is past the escape bound
SIGNED_STARTS = tuple(
    Fraction(v) for v in ("0", "1e-170", "-1e-170", "1", "-1", "1/3", "-5/2", "1e150")
)


@st.composite
def _signed_zero_cases(draw):
    """A field of 1-4 variables, some drifts zero, and one start."""
    n = draw(st.integers(1, 4))
    syms = [Symbol(f"v{i}") for i in range(n)]
    U = SymbolUniverse(syms)
    X = [Polynomial.variable(U, s) for s in syms]
    drifts = []
    for _ in range(n):
        d = Polynomial.zero(U)
        for _ in range(draw(st.integers(0, 3))):
            term = Polynomial.constant(U, draw(st.sampled_from(SIGNED_COEFFICIENTS)))
            for x in X:
                term = term * x ** draw(st.integers(0, 2))
            d = d + term
        drifts.append(d)
    start = draw(st.lists(st.sampled_from(SIGNED_STARTS), min_size=n, max_size=n))
    return VectorField(U, drifts), start


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(_signed_zero_cases())
def test_trajectory_never_holds_negative_zero(case):
    # the step drops each drift sum's 0.0 seed and carries a zero drift's
    # variable, which is exact only while no state is -0.0
    field, start = case
    got = list(trajectory(field, start, 1.0, 1.0 / 16))
    want = list(oracle_trajectory(field, start, 1.0, 1.0 / 16))
    assert len(got) == len(want)
    for (t, state), (t0, state0) in zip(got, want):
        assert _same(t, t0)
        assert not any(v == 0.0 and math.copysign(1.0, v) < 0 for v in state), (t, state)
        assert all(map(_same, state, state0)), (t, state, state0)


def test_compiled_step_computes_no_ieee_identity(running, ghost, monkeypatch):
    U, _, (X, Y), _ = running
    # a fresh field, so its RK4 walk is compiled here
    F = VectorField(U, [Y * Y, X * Y])
    sources = []

    def captured(source, *args):
        sources.append(source)
        return compile(source, *args)

    monkeypatch.setattr(numcheck, "compile", captured, raising=False)
    numcheck.compile_rk4(F)
    (source,) = sources
    assert not re.search(r"\*\*1\b", source)
    # both coefficients are 1, so no coefficient is bound
    assert not re.search(r"\bC\d", source)
    # y^2 once per drift evaluation: 4 + 3 + 4, the first half step
    # sharing the full step's drifts at the start
    assert source.count("**") == 11
    # 0.5 * h and 0.5 * half, once each per walk, before its loop
    head, loop = source.split("for _ in range(n):")
    assert head.count("0.5 *") == 2 and "0.5 *" not in loop
    # each drift sum starts at its first term, with no 0.0 seed
    assert not re.search(r"= 0\.0 \+", source)
    # a zero drift's variable is carried: it is read only by the unpack and
    # the once-per-walk magnitude before the loop, and by the yield
    numcheck.compile_rk4(ghost[3])
    head, loop = sources[1].split("for _ in range(n):")

    def readers(text):
        return [line.split()[0] for line in text.splitlines() if re.search(r"\bs[23]\b", line)]

    assert readers(head) == ["s0,", "carried"]
    assert readers(loop) == ["yield"]


def test_spec_names_never_reach_the_compiled_source():
    # each of these names would shadow or break code generated from them
    names = ["abs", "state", "h", "s0", "C0", "time", "tolerance", "states", "observe"]
    spec = SystemSpec(
        {
            "variables": names,
            "field": {
                "abs": "-state", "state": "abs", "h": "3/7*s0*C0 - h",
                "s0": "-C0 + abs*h", "C0": "s0 - 2/3*state^2",
                "time": "1 - tolerance*states", "tolerance": "time - observe",
                "states": "-observe^2", "observe": "states + 1/5*time",
            },
            "query": {"kind": "invariant", "generators": ["abs^2 + state^2 - 1"]},
        }
    )
    built = spec.build()
    field = built.field
    X = {s.name: Polynomial.variable(field.universe, s) for s in field.universe.symbols}
    residual = X["abs"] * X["abs"] + X["state"] * X["state"] - 1
    starts = [[Fraction(v) for v in ("1", "0", "1/2", "-1/3", "2", "0", "1/4", "-1", "3/2")]]
    _assert_matches_oracle(field, starts, [residual, *field.drifts])
    records = check_invariants(
        [residual], field, [dict(zip(field.universe.symbols, starts[0]))], *SETTINGS
    )
    assert records[0]["passed"] and records[0]["max_residual"] < 1e-9


def test_residual_check_keeps_no_trajectory():
    # x' = -y, y' = x stays on the unit circle: 16,384 steps, none truncated
    x, y = Symbol("x"), Symbol("y")
    U = SymbolUniverse([x, y])
    X, Y = Polynomial.variable(U, x), Polynomial.variable(U, y)
    F = VectorField(U, [-Y, X])
    point = {x: Fraction(1), y: Fraction(0)}
    horizon, step = Fraction(64), Fraction(1, 256)
    assert len(list(trajectory(F, [1, 0], float(horizon), float(step)))) == 16385
    tracemalloc.start()
    try:
        records = check_invariants([X * X + Y * Y - 1], F, [point], horizon, step, 1e-6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert records[0]["passed"]
    assert peak < 1_000_000


def test_ghost_invariant_within_band(ghost):
    U, syms, (X, Y, X0, Y0), F = ghost
    invariant = X * X - Y * Y - X0 * X0 + Y0 * Y0
    point = {syms[0]: Fraction(2), syms[1]: Fraction(1),
             syms[2]: Fraction(2), syms[3]: Fraction(1)}
    records = check_invariants(
        [invariant], F, [point], horizon=Fraction(1), step=Fraction(1, 256), tolerance=1e-6
    )
    assert len(records) == 1
    assert records[0]["passed"]
    assert records[0]["max_residual"] <= 1e-6 * (1 + records[0]["scale"])


def test_zero_polynomial_trivially_passes(ghost):
    U, syms, _, F = ghost
    point = {s: Fraction(1) for s in syms}
    records = check_invariants([Polynomial.zero(U)], F, [point], *SETTINGS)
    assert records == []


def test_one_integration_per_start_point(running, monkeypatch):
    U, (x, y), (X, Y), F = running
    polys = [X * X - X * Y, X - 2 * Y, X - Y]
    points = [{x: Fraction(1), y: Fraction(1)}, {x: Fraction(1, 2), y: Fraction(1, 2)}]
    alone = [r for p in polys for r in check_invariants([p], F, points, *SETTINGS)]
    calls = []

    def counted(*args):
        calls.append(args)
        return trajectory(*args)

    monkeypatch.setattr(numcheck, "trajectory", counted)
    records = check_invariants(polys, F, points, *SETTINGS)
    assert len(calls) == len(points)
    assert [r["point"]["x"] for r in records] == ["1"] * 3 + ["1/2"] * 3

    def keyed(recs):
        return {(r["polynomial"], tuple(r["point"].items())): r for r in recs}

    assert keyed(records) == keyed(alone)
    assert len(keyed(records)) == len(polys) * len(points)
    assert not all(r["passed"] for r in records)


def test_one_compile_per_field_and_one_per_check(running, monkeypatch):
    U, (x, y), (X, Y), _ = running
    # a fresh field, so its RK4 step is compiled here too, once
    F = VectorField(U, [Y * Y, X * Y])
    polys = [X * X - X * Y, X - 2 * Y, Polynomial.zero(U)]
    points = [{x: Fraction(1), y: Fraction(1)}, {x: Fraction(1, 2), y: Fraction(1, 2)}]
    compiled = []
    real = numcheck._compile

    def counted(name, *args, **kwargs):
        compiled.append(name)
        return real(name, *args, **kwargs)

    monkeypatch.setattr(numcheck, "_compile", counted)
    check_invariants(polys, F, points, *SETTINGS)
    # one RK4 walk for the field, one observer for both nonzero polynomials
    assert sorted(compiled) == ["observe", "walk"]


def test_check_invariants_refuses_more_than_the_step_cap(running):
    U, (x, y), (X, Y), F = running
    point = {x: Fraction(1), y: Fraction(1)}
    with pytest.raises(ResourceLimitError, match="RK4 steps"):
        check_invariants([X - Y], F, [point], Fraction(10**8), Fraction(1, 256), 1e-6)
    horizon = Fraction(MAX_RK4_STEPS + 1, 256)
    with pytest.raises(ResourceLimitError):
        check_invariants([X - Y], F, [point], float(horizon), 1.0 / 256, 1e-6)


def test_corrupted_invariant_fails(running):
    U, (x, y), (X, Y), F = running
    corrupted = X - 2 * Y
    point = {x: Fraction(1), y: Fraction(1)}
    records = check_invariants([corrupted], F, [point], *SETTINGS)
    assert len(records) == 1
    assert not records[0]["passed"]
    assert records[0]["fail_time"] is not None
    assert records[0]["fail_time"] <= 1.0


def test_nan_residual_fails():
    # at x = 10^10 both terms are inf, so the value is inf - inf = NaN: the
    # record fails at t = 0, in the observer and in the oracle alike, and
    # reports the NaN as its largest residual
    x, y, z = (Symbol(n) for n in ("x", "y", "z"))
    U = SymbolUniverse([x, y, z])
    X, Y, Z = (Polynomial.variable(U, s) for s in (x, y, z))
    F = VectorField(U, [Polynomial.zero(U)] * 3)
    p = 10**300 * X * Y - 10**300 * X * Z
    point = {x: Fraction(10**10), y: Fraction(2), z: Fraction(1)}
    got = check_invariants([p], F, [point], *SETTINGS)
    want, _ = oracle_check_invariants([p], F, [point], 1.0, 1.0 / 256, 1e-6)
    for (record,) in (got, want):
        assert record["scale"] == math.inf
        assert not record["passed"] and record["fail_time"] == 0.0
        assert math.isnan(record["max_residual"])


def test_records_do_not_depend_on_term_insertion_order():
    # 10^16*x + y - 10^16*z at (1, 1, 1) sums to 0.0 lead first but to 1.0
    # with y added last; two equal polynomials built in those two insertion
    # orders must get one record
    x, y, z = (Symbol(n) for n in ("x", "y", "z"))
    U = SymbolUniverse([x, y, z])
    X, Y, Z = (Polynomial.variable(U, s) for s in (x, y, z))
    F = VectorField(U, [Polynomial.zero(U)] * 3)
    a = 10**16 * X + Y - 10**16 * Z
    b = 10**16 * X - 10**16 * Z + Y
    assert a == b and list(a._terms) != list(b._terms)
    point = {x: Fraction(1), y: Fraction(1), z: Fraction(1)}
    got = [check_invariants([p], F, [point], Fraction(1), Fraction(1, 256), 1e-30) for p in (a, b)]
    assert got[0] == got[1]


def test_true_invariant_from_line_passes(running):
    # x^2 - x*y vanishes along trajectories from the diagonal
    U, (x, y), (X, Y), F = running
    records = check_invariants(
        [X * X - X * Y], F, [{x: Fraction(1), y: Fraction(1)}], *SETTINGS
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
    records, note = verify_from_analysis([X - Y], F, [X * X + Y * Y], DEFAULTS)
    assert records == []
    assert note is not None


def test_verify_without_a_nonzero_polynomial_skips_the_check(ghost):
    U, syms, (X, Y, X0, Y0), F = ghost
    gens = [X - X0, Y - Y0]
    zero = Polynomial.zero(U)
    assert verify_from_analysis([zero], F, gens, DEFAULTS) == ([], "no nonzero polynomial to check")
    assert verify_from_analysis([], F, gens, DEFAULTS) == ([], "no nonzero polynomial to check")
    # a user point is still checked against the precondition first
    with pytest.raises(ValueError, match="violates the precondition"):
        verify_from_analysis(
            [zero], F, gens, NumericSpec(points=[{"x": "2", "y": "1", "x0": "3", "y0": "1"}])
        )


def test_verify_skips_values_outside_doubles(running):
    U, _, (X, Y), F = running
    # the sampled start x = 10^400 has no double
    skipped = ([], "a start point does not fit a double")
    assert verify_from_analysis([X * Y], F, [X - 10**400, Y], DEFAULTS) == skipped
    # nor has a coefficient of the checked polynomial
    records, note = verify_from_analysis([X - 10**400 * Y], F, [X - Y], DEFAULTS)
    assert records == [] and "coefficient" in note


def test_verify_with_user_supplied_points(ghost):
    U, syms, (X, Y, X0, Y0), F = ghost
    invariant = X * X - Y * Y - X0 * X0 + Y0 * Y0
    gens = [X - X0, Y - Y0]
    records, note = verify_from_analysis(
        [invariant], F, gens, NumericSpec(points=[{"x": "2", "y": "1", "x0": "2", "y0": "1"}])
    )
    assert note is None
    assert len(records) == 1 and records[0]["passed"]
    with pytest.raises(ValueError):
        verify_from_analysis(
            [invariant], F, gens, NumericSpec(points=[{"x": "2", "y": "1", "x0": "3", "y0": "1"}])
        )
    with pytest.raises(ValueError):
        verify_from_analysis(
            [invariant], F, gens, NumericSpec(points=[{"x": "2"}])
        )


def test_numeric_settings_have_no_default_in_numcheck():
    # `NumericSpec` holds the harness's settings and their defaults; a
    # public numcheck parameter named after one of its slots takes the
    # value from there, so a default of its own would be a second copy
    slots = set(NumericSpec.__slots__)
    defaulted = [
        f"{name}({param.name})"
        for name, fn in inspect.getmembers(numcheck, inspect.isfunction)
        if fn.__module__ == numcheck.__name__ and not name.startswith("_")
        for param in inspect.signature(fn).parameters.values()
        if param.name in slots and param.default is not inspect.Parameter.empty
    ]
    assert not defaulted, defaulted

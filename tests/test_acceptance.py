"""Acceptance suite: every criterion prints one PASS line with its runtime.

Criteria 6 and 7 and collision-avoidance at degree 3 are the long case
studies; they carry the `extended` marker so constrained environments can
deselect them, but they are fast enough to run by default.
"""

import hashlib
import json
import time
from pathlib import Path

import pytest

from odeinv import (
    FAILS,
    HOLDS,
    Ideal,
    Polynomial,
    Precondition,
    Symbol,
    SymbolUniverse,
    VectorField,
    check_safety,
    complete_template,
    lie_derivative,
    parse_polynomial,
    post,
    pre,
)
from odeinv.report import run
from conftest import in_span, same_span
from oracles import (
    contains,
    entry_names,
    ideal_equal,
    leading,
    lie_iterate,
    load_entry,
    stress_entry,
)
from props import (
    run_buchberger_closure,
    run_division_contract,
    run_extension_agreement,
    run_lie_laws,
    run_membership_oracle,
    run_reduced_gb_canonicity,
    run_template_commutation,
)


def _report(name, started, budget):
    elapsed = time.perf_counter() - started
    assert elapsed < budget, f"{name} exceeded its time budget: {elapsed:.2f}s"
    print(f"[acceptance] {name}: PASS ({elapsed:.2f}s)")


def test_criterion_1_running_example_post(running):
    started = time.perf_counter()
    U, (x, y), (X, Y), F = running
    res = post(Precondition([X - Y]), complete_template(U, [x, y], 2), F)
    assert res.space.dim == 3
    # constraints equivalent to v1 = 0, v2 = -v3, v4 = -v5 - v6
    V = res.space
    assert contains(V, [0, -1, 1, 0, 0, 0])
    assert contains(V, [0, 0, 0, -1, 1, 0])
    assert contains(V, [0, 0, 0, -1, 0, 1])
    assert not contains(V, [1, 0, 0, 0, 0, 0])
    assert not contains(V, [0, 1, 1, 0, 0, 0])
    assert not contains(V, [0, 0, 0, 1, 1, 1])
    assert same_span(
        res.result.unit_instances(), [Y * Y - X * X, X * Y - X * X, Y - X]
    )
    assert [str(g) for g in res.ideal.reduced_groebner_basis()] == ["x - y"]
    assert res.iterations == 0
    last = res.trace[-1]
    assert last["j"] == 1 and last["v_stable"] and last["j_stable"]
    _report("criterion 1: running-example postcondition chain", started, 1.0)


def test_criterion_2_ghost_post(ghost):
    started = time.perf_counter()
    U, syms, (X, Y, X0, Y0), F = ghost
    res = post(Precondition([X - X0, Y - Y0]), complete_template(U, syms, 2), F)
    gb = res.ideal.reduced_groebner_basis()
    expected = X0 * X0 - Y0 * Y0 - X * X + Y * Y
    monic = expected * (1 / leading(expected)[1])
    assert list(gb) == [monic]

    # trivial precondition on the two-variable system: zero result template
    U2 = SymbolUniverse([Symbol("x"), Symbol("y")])
    X2, Y2 = (Polynomial.variable(U2, s) for s in U2.symbols)
    F2 = VectorField(U2, [Y2 * Y2, X2 * Y2])
    trivial = post(Precondition([]), complete_template(U2, U2.symbols, 2), F2)
    assert trivial.result.is_zero()
    _report("criterion 2: ghost-variable postcondition chain", started, 5.0)


def test_criterion_3_pre(running):
    started = time.perf_counter()
    U, _, (X, Y), F = running
    q = X * X - X * Y
    res = pre([q], F)
    assert res.iterations == 1
    q1 = -(X**2 * Y) + 2 * X * Y**2 - Y**3
    q2 = -(X**3 * Y) + 4 * X**2 * Y**2 - 5 * X * Y**3 + 2 * Y**4
    assert ideal_equal(res.ideal, Ideal(U, [q, q1]))
    assert res.ideal.member(q2)
    _report("criterion 3: precondition chain", started, 1.0)


def test_criterion_4_lie_table(running):
    started = time.perf_counter()
    U, _, (X, Y), F = running
    assert lie_derivative(X - Y, F) == Y * Y - X * Y
    assert lie_iterate(X - Y, F, 2) == 2 * X * Y**2 - X**2 * Y - Y**3
    assert lie_derivative(X * X - X * Y, F) == -(X**2 * Y) + 2 * X * Y**2 - Y**3
    _report("criterion 4: Lie-derivative table", started, 0.1)


def test_criterion_5_safety_check(running):
    started = time.perf_counter()
    U, _, (X, Y), F = running
    good = check_safety(Precondition([X - Y]), [X * X - X * Y], F)
    assert good.verdict == HOLDS
    bad = check_safety(Precondition([X - Y]), [X], F)
    assert bad.verdict != HOLDS
    assert bad.verdict == FAILS
    _report("criterion 5: safety verdicts", started, 1.0)


# ground truth for the two-aircraft study: the quadratic conservation-law
# basis of the invariant ideal, as published for this system
COLLISION_REFERENCE = [
    "x10^2*d20 + x20^2*d20 - 2*x10*d20*x1 + d20*x1^2 - 2*x20*d20*x2 + d20*x2^2"
    " - 2*x10*x20*d1 + 2*x20*x1*d1 + 2*x10*x2*d1 - 2*x1*x2*d1"
    " + x10^2*d2 - x20^2*d2 - 2*x10*x1*d2 + x1^2*d2 + 2*x20*x2*d2 - x2^2*d2",
    "y10^2*e20 + y20^2*e20 - 2*y10*e20*y1 + e20*y1^2 - 2*y20*e20*y2 + e20*y2^2"
    " - 2*y10*y20*e1 + 2*y20*y1*e1 + 2*y10*y2*e1 - 2*y1*y2*e1"
    " + y10^2*e2 - y20^2*e2 - 2*y10*y1*e2 + y1^2*e2 + 2*y20*y2*e2 - y2^2*e2",
    "w1*x10 - w1*x1 - d20 + d2",
    "w1*x20 - w1*x2 + d10 - d1",
    "w2*y10 - w2*y1 - e20 + e2",
    "w2*y20 - w2*y2 + e10 - e1",
    "x10*d10 + x20*d20 - d10*x1 - d20*x2 - x10*d1 + x1*d1 - x20*d2 + x2*d2",
    "x20*d10 - x10*d20 + d20*x1 - d10*x2 + x20*d1 - x2*d1 - x10*d2 + x1*d2",
    "d10^2 + d20^2 - d1^2 - d2^2",
    "y10*e10 + y20*e20 - e10*y1 - e20*y2 - y10*e1 + y1*e1 - y20*e2 + y2*e2",
    "y20*e10 - y10*e20 + e20*y1 - e10*y2 + y20*e1 - y2*e1 - y10*e2 + y1*e2",
    "e10^2 + e20^2 - e1^2 - e2^2",
]


@pytest.mark.extended
def test_criterion_6_collision_avoidance():
    started = time.perf_counter()
    built = load_entry("collision-avoidance").build()
    assert len(built.template.params) == 190
    res = post(built.precondition, built.template, built.field)
    assert res.iterations == 3
    assert res.space.dim == 10
    reference = [parse_polynomial(t, built.universe) for t in COLLISION_REFERENCE]
    assert len(reference) == 12
    # the 12 reference laws generate exactly the computed ideal, and their
    # reduced basis is the canonical basis the chain produced
    ideal = Ideal(built.universe, reference)
    assert ideal_equal(res.ideal, ideal)
    assert res.ideal.reduced_groebner_basis() == ideal.reduced_groebner_basis()
    _report("criterion 6: collision-avoidance study", started, 600.0)


@pytest.mark.extended
def test_criterion_7_airplane_vertical_motion():
    started = time.perf_counter()
    built = load_entry("airplane-vertical").build()
    # quadratic ansatz over 17 variables plus the q*u, q*w auxiliary
    # monomial products, deduplicated
    assert len(built.template.params) == 204
    res = post(built.precondition, built.template, built.field)
    assert res.iterations == 8
    assert res.space.dim == 4
    assert len(res.result.params) == 4
    U = built.universe
    p1 = parse_polynomial("c^2 + s^2 - 1", U)
    p2 = parse_polynomial("-1/2*q^2 + th*miyy + 1/2*q0^2", U)
    instances = res.result.unit_instances()
    assert in_span(p1, instances)
    assert in_span(p2, instances)
    assert ideal_equal(res.ideal, Ideal(U, instances))
    # the same run doubles as a weakest-precondition query: the seed is
    # exact, so J's variety is the weakest precondition of the result's
    assert res.analysis.exact
    _report("criterion 7: airplane vertical-motion study", started, 600.0)


def _digest(report):
    """SHA-256 of a report's comparable block, as the benchmark takes it."""
    blob = json.dumps(report.comparable(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _bench_digest(name):
    refs = json.loads(
        (Path(__file__).parents[1] / "bench" / "references.json").read_text(encoding="utf-8")
    )
    return refs["digests"][name]


def test_kepler_report_keeps_the_benchmark_digest():
    # the benchmark's kepler query, numeric check off; its report must keep
    # the digest recorded in bench/references.json
    started = time.perf_counter()
    report = run(load_entry("kepler", numeric=False).build())
    assert report.exit_code == 0
    assert _digest(report) == _bench_digest("kepler")
    _report("kepler: generators mode at template degree 4", started, 10.0)


@pytest.mark.extended
def test_stress_tier_collision_avoidance_degree_3():
    # the benchmark's stress-deg3 query; its report must keep the digest
    # recorded in bench/references.json
    started = time.perf_counter()
    report = run(stress_entry("collision-avoidance", 3).build())
    assert report.exit_code == 0
    assert _digest(report) == _bench_digest("stress-deg3")
    _report("stress tier: collision-avoidance at template degree 3", started, 60.0)


def test_stress_tier_airplane_vertical_degree_3():
    # airplane-vertical at template degree 3 must keep the report digest
    # taken before templates moved to integer forms over one denominator;
    # its chain ends on a Lie-closed J_0, so the answer's J takes J_0's
    # basis, and this pins that basis in the report
    started = time.perf_counter()
    report = run(stress_entry("airplane-vertical", 3).build())
    assert report.exit_code == 0
    assert _digest(report) == (
        "6afbb393b0cb8cfa1540cb711e3aceb50728c5bb74594b3db5b6b0fcc12cb2fd"
    )
    _report("stress tier: airplane-vertical at template degree 3", started, 120.0)


def test_criterion_8_property_suites():
    started = time.perf_counter()
    run_division_contract(500)
    run_buchberger_closure(100)
    run_membership_oracle(100)
    run_reduced_gb_canonicity(50)
    run_extension_agreement(100)
    run_lie_laws(500)
    run_template_commutation(100)
    _report("criterion 8a: randomized property suites", started, 300.0)


def test_criterion_8_numeric_harness_on_corpus():
    started = time.perf_counter()
    checked = 0
    for name in entry_names():
        spec = load_entry(name)
        if spec.tier == "data-only" or not spec.numeric.enabled:
            continue
        report = run(spec.build())
        nc = report.data.get("numeric_check")
        assert nc is not None and nc["passed"], f"numeric harness failed for {name}"
        checked += nc["checked"]
    assert checked > 0
    _report(
        f"criterion 8b: RK4 harness on corpus invariants ({checked} checks)",
        started,
        300.0,
    )

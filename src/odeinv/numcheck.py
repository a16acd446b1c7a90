"""Fixed-step RK4 falsification harness for reported invariants.

This is a desk-scale cross-check, not a validated integrator: it samples
rational points on the precondition variety, integrates the field in double
precision, and flags any reported invariant whose residual leaves a small
relative band along the trajectory.
"""

from __future__ import annotations

from fractions import Fraction

from .algorithms import PreconditionAnalysis, sample_points
from .dynamics import VectorField
from .poly import Polynomial
from .sysspec import SpecError


def compile_float(p: Polynomial):
    """Compile a polynomial to a float evaluator over a state vector."""
    terms = [
        ([(i, e) for i, e in enumerate(exps) if e], float(c))
        for exps, c in p._terms.items()
    ]

    def evaluate(state):
        total = 0.0
        for powers, c in terms:
            v = c
            for i, e in powers:
                v *= state[i] ** e
            total += v
        return total

    return evaluate


def compile_abs_float(p: Polynomial):
    """Evaluator of the sum of absolute term magnitudes (scale reference)."""
    terms = [
        ([(i, e) for i, e in enumerate(exps) if e], abs(float(c)))
        for exps, c in p._terms.items()
    ]

    def evaluate(state):
        total = 0.0
        for powers, c in terms:
            v = c
            for i, e in powers:
                v *= abs(state[i]) ** e
            total += v
        return total

    return evaluate


def _field_evaluator(field: VectorField):
    fs = [compile_float(d) for d in field.drifts]

    def rhs(state):
        return [f(state) for f in fs]

    return rhs


def rk4_step(rhs, state, h: float):
    k1 = rhs(state)
    s2 = [x + 0.5 * h * k for x, k in zip(state, k1)]
    k2 = rhs(s2)
    s3 = [x + 0.5 * h * k for x, k in zip(state, k2)]
    k3 = rhs(s3)
    s4 = [x + h * k for x, k in zip(state, k3)]
    k4 = rhs(s4)
    return [
        x + (h / 6.0) * (a + 2.0 * b + 2.0 * c + d)
        for x, a, b, c, d in zip(state, k1, k2, k3, k4)
    ]


ESCAPE_BOUND = 1e60
STEP_RTOL = 1e-10


def trajectory(field: VectorField, start, horizon: float, step: float):
    """Yield (t, state) along a fixed-step RK4 trajectory from t=0.

    The walk stops early when a step-doubling error estimate shows the
    fixed step can no longer certify the residual band, or when the state
    leaves the representable range (finite-time blow-up is common for
    polynomial fields).  Residual checks are meaningful only on the
    portion actually yielded.
    """
    rhs = _field_evaluator(field)
    state = [float(v) for v in start]
    t = 0.0
    yield t, state
    n = max(1, round(horizon / step))
    half = step / 2.0
    for _ in range(n):
        if any(v != v or abs(v) > ESCAPE_BOUND for v in state):
            return
        try:
            full = rk4_step(rhs, state, step)
            fine = rk4_step(rhs, rk4_step(rhs, state, half), half)
        except OverflowError:
            return
        scale = 1.0 + max(abs(v) for v in fine)
        if any(
            a != a or b != b or abs(a - b) > STEP_RTOL * scale
            for a, b in zip(full, fine)
        ):
            return
        state = fine
        t += step
        if any(v != v or abs(v) > ESCAPE_BOUND for v in state):
            return
        yield t, state


def check_invariants(
    polys,
    field: VectorField,
    points,
    horizon=Fraction(1),
    step=Fraction(1, 256),
    tolerance: float = 1e-6,
):
    """Integrate once from each point and check each polynomial stays near
    zero along that trajectory.

    The acceptance band is tolerance * (1 + s) where s is the running
    maximum of the sum of absolute term magnitudes, i.e. a relative
    tolerance against the polynomial's own scale along the trajectory.
    """
    universe = field.universe
    records = []
    horizon_f = float(horizon)
    step_f = float(step)
    compiled = [
        (p, compile_float(p), compile_abs_float(p)) for p in polys if not p.is_zero()
    ]
    if not compiled:
        return records
    for point in points:
        start = [point[s] for s in universe.symbols]
        states = list(trajectory(field, start, horizon_f, step_f))
        for p, ev, scale_ev in compiled:
            max_residual = 0.0
            scale = 0.0
            fail_time = None
            for t, state in states:
                try:
                    r = abs(ev(state))
                    scale = max(scale, scale_ev(state))
                except OverflowError:
                    break
                if r > max_residual:
                    max_residual = r
                if fail_time is None and r > tolerance * (1.0 + scale):
                    fail_time = t
            records.append(
                {
                    "polynomial": str(p),
                    "point": {s.name: str(point[s]) for s in universe.symbols},
                    "passed": fail_time is None,
                    "max_residual": max_residual,
                    "scale": scale,
                    "fail_time": fail_time,
                }
            )
    return records


def verify_from_analysis(
    polys,
    field: VectorField,
    analysis: PreconditionAnalysis,
    samples: int = 3,
    horizon=Fraction(1),
    step=Fraction(1, 256),
    tolerance: float = 1e-6,
    points=None,
):
    """Sample the precondition (or take user points) and run the check.

    Returns (records, note); when no sample point is available the check is
    skipped with an explanatory note rather than failing.  User-supplied
    points must bind every variable and satisfy the precondition exactly;
    a point that does not raises SpecError.  For a `pre` or `invariant`
    query the precondition is the computed ideal, so the spec's own
    build-time check cannot catch this.
    """
    universe = field.universe
    if points is not None:
        names = {s.name for s in universe.symbols}
        resolved = []
        for raw in points:
            for sym in universe.symbols:
                if sym.name not in raw:
                    raise SpecError(f"sample point does not bind {sym.name!r}")
            extra = set(raw) - names
            if extra:
                raise SpecError(f"sample point binds unknown names {sorted(extra)}")
            point = {universe.by_name(n): Fraction(v) for n, v in raw.items()}
            for g in analysis.generators:
                if g.evaluate(point) != 0:
                    raise SpecError(
                        f"sample point violates the precondition generator {g}"
                    )
            resolved.append(point)
        points = resolved
    else:
        points = sample_points(analysis, universe, samples)
    if not points:
        return [], "no rational sample point available for this precondition"
    return (
        check_invariants(polys, field, points, horizon, step, tolerance),
        None,
    )

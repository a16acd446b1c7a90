"""Fixed-step RK4 falsification harness for reported invariants.

This is a desk-scale cross-check, not a validated integrator: it samples
rational points on the variety of the generators it is given, integrates
the field in double precision, and flags any reported invariant whose
residual leaves a small relative band along the trajectory.  Its settings
(samples, horizon, step, tolerance, start points) are read from one
`sysspec.NumericSpec` and have no defaults here.

The float code is generated, term by term: each field's RK4 walk,
compiled once per field, which takes every checked step of a trajectory
with the state in locals, and one residual observer per
`check_invariants` call, which checks every polynomial against each state
as the trajectory yields it.  The source names state variables
`s0, s1, ...` and coefficients `C0, C1, ...` and binds the values in its
namespace, so no text from a spec reaches `compile`.  The interpreted
loops it replaces are the reference in `tests/oracles.py`, and it matches
them float for float.  The source leaves out only operations IEEE 754
makes exact identities:
- `x**1` is `x`: pow returns x unchanged and cannot overflow;
- a coefficient 1 is not multiplied in: `1.0 * a == a`;
- a coefficient -1 is a `-` in the sum: rounding is sign-symmetric;
- each walk's `0.5 * h`, `h / 6.0`, `0.5 * half` and `half / 6.0` are
  computed once: the same doubles at every stage of every step;
- a term is computed once for the value and the magnitude: `abs(t)` is
  the loop's |c| * |x|**e ..., since CPython's pow takes |x|**e first;
- every sum drops the `0.0` seed, which changes only the sign of a zero:
  the observer's `abs` drops it, and no `abs(t)` is -0.0; the step adds a
  drift k only as `x + c*k`, which is x for a zero k unless x is -0.0;
- no state is -0.0: a start is the float of a rational (see `trajectory`)
  and `x + y` is -0.0 only when both are, so a zero drift carries its
  variable under its start name, as `x + c*0.0 == x`;
- a step's stop tests are chained comparisons: `not -tol <= F - N <= tol`
  for `F != F or N != N or abs(F - N) > tol`, and
  `not -ESCAPE_BOUND <= N <= ESCAPE_BOUND` for `abs(N) > ESCAPE_BOUND`.
  Together they stop in the same cases.  Every comparison with a NaN is
  false, so both forms stop on a NaN F or N.  For d and b not NaN,
  `abs(d) > b` is `not -b <= d <= b`, as `abs` and `-` are exact.  So the
  clauses differ only on a NaN that neither F nor N is: F - N for
  F = N = +-inf, which both forms stop by N's escape test, and tol, which
  is NaN only when some N is;
- the zero-drift variables' largest magnitude is computed once per walk:
  they never change, and `max` of values that are not NaN does not depend
  on their grouping or order, while a NaN among the others stops the step
  whatever tol is;
- the observer's `if w > g: g = w` is `g = max(g, w)`: max keeps its
  first argument unless the second is greater, so both keep g for a NaN
  w and for -0.0 against 0.0.
"""

from __future__ import annotations

from fractions import Fraction

from .algorithms import sample_points
from .dynamics import VectorField
from .groebner import ResourceLimitError
from .poly import Polynomial, printed
from .sysspec import MAX_RK4_STEPS, NumericSpec, SpecError


ESCAPE_BOUND = 1e60
STEP_RTOL = 1e-10


def _power_terms(p: Polynomial, names, consts: dict):
    """`(op, product)` source per term of `p`, lead first, over the
    variable expressions `names`, one per exponent position.  A product
    multiplies its factors left to right, as the loop `v = c; v *= x**e`
    does, less what cannot change a float:
    - `x**1` is `x`: it equals x for every float and never raises;
    - a coefficient 1 is left out: `1.0 * a == a`;
    - a coefficient -1 is the op `-`: `(-1.0 * a) * b == -(a * b)`, as
      rounding is sign-symmetric, and `s + (-t) == s - t`.
    `**e` stays for e >= 2, so `OverflowError` comes from the same terms.
    Other coefficients become names: `consts` maps each exact coefficient
    to its name and is shared by every expression of one compile.
    """
    unpack = p.universe.packing.unpack
    for m, c in p.sorted_terms():
        factors = [names[i] if e == 1 else f"{names[i]}**{e}" for i, e in enumerate(unpack(m)) if e]
        if abs(c) != 1:
            factors.insert(0, consts.setdefault(c, f"C{len(consts)}"))
        yield "-" if c == -1 else "+", "*".join(factors) or "1.0"


def _compile(name: str, lines, consts: dict):
    """Define the function `name` from its source lines.  Every name the
    source uses is internal; the namespace binds the coefficients, as
    floats."""
    namespace = {const: float(c) for c, const in consts.items()}
    exec(compile("\n".join(lines), f"<odeinv.numcheck {name}>", "exec"), namespace)
    return namespace[name]


def _rk4_lines(sources: dict, xs, out, sizes, tag: str, k0=None):
    """Source lines of one classical RK4 step from the state names `xs` to
    the names `out`, and the names of the drifts at `xs`, which `k0`
    supplies when earlier lines computed them.  `sources` maps each
    nonzero drift's position to its source over slots `{0}, {1}, ...`;
    `sizes` names the step, its half and its sixth.  The arithmetic is
    `x + half * k` and `x + sixth * (a + 2.0 * b + 2.0 * c + d)`, with each
    stage's drifts inlined; a zero drift's variable keeps its name and gets
    no line.  Each output line reads only its own position's names, so
    `out` may reuse the names `xs`."""
    step, half, sixth = sizes
    lines, ks, point = [], [], xs
    for j, shift in enumerate((half, half, step, None)):
        if j == 0 and k0 is not None:
            k = k0
        else:
            k = {i: f"{tag}k{j}_{i}" for i in sources}
            lines += [f"{k[i]} = {src.format(*point)}" for i, src in sources.items()]
        ks.append(k)
        if shift is not None:
            point = [f"{tag}y{j}_{i}" if i in sources else x for i, x in enumerate(xs)]
            lines += [f"{point[i]} = {xs[i]} + {shift} * {k[i]}" for i in sources]
    a, b, c, d = ks
    lines += [
        f"{out[i]} = {xs[i]} + {sixth} * ({a[i]} + 2.0 * {b[i]} + 2.0 * {c[i]} + {d[i]})"
        for i in sources
    ]
    return lines, a


def _largest(terms) -> str:
    """Source of the largest of the expressions `terms`."""
    return f"max({', '.join(terms)})" if len(terms) > 1 else terms[0]


def compile_rk4(field: VectorField):
    """The field's walk `walk(state, h, half, n)`, compiled once and
    cached on the field, so every start point of a query shares it.

    `walk` takes up to `n` steps from `state`, which it keeps in the locals
    `s0, s1, ...`.  Each is one RK4 step of size `h` checked against two of
    size `half`; the walk yields `(t, state)` after each, with the
    two-half-step state, and returns when a power overflows, when the two
    results differ by more than STEP_RTOL * (1 + max |fine|) or either is
    NaN, or when the new state leaves [-ESCAPE_BOUND, ESCAPE_BOUND].  The
    step sizes and the zero-drift variables' largest magnitude are computed
    once per walk (see the module docstring); a zero-drift variable passed
    the escape test at the start, so it enters the max and no other test.
    """
    if field._advance is not None:
        return field._advance
    consts: dict = {}
    slots = [f"{{{i}}}" for i in range(len(field.drifts))]
    sources = {
        i: " ".join(f"{op} {t}" for op, t in _power_terms(d, slots, consts)).removeprefix("+ ")
        for i, d in enumerate(field.drifts)
        if not d.is_zero()
    }
    xs = [f"s{i}" for i in range(len(slots))]
    full = [f"F_{i}" if i in sources else x for i, x in enumerate(xs)]
    mid = [f"M_{i}" if i in sources else x for i, x in enumerate(xs)]
    halves = ("half", "q2", "q6")
    # the full step and the first half step share the drifts at the start;
    # the fine state takes the names of the state it replaces
    step, k0 = _rk4_lines(sources, xs, full, ("h", "h2", "h6"), "F")
    step += _rk4_lines(sources, xs, mid, halves, "M", k0)[0]
    step += _rk4_lines(sources, mid, xs, halves, "N")[0]
    moving = [xs[i] for i in sources]
    carried = [x for x in xs if x not in moving]
    lines = [
        "def walk(state, h, half, n):",
        f"    {', '.join(xs)}, = state",
        "    h2, h6 = 0.5 * h, h / 6.0",
        "    q2, q6 = 0.5 * half, half / 6.0",
    ]
    magnitudes = [f"abs({x})" for x in moving]
    if carried:
        lines.append(f"    carried = {_largest([f'abs({x})' for x in carried])}")
        magnitudes.append("carried")
    lines += ["    t = 0.0", "    for _ in range(n):"]
    if step:
        # chained comparisons stop where the abs and NaN tests did: see the
        # module docstring
        stops = [f"not -tol <= {full[i]} - {xs[i]} <= tol" for i in sources]
        stops += [f"not {-ESCAPE_BOUND!r} <= {x} <= {ESCAPE_BOUND!r}" for x in moving]
        lines += [
            "        try:",
            *(f"            {line}" for line in step),
            "        except OverflowError:",
            "            return",
            f"        tol = {STEP_RTOL!r} * (1.0 + {_largest(magnitudes)})",
            f"        if {' or '.join(stops)}:",
            "            return",
        ]
    lines += ["        t += h", f"        yield t, [{', '.join(xs)}]"]
    walk = _compile("walk", lines, consts)
    object.__setattr__(field, "_advance", walk)
    return walk


def trajectory(field: VectorField, start, horizon: float, step: float):
    """Yield (t, state) along a fixed-step RK4 trajectory from t=0.

    The walk stops early when a step-doubling error estimate shows the
    fixed step can no longer certify the residual band, or when the state
    leaves the representable range (finite-time blow-up is common for
    polynomial fields).  Residual checks are meaningful only on the
    portion actually yielded.  After the start state and its escape test,
    the field's compiled `walk` yields every step.

    The start values are rationals, as `check_invariants` passes them, so
    no float -0.0; a negative one of magnitude at most 2**-1075 rounds to
    -0.0, and from it the states may differ from the oracle's only in the
    sign of a zero, which no test of the step or the observer reads.
    """
    walk = compile_rk4(field)
    state = [float(v) for v in start]
    yield 0.0, state
    if any(v != v or abs(v) > ESCAPE_BOUND for v in state):
        return
    yield from walk(state, step, step / 2.0, max(1, round(horizon / step)))


def compile_observer(polys, n: int):
    """Compile the nonzero `polys` over `n` state variables to one
    `observe(states, tolerance)`.

    `observe` consumes `(time, state)` pairs and returns one
    `(residual, scale, fail_time)` per polynomial: the largest |value|, the
    largest magnitude (the sum of absolute term magnitudes) and the first
    time the residual left the band tolerance * (1 + scale), tested after
    the scale is updated, else None.  The test is `not r <= band`, so a
    NaN residual leaves the band; the band is never NaN, since the scale
    starts at 0.0 and only grows through `w > g`.  A NaN residual is also
    taken as the largest (`r != r`), and no later residual compares above
    it, so the first NaN sticks.  Each product term is computed once, for
    both sums.  A polynomial with a power has its own `try`, so an
    `OverflowError` stops only that polynomial; float products and sums
    never raise it.  The running values stay in locals, so no state is
    kept.
    """
    consts: dict = {}
    xs = [f"s{i}" for i in range(n)]
    head, body, out = [], [], []
    for j, p in enumerate(polys):
        terms = list(_power_terms(p, xs, consts))
        # a product is computed once, into a temporary; a name stands as is
        names = [f"t{k}" if "*" in t else t for k, (_, t) in enumerate(terms)]
        products = [f"{x} = {t}" for x, (_, t) in zip(names, terms) if x != t]
        r, g, f = f"r{j}", f"g{j}", f"f{j}"
        head += [f"    {r} = {g} = 0.0", f"    {f} = None"]
        value = " ".join(f"{op} {x}" for (op, _), x in zip(terms, names))
        check = [
            f"r = abs({value.removeprefix('+ ')})",
            "w = " + " + ".join(f"abs({x})" for x in names),
            f"if w > {g}: {g} = w",
            f"if r > {r} or r != r: {r} = r",
            f"if {f} is None and not r <= tolerance * (1.0 + {g}): {f} = time",
        ]
        if any("**" in t for _, t in terms):
            on = f"on{j}"
            head.append(f"    {on} = True")
            body += [
                f"        if {on}:",
                "            try:",
                *(f"                {line}" for line in products),
                "            except OverflowError:",
                f"                {on} = False",
                "            else:",
                *(f"                {line}" for line in check),
            ]
        else:
            body += [f"        {line}" for line in products + check]
        out.append(f"({r}, {g}, {f})")
    lines = [
        "def observe(states, tolerance):",
        *head,
        f"    for time, ({', '.join(xs)},) in states:",
        *body,
        f"    return [{', '.join(out)}]",
    ]
    return _compile("observe", lines, consts)


def check_invariants(polys, field: VectorField, points, horizon, step, tolerance: float):
    """Integrate once from each point and check each polynomial stays near
    zero along that trajectory.

    The acceptance band is tolerance * (1 + s) where s is the running
    maximum of the sum of absolute term magnitudes, i.e. a relative
    tolerance against the polynomial's own scale along the trajectory.
    One observer, compiled per call, checks every nonzero polynomial
    against each state as `trajectory` yields it and keeps only running
    values.  An overflow stops only the polynomial it happened in.  More
    than MAX_RK4_STEPS steps raise ResourceLimitError up front.
    """
    if horizon / step > MAX_RK4_STEPS:
        raise ResourceLimitError(
            f"horizon {horizon} takes more than {MAX_RK4_STEPS} RK4 steps of {step}"
        )
    symbols = field.universe.symbols
    checked = [p for p in polys if not p.is_zero()]
    if not checked:
        return []
    observe = compile_observer(checked, len(symbols))
    texts = [str(p) for p in checked]
    horizon_f, step_f = float(horizon), float(step)
    records = []
    for point in points:
        where = {s.name: printed(point[s]) for s in symbols}
        states = trajectory(field, [point[s] for s in symbols], horizon_f, step_f)
        for text, (residual, scale, fail_time) in zip(texts, observe(states, tolerance)):
            records.append(
                {
                    "polynomial": text,
                    "point": dict(where),
                    "passed": fail_time is None,
                    "max_residual": residual,
                    "scale": scale,
                    "fail_time": fail_time,
                }
            )
    return records


def verify_from_analysis(
    polys, field: VectorField, generators, numeric: NumericSpec, bindings=None
):
    """Sample Var(generators), or take `numeric.points`, and run the check
    with `numeric`'s samples, horizon, step and tolerance.

    `generators` are the precondition's for `post` and `check`, and the
    computed reduced basis for `pre` and `invariant`; `bindings` are their
    `triangular_bindings` when the caller has them, else sampling searches
    them.  Returns (records, note); when every polynomial is zero, no
    sample point is available, or a coefficient or start value is outside
    the double range, the check is skipped with an explanatory note rather
    than failing.  User-supplied points must bind every variable and
    satisfy the generators exactly; a point that does not raises SpecError,
    also when nothing is left to check.  For a `pre` or `invariant` query
    the generators are the computed ideal's, so the spec's own build-time
    check cannot catch this.
    """
    universe = field.universe
    points = numeric.points
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
            for g in generators:
                if g.evaluate(point) != 0:
                    raise SpecError(
                        f"sample point violates the precondition generator {g}"
                    )
            resolved.append(point)
        points = resolved
    if all(p.is_zero() for p in polys):
        return [], "no nonzero polynomial to check"
    if not _fit_doubles(c for p in (*field.drifts, *polys) for c in p._terms.values()):
        return [], "a coefficient of the field or of a checked polynomial does not fit a double"
    if points is None:
        points = sample_points(generators, universe, numeric.samples, bindings)
    if not points:
        return [], "no rational sample point available for this precondition"
    if not _fit_doubles(v for point in points for v in point.values()):
        return [], "a start point does not fit a double"
    return (
        check_invariants(polys, field, points, numeric.horizon, numeric.step, numeric.tolerance),
        None,
    )


def _fit_doubles(values) -> bool:
    """Whether every exact value converts to a float without overflow."""
    try:
        for v in values:
            float(v)
    except OverflowError:
        return False
    return True

"""Outside-in spans around the public functions of each odeinv layer.

`Patches` replaces each traced function with a wrapper in every odeinv
namespace that binds it (`from ... import` copies bindings, so patching only
the defining module would miss calls), and each traced method on its class;
it can take the wrappers out again.  Every wrapper records a span: name,
start, end, parent span and query id.
Spans stay in memory until the run ends; `layer_metrics` then folds them
into the per-layer metrics.  Polynomial arithmetic is not wrapped: its calls
are too fine-grained to time from outside, so its cost shows as the self
time of its callers.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict
from collections.abc import Sequence

perf = time.perf_counter

# Span record fields.
NAME, START, END, PARENT, QUERY, BUSY = range(6)

# Per-layer metrics: (name, unit, better, source, workloads).  `source` is
# the span or counter that must record at least one call on each listed
# workload, or the traced run fails: a rename or move in src must not read
# as a silent 0.  Times and counts are per pass over the workload, except
# sysspec.from_text.s, which is one set-up's parse of the workload's specs.
LAYER_METRICS = (
    ("linalg.nullspace.calls", "count", "lower", "linalg.nullspace", ("stress-deg3", "kepler")),
    ("linalg.nullspace.s", "s", "lower", "linalg.nullspace", ("stress-deg3", "kepler")),
    ("linalg.nullspace.cells", "count", "lower", "linalg.nullspace", ("stress-deg3", "kepler")),
    ("linalg.from_rows.s", "s", "lower", "linalg.from_rows", ("stress-deg3", "kepler")),
    ("dynamics.compose.calls", "count", "lower", "dynamics.compose", ("stress-deg3", "kepler")),
    ("dynamics.compose.s", "s", "lower", "dynamics.compose", ("stress-deg3", "kepler")),
    ("dynamics.lie.s", "s", "lower", "dynamics.lie", ("stress-deg3", "kepler")),
    ("dynamics.reduce_by.s", "s", "lower", "dynamics.reduce_by", ("kepler",)),
    ("dynamics.monomial_terms.calls", "count", "lower", "dynamics.monomial_terms", ("kepler",)),
    ("dynamics.reducer_hit_ratio", "ratio", "higher", "dynamics.monomial_terms", ("kepler",)),
    ("groebner.normal_form.calls", "count", "lower", "groebner.normal_form", ("kepler",)),
    ("groebner.normal_form.s", "s", "lower", "groebner.normal_form", ("kepler",)),
    ("groebner.normal_form.divisor_terms", "count", "lower", "groebner.normal_form", ("kepler",)),
    ("groebner.buchberger.calls", "count", "lower", "groebner.buchberger", ("kepler",)),
    ("groebner.buchberger.s", "s", "lower", "groebner.buchberger", ("kepler",)),
    ("groebner.buchberger_extend.s", "s", "lower", "groebner.buchberger_extend", ("kepler",)),
    ("algorithms.analyze.s", "s", "lower", "algorithms.analyze", ("quick-mix",)),
    ("algorithms.post.s", "s", "lower", "algorithms.post", ("quick-mix",)),
    ("algorithms.post.self_s", "s", "lower", "algorithms.post", ("stress-deg3", "kepler")),
    ("algorithms.pre.s", "s", "lower", "algorithms.pre", ("quick-mix",)),
    ("algorithms.check_safety.s", "s", "lower", "algorithms.check_safety", ("quick-mix",)),
    ("algorithms.check_invariant_ideal.s", "s", "lower", "algorithms.check_invariant_ideal", ("quick-mix",)),
    ("algorithms.chain_steps", "count", "lower", "algorithms.chain_trace", ("quick-mix", "stress-deg3", "kepler")),
    ("algorithms.constraints", "count", "lower", "algorithms.chain_trace", ("quick-mix", "stress-deg3", "kepler")),
    ("numcheck.verify.s", "s", "lower", "numcheck.verify", ("corpus-extended", "quick-mix")),
    ("numcheck.trajectory.calls", "count", "lower", "numcheck.trajectory", ("corpus-extended", "quick-mix")),
    ("numcheck.trajectory.s", "s", "lower", "numcheck.trajectory", ("corpus-extended", "quick-mix")),
    ("numcheck.trajectory.steps", "count", "lower", "numcheck.trajectory", ("corpus-extended", "quick-mix")),
    ("numcheck.integrations_per_start", "ratio", "lower", "numcheck.trajectory", ("corpus-extended", "quick-mix")),
    ("numcheck.truncated", "count", "lower", "numcheck.trajectory", ("corpus-extended", "quick-mix")),
    ("sysspec.from_text.s", "s", "lower", "sysspec.from_text", ("quick-mix",)),
    ("sysspec.build.s", "s", "lower", "sysspec.build", ("quick-mix",)),
    ("report.run.self_s", "s", "lower", "report.run", ("quick-mix",)),
    ("trace.overhead_s", "s", "lower", "report.run", ()),
)

# Counts that must repeat exactly across runs and hash seeds.
EXACT_COUNTS = (
    "linalg.nullspace.cells",
    "groebner.normal_form.divisor_terms",
    "numcheck.trajectory.calls",
    "numcheck.truncated",
    "algorithms.chain_steps",
)


class Tracer:
    """Span store for one run.  `query_id` is None during set-up."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, query id, busy s]
        self.stack = []
        self.counts = Counter()
        self.query_id = None
        self._starts = set()
        self._reducers = {}
        self._reducer_keys = set()

    def end_query(self):
        """Fold the current query's distinct start points and reducer keys."""
        self.counts["numcheck.start_points"] += len(self._starts)
        self.counts["dynamics.monomial_terms.distinct"] += len(self._reducer_keys)
        self._starts.clear()
        self._reducers.clear()
        self._reducer_keys.clear()

    def _open(self, name):
        rec = [name, perf(), 0.0, self.stack[-1] if self.stack else -1, self.query_id, 0.0]
        self.spans.append(rec)
        return rec

    def timed(self, name, fn, count=None):
        """Wrap `fn` in a span; `count(counts, arguments)` sees its arguments."""
        sig = inspect.signature(fn) if count is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if sig is not None:
                count(self.counts, sig.bind(*args, **kwargs).arguments)
            rec = self._open(name)
            self.stack.append(len(self.spans) - 1)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[END] = perf()
                rec[BUSY] = rec[END] - rec[START]
                self.stack.pop()

        return wrapper

    def generator(self, name, fn):
        """Wrap the trajectory generator; its span adds up the time inside
        each next(), not the time to create the generator."""

        @functools.wraps(fn)
        def wrapper(field, start, horizon, step):
            rec = self._open(name)
            idx = len(self.spans) - 1
            self._starts.add(tuple(start))
            states = 0
            gen = fn(field, start, horizon, step)
            try:
                while True:
                    self.stack.append(idx)
                    t0 = perf()
                    try:
                        item = next(gen)
                    except StopIteration:
                        break
                    finally:
                        rec[BUSY] += perf() - t0
                        self.stack.pop()
                    states += 1
                    yield item
            finally:
                gen.close()
                rec[END] = perf()
                self.counts["numcheck.trajectory.steps"] += max(states - 1, 0)
                if states < max(1, round(horizon / step)) + 1:
                    self.counts["numcheck.truncated"] += 1

        return wrapper

    def reducer_calls(self, name, fn):
        """Count monomial normal-form lookups and distinct (reducer, monomial)
        keys; no span, the call is too fine-grained to time from outside."""

        @functools.wraps(fn)
        def wrapper(reducer, exps):
            self.counts[name + ".calls"] += 1
            self._reducers[id(reducer)] = reducer  # keeps the id unique per query
            self._reducer_keys.add((id(reducer), exps))
            return fn(reducer, exps)

        return wrapper


def _count_cells(counts, a):
    counts["linalg.nullspace.cells"] += len(a["rows"]) * a["width"]


def _count_divisor_terms(counts, a):
    divisors = a["divisors"]
    if not isinstance(divisors, Sequence):
        raise TypeError("normal_form divisors must be a sequence to be counted")
    # Term count of each divisor: the terms normal_form converts per call.
    counts["groebner.normal_form.divisor_terms"] += sum(len(d._terms) for d in divisors)


# (module, function, span name, argument counter or None)
FUNCTIONS = (
    ("odeinv.linalg", "nullspace", "linalg.nullspace", _count_cells),
    ("odeinv.groebner", "normal_form", "groebner.normal_form", _count_divisor_terms),
    ("odeinv.groebner", "buchberger", "groebner.buchberger", None),
    ("odeinv.groebner", "buchberger_extend", "groebner.buchberger_extend", None),
    ("odeinv.algorithms", "post", "algorithms.post", None),
    ("odeinv.algorithms", "pre", "algorithms.pre", None),
    ("odeinv.algorithms", "check_safety", "algorithms.check_safety", None),
    ("odeinv.algorithms", "check_invariant_ideal", "algorithms.check_invariant_ideal", None),
    ("odeinv.numcheck", "verify_from_analysis", "numcheck.verify", None),
    ("odeinv.report", "run", "report.run", None),
)
# (module, class, method, span name)
METHODS = (
    ("odeinv.linalg", "Subspace", "from_rows", "linalg.from_rows"),
    ("odeinv.dynamics", "Template", "compose", "dynamics.compose"),
    ("odeinv.dynamics", "Template", "lie", "dynamics.lie"),
    ("odeinv.dynamics", "Template", "reduce_by", "dynamics.reduce_by"),
    ("odeinv.algorithms", "Precondition", "analyze", "algorithms.analyze"),
    ("odeinv.sysspec", "SystemSpec", "from_text", "sysspec.from_text"),
    ("odeinv.sysspec", "SystemSpec", "build", "sysspec.build"),
)


def _bindings(orig):
    """(module, name) of every odeinv namespace that binds `orig`."""
    modules = [m for n, m in sys.modules.items() if n == "odeinv" or n.startswith("odeinv.")]
    return [(m, k) for m in modules for k, v in vars(m).items() if v is orig]


class Patches:
    """The traced replacements of every traced function and method.

    `on()` installs them and `off()` puts the originals back, so one
    process can alternate untraced and traced passes.  `names` lists what
    is patched.  A function or method that no longer exists raises here,
    so a rename in src fails the traced run instead of reading 0.
    """

    def __init__(self, tracer: Tracer):
        import odeinv.numcheck  # noqa: F401  (odeinv itself does not import it)
        import odeinv.report  # noqa: F401

        self.swaps = []  # (owner, attribute, original, traced)
        for module, attr, name, count in FUNCTIONS:
            orig = getattr(sys.modules[module], attr)
            self._rebind(orig, tracer.timed(name, orig, count))
        orig = sys.modules["odeinv.numcheck"].trajectory
        self._rebind(orig, tracer.generator("numcheck.trajectory", orig))
        for module, cls, attr, name in METHODS:
            klass = getattr(sys.modules[module], cls)
            raw = klass.__dict__[attr]
            if isinstance(raw, classmethod):
                traced = classmethod(tracer.timed(name, raw.__func__))
            else:
                traced = tracer.timed(name, raw)
            self.swaps.append((klass, attr, raw, traced))
        reducer = sys.modules["odeinv.dynamics"].GroebnerReducer
        raw = reducer.__dict__["monomial_terms"]
        self.swaps.append(
            (reducer, "monomial_terms", raw, tracer.reducer_calls("dynamics.monomial_terms", raw))
        )
        self.names = [
            f"{owner.__module__}.{owner.__name__}.{attr}" if isinstance(owner, type)
            else f"{owner.__name__}.{attr}"
            for owner, attr, _, _ in self.swaps
        ]

    def _rebind(self, orig, traced):
        for module, name in _bindings(orig):
            self.swaps.append((module, name, orig, traced))

    def on(self):
        for owner, attr, _, traced in self.swaps:
            setattr(owner, attr, traced)

    def off(self):
        for owner, attr, orig, _ in self.swaps:
            setattr(owner, attr, orig)


def layer_metrics(tracer: Tracer, passes: int, chain: Counter, scale: float):
    """Per-layer metrics from the spans and counts of `passes` traced passes.

    Self time is a span's busy time minus the busy time of its children.
    `chain` holds chain_steps, constraints and post reports seen.  Times
    are multiplied by `scale`, which turns them into reference seconds.
    """
    spans = tracer.spans
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            child[rec[PARENT]] += rec[BUSY]
    busy = defaultdict(float)
    self_s = defaultdict(float)
    calls = Counter()
    setup_busy = defaultdict(float)
    for i, rec in enumerate(spans):
        calls[rec[NAME]] += 1
        if rec[QUERY] is None:
            setup_busy[rec[NAME]] += rec[BUSY]
        else:
            busy[rec[NAME]] += rec[BUSY]
            self_s[rec[NAME]] += rec[BUSY] - child[i]
    c = tracer.counts
    calls["dynamics.monomial_terms"] = c["dynamics.monomial_terms.calls"]
    calls["algorithms.chain_trace"] = chain["post_reports"]
    pass_calls = Counter(rec[NAME] for rec in spans if rec[QUERY] is not None)
    mt_calls = c["dynamics.monomial_terms.calls"]
    starts = c["numcheck.start_points"]
    raw = {
        "linalg.nullspace.calls": pass_calls["linalg.nullspace"],
        "linalg.nullspace.s": busy["linalg.nullspace"],
        "linalg.nullspace.cells": c["linalg.nullspace.cells"],
        "linalg.from_rows.s": busy["linalg.from_rows"],
        "dynamics.compose.calls": pass_calls["dynamics.compose"],
        "dynamics.compose.s": busy["dynamics.compose"],
        "dynamics.lie.s": busy["dynamics.lie"],
        "dynamics.reduce_by.s": busy["dynamics.reduce_by"],
        "dynamics.monomial_terms.calls": mt_calls,
        "groebner.normal_form.calls": pass_calls["groebner.normal_form"],
        "groebner.normal_form.s": busy["groebner.normal_form"],
        "groebner.normal_form.divisor_terms": c["groebner.normal_form.divisor_terms"],
        "groebner.buchberger.calls": pass_calls["groebner.buchberger"],
        "groebner.buchberger.s": busy["groebner.buchberger"],
        "groebner.buchberger_extend.s": busy["groebner.buchberger_extend"],
        "algorithms.analyze.s": busy["algorithms.analyze"],
        "algorithms.post.s": busy["algorithms.post"],
        "algorithms.post.self_s": self_s["algorithms.post"],
        "algorithms.pre.s": busy["algorithms.pre"],
        "algorithms.check_safety.s": busy["algorithms.check_safety"],
        "algorithms.check_invariant_ideal.s": busy["algorithms.check_invariant_ideal"],
        "algorithms.chain_steps": chain["chain_steps"],
        "algorithms.constraints": chain["constraints"],
        "numcheck.verify.s": busy["numcheck.verify"],
        "numcheck.trajectory.calls": pass_calls["numcheck.trajectory"],
        "numcheck.trajectory.s": busy["numcheck.trajectory"],
        "numcheck.trajectory.steps": c["numcheck.trajectory.steps"],
        "numcheck.truncated": c["numcheck.truncated"],
        "sysspec.build.s": busy["sysspec.build"],
        "report.run.self_s": self_s["report.run"],
    }
    out = {k: v / passes for k, v in raw.items()}
    out["dynamics.reducer_hit_ratio"] = (
        1 - c["dynamics.monomial_terms.distinct"] / mt_calls if mt_calls else 0.0
    )
    out["numcheck.integrations_per_start"] = (
        pass_calls["numcheck.trajectory"] / starts if starts else 0.0
    )
    out["sysspec.from_text.s"] = setup_busy["sysspec.from_text"]
    for name, unit, *_ in LAYER_METRICS:
        if unit == "s" and name in out:
            out[name] *= scale
    return out, calls


def unwired(calls: Counter, workload: str):
    """Per-layer metrics whose source recorded no call on a mapped workload."""
    return [
        f"{name} (source {source})"
        for name, _, _, source, workloads in LAYER_METRICS
        if workload in workloads and not calls[source]
    ]

"""Query dispatch and report emission.

A run produces one report: a structured document (stable except for the
timing block) plus a human-readable rendering.  Reports are written
atomically so concurrent corpus runs never interleave partial files.
"""

from __future__ import annotations

import json
import os
import tempfile
import time

from . import __version__
from .algorithms import (
    FAILS,
    HOLDS,
    Precondition,
    check_invariant_ideal,
    check_safety,
    post,
    pre,
)
from .groebner import Ideal
from .numcheck import verify_from_analysis
from .poly import printed
from .sysspec import BuiltSystem, _number


def run(built: BuiltSystem, *, numeric: bool | None = None, **overrides) -> "RunReport":
    """Execute the spec's query and assemble the report.

    `numeric` forces the trajectory cross-check on or off; other keyword
    overrides replace the spec's options (max_iterations, pair_budget,
    max_degree, precondition mode).  The three caps are validated like the
    spec's own options, so a malformed one raises SpecError.
    """
    spec = built.spec
    t_start = time.perf_counter()
    caps = {
        name: _number(name, overrides[name]) if name in overrides else getattr(spec, name)
        for name in ("max_iterations", "pair_budget", "max_degree")
    }
    mode = overrides.get("mode")
    precondition = built.precondition
    if mode is not None and mode != precondition.mode:
        precondition = Precondition(precondition.generators, mode)
    gb_caps = {"pair_budget": caps["pair_budget"], "max_degree": caps["max_degree"]}

    timings = {}
    t0 = time.perf_counter()
    analysis = precondition.analyze(built.universe, **gb_caps)
    timings["precondition_analysis"] = time.perf_counter() - t0

    report = {
        "tool": "odeinv",
        "version": __version__,
        "query": spec.query_kind,
        "spec": built.canonical_echo(),
        "precondition_analysis": {
            "requested_mode": precondition.mode,
            "effective_mode": analysis.effective_mode,
            "exact": analysis.exact,
            "reduced_groebner_basis": [str(g) for g in analysis.ideal.reduced_groebner_basis()],
        },
    }

    t0 = time.perf_counter()
    exit_code = 0
    numeric_polys = []
    # pre and invariant sample their computed basis, and search its bindings
    sampled, bindings = analysis.ideal.generators, analysis.bindings
    if spec.query_kind == "post":
        res = post(analysis, built.template, built.field, **caps)
        gb = res.ideal.reduced_groebner_basis()
        instances = res.result.unit_instances()
        report["result"] = {
            "iterations": res.iterations,
            "template_parameters": len(built.template.params),
            "space_dimension": res.space.dim,
            "result_template": {
                "parameters": [p.name for p in res.result.params],
                "instances": [str(p) for p in instances],
            },
            "ideal": {
                "generator_count": res.ideal.generator_count,
                "reduced_groebner_basis": [str(g) for g in gb],
            },
            "chain_trace": list(res.trace),
            "weakest_precondition": {
                "applies": res.analysis.exact,
                "note": (
                    "the ideal's variety is the weakest precondition of the "
                    "result template's variety, and the largest algebraic "
                    "invariant inside it"
                    if res.analysis.exact
                    else "sound mode only: inclusions hold, maximality is not guaranteed"
                ),
            },
        }
        numeric_polys = [p for p in instances if not p.is_zero()]
        numeric_polys += [g for g in gb if g not in numeric_polys]
    elif spec.query_kind == "pre":
        res = pre(built.polynomials, built.field, **caps)
        gb = res.ideal.reduced_groebner_basis()
        numeric_polys = res.ideal.instances()
        report["result"] = {
            "iterations": res.iterations,
            "derivative_closure": [str(p) for p in numeric_polys],
            "ideal": {
                "generator_count": res.ideal.generator_count,
                "reduced_groebner_basis": [str(g) for g in gb],
            },
        }
        sampled, bindings = gb, None
    elif spec.query_kind == "check":
        res = check_safety(analysis, built.polynomials, built.field, **caps)
        witness = None
        if res.witness is not None:
            point = res.witness["point"]
            witness = {
                "point": {s.name: printed(point[s]) for s in built.universe.symbols},
                "polynomial": str(res.witness["polynomial"]),
                "derivative_order": res.witness["derivative_order"],
                "value": printed(res.witness["value"]),
            }
        report["result"] = {
            "verdict": res.verdict,
            "iterations": res.post_result.iterations,
            "space_dimension": res.post_result.space.dim,
            "template_parameters": len(res.postcondition),
            "witness": witness,
        }
        exit_code = {HOLDS: 0, FAILS: 1}.get(res.verdict, 2)
        if res.verdict == HOLDS:
            numeric_polys = list(res.postcondition)
    else:  # invariant
        ideal = Ideal(built.universe, built.polynomials, **gb_caps)
        ok = check_invariant_ideal(ideal, built.field)
        gb = ideal.reduced_groebner_basis()
        report["result"] = {
            "invariant": ok,
            "reduced_groebner_basis": [str(g) for g in gb],
        }
        exit_code = 0 if ok else 1
        numeric_polys = list(gb)
        sampled, bindings = gb, None
    timings["query"] = time.perf_counter() - t0

    run_numeric = spec.numeric.enabled if numeric is None else numeric
    if run_numeric:
        t0 = time.perf_counter()
        records, note = verify_from_analysis(
            numeric_polys, built.field, sampled, spec.numeric, bindings
        )
        # a check skipped with a note neither passed nor failed
        ok = None if note else all(r["passed"] for r in records)
        report["numeric_check"] = {
            "passed": ok,
            "checked": len(records),
            "note": note,
            "failures": [r for r in records if not r["passed"]],
        }
        timings["numeric_check"] = time.perf_counter() - t0
        if ok is False and exit_code == 0:
            exit_code = 1
    timings["total"] = time.perf_counter() - t_start
    report["timings"] = {k: round(v, 6) for k, v in timings.items()}
    return RunReport(report, exit_code)


class RunReport:
    """Structured report plus exit status."""

    def __init__(self, data: dict, exit_code: int):
        self.data = data
        self.exit_code = exit_code

    def comparable(self) -> dict:
        return strip_timings(self.data)

    def write(self, path):
        write_json_atomic(path, self.data)

    def human_text(self) -> str:
        d = self.data
        lines = [f"{d['spec']['name']}: {d['query']} query"]
        pa = d["precondition_analysis"]
        lines.append(
            f"  precondition mode: {pa['effective_mode']}"
            f" ({'exact' if pa['exact'] else 'sound only'})"
        )
        r = d["result"]
        q = d["query"]
        if q == "post":
            lines.append(
                f"  stabilized at m={r['iterations']}; valuation space dimension "
                f"{r['space_dimension']} of {r['template_parameters']}"
            )
            lines.append("  result template instances:")
            for inst in r["result_template"]["instances"] or ["0"]:
                lines.append(f"    {inst}")
            lines.append("  invariant ideal reduced Groebner basis:")
            for g in r["ideal"]["reduced_groebner_basis"] or ["0"]:
                lines.append(f"    {g}")
            if r["weakest_precondition"]["applies"]:
                lines.append(f"  note: {r['weakest_precondition']['note']}")
        elif q == "pre":
            lines.append(f"  stabilized at m={r['iterations']}")
            lines.append("  weakest precondition ideal reduced Groebner basis:")
            for g in r["ideal"]["reduced_groebner_basis"] or ["0"]:
                lines.append(f"    {g}")
        elif q == "check":
            lines.append(f"  verdict: {r['verdict']} (m={r['iterations']})")
            if r["witness"]:
                w = r["witness"]
                lines.append(
                    f"  witness: {w['polynomial']} has derivative of order "
                    f"{w['derivative_order']} equal to {w['value']} at "
                    + ", ".join(f"{k}={v}" for k, v in w["point"].items())
                )
        else:
            lines.append(f"  invariant ideal: {r['invariant']}")
        nc = d.get("numeric_check")
        if nc and nc["passed"] is None:
            lines.append(f"  numeric cross-check: skipped ({nc['note']})")
        elif nc:
            status = "passed" if nc["passed"] else "FAILED"
            lines.append(f"  numeric cross-check: {status}, {nc['checked']} checks")
        return "\n".join(lines) + "\n"


def strip_timings(data: dict) -> dict:
    out = dict(data)
    out.pop("timings", None)
    return out


def write_json_atomic(path, data: dict):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=2, sort_keys=False)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def lie_chain(built: BuiltSystem, steps: int):
    """Debug view: iterated Lie derivatives of the query's polynomials, or
    of the template when the query carries one."""
    from .dynamics import lie_derivative

    steps = _number("steps", steps)

    chains = []
    if built.template is not None:
        t = built.template
        chain = [str(t)]
        for _ in range(steps):
            t = t.lie(built.field)
            chain.append(str(t))
        chains.append({"subject": "template", "chain": chain})
    else:
        for p in built.polynomials:
            q = p
            chain = [str(q)]
            for _ in range(steps):
                q = lie_derivative(q, built.field)
                chain.append(str(q))
            chains.append({"subject": str(p), "chain": chain})
    return chains

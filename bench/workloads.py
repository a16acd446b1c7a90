"""Benchmark workloads: odeinv queries made from the bundled corpus and a
seed, and the check that each query's report is correct.

Every workload is built in memory from `src/odeinv/corpus/*.yaml`; no data
file is added.  Each query is one spec text; run.py parses it once at
set-up and builds and runs it on every pass.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from fractions import Fraction
from pathlib import Path

import yaml

QUICK = (
    "ghost-post",
    "running-check",
    "running-check-corrupted",
    "running-invariant",
    "running-post",
    "running-pre",
    "running-unconstrained",
)
EXTENDED = ("airplane-vertical", "collision-avoidance")

# Why each workload is in the benchmark; BENCHMARK.json carries the same text.
WHY = {
    "corpus-extended": (
        "the two case studies with the RK4 numeric check on, start points "
        "drawn from the seed; numcheck is about 73% of it, the degree-2 chain "
        "the rest"
    ),
    "stress-deg3": (
        "collision-avoidance at template degree 3, numeric check off; "
        "nullspace and Template.compose dominate, the target of the "
        "integer-native post chain"
    ),
    "kepler": (
        "kepler as bundled, generators mode, degree-4 template; the only "
        "workload where groebner normal forms dominate"
    ),
    "quick-mix": (
        "the 7 quick entries of all four query kinds in seeded order; many "
        "tiny queries, so per-call fixed costs and set-up dominate"
    ),
}
WORKLOADS = tuple(WHY)

# Small rationals for the free variables of seeded start points.
POOL = tuple(sorted({Fraction(n, d) for d in (1, 2, 3, 4) for n in range(-3, 4) if n}))
POINTS_PER_ENTRY = 5


class Query:
    """One spec text and the check of the report it must produce.

    `check(report)` returns None when the report is right, else a message.
    """

    __slots__ = ("name", "text", "check")

    def __init__(self, name, text, check):
        self.name = name
        self.text = text
        self.check = check


def digest(data: dict) -> str:
    """SHA-256 of a report's comparable block, independent of key order."""
    blob = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def make(workload: str, seed: int, corpus_dir: Path, refs: dict):
    """Queries of a workload and whether each pass shuffles their order."""
    rng = random.Random(seed)

    def text(name):
        return (corpus_dir / f"{name}.yaml").read_text(encoding="utf-8")

    def pinned(name):
        path = corpus_dir / "expected" / f"{name}.json"
        return json.loads(path.read_text(encoding="utf-8"))

    if workload == "corpus-extended":
        queries = []
        for name in EXTENDED:
            data = yaml.safe_load(text(name))
            data["numeric_check"]["points"] = start_points(data, rng)
            queries.append(
                Query(name, yaml.safe_dump(data, sort_keys=False), _check_extended(pinned(name)))
            )
        return queries, False
    if workload == "stress-deg3":
        data = yaml.safe_load(text("collision-avoidance"))
        data["query"]["template"]["degree"] = 3
        data["numeric_check"]["enabled"] = False
        check = _check_digest(refs["digests"]["stress-deg3"])
        return [Query("collision-avoidance-deg3", yaml.safe_dump(data, sort_keys=False), check)], False
    if workload == "kepler":
        return [Query("kepler", text("kepler"), _check_digest(refs["digests"]["kepler"]))], False
    if workload == "quick-mix":
        queries = [
            Query(name, text(name), _check_pinned(pinned(name), refs["exit_codes"][name]))
            for name in QUICK
        ]
        return queries, True
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def start_points(data: dict, rng: random.Random, count: int = POINTS_PER_ENTRY):
    """Seeded start points on a precondition made of bindings `v` or `v - w`.

    Free variables draw from POOL; each bound variable takes the value of
    its right-hand side, which is a free variable or a number.
    """
    bound = {}
    for g in data["precondition"]["generators"]:
        m = re.fullmatch(r"(\w+)(?: - (\w+))?", g.strip())
        if m is None:
            raise ValueError(f"precondition generator {g!r} is not a binding")
        bound[m.group(1)] = m.group(2) or "0"
    free = [v for v in data["variables"] if v not in bound]
    points = []
    for _ in range(count):
        point = {v: rng.choice(POOL) for v in free}
        for var, rhs in bound.items():
            point[var] = point[rhs] if rhs in point else Fraction(rhs)
        points.append({v: str(point[v]) for v in data["variables"]})
    return points


def _check_extended(expected):
    """Every block but numeric_check equals the pinned report; the check passed."""
    want = {k: v for k, v in expected.items() if k != "numeric_check"}

    def check(rep):
        data = rep.comparable()
        if {k: v for k, v in data.items() if k != "numeric_check"} != want:
            return "report differs from the pinned report"
        if not data.get("numeric_check", {}).get("passed"):
            return "numeric check did not pass"
        if rep.exit_code != 0:
            return f"exit code {rep.exit_code}, expected 0"
        return None

    return check


def _check_digest(expected):
    def check(rep):
        if rep.exit_code != 0:
            return f"exit code {rep.exit_code}, expected 0"
        got = digest(rep.comparable())
        return None if got == expected else f"report digest {got[:12]} != {expected[:12]}"

    return check


def _check_pinned(expected, code):
    def check(rep):
        if rep.exit_code != code:
            return f"exit code {rep.exit_code}, expected {code}"
        return None if rep.comparable() == expected else "report differs from the pinned report"

    return check

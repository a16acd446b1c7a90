"""Self-tests of the benchmark (not of odeinv).  Run from a checkout root:

    python3 bench/selftest.py                  # every workload, a few minutes
    python3 bench/selftest.py kepler quick-mix # a subset

1. names: run.py prints exactly the metrics and workloads BENCHMARK.json lists.
2. wrong references: in a copy of the checkout whose references.json is
   corrupted, failed_ratio is nonzero.
3. wiring: a traced run of each workload records a call on every per-layer
   metric mapped to it (run.py exits 1 otherwise).
4. exact counts: the counts in tracing.EXACT_COUNTS repeat across two traced
   runs, one under PYTHONHASHSEED=1 and one under PYTHONHASHSEED=12345.
5. bare directory: with only BENCHMARK.json and bench/, run.py exits nonzero
   without printing a result.

Exits 0 when every check passes; prints each failure otherwise.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SECONDS = "1"


def run(workload, trace, *, cwd=ROOT, env=None):
    """(exit code, detail, result) of one short run.py invocation."""
    cmd = [sys.executable, str(Path(cwd) / "bench" / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", SECONDS, "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=cwd, env={**os.environ, **(env or {})},
                          capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        return proc.returncode, proc.stderr.strip(), None
    return proc.returncode, json.loads(lines[-2])["detail"], json.loads(lines[-1])


def main(argv) -> int:
    chosen = argv or list(workloads.WORKLOADS)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []

    def expect(ok, message):
        print(("ok   " if ok else "FAIL ") + message, flush=True)
        if not ok:
            problems.append(message)

    # 1. names
    expect({w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS),
           "BENCHMARK.json workloads are workloads.WORKLOADS")
    expect(all(w["why"] == workloads.WHY[w["name"]] for w in spec["workloads"]),
           "BENCHMARK.json workload reasons match workloads.WHY")
    expect([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
           == [row[:3] for row in tracing.LAYER_METRICS],
           "BENCHMARK.json per_layer matches tracing.LAYER_METRICS")
    e2e = [m["name"] for m in spec["end_to_end"]]

    # 2. wrong references, in a copy of the checkout
    refs = json.loads((BENCH / "references.json").read_text())
    refs["digests"]["kepler"] = "0" * 64
    refs["exit_codes"]["running-check-corrupted"] = 0
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench_selftest") as tmp:
        skip = shutil.ignore_patterns("__pycache__", "*.egg-info")
        shutil.copytree(BENCH, Path(tmp) / "bench", ignore=skip)
        shutil.copytree(ROOT / "src", Path(tmp) / "src", ignore=skip)
        (Path(tmp) / "bench" / "references.json").write_text(json.dumps(refs))
        for workload in ("kepler", "quick-mix"):
            code, detail, result = run(workload, 0, cwd=tmp)
            expect(result is not None and detail["failed_ratio"] > 0 and not result["correct"],
                   f"{workload}: wrong reference gives failed_ratio > 0 "
                   f"({detail['failed_ratio'] if result else detail})")

    # 3 and 4. wiring and exact counts
    for workload in chosen:
        code, detail, result = run(workload, 0)
        expect(result is not None and list(result["metrics"]) == e2e and result["failed"] == 0,
               f"{workload}: untraced run passes and names every end_to_end metric")
        counts = []
        for hashseed in ("1", "12345"):
            code, detail, result = run(workload, 1, env={"PYTHONHASHSEED": hashseed})
            names = [m["name"] for m in spec["per_layer"]]
            expect(result is not None and list(result["metrics"]) == names and result["failed"] == 0,
                   f"{workload}: traced run under PYTHONHASHSEED={hashseed} is wired "
                   f"and names every per_layer metric{'' if result else ': ' + str(detail)}")
            if result is not None:
                counts.append({k: result["metrics"][k]["value"] for k in tracing.EXACT_COUNTS})
        if len(counts) == 2:
            expect(counts[0] == counts[1], f"{workload}: exact counts repeat {counts[0]}"
                   + ("" if counts[0] == counts[1] else f" vs {counts[1]}"))

    # 5. bare directory
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench_selftest") as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(BENCH, Path(tmp) / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, detail, result = run("quick-mix", 0, cwd=tmp)
        expect(code != 0 and result is None, f"bare directory: run.py exits {code} without a result")

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""odeinv benchmark: exact post/pre/check/invariant answers, from spec text
to a checked report, on workloads made from the bundled corpus.

Run from the root of a checkout:

    python3 bench/run.py --workload quick-mix --seed 1 --seconds 10 --trace 0

One process runs one workload as a closed loop with a single client: the
next query starts only when the previous report is done and checked.  A
pass runs every query of the workload once; passes repeat until --seconds
have elapsed (at least one pass).

--trace 0 prints the end-to-end metrics, measured untraced:

  setup_s         time from the start of a fresh child process until
                  `import odeinv` and parsing and building every spec of the
                  workload are done: what a CLI user pays on every call.
                  Median over SETUP_PROBES children.
  total_s         report.run wall time of one pass over the workload;
                  median over the passes of the run.
  query_s         precondition_analysis + query of one pass, from the
                  reports' own timings: the exact symbolic part; median
                  over the passes.
  latency_p50_ms, latency_p90_ms
                  build + report.run of one query.  Each query's latency is
                  its median over the passes; p50 and p90 are taken over
                  those per-query medians (7 on quick-mix, 1 on kepler,
                  where both equal the median latency).  A p90 over every
                  sample would rest on only 15-40 samples of kepler's one
                  query, whose tail is set by the machine's speed flips
                  (spread 0.10 over 10 seeds), not by odeinv.
  peak_rss_mb     ru_maxrss of this process.

Every time is in reference seconds: the time the work would take on a
machine where the fixed pure-Python loop `reference.reference_loop` takes
REFERENCE_S.  Each pass is multiplied by REFERENCE_S over the loop's time
just before and just after it.  Each set-up probe is multiplied by
NULL_PROBE_S over the time of NULL_PROBE, a fresh interpreter that runs the
loop instead of odeinv, just before and just after it: process start and
imports slow down less than the loop in a slow spell.  On a shared 2-vCPU
Xeon the speed of the whole machine flipped between two states about 1.8x
apart, each lasting from a fraction of a second to minutes.  The process's
CPU time followed wall time within 2%, so it does not help.  In six 40 s
runs of kepler the fastest report.run ranged 0.92-1.50 s, while the median
of the scaled times ranged 0.99-1.03 reference seconds.  In eight rounds of
20 quick-mix set-up probes, the median set-up over the null probe ranged
1.52-1.58, while set-up scaled by the loop ranged 0.072-0.090 s.  The
unscaled wall times are in the details.

--trace 1 alternates untraced passes and traced passes, which run with
spans around each layer's public functions (see tracing.py), and prints the
per-layer metrics plus the tracing overhead: the median traced total_s minus
the median untraced total_s of the same run.

The last stdout line is the result object; the line before it holds the
details: machine, load, seed, source digest, sample counts, unscaled times,
numeric-check time and failures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import tracing
import workloads
from reference import reference_time

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_PROBES = 20
# Time of reference_loop, and of NULL_PROBE, on an uncontended core of the
# 2.1 GHz Xeon the benchmark was written on (CPython 3.11); times are
# scaled to that speed.
REFERENCE_S = 0.015
NULL_PROBE_S = 0.060

perf = time.perf_counter

# Runs in a fresh interpreter: the set-up a CLI user pays before report.run.
PROBE = """\
import json, sys
texts = json.loads(sys.stdin.read())
sys.path.insert(0, sys.argv[1])
from odeinv import SystemSpec
for text in texts:
    SystemSpec.from_text(text).build()
print("ready", flush=True)
"""
# The same start, read and print around the reference loop instead of
# odeinv: set-up is mostly interpreter start and imports, which a slow spell
# of the machine slows less than pure computation.
NULL_PROBE = """\
import sys
sys.stdin.read()
sys.path.insert(0, sys.argv[1])
from reference import reference_loop
reference_loop()
print("ready", flush=True)
"""


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def fail(self, name, message):
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(f"{name}: {message}")


class Passes:
    """Scaled timings of the passes of one phase (untraced or traced)."""

    def __init__(self):
        self.scales = []  # REFERENCE_S / reference time around each pass
        self.run = []  # report.run wall time of each pass
        self.wall = []  # the same, unscaled
        self.query = []  # precondition_analysis + query of each pass
        self.numeric = []  # numeric_check of each pass
        self.latency = defaultdict(list)  # build + report.run, per query
        self.chain = Counter()

    @property
    def count(self):
        return len(self.run)

    def add(self, rows, scale):
        """Fold one pass's (name, latency, run, query, numeric) rows into the
        phase."""
        self.scales.append(scale)
        self.wall.append(sum(r[2] for r in rows))
        self.run.append(self.wall[-1] * scale)
        self.query.append(sum(r[3] for r in rows) * scale)
        self.numeric.append(sum(r[4] for r in rows) * scale)
        for r in rows:
            self.latency[r[0]].append(r[1] * scale)


def run_pass(order, specs, tally, chain, tracer=None):
    """Run each query once and check it; the name and (latency, run, query,
    numeric) seconds of every query that returned a report."""
    from odeinv import report

    rows = []
    for q in order:
        tally.attempted += 1
        if tracer is not None:
            tracer.query_id = tally.attempted
        try:
            t0 = perf()
            built = specs[q.name].build()
            t1 = perf()
            rep = report.run(built)
            t2 = perf()
            error = q.check(rep)
        except Exception as exc:  # a raising query is a failed query
            tally.fail(q.name, f"{type(exc).__name__}: {exc}")
            continue
        finally:
            if tracer is not None:
                tracer.end_query()
        if error is not None:
            tally.fail(q.name, error)
        timings = rep.data["timings"]
        rows.append((
            q.name,
            t2 - t0,
            t2 - t1,
            timings["precondition_analysis"] + timings["query"],
            timings.get("numeric_check", 0.0),
        ))
        trace = rep.data.get("result", {}).get("chain_trace")
        if trace is not None:
            chain["post_reports"] += 1
            chain["chain_steps"] += len(trace)
            chain["constraints"] += sum(e["constraints"] for e in trace)
    return rows


def measure(queries, shuffle, specs, rng, seconds, tally, patches=None, tracer=None):
    """Passes over the workload until `seconds` have elapsed, each scaled by
    the reference times just before and after it.  With `patches`, passes
    alternate untraced and traced.  Returns (untraced, traced) Passes."""
    phases = (Passes(), Passes())
    before = reference_time()
    start = perf()
    n = 0
    while n < (1 if patches is None else 2) or perf() - start < seconds:
        traced = patches is not None and n % 2 == 1
        order = list(queries)
        if shuffle:
            rng.shuffle(order)
        phase = phases[traced]
        if traced:
            patches.on()
            try:
                rows = run_pass(order, specs, tally, phase.chain, tracer)
            finally:
                patches.off()
        else:
            rows = run_pass(order, specs, tally, phase.chain)
        after = reference_time()
        phase.add(rows, REFERENCE_S / ((before + after) / 2))
        before = after
        n += 1
    return phases


def probe(code, arg, payload):
    """Seconds from starting `code` in a fresh interpreter until it prints
    its ready line."""
    t0 = perf()
    with subprocess.Popen(
        [sys.executable, "-c", code, arg],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
    ) as proc:
        proc.stdin.write(payload)
        proc.stdin.close()
        line = proc.stdout.readline()
        elapsed = perf() - t0
        proc.stdout.read()
        status = proc.wait(timeout=120)
    if line.strip() != "ready" or status != 0:
        raise RuntimeError(f"set-up probe exited with code {status}")
    return elapsed


def measure_setup(texts, probes):
    """Scaled set-up times of `probes` fresh processes, each scaled by the
    null probes just before and after it, after one unmeasured warm-up
    probe (it writes the bytecode cache).  Also returns the null times."""
    payload = json.dumps(texts)
    probe(PROBE, str(SRC), payload)
    nulls = [probe(NULL_PROBE, str(BENCH), payload)]
    samples = []
    for _ in range(probes):
        elapsed = probe(PROBE, str(SRC), payload)
        nulls.append(probe(NULL_PROBE, str(BENCH), payload))
        samples.append(elapsed * NULL_PROBE_S / ((nulls[-2] + nulls[-1]) / 2))
    return samples, nulls


def percentiles(values):
    """(p50, p90) with linear interpolation; one sample gives itself."""
    if len(values) < 2:
        return (values or [0.0]) * 2
    q = statistics.quantiles(values, n=10, method="inclusive")
    return q[4], q[8]


def loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def source_identity():
    """Commit when the checkout is a git repository, and a digest of src."""
    h = hashlib.sha256()
    for path in sorted(p for p in SRC.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        if "egg-info" in str(path):
            continue
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        res = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        if res.returncode == 0:
            commit = res.stdout.strip()
    return commit, h.hexdigest()


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "odeinv" / "__init__.py").is_file():
        print(f"error: no odeinv sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    load_start = loadavg()
    refs = json.loads((BENCH / "references.json").read_text(encoding="utf-8"))
    rng = random.Random(args.seed)
    queries, shuffle = workloads.make(
        args.workload, args.seed, SRC / "odeinv" / "corpus", refs
    )

    texts = [q.text for q in queries]
    setup, nulls = ([], []) if args.trace else measure_setup(texts, SETUP_PROBES)
    import odeinv
    from odeinv import SystemSpec

    if not Path(odeinv.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported odeinv from {odeinv.__file__}, not {SRC}", file=sys.stderr)
        return 2

    tally = Tally()
    tracer = patches = None
    if args.trace:
        tracer = tracing.Tracer()
        patches = tracing.Patches(tracer)
        patches.on()  # spans of the set-up feed sysspec.from_text.s
    try:
        specs = {q.name: SystemSpec.from_text(q.text) for q in queries}
        for spec in specs.values():
            spec.build()
    finally:
        if patches is not None:
            patches.off()
    plain, traced = measure(queries, shuffle, specs, rng, args.seconds, tally, patches, tracer)

    commit, src_digest = source_identity()
    total_s = statistics.median(plain.run)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "loadavg_start": load_start,
        "commit": commit,
        "src_sha256": src_digest,
        "client": "closed loop, 1 client",
        "reference_s": REFERENCE_S,
        "speed_median": statistics.median(plain.scales),
        "passes": plain.count,
        "queries_per_pass": len(queries),
        "wall_total_s_median": statistics.median(plain.wall),
        "wall_total_s_min": min(plain.wall),
        "numeric_s": statistics.median(plain.numeric),
    }
    if args.trace:
        values, calls = tracing.layer_metrics(
            tracer, traced.count, traced.chain, statistics.fmean(traced.scales)
        )
        values["trace.overhead_s"] = statistics.median(traced.run) - total_s
        detail.update(
            patched=patches.names,
            traced_passes=traced.count,
            untraced_total_s=total_s,
            traced_total_s=statistics.median(traced.run),
            spans=len(tracer.spans),
        )
        missing = tracing.unwired(calls, args.workload)
        if missing:
            print("error: per-layer metrics recorded no call: " + ", ".join(missing),
                  file=sys.stderr)
            return 1
        units = {name: unit for name, unit, *_ in tracing.LAYER_METRICS}
        metrics = {name: metric(values[name], units[name]) for name in units}
    else:
        p50, p90 = percentiles([statistics.median(v) for v in plain.latency.values()])
        detail.update(
            latency_values=len(plain.latency),
            latency_samples_per_value=[len(v) for v in plain.latency.values()],
            setup_samples_s=setup,
            null_probe_s_median=statistics.median(nulls),
        )
        metrics = {
            "setup_s": metric(statistics.median(setup), "s"),
            "total_s": metric(total_s, "s"),
            "query_s": metric(statistics.median(plain.query), "s"),
            "latency_p50_ms": metric(p50 * 1e3, "ms"),
            "latency_p90_ms": metric(p90 * 1e3, "ms"),
            "peak_rss_mb": metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"
            ),
        }
    detail.update(
        attempted=tally.attempted,
        failed=tally.failed,
        failed_ratio=tally.failed / tally.attempted,
        errors=tally.errors,
        loadavg_end=loadavg(),
    )
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's per-layer tracing still reaches every layer it names.

`bench/tracing.py` patches odeinv functions and methods by name; a rename
or a call path that no longer passes through a traced function would make
a per-layer metric read 0.  This runs traced kepler, quick-mix and
stress-deg3 queries in process.
"""

import importlib.util
from collections import Counter
from pathlib import Path

from odeinv import report
from oracles import entry_names, load_entry, stress_entry

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _unwired(workload, names, load=load_entry, **settings):
    """Layers mapped to `workload` that a traced run of the corpus entries
    `names`, each parsed by `load` with `settings` overridden, leaves
    without a call, apart from algorithms.chain_trace, which run.py counts
    from the reports, not from a span."""
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    patches = tracing.Patches(tracer)
    patches.on()
    try:
        for name in names:
            spec = load(name)
            spec.override(**settings)
            report.run(spec.build())
    finally:
        patches.off()
    _, calls = tracing.layer_metrics(tracer, 1, Counter(), 1.0)
    unwired = tracing.unwired(calls, workload)
    return [u for u in unwired if "(source algorithms.chain_trace)" not in u]


def test_traced_kepler_run_reaches_every_mapped_layer():
    assert _unwired("kepler", ["kepler"], numeric=False) == []


def test_traced_quick_mix_run_reaches_every_mapped_layer():
    # the numeric check runs as bundled, so every numcheck.* metric needs
    # check_invariants to call the module-level trajectory
    quick = entry_names("quick")
    assert len(quick) == 7
    assert _unwired("quick-mix", quick) == []


def test_traced_stress_deg3_run_reaches_every_mapped_layer():
    # collision-avoidance at template degree 3, numeric check off, as
    # bench/workloads.py builds it
    def load(name):
        return stress_entry(name, 3)

    assert _unwired("stress-deg3", ["collision-avoidance"], load) == []

"""The benchmark's per-layer tracing still reaches every layer it names.

`bench/tracing.py` patches odeinv functions and methods by name; a rename
or a call path that no longer passes through a traced function would make
a per-layer metric read 0.  This runs one traced kepler query in process.
"""

import importlib.util
from collections import Counter
from pathlib import Path

from odeinv import corpus, report

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_kepler_run_reaches_every_mapped_layer():
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    patches = tracing.Patches(tracer)
    built = corpus.load("kepler").build()
    patches.on()
    try:
        report.run(built, numeric=False)
    finally:
        patches.off()
    _, calls = tracing.layer_metrics(tracer, 1, Counter(), 1.0)
    # run.py counts algorithms.chain_trace from the reports, not from a span
    unwired = tracing.unwired(calls, "kepler")
    assert [u for u in unwired if "(source algorithms.chain_trace)" not in u] == []

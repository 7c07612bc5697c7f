"""The benchmark's per-layer tracer resolves every library name it wraps.

``bench/tracing.py`` looks its targets up by name, so a library change that
deletes or renames one of them breaks the traced benchmark run. The
benchmark's own tests sit outside this suite's test paths; this test reads
``bench/`` only and fails here first.
"""
from pathlib import Path

import mvmodal.semantics

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_tracer_installs_and_uninstalls_on_the_library(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    eval_model = mvmodal.semantics.eval_model
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert mvmodal.semantics.eval_model is not eval_model
    finally:
        tracer.uninstall()
    assert mvmodal.semantics.eval_model is eval_model

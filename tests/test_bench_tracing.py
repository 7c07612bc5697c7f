"""The benchmark's per-layer tracer resolves every library name it wraps.

``bench/tracing.py`` looks its targets up by name, so a library change that
deletes or renames one of them breaks the traced benchmark run. The
benchmark's own tests sit outside this suite's test paths; this test reads
``bench/`` only and fails here first.
"""
from pathlib import Path

import pytest

import mvmodal.semantics
from mvmodal import Distribution, FuzzyHom, Neighborhood, Powerset, Selection

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


@pytest.mark.parametrize("cls", [Powerset, FuzzyHom, Neighborhood, Selection, Distribution],
                         ids=lambda cls: cls.__name__)
def test_tracer_wraps_each_functors_own_codecs(monkeypatch, cls):
    """The tracer wraps ``*.decode``/``*.encode`` only where a class's own
    vars() hold them, so a codec moved onto a shared base class would leave
    the functors.decode/encode counters reading 0 for its subclasses."""
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    raw = {meth: vars(cls)[meth] for meth in ("decode", "encode")}
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for meth, fn in raw.items():
            assert getattr(vars(cls)[meth], "__wrapped__", None) is fn, meth
    finally:
        tracer.uninstall()
    assert {meth: vars(cls)[meth] for meth in raw} == raw

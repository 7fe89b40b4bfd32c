"""The benchmark's traced spans name functions that the library still has.

``perfbench/tracing.py`` wraps library functions by name; a renamed or
deleted one makes ``Instrumentation`` fail and every traced benchmark op
with it. This test only reads ``perfbench/``.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_resolves_to_a_library_callable(tracing):
    missing = [
        f"evidential_magdm.{home}.{function}"
        for home, functions in tracing.SPANS.values()
        for function in functions
        if not callable(getattr(importlib.import_module(f"evidential_magdm.{home}"), function, None))
    ]
    assert not missing


def test_per_layer_spans_are_declared(tracing):
    assert set(tracing.EVERY_WORKLOAD) <= set(tracing.SPANS)


def test_instrumentation_installs_and_restores(tracing):
    from evidential_magdm import pipeline

    original = pipeline.run_pipeline
    tracer = tracing.Tracer()
    with tracing.Instrumentation(tracer):
        assert pipeline.run_pipeline is not original
    assert pipeline.run_pipeline is original

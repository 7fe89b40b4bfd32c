"""The benchmark's traced spans name functions that the library still has.

``perfbench/tracing.py`` wraps library functions by name; a renamed or
deleted one makes ``Instrumentation`` fail and every traced benchmark op
with it. The stages from memberships to profiles take the whole expert
group, so each of their spans records one call per ``run_pipeline``;
the pair stage records one call per expert pair, and feature fusion
runs the counts that ``FusionWide.expected`` states. These tests only read ``perfbench/``.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
# stages that take the whole expert group: one span per run_pipeline
GROUP_STAGES = (
    "linguistic.membership_matrix",
    "linguistic.bpa_tensor",
    "pipeline.ordered_weighted_belief",
    "pipeline.ordered_weighted_plausibility",
    "pipeline.expert_wpbl",
)


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    return spec, importlib.util.module_from_spec(spec)


@pytest.fixture(scope="module")
def tracing():
    spec, module = load("tracing")
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


@pytest.mark.parametrize("with_ranking", [True, False])
def test_per_expert_stages_run_once_per_pipeline(tracing, with_ranking):
    from evidential_magdm import pipeline
    from evidential_magdm.linguistic import DecisionMatrix

    rng = np.random.default_rng(0)
    matrices = [DecisionMatrix(f"e{e}", rng.uniform(1, 9, size=(6, 3))) for e in range(4)]
    tracer = tracing.Tracer()
    with tracing.Instrumentation(tracer):
        pipeline.run_pipeline(matrices, with_ranking=with_ranking)
    calls = {name: row["calls"] for name, row in tracing.summarize(tracer.spans).items()}
    for stage in GROUP_STAGES:
        assert calls[stage] == 1
    for stage in ("linguistic.normalize_decision_matrix", "pipeline.fuse"):
        assert calls.get(stage, 0) == (1 if with_ranking else 0)


def test_pair_divergence_runs_once_per_pair_on_the_profiles(tracing):
    # the benchmark counts one pairwise_divergence span per expert pair and
    # reads the cells from its first positional argument, the (p, q) profile
    from evidential_magdm import pipeline
    from evidential_magdm.linguistic import DecisionMatrix

    k, p, q = 6, 7, 3
    rng = np.random.default_rng(1)
    matrices = [DecisionMatrix(f"e{e}", rng.uniform(1, 9, size=(p, q))) for e in range(k)]
    tracer = tracing.Tracer()
    with tracing.Instrumentation(tracer):
        pipeline.run_pipeline(matrices)
    calls = {name: row["calls"] for name, row in tracing.summarize(tracer.spans).items()}
    assert calls["pipeline.pairwise_divergence"] == 15
    assert tracer.cells == 15 * p * q


def test_fusion_blocks_run_the_counts_the_benchmark_states(tracing, monkeypatch):
    # FusionWide.expected on 32 dimensions instead of 256: 4 blocks of k = 3
    from evidential_magdm import fusion

    spec, workloads = load("workloads")
    monkeypatch.setitem(sys.modules, "tracing", tracing)  # workloads imports it by name
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    workload = workloads.FusionWide()
    workload.n_dims = 32
    item = workload.pool(0, None)[0]
    tracer = tracing.Tracer()
    with tracing.Instrumentation(tracer):
        fusion.estimate_fusion_weights(item, workload.config)
    calls = {name: row["calls"] for name, row in tracing.summarize(tracer.spans).items()}
    expected = workload.expected(item)
    cells = expected.pop(tracing.CELLS)
    assert expected == {"pipeline.run_pipeline": 4, "pipeline.owa_weights": 4, "pipeline.pairwise_divergence": 12}
    assert cells == 12 * 240 * 8
    assert {name: calls.get(name, 0) for name in expected} == expected
    assert tracer.cells == cells
    for stage in GROUP_STAGES:
        assert calls[stage] == 4

"""Span tracing installed from outside the library.

``Instrumentation`` swaps the public functions of the timed modules for
wrappers that record one span per call. A wrapper is set on every
``evidential_magdm`` module namespace that holds the original function
object, so a call reaches it whichever module makes the call:
``run_pipeline`` finds its stages in ``evidential_magdm.pipeline``,
``estimate_fusion_weights`` finds ``run_pipeline`` in
``evidential_magdm.fusion``, the CLI finds ``dataio`` and ``report``
functions as module attributes. No library file is edited; leaving the
``with`` block puts the originals back.
"""

from __future__ import annotations

import importlib
import sys
import time

# span name -> (module, public functions recorded under that name)
SPANS = {
    "linguistic.normalize_decision_matrix": ("linguistic", ("normalize_decision_matrix",)),
    "linguistic.membership_matrix": ("linguistic", ("membership_matrix",)),
    "linguistic.bpa_tensor": ("linguistic", ("bpa_tensor",)),
    "pipeline.run_pipeline": ("pipeline", ("run_pipeline",)),
    "pipeline.owa_weights": ("pipeline", ("owa_weights",)),
    "pipeline.ordered_weighted_belief": ("pipeline", ("ordered_weighted_belief",)),
    "pipeline.ordered_weighted_plausibility": ("pipeline", ("ordered_weighted_plausibility",)),
    "pipeline.expert_wpbl": ("pipeline", ("expert_wpbl",)),
    "pipeline.pairwise_divergence": ("pipeline", ("pairwise_divergence",)),
    "pipeline.divergence_matrix": ("pipeline", ("divergence_matrix",)),
    "pipeline.expert_weights": ("pipeline", ("expert_weights",)),
    "pipeline.fuse": ("pipeline", ("fuse",)),
    "pipeline.rank": ("pipeline", ("rank",)),
    "divergence.ordered_mixture_terms": ("divergence", ("ordered_mixture_terms",)),
    "fusion.evaluate_fusion": ("fusion", ("evaluate_fusion",)),
    "fusion.estimate_fusion_weights": ("fusion", ("estimate_fusion_weights",)),
    "fusion.fuse_features": ("fusion", ("fuse_features",)),
    "fusion.nearest_centroid": ("fusion", ("nearest_centroid_fit", "nearest_centroid_predict")),
    "fusion.score": ("fusion", ("confusion_matrix", "score")),
    "verify.run_reference_checks": ("verify", ("run_reference_checks",)),
    "dataio.read": ("dataio", ("read_decision_matrix", "read_feature_source", "read_manifest")),
    "dataio.write": (
        "dataio",
        ("write_decision_matrix", "write_feature_source", "write_term_values", "atomic_write_text"),
    ),
    "report.render": ("report", ("pipeline_report", "dump_json", "render_markdown")),
    "cli.main": ("cli", ("main",)),
}

# Spans that run on every workload; only these report self time as a
# per-layer metric, because a span that never runs would print a
# constant 0 ms.
EVERY_WORKLOAD = (
    "linguistic.normalize_decision_matrix",
    "linguistic.membership_matrix",
    "linguistic.bpa_tensor",
    "pipeline.run_pipeline",
    "pipeline.owa_weights",
    "pipeline.ordered_weighted_belief",
    "pipeline.ordered_weighted_plausibility",
    "pipeline.expert_wpbl",
    "pipeline.pairwise_divergence",
    "pipeline.divergence_matrix",
    "pipeline.expert_weights",
    "divergence.ordered_mixture_terms",
)

CELLS = "pipeline.pairwise_divergence.cells"


class Tracer:
    """Spans kept in memory as ``[name, start, end, parent index, failed]``.

    ``cells`` counts the (alternative, attribute) cells handed to
    ``pairwise_divergence``, read from its first argument.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.cells = 0
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counts_cells = name == "pipeline.pairwise_divergence"

        def traced(*args, **kwargs):
            # a public function calling another one recorded under the same
            # name (write_feature_source -> atomic_write_text) is one call
            if stack and spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            if counts_cells:
                self.cells += args[0].size
            record = [name, clock(), 0.0, stack[-1] if stack else -1, False]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                record[4] = True
                raise
            finally:
                record[2] = clock()
                stack.pop()

        return traced


class Instrumentation:
    """Install a tracer's wrappers with ``with``; the exit restores the library."""

    def __init__(self, tracer: Tracer):
        homes = {module: importlib.import_module(f"evidential_magdm.{module}") for module, _ in SPANS.values()}
        importlib.import_module("evidential_magdm.cli")
        namespaces = [
            module for name, module in sorted(sys.modules.items())
            if name == "evidential_magdm" or name.startswith("evidential_magdm.")
        ]
        self._patches = []
        for span, (home, functions) in SPANS.items():
            for function in functions:
                original = getattr(homes[home], function)
                wrapper = tracer.wrap(span, original)
                for namespace in namespaces:
                    for attr, value in list(vars(namespace).items()):
                        if value is original:
                            self._patches.append((namespace, attr, original, wrapper))

    def __enter__(self):
        for namespace, attr, _, wrapper in self._patches:
            setattr(namespace, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for namespace, attr, original, _ in self._patches:
            setattr(namespace, attr, original)
        return False


def summarize(spans: list[list]) -> dict[str, dict]:
    """Per span name: total and self milliseconds, calls and errors.

    Self time is a span's duration minus the durations of its direct
    children.
    """
    children = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent] += end - start
    table: dict[str, dict] = {}
    for index, (name, start, end, _, failed) in enumerate(spans):
        row = table.setdefault(name, {"total_ms": 0.0, "self_ms": 0.0, "calls": 0, "errors": 0})
        row["total_ms"] += (end - start) * 1e3
        row["self_ms"] += (end - start - children[index]) * 1e3
        row["calls"] += 1
        row["errors"] += int(failed)
    return table

"""Every demo script, and the README's library quick start, runs to
completion, warning-free, against the library; the package itself
exports only entry points and records."""

import importlib
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs_without_warnings(demo):
    proc = subprocess.run(
        [sys.executable, "-W", "error", str(demo)],
        cwd=ROOT, env=ENV, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_readme_quick_start_runs_without_warnings(tmp_path):
    section = (ROOT / "README.md").read_text().split("## Library quick start\n", 1)[1]
    block = re.match(r"\s*```python\n(.*?)```", section, re.S).group(1)
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", block],
        cwd=tmp_path, env=ENV, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


# entry points and the records they take and return
PUBLIC = {
    "RunConfig",
    "entropy", "generalized_belief_divergence", "generalized_js_divergence",
    "js_divergence", "kl_divergence", "weighted_belief_divergence",
    "Bpa", "FrameOfDiscernment", "WpblDistribution", "belief", "plausibility", "wpbl",
    "FeatureSet", "FusionWeights", "MetricsReport", "estimate_fusion_weights", "evaluate_fusion",
    "fuse_features", "make_synthetic_sources",
    "BpaTensor", "DecisionGroup", "DecisionMatrix", "LinguisticPartition", "MembershipMatrix",
    "ExpertWeights", "OwaWeights", "PipelineResult", "RankingResult", "fuse", "rank", "run_pipeline",
}
# stage functions and classifier helpers, imported from their own modules
STAGES = {
    "linguistic": ("bpa_tensor", "membership_matrix", "normalize_decision_matrix"),
    "pipeline": (
        "owa_weights", "ordered_weighted_belief", "ordered_weighted_plausibility", "expert_wpbl",
        "pairwise_divergence", "divergence_matrix", "expert_weights", "expert_stage", "weighting_stage",
    ),
    "fusion": ("nearest_centroid_fit", "nearest_centroid_predict", "confusion_matrix", "score"),
}


def test_package_exports_entry_points_and_records_only():
    package = importlib.import_module("evidential_magdm")
    exported = {
        name for name, value in vars(package).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == PUBLIC and len(PUBLIC) == 32
    for module, functions in STAGES.items():
        home = importlib.import_module(f"evidential_magdm.{module}")
        for function in functions:
            assert callable(getattr(home, function)), f"{module}.{function}"
            assert not hasattr(package, function), function

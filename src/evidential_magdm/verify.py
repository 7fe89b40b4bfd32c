"""Reproduction checks against the bundled study's published values.

``run_reference_checks`` is one ordered table: each row compares one
published artifact with the pipeline's output on the bundled recruitment
data, and each gated row states its committed tolerance once, in
``_within``, which both gates on it and reports it. Three tolerances are
looser than the published values' four-decimal precision would suggest;
their ``detail`` strings say so. The residual traces to a handful of
candidates where one expert scores at a domain boundary, and no
construction or weighting in the calibration grid reproduces those cells
(the published table appears internally inconsistent there, like the
membership-table errata). The calibration search that chose the frozen
default configuration lives with the acceptance tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import recruitment as ref
from .config import RunConfig
from .pipeline import PipelineResult, fuse, rank, run_pipeline


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    delta: float | None
    tolerance: float | None
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        if self.delta is None or self.tolerance is None:
            body = self.detail
        else:
            body = f"delta={self.delta:.3e} tol={self.tolerance:.3e}"
            if self.detail:
                body += f"  ({self.detail})"
        return f"{status}  {self.name:28s} {body}"


_MISSED = "published-precision target {} not met; see README notes"


def _published_membership_reference() -> np.ndarray:
    table = ref.PUBLISHED_MEMBERSHIPS_U1.copy()
    for cell, corrected in ref.MEMBERSHIP_ERRATA.items():
        table[cell] = corrected
    return table


def _ordering_consistent(computed: np.ndarray, published: np.ndarray) -> bool:
    """Computed order must not contradict the published (possibly tied) order."""
    order = np.argsort(computed, kind="stable")
    return bool(np.all(np.diff(published[order]) >= 0))


def _max_abs(computed, published) -> float:
    return float(np.abs(computed - published).max())


def _within(name: str, delta: float, tolerance: float, detail: str = "") -> CheckResult:
    """A gated check: passes when ``delta`` is at most ``tolerance``, and reports both."""
    delta = float(delta)
    return CheckResult(name, delta <= tolerance, delta, tolerance, detail)


def run_reference_checks(config: RunConfig | None = None) -> tuple[list[CheckResult], PipelineResult]:
    config = config or RunConfig()
    result = run_pipeline(ref.decision_matrices(), config)
    p = len(result.alternative_labels)
    incomparable = f"terms={config.terms} is incomparable with the published 5-term table"
    checks: list[CheckResult] = []
    for name, computed, published, detail in (
        ("membership-table", result.memberships.degrees[0], _published_membership_reference(),
         "2 published cells corrected (documented transcription errata)"),
        ("mass-table", result.bpa_tensors.masses[0], ref.PUBLISHED_MASSES_U1, ""),
    ):
        computed = computed.reshape(p, -1)
        if computed.shape == published.shape:
            checks.append(_within(name, _max_abs(computed, published), 1e-4, detail))
        else:
            checks.append(CheckResult(name, False, None, None, incomparable))

    averages = result.dmm[np.triu_indices(len(result.expert_ids), 1)]
    experts = result.weights
    published_w = ref.PUBLISHED_EXPERT_WEIGHTS
    fused = fuse(result.normalized, published_w / published_w.sum())
    ranking = rank(fused, result.alternative_labels)
    checks += [
        _within("divergence-table-mae", np.abs(result.pair_divergences - ref.PUBLISHED_PAIR_DIVERGENCES).mean(), 5e-4),
        _within("divergence-average-row", _max_abs(averages, ref.PUBLISHED_PAIR_AVERAGES), 5e-4,
                _MISSED.format("2e-4")),
        CheckResult("divergence-average-order", _ordering_consistent(averages, ref.PUBLISHED_PAIR_AVERAGES),
                    None, None, "pair ordering matches the published average row"),
        _within("average-divergence", _max_abs(experts.averages, ref.PUBLISHED_AVERAGE_DIVERGENCES), 3e-4,
                _MISSED.format("1e-4")),
        _within("supports-relative", _max_abs(experts.supports / ref.PUBLISHED_SUPPORTS, 1.0), 0.15,
                _MISSED.format("0.02")),
        _within("expert-weights", _max_abs(experts.weights, published_w), 0.02),
        CheckResult("expert-ranking", experts.ranking() == ref.PUBLISHED_EXPERT_RANKING, None, None,
                    " > ".join(experts.ranking())),
        _within("fused-matrix", _max_abs(fused, ref.PUBLISHED_FUSED), 1e-3,
                "fusion of normalised matrices under the published weights"),
        _within("ideal-solution", _max_abs(ranking.ideal, ref.PUBLISHED_IDEAL), 1e-3),
        CheckResult("candidate-ranking", tuple(map(int, ranking.ranked_labels())) == ref.PUBLISHED_RANK_ORDER,
                    None, None, "published duplicate rank 12 resolved with candidate 2 ahead of 7"),
    ]
    return checks, result

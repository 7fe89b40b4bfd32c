"""Group decision pipeline: from decision matrices to a fused ranking.

Stages, all pure functions of their inputs:

1. normalise each expert's matrix column-wise (Euclidean norm);
2. linguistic masses per expert (``linguistic`` module);
3. ordered weighted belief per (alternative, attribute) cell;
4. cross-expert plausibility: an expert's share of the cell's total belief;
5. belief-plausibility profiles per expert, normalised along the
   configured axis (attribute propositions by default);
6. pairwise expert divergence per alternative with the ordered weighted
   divergence kernel; aggregated (mean over alternatives by default)
   into a symmetric expert-by-expert matrix;
7. average divergence per expert (divided by the expert count by
   default), reciprocal supports, and normalised expert weights;
8. weight-fused matrix and ideal-solution ranking.

Floating-point reductions run in fixed index order, so identical inputs
and configuration give bit-identical results.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .config import RunConfig
from .divergence import LogBase, ordered_mixture_terms
from .errors import ConfigError, DegenerateCellError, DegenerateRankingError, ZeroDivergenceError
from .linguistic import (
    BpaTensor,
    DecisionMatrix,
    MembershipMatrix,
    bpa_tensor,
    membership_matrix,
    normalize_decision_matrix,
)


@dataclass(frozen=True)
class OwaWeights:
    """Ordered weighting vector with its provenance tag."""

    values: np.ndarray = field(repr=False)
    scheme: str = "uniform"

    def __post_init__(self):
        arr = np.array(self.values, dtype=float)  # a private, read-only copy: cached instances are shared
        if np.any(arr < 0) or abs(arr.sum() - 1.0) > 1e-9:
            raise ValueError("ordered weights must be nonnegative and sum to 1")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    def orness(self) -> float:
        l = self.values.size
        if l == 1:
            return 0.5
        return float((self.values * (l - np.arange(1, l + 1))).sum() / (l - 1))


def owa_weights(length: int, scheme: str = "uniform", orness: float | None = None) -> OwaWeights:
    """Build an ordered weighting vector.

    ``uniform`` gives 1/l everywhere; ``linear-descending`` gives
    w_f = 2(l - f + 1) / (l(l + 1)); ``orness`` gives the maximum-entropy
    (geometric) weights hitting the requested orness: w_f is proportional
    to exp(u f), and bisection on [-60, 60] finds the u whose orness
    matches, since orness falls as u grows. Results are cached per
    ``(length, scheme, orness)``; their ``values`` are read-only.
    """
    return _owa_weights(length, scheme, orness)


@functools.lru_cache(maxsize=32)
def _owa_weights(length: int, scheme: str, orness: float | None) -> OwaWeights:
    if length < 1:
        raise ValueError("length must be >= 1")
    if scheme == "uniform":
        return OwaWeights(np.full(length, 1.0 / length), "uniform")
    if scheme == "linear-descending":
        f = np.arange(1, length + 1)
        return OwaWeights(2.0 * (length - f + 1) / (length * (length + 1)), "linear-descending")
    if scheme == "orness":
        if orness is None or not 0.0 < orness < 1.0:
            raise ConfigError(f"orness must lie in (0, 1), got {orness}")
        tag = f"orness({orness:g})"
        if length == 1:
            return OwaWeights(np.array([1.0]), tag)
        if orness == 0.5:
            return OwaWeights(np.full(length, 1.0 / length), tag)

        def unnormalized(u: float) -> list[float]:
            top = max(u, u * length)  # shift the largest logit to 0 so exp cannot overflow
            return [math.exp(u * f - top) for f in range(1, length + 1)]

        def gap(u: float) -> float:
            w = unnormalized(u)
            return sum(wf * (length - f) for f, wf in enumerate(w, 1)) / (sum(w) * (length - 1)) - orness

        lo, hi = -60.0, 60.0
        for _ in range(64):  # halves the width-120 bracket down to float resolution in u
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if gap(mid) > 0 else (lo, mid)
        w = np.array(unnormalized(0.5 * (lo + hi)))
        return OwaWeights(w / w.sum(), tag)
    raise ConfigError(f"unknown ordered-weighting scheme {scheme!r}")


def ordered_weighted_belief(tensor: BpaTensor, weights: OwaWeights) -> np.ndarray:
    """Per-cell belief: masses sorted descending, dotted with the weights."""
    if weights.values.size != tensor.term_count:
        raise ValueError(
            f"weight length {weights.values.size} != term count {tensor.term_count}"
        )
    sorted_desc = -np.sort(-tensor.masses, axis=2)
    return sorted_desc @ weights.values


def ordered_weighted_plausibility(beliefs: list[np.ndarray]) -> list[np.ndarray]:
    """Each expert's share of the cross-expert belief total, cell by cell.

    The shares at any cell sum to one across experts.
    """
    if len(beliefs) < 2:
        raise ValueError("plausibility needs at least 2 experts")
    stack = np.stack(beliefs)
    totals = stack.sum(axis=0)
    zero = np.argwhere(totals == 0)
    if zero.size:
        i, j = zero[0]
        raise DegenerateCellError(
            f"no expert assigns belief to alternative {i + 1}, attribute {j + 1}"
        )
    return [b / totals for b in beliefs]


def expert_wpbl(belief: np.ndarray, plausibility: np.ndarray, axis: str = "attributes") -> np.ndarray:
    """Normalised belief-plausibility profile of one expert.

    ``axis="attributes"`` yields one distribution per alternative over
    the attribute propositions; ``axis="alternatives"`` yields one
    distribution per attribute over the alternatives.
    """
    total = belief + plausibility
    ax = 1 if axis == "attributes" else 0
    sums = total.sum(axis=ax, keepdims=True)
    if np.any(sums == 0):
        what = "alternative" if ax == 1 else "attribute"
        idx = int(np.argwhere(sums == 0)[0][1 - ax])
        raise DegenerateCellError(f"{what} {idx + 1} has zero belief+plausibility mass")
    return total / sums


def pairwise_divergence(
    wpbl_1: np.ndarray,
    wpbl_2: np.ndarray,
    pair_weights=(0.5, 0.5),
    base: LogBase = LogBase.TWO,
) -> np.ndarray:
    """Per-alternative divergence between two experts' profiles.

    Every (alternative, attribute) cell contributes its ordered weighted
    divergence summand; an alternative's value is its row total. With
    pair weights (1/2, 1/2) the summand is the belief-JS kernel.
    """
    if wpbl_1.shape != wpbl_2.shape:
        raise ValueError("profiles must share a shape")
    w = np.asarray(pair_weights, dtype=float)
    p, q = wpbl_1.shape
    stacked = np.stack([wpbl_1.ravel(), wpbl_2.ravel()])
    terms = ordered_mixture_terms(stacked, w, base).sum(axis=0)
    return terms.reshape(p, q).sum(axis=1)


_PAIR_CHUNK = 256


def divergence_matrix(
    pair_columns: dict[tuple[str, str], np.ndarray],
    expert_ids: tuple[str, ...],
    mean_over_alternatives: bool = True,
) -> np.ndarray:
    """Symmetric expert-by-expert matrix of aggregated pair divergences."""
    k = len(expert_ids)
    index = {e: i for i, e in enumerate(expert_ids)}
    pairs = [(index[a], index[b]) for a, b in pair_columns]
    distinct = {(i, j) if i < j else (j, i) for i, j in pairs if i != j}
    if len(pairs) != k * (k - 1) // 2 or len(distinct) != len(pairs):
        raise ValueError("pair columns do not cover every expert pair exactly once")
    out = np.zeros((k, k))
    if pairs:
        # row-wise reductions over contiguous (pairs, alternatives) stacks round
        # each row exactly like column.sum() (and column.mean() = sum / n); a
        # stack holds at most _PAIR_CHUNK rows so no full copy of the columns is made
        columns = list(pair_columns.values())
        values = np.empty(len(columns))
        for start in range(0, len(columns), _PAIR_CHUNK):
            values[start:start + _PAIR_CHUNK] = np.array(columns[start:start + _PAIR_CHUNK]).sum(axis=1)
        if mean_over_alternatives:
            values /= columns[0].size
        rows, cols = np.array(pairs, dtype=np.intp).T
        out[rows, cols] = out[cols, rows] = values
    return out


@dataclass(frozen=True)
class ExpertWeights:
    expert_ids: tuple[str, ...]
    averages: np.ndarray = field(repr=False)
    supports: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    zero_average_experts: tuple[str, ...] = ()

    def ranking(self) -> tuple[str, ...]:
        """Expert ids sorted by weight, highest first (stable on ties)."""
        order = np.argsort(-self.weights, kind="stable")
        return tuple(self.expert_ids[i] for i in order)


def expert_weights(
    dmm: np.ndarray,
    expert_ids: tuple[str, ...],
    divide_by_k: bool = True,
    zero_average_policy: str = "error",
) -> ExpertWeights:
    """Average divergence per expert, reciprocal support, normalised weight.

    An expert whose average divergence is zero agrees perfectly with the
    whole group; by default that is an error, under ``full-weight`` the
    zero-average experts share all the weight.
    """
    k = len(expert_ids)
    if dmm.shape != (k, k):
        raise ValueError(f"divergence matrix shape {dmm.shape} != ({k}, {k})")
    averages = dmm.sum(axis=1) / (k if divide_by_k else 1)
    zero = averages == 0
    if np.any(zero):
        zero_ids = tuple(e for e, z in zip(expert_ids, zero) if z)
        if zero_average_policy == "error":
            raise ZeroDivergenceError(
                f"experts {zero_ids} have zero average divergence; support 1/d undefined"
            )
        supports = np.divide(1.0, averages, out=np.full(k, np.inf), where=~zero)
        weights = zero.astype(float) / zero.sum()
        return ExpertWeights(expert_ids, averages, supports, weights, zero_ids)
    supports = 1.0 / averages
    return ExpertWeights(expert_ids, averages, supports, supports / supports.sum())


def fuse(normalized: list[DecisionMatrix], weights: ExpertWeights) -> np.ndarray:
    """Convex combination of the normalised expert matrices."""
    if len(normalized) != len(weights.expert_ids):
        raise ValueError("one matrix per expert required")
    shapes = {m.shape for m in normalized}
    if len(shapes) != 1:
        raise ValueError(f"conflicting matrix shapes: {sorted(shapes)}")
    out = np.zeros(normalized[0].shape)
    for w, m in zip(weights.weights, normalized):
        out += w * m.values
    return out


@dataclass(frozen=True)
class RankingResult:
    fused: np.ndarray = field(repr=False)
    ideal: np.ndarray = field(repr=False)
    scores: np.ndarray = field(repr=False)
    order: tuple[int, ...]
    alternative_labels: tuple[str, ...] = ()

    def ranked_labels(self) -> tuple[str, ...]:
        return tuple(self.alternative_labels[i] for i in self.order)


def rank(fused: np.ndarray, alternative_labels: tuple[str, ...] = ()) -> RankingResult:
    """Score alternatives by closeness to the per-attribute ideal.

    score_i = <fused_i, ideal> / ||ideal||; ties keep the lower
    alternative index first.
    """
    fused = np.asarray(fused, dtype=float)
    if fused.ndim != 2 or np.any(fused < 0):
        raise ValueError("fused matrix must be 2-d and nonnegative")
    ideal = fused.max(axis=0)
    norm = np.sqrt((ideal ** 2).sum())
    if norm == 0:
        raise DegenerateRankingError("ideal solution is identically zero")
    scores = fused @ ideal / norm
    order = tuple(int(i) for i in np.argsort(-scores, kind="stable"))
    if not alternative_labels:
        alternative_labels = tuple(str(i + 1) for i in range(fused.shape[0]))
    return RankingResult(fused, ideal, scores, order, alternative_labels)


@dataclass(frozen=True)
class PipelineResult:
    """Every stage of one pipeline run, in expert order."""

    config: RunConfig
    expert_ids: tuple[str, ...]
    alternative_labels: tuple[str, ...]
    attribute_labels: tuple[str, ...]
    normalized: list[DecisionMatrix]
    memberships: list[MembershipMatrix]
    bpa_tensors: list[BpaTensor]
    owa: OwaWeights
    beliefs: list[np.ndarray]
    plausibilities: list[np.ndarray]
    wpbl_profiles: list[np.ndarray]
    pair_ids: tuple[tuple[str, str], ...]
    pair_divergences: np.ndarray  # (alternatives, pairs)
    dmm: np.ndarray
    weights: ExpertWeights
    ranking: RankingResult | None


def run_pipeline(
    matrices: list[DecisionMatrix],
    config: RunConfig | None = None,
    with_ranking: bool = True,
) -> PipelineResult:
    """Execute the full pipeline on one decision matrix per expert.

    ``with_ranking=False`` stops after the expert weights, which is what
    the feature-fusion harness needs (feature matrices may be negative,
    so the nonnegative ideal-solution ranking does not apply).
    """
    config = config or RunConfig()
    if len(matrices) < 2:
        raise ValueError("group decision needs at least 2 experts")
    ids = tuple(m.expert_id for m in matrices)
    if len(set(ids)) != len(ids):
        raise ValueError(f"duplicate expert ids: {ids}")
    first = matrices[0]
    for m in matrices[1:]:
        if m.shape != first.shape:
            raise ValueError(
                f"expert {m.expert_id!r} matrix shape {m.shape} != {first.shape}"
            )
        if m.alternative_labels != first.alternative_labels:
            raise ValueError(f"expert {m.expert_id!r} alternative labels differ")
        if m.attribute_labels != first.attribute_labels:
            raise ValueError(f"expert {m.expert_id!r} attribute labels differ")

    base = LogBase.parse(config.log_base)
    normalized = [normalize_decision_matrix(m) for m in matrices]
    memberships = [
        membership_matrix(
            m,
            terms=config.terms,
            clamp=config.clamp_out_of_domain,
            uniform_when_degenerate=config.uniform_when_degenerate,
        )
        for m in matrices
    ]
    tensors = [bpa_tensor(r) for r in memberships]
    owa = owa_weights(config.terms, config.owa_scheme, config.orness)
    beliefs = [ordered_weighted_belief(t, owa) for t in tensors]
    plausibilities = ordered_weighted_plausibility(beliefs)
    profiles = [
        expert_wpbl(b, pl, axis=config.wpbl_axis)
        for b, pl in zip(beliefs, plausibilities)
    ]
    pairs = [(i, j) for i in range(len(ids)) for j in range(i + 1, len(ids))]
    pair_ids = tuple((ids[i], ids[j]) for i, j in pairs)
    columns = {}
    for (i, j), pair in zip(pairs, pair_ids):
        columns[pair] = pairwise_divergence(
            profiles[i], profiles[j], pair_weights=config.pair_weights, base=base,
        )
    pair_matrix = np.column_stack([columns[pair] for pair in pair_ids])
    dmm = divergence_matrix(columns, ids, config.mean_over_alternatives)
    weights = expert_weights(
        dmm, ids,
        divide_by_k=config.divide_by_k,
        zero_average_policy=config.zero_average_policy,
    )
    ranking = None
    if with_ranking:
        ranking = rank(fuse(normalized, weights), first.alternative_labels)
    return PipelineResult(
        config=config,
        expert_ids=ids,
        alternative_labels=first.alternative_labels,
        attribute_labels=first.attribute_labels,
        normalized=normalized,
        memberships=memberships,
        bpa_tensors=tensors,
        owa=owa,
        beliefs=beliefs,
        plausibilities=plausibilities,
        wpbl_profiles=profiles,
        pair_ids=pair_ids,
        pair_divergences=pair_matrix,
        dmm=dmm,
        weights=weights,
        ranking=ranking,
    )

"""Group decision pipeline: from decision matrices to a fused ranking.

Stages, all pure functions of their inputs:

1. normalise the experts' matrices column-wise (Euclidean norm), one
   call per run that returns one (k, p, q) stack; only the fused ranking
   reads it, so ``with_ranking=False`` skips it;
2. linguistic memberships and masses for the whole expert group, one
   call each per run (``linguistic`` module): each is one record holding
   a (k, p, q, terms) stack, the view of one alternative-innermost
   (terms, k*q, p) slab;
3. ordered weighted belief per (alternative, attribute) cell, also one
   call for the group: a compare-exchange network sorts the masses' slab
   along the term axis, and each belief is the fixed-order sum of the
   OWA-weighted sorted planes. The beliefs are one (k, p, q) stack, the
   transpose of a C-contiguous (k, q, p) block, and the elementwise
   stages below keep that layout for plausibilities and profiles;
4. cross-expert plausibility: an expert's share of the cell's total belief;
5. belief-plausibility profiles of the stack, normalised along the
   configured axis (attribute propositions by default);
6. pairwise expert divergence per alternative with the ordered weighted
   divergence kernel, at the default pair weights (1/2, 1/2) the
   cancellation-free closed form of ``divergence.pair_cells``, so experts who
   agree to many digits still get positive divergences; aggregated (mean
   over alternatives) into a symmetric expert-by-expert matrix;
7. average divergence per expert (row sum divided by the expert count),
   reciprocal supports, and normalised expert weights;
8. weight-fused matrix (experts added in order) and ideal-solution ranking.

Floating-point reductions run in fixed index order (a pair's cells
attribute-major, see ``pairwise_divergence``), so identical inputs and
configuration give bit-identical results.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .config import RunConfig
from .divergence import LogBase, pair_cells
from .errors import (
    ConfigError,
    DegenerateCellError,
    DegenerateRankingError,
    NegativeDivergenceError,
    ZeroDivergenceError,
)
from .linguistic import (
    BpaTensor,
    DecisionMatrix,
    MembershipMatrix,
    bpa_tensor,
    group_shape,
    membership_matrix,
    normalize_decision_matrix,
    term_slab,
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


@functools.lru_cache(maxsize=8)
def _descending_network(length: int) -> tuple[tuple[int, int], ...]:
    """Compare-exchange steps ``(i, j)``, ``i < j``, that sort ``length`` values.

    Batcher's odd-even merge network for the next power of two, without
    the steps that touch a position at or past ``length`` (those act as
    smallest values, which never move up). Putting the larger value of
    each pair at ``i`` sorts descending; 9, 16 and 28 steps for 5, 7 and
    9 terms.
    """
    size = 1 << max(0, length - 1).bit_length()
    steps = []
    block = 1
    while block < size:
        gap = block
        while gap >= 1:
            for start in range(gap % block, size - gap, 2 * gap):
                for i in range(min(gap, size - start - gap)):
                    a, b = start + i, start + i + gap
                    if a // (2 * block) == b // (2 * block) and b < length:
                        steps.append((a, b))
            gap //= 2
        block *= 2
    return tuple(steps)


@functools.lru_cache(maxsize=8)
def _expert_pairs(k: int) -> tuple[np.ndarray, np.ndarray, tuple[tuple[int, int], ...]]:
    """``np.triu_indices(k, 1)`` as read-only arrays, and as ``(i, j)`` pairs."""
    rows, cols = np.triu_indices(k, 1)
    for a in (rows, cols):
        a.setflags(write=False)
    return rows, cols, tuple(zip(rows.tolist(), cols.tolist()))


# (alternative, attribute) cells sorted per chunk of experts: bounds the
# work planes, which at k = 64 would otherwise add several MB to peak RSS
_SORT_CELLS = 1 << 14


def ordered_weighted_belief(tensors: BpaTensor, weights: OwaWeights) -> np.ndarray:
    """(k, p, q) stack of each expert's per-cell Σ_f w_f · (f-th largest mass).

    A chunk of experts' (k, p, q, terms) masses is read as its
    (terms, columns, p) ``term_slab``, a view of a group pass's own stack,
    and sorted along the term axis by a compare-exchange network: each step
    writes the larger and the smaller of two whole (columns, p) planes
    into two work planes, so the masses themselves stay untouched. The
    belief is then the fixed-order sum w_1·plane_1 + w_2·plane_2 + ...
    over the sorted planes, one multiply and one add per term on whole
    planes, so every cell rounds the same way whatever the chunking, the
    group size or the BLAS build. Each chunk's sum fills its rows of one
    C-contiguous (k·q, p) block, and the stack is its (k, p, q) transpose
    view: expert e's belief is the transpose of the C-contiguous (q, p)
    block ``e``.
    """
    masses = tensors.masses
    k, p, q, terms = masses.shape
    if weights.values.size != terms:
        raise ValueError(f"weight length {weights.values.size} != term count {terms}")
    network = _descending_network(terms)
    w = weights.values.tolist()
    per_chunk = max(1, _SORT_CELLS // (p * q))
    block = np.empty((k * q, p))
    for first in range(0, k, per_chunk):
        chunk = masses[first:first + per_chunk]
        planes = list(term_slab(chunk))  # read only
        free = []  # work planes that no position holds any more
        for a, b in network:
            high = free.pop() if free else np.empty(planes[a].shape)
            low = free.pop() if free else np.empty(planes[a].shape)
            np.maximum(planes[a], planes[b], out=high)
            np.minimum(planes[a], planes[b], out=low)
            free += [x for x in (planes[a], planes[b]) if x.base is None]
            planes[a], planes[b] = high, low
        belief = np.multiply(planes[0], w[0], out=block[first * q:(first + len(chunk)) * q])
        term = free.pop() if free else np.empty(belief.shape)
        for f in range(1, terms):
            np.multiply(planes[f], w[f], out=term)
            belief += term
    return block.reshape(k, q, p).transpose(0, 2, 1)


def ordered_weighted_plausibility(beliefs) -> np.ndarray:
    """Each expert's share of the cross-expert belief total, cell by cell.

    ``beliefs`` is a (k, p, q) stack, or a sequence of k equal-shape
    (p, q) beliefs. The shares at any cell sum to one across experts; the
    totals are a sum over the outer expert axis, which adds the experts
    in order.
    """
    beliefs = np.asarray(beliefs)
    if len(beliefs) < 2:
        raise ValueError("plausibility needs at least 2 experts")
    totals = beliefs.sum(axis=0)
    if not totals.all():
        i, j = np.argwhere(totals == 0)[0]
        raise DegenerateCellError(
            f"no expert assigns belief to alternative {i + 1}, attribute {j + 1}"
        )
    return beliefs / totals


def expert_wpbl(belief: np.ndarray, plausibility: np.ndarray, axis: str = "attributes") -> np.ndarray:
    """Normalised belief-plausibility profile of one expert or a stack.

    ``axis="attributes"`` yields one distribution per alternative over
    the attribute propositions; ``axis="alternatives"`` yields one
    distribution per attribute over the alternatives. Given (k, p, q)
    stacks, it returns every expert's profile.
    """
    total = belief + plausibility
    ax = -1 if axis == "attributes" else -2
    sums = total.sum(axis=ax, keepdims=True)
    if (sums == 0).any():
        *expert, i, j = np.argwhere(sums == 0)[0]
        what, idx = ("alternative", i) if ax == -1 else ("attribute", j)
        where = f"expert {expert[0] + 1}: " if expert else ""
        raise DegenerateCellError(f"{where}{what} {idx + 1} has zero belief+plausibility mass")
    total /= sums  # in place: no second stack
    return total


def pairwise_divergence(
    wpbl_1: np.ndarray,
    wpbl_2: np.ndarray,
    pair_weights=(0.5, 0.5),
    base: LogBase = LogBase.TWO,
    operands: tuple | None = None,
) -> np.ndarray:
    """Per-alternative divergence between two experts' (p, q) profiles.

    Every (alternative, attribute) cell contributes its ordered weighted
    divergence summand (``divergence.pair_cells``); an alternative's value
    is its row total. The cells run attribute-major, so the p totals are
    q - 1 vector adds of length-p rows. At pair weights (1/2, 1/2) a cell
    is the belief-JS kernel, exact for near-identical experts. When every
    cell of one profile is within a factor 3 of every cell of the other
    (read from the smallest and largest cells), no cell is empty or wide
    and the kernel skips its check for them. ``operands`` are each
    profile's cells attribute-major (cell (i, j) at j * p + i) with their
    smallest and largest value, derived here when not given.
    """
    if wpbl_1.shape != wpbl_2.shape:
        raise ValueError("profiles must share a shape")
    if operands is None:
        operands = [(f, f.min(), f.max()) for f in (np.ravel(wpbl_1.T), np.ravel(wpbl_2.T))]
    (a, lo_a, hi_a), (b, lo_b, hi_b) = operands
    narrow = 0 < hi_a <= 3 * lo_b and 0 < hi_b <= 3 * lo_a
    p, q = wpbl_1.shape
    return np.add.reduce(pair_cells(a, b, pair_weights, base, narrow).reshape(q, p), axis=0)


def divergence_matrix(table: np.ndarray, k: int) -> np.ndarray:
    """Symmetric k x k matrix of aggregated pair divergences.

    ``table`` has one row per expert pair in ``np.triu_indices(k, 1)``
    order and one column per alternative; each row's mean fills both of
    its pair's cells.
    """
    table = np.asarray(table, dtype=float)
    if table.ndim != 2 or table.shape[0] != k * (k - 1) // 2:
        raise ValueError(
            f"divergence table of shape {table.shape} needs one row per pair of {k} experts"
        )
    values = table.sum(axis=1) / table.shape[1]
    rows, cols, _ = _expert_pairs(k)
    out = np.zeros((k, k))
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
    zero_average_policy: str = "error",
) -> ExpertWeights:
    """Average divergence per expert (row sum / k), reciprocal support,
    normalised weight.

    An expert whose average divergence is zero agrees perfectly with the
    whole group; by default that is an error, under ``full-weight`` the
    zero-average experts share all the weight. A negative average is
    always an error: a divergence is nonnegative, but a caller's own
    ``dmm`` may hold anything, and at unequal pair weights the kernel's
    rounding can still push near-identical experts' values below zero.
    """
    k = len(expert_ids)
    if dmm.shape != (k, k):
        raise ValueError(f"divergence matrix shape {dmm.shape} != ({k}, {k})")
    averages = dmm.sum(axis=1) / k
    negative = averages < 0
    if negative.any():
        negative_ids = tuple(e for e, n in zip(expert_ids, negative) if n)
        raise NegativeDivergenceError(
            f"experts {negative_ids} have negative average divergence "
            f"(smallest {averages.min():.3g}); their weights would be negative"
        )
    zero = averages == 0
    if zero.any():
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


def fuse(normalized: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Convex combination ``sum(weights[e] * normalized[e])`` of a (k, p, q) stack, in expert order."""
    if len(normalized) != len(weights):
        raise ValueError("one matrix per expert required")
    out = np.zeros(normalized.shape[1:])
    for w, m in zip(weights, normalized):
        out += w * m
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
    normalized: np.ndarray | None  # (k, p, q); None without the ranking, like ``ranking``
    memberships: MembershipMatrix  # degrees (k, p, q, terms); row e is expert e
    bpa_tensors: BpaTensor  # masses (k, p, q, terms), zero columns as (expert, attribute, term)
    owa: OwaWeights
    beliefs: np.ndarray  # (k, p, q); row e is expert e's (p, q) array
    plausibilities: np.ndarray  # (k, p, q)
    wpbl_profiles: np.ndarray  # (k, p, q)
    pair_ids: tuple[tuple[str, str], ...]
    pair_divergences: np.ndarray  # (alternatives, pairs): a transposed view of the pair table
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
    so the nonnegative ideal-solution ranking does not apply). The pair
    loop reads rows of one (k, p*q) attribute-major view of the profiles.
    """
    config = config or RunConfig()
    if len(matrices) < 2:
        raise ValueError("group decision needs at least 2 experts")
    ids = tuple(m.expert_id for m in matrices)
    if len(set(ids)) != len(ids):
        raise ValueError(f"duplicate expert ids: {ids}")
    first, (p, _) = matrices[0], group_shape(matrices)
    for m in matrices[1:]:
        if m.alternative_labels != first.alternative_labels:
            raise ValueError(f"expert {m.expert_id!r} alternative labels differ")
        if m.attribute_labels != first.attribute_labels:
            raise ValueError(f"expert {m.expert_id!r} attribute labels differ")

    base = LogBase.parse(config.log_base)
    normalized = normalize_decision_matrix(matrices) if with_ranking else None
    memberships = membership_matrix(
        matrices, terms=config.terms, uniform_when_degenerate=config.uniform_when_degenerate,
    )
    tensors = bpa_tensor(memberships)
    owa = owa_weights(config.terms, config.owa_scheme, config.orness)
    beliefs = ordered_weighted_belief(tensors, owa)
    plausibilities = ordered_weighted_plausibility(beliefs)
    profiles = expert_wpbl(beliefs, plausibilities, axis=config.wpbl_axis)
    _, _, pairs = _expert_pairs(len(ids))
    pair_ids = tuple((ids[i], ids[j]) for i, j in pairs)
    flat = profiles.transpose(0, 2, 1).reshape(len(ids), -1)
    operands = list(zip(flat, flat.min(axis=1).tolist(), flat.max(axis=1).tolist()))
    table = np.empty((len(pairs), p))
    for n, (i, j) in enumerate(pairs):
        table[n] = pairwise_divergence(
            profiles[i], profiles[j], config.pair_weights, base, operands=(operands[i], operands[j]),
        )
    dmm = divergence_matrix(table, len(ids))
    weights = expert_weights(dmm, ids, zero_average_policy=config.zero_average_policy)
    ranking = None
    if with_ranking:
        ranking = rank(fuse(normalized, weights.weights), first.alternative_labels)
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
        pair_divergences=table.T,
        dmm=dmm,
        weights=weights,
        ranking=ranking,
    )

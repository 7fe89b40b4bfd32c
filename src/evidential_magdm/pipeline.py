"""Group decision pipeline: from decision matrices to a fused ranking.

``run_pipeline`` takes one read-only copy of the group's values, which
every stage reads, and runs eight stages, all pure functions of their
inputs: the first and the last itself, the six between them in two
functions.

1. (``run_pipeline``) normalise the group's (k, p, q) values column-wise
   (Euclidean norm) into one stack. Only the fused ranking reads it, so
   ``with_ranking=False`` skips it; its errors come before any later stage's.

``expert_stage``, each expert's evidence, per chunk of experts (a
``DecisionGroup.experts`` view of about ``_SORT_CELLS`` cells):

2. linguistic memberships and masses (``linguistic`` module), one record
   each per chunk holding a (chunk, p, q, terms) view of one
   alternative-innermost slab. Only the chunk's belief reads them, so no
   whole-group slab is made; ``PipelineResult`` derives both on request;
3. ordered weighted belief per (alternative, attribute) cell: a
   compare-exchange network sorts the masses along the term axis, and
   each belief is the fixed-order sum of the OWA-weighted sorted planes,
   written into the chunk's rows of one C-contiguous (k, q, p) block
   whose transpose is the (k, p, q) belief stack. The elementwise stages
   below keep that layout.

``weighting_stage``, inter-observer variability as expert weights:

4. cross-expert plausibility: an expert's share of the cell's total belief;
5. belief-plausibility profiles, normalised along the configured axis
   (attribute propositions by default); neither stack is kept;
6. pairwise expert divergence per alternative (``divergence.pair_cells``;
   at the default pair weights (1/2, 1/2) a cancellation-free closed
   form, so experts who agree to many digits still get positive
   divergences), and its mean over alternatives in a symmetric
   expert-by-expert matrix;
7. average divergence per expert (row sum divided by the expert count),
   reciprocal supports, and normalised expert weights.

8. (``run_pipeline``) the weight-fused matrix (experts added in order)
   and the ideal-solution ranking.

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
from .divergence import pair_cells
from .errors import (
    ConfigError,
    DegenerateCellError,
    DegenerateRankingError,
    NegativeDivergenceError,
    ZeroDivergenceError,
)
from .linguistic import (
    BpaTensor,
    DecisionGroup,
    DecisionMatrix,
    MembershipMatrix,
    _checked_labels,
    bpa_tensor,
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
        if not np.isfinite(arr).all() or np.any(arr < 0) or abs(arr.sum() - 1.0) > 1e-9:
            raise ValueError("ordered weights must be finite, nonnegative and sum to 1")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    def orness(self) -> float:
        l = self.values.size
        if l == 1:
            return 0.5
        return float((self.values * (l - np.arange(1, l + 1))).sum() / (l - 1))


@functools.lru_cache(maxsize=32)
def owa_weights(length: int, scheme: str = "uniform", orness: float | None = None) -> OwaWeights:
    """Build an ordered weighting vector.

    ``uniform`` gives 1/l everywhere; ``linear-descending`` gives
    w_f = 2(l - f + 1) / (l(l + 1)); ``orness`` gives the maximum-entropy
    (geometric) weights hitting the requested orness: w_f is proportional
    to exp(u f), and bisection on [-60, 60] finds the u whose orness
    matches, since orness falls as u grows. Results are cached per call
    signature (``owa_weights(5)`` and ``owa_weights(5, "uniform")`` are
    two entries of equal weights); their ``values`` are read-only.
    """
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
    """Compare-exchange steps ``(i, i + 1)`` that bubble-sort ``length`` values.

    The larger value of each pair goes to ``i``, so they sort descending:
    10, 21 and 36 steps for 5, 7 and 9 terms.
    """
    return tuple((i, i + 1) for n in range(length - 1, 0, -1) for i in range(n))


@functools.lru_cache(maxsize=8)
def _expert_pairs(k: int) -> tuple[np.ndarray, np.ndarray, tuple[tuple[int, int], ...]]:
    """``np.triu_indices(k, 1)`` as read-only arrays, and as ``(i, j)`` pairs."""
    rows, cols = np.triu_indices(k, 1)
    for a in (rows, cols):
        a.setflags(write=False)
    return rows, cols, tuple(zip(rows.tolist(), cols.tolist()))


# (alternative, attribute) cells of the run of experts that expert_stage
# takes through memberships, masses and belief at a time: bounds their
# slabs and sorted planes, which for a whole k = 64 group would be 4.1 MB each
_SORT_CELLS = 1 << 14


def ordered_weighted_belief(tensors: BpaTensor, weights: OwaWeights) -> np.ndarray:
    """(k, p, q) stack of each expert's per-cell Σ_f w_f · (f-th largest mass).

    The (k, p, q, terms) masses are read as their (terms, k·q, p)
    ``term_slab``, a view of a stage's own stack, and sorted along the term
    axis by a compare-exchange network: each step replaces two positions'
    (k·q, p) planes by their new elementwise larger and smaller planes, so
    nothing is written into the masses. The belief is then the fixed-order
    sum w_1·plane_1 + w_2·plane_2 + ... over the sorted planes, one
    multiply and one add per term on whole planes, so every cell rounds
    the same way whatever run of experts it is passed with, the group size
    or the BLAS build. The sum is one C-contiguous (k·q, p) block, and the
    stack is its (k, p, q) transpose view: expert e's belief is the
    transpose of the C-contiguous (q, p) block ``e``.
    """
    masses = tensors.masses
    k, p, q, terms = masses.shape
    if weights.values.size != terms:
        raise ValueError(f"weight length {weights.values.size} != term count {terms}")
    w = weights.values.tolist()
    planes = list(term_slab(masses))  # read only
    for a, b in _descending_network(terms):
        planes[a], planes[b] = np.maximum(planes[a], planes[b]), np.minimum(planes[a], planes[b])
    belief = planes[0] * w[0]
    for f in range(1, terms):
        belief += planes[f] * w[f]
    return belief.reshape(k, q, p).transpose(0, 2, 1)


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
    return np.add.reduce(pair_cells(a, b, pair_weights, narrow).reshape(q, p), axis=0)


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
    alternative index first. The labels default to 1, 2, ... and are
    checked as a ``DecisionMatrix`` checks its own: one per row, distinct.
    """
    fused = np.asarray(fused, dtype=float)
    if fused.ndim != 2 or not np.isfinite(fused).all() or np.any(fused < 0):
        raise ValueError("fused matrix must be 2-d, finite and nonnegative")
    ideal = fused.max(axis=0)
    norm = np.sqrt((ideal ** 2).sum())
    if norm == 0:
        raise DegenerateRankingError("ideal solution is identically zero")
    scores = fused @ ideal / norm
    order = tuple(int(i) for i in np.argsort(-scores, kind="stable"))
    labels = _checked_labels(alternative_labels, fused.shape[0], "alternative", "", "the ranking")
    return RankingResult(fused, ideal, scores, order, labels)


@dataclass(frozen=True)
class PipelineResult:
    """Every stage of one pipeline run, in expert order.

    ``group`` is the run's snapshot, over the read-only copy of the values
    that every stage read: writing to the caller's array after the run
    changes nothing here. The result stores it, the (k, p, q) ``beliefs``,
    the pair table and the small records made from it. Every other stack
    is derived on first read, by the call the run made on the same
    snapshot, so it equals the run's own bit for bit, and is then kept:
    ``normalized`` (``None`` without the ranking, like ``ranking``),
    ``memberships`` and ``bpa_tensors`` from the group (in one call, which
    gives the chunks' bits: an expert's rows depend only on its own
    values), ``plausibilities`` from the beliefs and ``wpbl_profiles``
    from both along ``config.wpbl_axis``. Each is one (k, p, q) stack
    (0.82 MB at k = 64, p = 200, q = 8), or terms of them.
    """

    config: RunConfig
    group: DecisionGroup
    owa: OwaWeights
    beliefs: np.ndarray  # (k, p, q); row e is expert e's (p, q) array
    pair_ids: tuple[tuple[str, str], ...]
    pair_divergences: np.ndarray  # (alternatives, pairs): a transposed view of the pair table
    dmm: np.ndarray
    weights: ExpertWeights
    ranking: RankingResult | None

    @property
    def expert_ids(self) -> tuple[str, ...]:
        return self.group.expert_ids

    @property
    def alternative_labels(self) -> tuple[str, ...]:
        return self.group.alternative_labels

    @property
    def attribute_labels(self) -> tuple[str, ...]:
        return self.group.attribute_labels

    @functools.cached_property
    def memberships(self) -> MembershipMatrix:
        """Degrees (k, p, q, terms); row e is expert e."""
        return membership_matrix(
            self.group, terms=self.config.terms, uniform_when_degenerate=self.config.uniform_when_degenerate,
        )

    @functools.cached_property
    def bpa_tensors(self) -> BpaTensor:
        """Masses (k, p, q, terms), zero columns as (expert, attribute, term)."""
        return bpa_tensor(self.memberships)

    @functools.cached_property
    def normalized(self) -> np.ndarray | None:
        """Column-normalised (k, p, q) stack; ``None`` without the ranking, like ``ranking``."""
        return None if self.ranking is None else normalize_decision_matrix(self.group)

    @functools.cached_property
    def plausibilities(self) -> np.ndarray:
        """(k, p, q) cross-expert plausibility stack."""
        return ordered_weighted_plausibility(self.beliefs)

    @functools.cached_property
    def wpbl_profiles(self) -> np.ndarray:
        """(k, p, q) belief-plausibility profiles along ``config.wpbl_axis``."""
        return expert_wpbl(self.beliefs, self.plausibilities, axis=self.config.wpbl_axis)


def expert_stage(group: DecisionGroup, config: RunConfig) -> tuple[OwaWeights, np.ndarray]:
    """The ordered weights of ``config`` and the group's (k, p, q) belief stack.

    Memberships, masses and belief run per chunk of ``_SORT_CELLS``
    cells' experts, so their slabs stay cache-sized; each chunk fills its
    rows of one C-contiguous (k, q, p) block, whose transpose is the
    stack. An expert's beliefs depend only on its own values.
    """
    k, p, q = group.values.shape
    owa = owa_weights(config.terms, config.owa_scheme, config.orness)
    per_chunk = max(1, _SORT_CELLS // (p * q))
    block = np.empty((k * q, p))
    for first in range(0, k, per_chunk):
        stop = min(first + per_chunk, k)
        chunk = ordered_weighted_belief(bpa_tensor(membership_matrix(
            group.experts(first, stop), terms=config.terms, uniform_when_degenerate=config.uniform_when_degenerate,
        )), owa)
        block[first * q:stop * q] = chunk.transpose(0, 2, 1).reshape(-1, p)
    return owa, block.reshape(k, q, p).transpose(0, 2, 1)


def weighting_stage(
    beliefs: np.ndarray, expert_ids: tuple[str, ...], config: RunConfig,
) -> tuple[tuple[tuple[str, str], ...], np.ndarray, np.ndarray, ExpertWeights]:
    """Pair ids, pair table, ``dmm`` and expert weights of a (k, p, q) belief stack.

    The table has one row per pair of ``np.triu_indices(k, 1)`` and one
    column per alternative. The stack is read in ``expert_stage``'s
    layout (a copy of any other), so its values alone fix the bits: a
    run's ``beliefs[keep]`` give the weights of a run on those experts
    alone. A one-attribute stack profiled over the attributes is refused
    first, under either ``zero_average_policy``: each profile is [1].
    """
    beliefs = np.ascontiguousarray(beliefs.transpose(0, 2, 1)).transpose(0, 2, 1)
    k, p, q = beliefs.shape
    if q == 1 and config.wpbl_axis == "attributes":
        raise ZeroDivergenceError(
            "one attribute: every expert's profile over the attributes is [1], so every divergence "
            "is 0 and no expert weight is defined; profile the alternatives (wpbl_axis: alternatives)"
        )
    profiles = expert_wpbl(beliefs, ordered_weighted_plausibility(beliefs), axis=config.wpbl_axis)
    _, _, pairs = _expert_pairs(k)
    flat = profiles.transpose(0, 2, 1).reshape(k, -1)
    operands = list(zip(flat, flat.min(axis=1).tolist(), flat.max(axis=1).tolist()))
    table = np.empty((len(pairs), p))
    for n, (i, j) in enumerate(pairs):
        table[n] = pairwise_divergence(
            profiles[i], profiles[j], config.pair_weights, operands=(operands[i], operands[j]),
        )
    dmm = divergence_matrix(table, k)
    pair_ids = tuple((expert_ids[i], expert_ids[j]) for i, j in pairs)
    return pair_ids, table, dmm, expert_weights(dmm, expert_ids, zero_average_policy=config.zero_average_policy)


def run_pipeline(
    group: DecisionGroup | list[DecisionMatrix],
    config: RunConfig | None = None,
    with_ranking: bool = True,
) -> PipelineResult:
    """Run the pipeline on a group, or on a list of one ``DecisionMatrix`` per expert.

    The run's snapshot is ``group.snapshot()``, or the stack that
    ``DecisionGroup.from_matrices`` makes of a list, a copy already. The
    run normalises it, runs ``expert_stage`` and ``weighting_stage``, and
    fuses and ranks. ``with_ranking=False`` stops after the expert
    weights, as the feature-fusion harness needs: feature matrices may be
    negative, where the nonnegative ideal-solution ranking does not apply.
    """
    config = config or RunConfig()
    group = group.snapshot() if isinstance(group, DecisionGroup) else DecisionGroup.from_matrices(group)
    if len(group.expert_ids) < 2:
        raise ValueError("group decision needs at least 2 experts")
    normalized = normalize_decision_matrix(group) if with_ranking else None
    owa, beliefs = expert_stage(group, config)
    pair_ids, table, dmm, weights = weighting_stage(beliefs, group.expert_ids, config)
    ranking = rank(fuse(normalized, weights.weights), group.alternative_labels) if with_ranking else None
    return PipelineResult(config, group, owa, beliefs, pair_ids, table.T, dmm, weights, ranking)

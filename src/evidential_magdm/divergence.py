"""Divergence measures between probability vectors and mass assignments.

Covers Kullback-Leibler, Jensen-Shannon (pairwise and generalized), and
the weighted/ordered divergences between mass assignments via their
normalised belief-plausibility distributions; at weights (1/2, 1/2) the
divergence of two assignments is the belief JS divergence.

Two kernels take every logarithm. ``_xlogy_ratio`` is the masked
``x * log(x / y)`` under entropy, KL, generalized JS and the p-row
ordered divergence (through ``_mixture_terms``). ``pair_cells`` is the
two-profile ordered divergence, cell by cell; it serves the JS
divergence, the ordered divergence of two mass assignments and the
pipeline's all-pairs stage. At weights (1/2, 1/2) it takes ``js_cells``,
a closed form whose summands do not cancel, so near-identical profiles
keep their relative accuracy. At any other weights it sums the signed
terms of the cell-wise max and min against their mix, which still
cancel for close values.

Conventions:
  * 0 * log(0/x) contributes 0 (continuous extension); a proposition on
    which every input vanishes contributes 0.
  * KL requires absolute continuity and raises instead of returning
    infinity, which would poison downstream weight normalisation.
  * Ordered weighted variants sort values per proposition in descending
    order (ties broken by original index) so that the first weight always
    multiplies the largest value. With uniform weights the ordering is
    irrelevant.
"""

from __future__ import annotations

import contextlib
import enum
import functools
import math
from typing import Sequence

import numpy as np

from .errors import DivergenceUndefinedError
from .evidence import Bpa, wpbl

PROB_SUM_TOL = 1e-9
_TINY = np.finfo(float).tiny


class LogBase(enum.Enum):
    """Logarithm base used by every divergence in a computation."""

    TWO = 2.0
    NATURAL = math.e

    @functools.cached_property
    def ln(self) -> float:
        return math.log(self.value)


def as_probability_vector(values, name: str = "distribution") -> np.ndarray:
    """Validate finite, nonnegative values summing to one; return a float array."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError(f"{name} must be a nonempty 1-d vector")
    if not np.isfinite(arr).all():  # a NaN passes both tests below
        raise ValueError(f"{name} has non-finite entries")
    if np.any(arr < 0):
        raise ValueError(f"{name} has negative entries")
    if abs(arr.sum() - 1.0) > PROB_SUM_TOL:
        raise ValueError(f"{name} sums to {arr.sum()!r}, expected 1")
    return arr


def as_weight_vector(values, length: int | None = None) -> np.ndarray:
    arr = as_probability_vector(values, "weight vector")
    if length is not None and arr.size != length:
        raise ValueError(f"expected {length} weights, got {arr.size}")
    return arr


def _xlogy_ratio(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Elementwise natural-log ``x * log(x / y)``, 0 where x == 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = x / y
    return x * np.log(ratio, out=np.zeros_like(ratio), where=x > 0)


def _mixture_terms(values: np.ndarray, weights: np.ndarray, base: LogBase) -> np.ndarray:
    """Entry (f, j) is w_f * v_fj * log(v_fj / mix_j), mix = weights @ values; 0 if w_f = 0."""
    mix = weights @ values
    with np.errstate(invalid="ignore"):  # a zero weight may meet log(v / 0) = inf
        terms = weights[:, None] * _xlogy_ratio(values, mix)
    terms[weights == 0] = 0.0
    return terms / base.ln


def entropy(dist, base: LogBase = LogBase.TWO) -> float:
    """Shannon entropy with the 0 log 0 = 0 convention."""
    arr = as_probability_vector(dist)
    return float(-_xlogy_ratio(arr, 1.0).sum() / base.ln)


def kl_divergence(a, b, base: LogBase = LogBase.TWO) -> float:
    """Kullback-Leibler divergence; requires support(a) within support(b)."""
    pa = as_probability_vector(a, "first distribution")
    pb = as_probability_vector(b, "second distribution")
    if pa.size != pb.size:
        raise ValueError("distributions must share a length")
    if np.any((pb == 0) & (pa > 0)):
        raise DivergenceUndefinedError(
            "KL undefined: first distribution has mass where the second has none"
        )
    return float(_xlogy_ratio(pa, pb).sum() / base.ln)


def js_divergence(a, b, base: LogBase = LogBase.TWO) -> float:
    """Jensen-Shannon divergence; symmetric and bounded by 1 in base 2.

    Summed from ``js_cells``, so it stays >= 0 for near-identical inputs."""
    pa = as_probability_vector(a, "first distribution")
    pb = as_probability_vector(b, "second distribution")
    if pa.size != pb.size:
        raise ValueError("distributions must share a length")
    return float(pair_cells(pa, pb, (0.5, 0.5), base).sum())


def generalized_js_divergence(dists: Sequence, weights, base: LogBase = LogBase.TWO) -> float:
    """Weighted JS divergence: sum_i w_i KL(A_i || mixture)."""
    arrs = [as_probability_vector(d) for d in dists]
    if len({a.size for a in arrs}) != 1:
        raise ValueError("distributions must share a length")
    w = as_weight_vector(weights, length=len(arrs))
    return float(_mixture_terms(np.vstack(arrs), w, base).sum())


def _wpbl_matrix(masses: Sequence[Bpa], propositions) -> tuple[np.ndarray, tuple[int, ...]]:
    dists = [wpbl(m, propositions) for m in masses]
    masks = dists[0].propositions
    return np.vstack([d.values for d in dists]), masks


def js_cells(a: np.ndarray, b: np.ndarray, narrow: bool = False) -> np.ndarray:
    """4 ln(base) times each cell's (1/2, 1/2) divergence, for two 1-D profiles.

    With s = a + b, d = a - b and t = d / s a cell is
    s * (log1p(-t^2) + 2t atanh(t)), taken as s log1p(-t^2) + d log1p(d / b)
    (2t atanh(t) = t log(a / b)). The first summand is about -s t^2 and the
    second about 2 s t^2, so close values (small t) lose nothing to
    cancellation, and there is no mix. Where the values differ by a
    factor 3 or more (t^2 >= 1/4) the rounding of t^2 leaves 1 - t^2 few
    digits, and an empty cell makes both summands infinite; those cells
    take the direct form 2a log(2a / s) + 2b log(2b / s), which is
    accurate there, with 0 log 0 = 0. ``narrow`` says that no cell is
    empty or wide, so the check, its mask and ``np.errstate`` are skipped.
    """
    with contextlib.nullcontext() if narrow else np.errstate(divide="ignore", invalid="ignore"):
        s = a + b
        d = a - b
        t = d / s
        t *= t
        wide = () if narrow else np.flatnonzero(~(t < 0.25))  # an empty cell's t^2 is 1 or NaN
        np.negative(t, out=t)
        np.log1p(t, out=t)
        t *= s
        cells = d / b
        np.log1p(cells, out=cells)
        cells *= d
        cells += t
        if len(wide):
            # v log(v / half) per value, half = s / 2; fmax turns the ratio of
            # an empty value (0 or 0/0) into the smallest normal, so v = 0 gives 0
            half = s[wide]
            half *= 0.5
            direct = np.zeros(wide.size)
            for v in (a[wide], b[wide]):
                ratio = v / half
                np.fmax(ratio, _TINY, out=ratio)
                np.log(ratio, out=ratio)
                ratio *= v
                direct += ratio
            direct *= 2
            cells[wide] = direct
    return cells


def pair_cells(a, b, weights, base: LogBase, narrow: bool = False) -> np.ndarray:
    """Each cell's ordered weighted divergence of two 1-D profiles, in ``base``.

    Weights (1/2, 1/2) take ``js_cells`` (``narrow`` as there). Any other
    pair, equal weights near 1/2 included, sums w_0 * hi * log(hi / mix)
    and w_1 * lo * log(lo / mix), where hi and lo are the cell-wise max
    and min of ``a`` and ``b`` and mix = w_0 * hi + w_1 * lo; these signed
    terms still cancel for close values. A zero value or a zero weight
    contributes 0; ``narrow`` says that no value is 0, so 0 * log(0) is
    not masked and warnings are not silenced. Each term is divided by
    ``base.ln`` before the two are added. The mix takes two roundings,
    w_0 * hi and then + w_1 * lo: numpy's elementwise ops never fuse a
    multiply-add, and neither does the ``_mixture_terms`` matmul on a
    sorted, reversed (2, n) view, so ``ordered_mixture_terms`` of the two
    rows sums to the same bits.
    """
    if len(weights) != 2:
        raise ValueError(f"two-profile divergence needs 2 weights, got {len(weights)}")
    if weights[0] == weights[1] == 0.5:
        cells = js_cells(a, b, narrow)
        cells *= 0.25 / base.ln
        return cells
    hi = np.maximum(a, b)
    lo = np.minimum(a, b)
    mix = weights[0] * hi
    mix += weights[1] * lo
    cells = np.zeros(mix.size)
    with contextlib.nullcontext() if narrow else np.errstate(divide="ignore", invalid="ignore"):
        for x, w in zip((hi, lo), weights):
            if w > 0:
                term = x / mix
                np.log(term, out=term)
                term *= x
                if not narrow:
                    np.putmask(term, x == 0, 0.0)
                term *= w
                term /= base.ln
                cells += term
    return cells


def ordered_mixture_terms(values: np.ndarray, weights: np.ndarray, base: LogBase) -> np.ndarray:
    """Per-proposition contributions of the ordered weighted divergence.

    ``values`` has one row per distribution and one column per proposition.
    Each column is sorted descending so weight f multiplies the f-th
    largest value, then entry (f, j) is w_f * v_(f)j * log(v_(f)j / mix_j)
    where mix_j is the weight-mixed column (``_mixture_terms``).
    """
    values = np.asarray(values, dtype=float)
    return _mixture_terms(np.sort(values, axis=0)[::-1], weights, base)


def weighted_belief_divergence(
    m1: Bpa,
    m2: Bpa,
    propositions,
    weights=(0.5, 0.5),
    base: LogBase = LogBase.TWO,
) -> float:
    """Ordered weighted divergence between two mass assignments.

    Summed from ``pair_cells``, as in the pipeline's pair stage; with
    weights (1/2, 1/2) this is the belief JS divergence, the JS divergence
    of the two ``wpbl`` profiles.
    """
    w = as_weight_vector(weights, length=2)
    values, _ = _wpbl_matrix([m1, m2], propositions)
    return float(pair_cells(values[0], values[1], w, base).sum())


def generalized_belief_divergence(
    masses: Sequence[Bpa],
    propositions,
    weights,
    base: LogBase = LogBase.TWO,
) -> float:
    """Ordered weighted divergence across p >= 2 mass assignments.

    Each proposition's contribution is damped by the proposition's
    cardinality; for singleton propositions and p = 2 this reduces to
    ``weighted_belief_divergence``.
    """
    if len(masses) < 2:
        raise ValueError("need at least two mass assignments")
    w = as_weight_vector(weights, length=len(masses))
    values, masks = _wpbl_matrix(masses, propositions)
    cards = np.array([mask.bit_count() for mask in masks], dtype=float)
    terms = ordered_mixture_terms(values, w, base) / cards[None, :]
    return float(terms.sum())

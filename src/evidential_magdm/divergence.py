"""Divergence measures between probability vectors and mass assignments.

Covers Kullback-Leibler, Jensen-Shannon (pairwise and generalized), and
the weighted/ordered divergences between mass assignments via their
normalised belief-plausibility distributions; at weights (1/2, 1/2) the
divergence of two assignments is the belief JS divergence.

Every divergence is in bits (base 2), the unit of the paper's
Jensen-Shannon-type measure. ``_xlogy_ratio`` is the one masked
``x * ln(x / y)``, under entropy, KL, the direct form that ``js_cells``
takes on empty and wide cells, and ``_mixture_terms``. That is the one
signed kernel, w_f * v_f * log2(v_f / mix) for each of r rows against
their weighted mix; it serves generalized JS, the p-row ordered
divergence and, on the cell-wise max and min, ``pair_cells`` at any
weights but (1/2, 1/2); those signed terms cancel for close values.
``pair_cells`` is the two-profile ordered divergence, cell by cell,
under the JS divergence, the ordered divergence of two mass assignments
and the pipeline's all-pairs stage. At weights (1/2, 1/2) it takes
``js_cells``, a closed form whose summands do not cancel, so
near-identical profiles keep their relative accuracy.

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
import math
from typing import Sequence

import numpy as np

from .errors import DivergenceUndefinedError
from .evidence import Bpa, wpbl

PROB_SUM_TOL = 1e-9
_LN2 = math.log(2.0)  # natural logs divided by this are bits


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


def _quiet(narrow: bool = False):
    """Silence 0 / 0 and log(0) unless ``narrow`` promises that none occurs (``js_cells``)."""
    return contextlib.nullcontext() if narrow else np.errstate(divide="ignore", invalid="ignore")


def _xlogy_ratio(x: np.ndarray, y) -> np.ndarray:
    """Elementwise natural-log ``x * log(x / y)``, 0 where x == 0; call it under ``_quiet()``."""
    out = x / y
    np.log(out, out=out)
    out *= x
    np.putmask(out, x == 0, 0.0)
    return out


def _mixture_terms(values, weights) -> list[np.ndarray]:
    """Row f holds w_f * v_fj * log2(v_fj / mix_j) per column j; 0 if w_f = 0.

    ``values`` holds r rows of equal length. The mix is built row by row,
    mix = w_0 * v_0, then mix += w_f * v_f, so each entry takes the same
    roundings whatever the rows' memory layout (a matmul may go to BLAS,
    which rounds differently). Every row is masked as in ``_xlogy_ratio``.
    """
    mix = weights[0] * values[0]
    for w, v in zip(weights[1:], values[1:]):
        mix += w * v
    terms = []
    with _quiet():
        for x, w in zip(values, weights):
            if w > 0:  # a zero weight may meet log(v / 0) = inf
                row = _xlogy_ratio(x, mix)
                row *= w
                row /= _LN2
            else:
                row = np.zeros(mix.size)
            terms.append(row)
    return terms


def entropy(dist) -> float:
    """Shannon entropy in bits with the 0 log 0 = 0 convention."""
    arr = as_probability_vector(dist)
    with _quiet():
        return float(-_xlogy_ratio(arr, 1.0).sum() / _LN2)


def kl_divergence(a, b) -> float:
    """Kullback-Leibler divergence; requires support(a) within support(b)."""
    pa = as_probability_vector(a, "first distribution")
    pb = as_probability_vector(b, "second distribution")
    if pa.size != pb.size:
        raise ValueError("distributions must share a length")
    if np.any((pb == 0) & (pa > 0)):
        raise DivergenceUndefinedError(
            "KL undefined: first distribution has mass where the second has none"
        )
    with _quiet():
        return float(_xlogy_ratio(pa, pb).sum() / _LN2)


def js_divergence(a, b) -> float:
    """Jensen-Shannon divergence; symmetric and bounded by 1 bit.

    Summed from ``js_cells``, so it stays >= 0 for near-identical inputs."""
    pa = as_probability_vector(a, "first distribution")
    pb = as_probability_vector(b, "second distribution")
    if pa.size != pb.size:
        raise ValueError("distributions must share a length")
    return float(pair_cells(pa, pb, (0.5, 0.5)).sum())


def generalized_js_divergence(dists: Sequence, weights) -> float:
    """Weighted JS divergence: sum_i w_i KL(A_i || mixture), clamped at 0 (the weights sum
    to 1 only within an ulp, so identical inputs can sum to a tiny negative value)."""
    arrs = [as_probability_vector(d) for d in dists]
    if len({a.size for a in arrs}) != 1:
        raise ValueError("distributions must share a length")
    w = as_weight_vector(weights, length=len(arrs))
    return max(float(np.sum(_mixture_terms(arrs, w))), 0.0)


def _wpbl_matrix(masses: Sequence[Bpa], propositions) -> tuple[np.ndarray, tuple[int, ...]]:
    dists = [wpbl(m, propositions) for m in masses]
    masks = dists[0].propositions
    return np.vstack([d.values for d in dists]), masks


def js_cells(a: np.ndarray, b: np.ndarray, narrow: bool = False) -> np.ndarray:
    """4 ln 2 times each cell's (1/2, 1/2) divergence, for two 1-D profiles.

    With s = a + b, d = a - b and t = d / s a cell is
    s * (log1p(-t^2) + 2t atanh(t)), taken as s log1p(-t^2) + d log1p(d / b)
    (2t atanh(t) = t log(a / b)). The first summand is about -s t^2 and the
    second about 2 s t^2, so close values (small t) lose nothing to
    cancellation, and there is no mix. Where the values differ by a
    factor 3 or more (t^2 >= 1/4) the rounding of t^2 leaves 1 - t^2 few
    digits, and an empty cell makes both summands infinite; those cells
    take the direct form 2a log(2a / s) + 2b log(2b / s), which is
    accurate there, through ``_xlogy_ratio`` (0 log 0 = 0). ``narrow``
    says that no cell is empty or wide, so the check, its mask and
    ``np.errstate`` are skipped.
    """
    with _quiet(narrow):
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
            half = s[wide] * 0.5
            cells[wide] = 2 * (_xlogy_ratio(a[wide], half) + _xlogy_ratio(b[wide], half))
    return cells


def pair_cells(a, b, weights, narrow: bool = False) -> np.ndarray:
    """Each cell's ordered weighted divergence of two 1-D profiles, in bits.

    Weights (1/2, 1/2) take ``js_cells``, the one reader of ``narrow``.
    Any other pair, equal weights near 1/2 included, sums the two (always
    masked) ``_mixture_terms`` rows of the cell-wise max and min of ``a``
    and ``b``, so the larger value takes w_0.
    """
    if len(weights) != 2:
        raise ValueError(f"two-profile divergence needs 2 weights, got {len(weights)}")
    if weights[0] == weights[1] == 0.5:
        cells = js_cells(a, b, narrow)
        cells *= 0.25 / _LN2
        return cells
    cells, lo_terms = _mixture_terms((np.maximum(a, b), np.minimum(a, b)), weights)
    cells += lo_terms
    return cells


def ordered_mixture_terms(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Per-proposition contributions of the ordered weighted divergence.

    ``values`` has one row per distribution and one column per proposition.
    Each column is sorted descending so weight f multiplies the f-th
    largest value, then entry (f, j) is w_f * v_(f)j * log2(v_(f)j / mix_j)
    where mix_j is the weight-mixed column (``_mixture_terms``).
    """
    values = np.asarray(values, dtype=float)
    return np.array(_mixture_terms(np.sort(values, axis=0)[::-1], weights))


def weighted_belief_divergence(m1: Bpa, m2: Bpa, propositions, weights=(0.5, 0.5)) -> float:
    """Ordered weighted divergence between two mass assignments.

    Summed from ``pair_cells``, as in the pipeline's pair stage; with
    weights (1/2, 1/2) this is the belief JS divergence, the JS divergence
    of the two ``wpbl`` profiles. The sum is clamped at 0, as in
    ``generalized_js_divergence``.
    """
    w = as_weight_vector(weights, length=2)
    values, _ = _wpbl_matrix([m1, m2], propositions)
    return max(float(pair_cells(values[0], values[1], w).sum()), 0.0)


def generalized_belief_divergence(masses: Sequence[Bpa], propositions, weights) -> float:
    """Ordered weighted divergence across p >= 2 mass assignments.

    Each proposition's contribution is damped by the proposition's
    cardinality; for singleton propositions and p = 2 this reduces to
    ``weighted_belief_divergence``. The sum is clamped at 0, as in
    ``generalized_js_divergence``.
    """
    if len(masses) < 2:
        raise ValueError("need at least two mass assignments")
    w = as_weight_vector(weights, length=len(masses))
    values, masks = _wpbl_matrix(masses, propositions)
    cards = np.array([mask.bit_count() for mask in masks], dtype=float)
    terms = ordered_mixture_terms(values, w) / cards[None, :]
    return max(float(terms.sum()), 0.0)

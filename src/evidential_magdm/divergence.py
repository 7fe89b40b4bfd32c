"""Divergence measures between probability vectors and mass assignments.

Covers Kullback-Leibler, Jensen-Shannon (pairwise and generalized), and
the weighted/ordered divergences between mass assignments via their
normalised belief-plausibility distributions; at weights (1/2, 1/2) the
divergence of two assignments is the belief JS divergence.

Every divergence is in bits (base 2), the unit of the paper's
Jensen-Shannon-type measure. ``as_weight_vector`` is the one check of
every weight vector (OWA, pair, generalized and fused weights).
``_xlogy_ratio`` is the one masked ``x * ln(x / y)``, under entropy, KL
and ``js_cells``' empty and wide cells. ``_mixture_terms`` is the one
kernel of r weighted rows against their mix, terms
w_f * mix * phi((v_f - mix) / mix) >= 0 with phi(d) = (1 + d) log1p(d) - d:
generalized JS, the p-row ordered divergence and ``pair_cells`` (under
JS, the belief divergences and the pair stage) at any weights but
(1/2, 1/2), which take the closed form ``js_cells``. No term cancels for
close values, so no sum is clamped.

Conventions:
  * 0 * log(0/x) contributes 0 (continuous extension), by the one mask
    of ``_xlogy_ratio`` and ``_mixture_terms``: a log only ``where=`` the
    value it multiplies is positive, so no warning needs silencing; a
    proposition on which every input vanishes contributes 0.
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
from .evidence import SUM_TOL, Bpa, wpbl

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
    if abs(arr.sum() - 1.0) > SUM_TOL:
        raise ValueError(f"{name} sums to {arr.sum()!r}, expected 1")
    return arr


def as_weight_vector(values, length: int | None = None) -> np.ndarray:
    arr = as_probability_vector(values, "weight vector")
    if length is not None and arr.size != length:
        raise ValueError(f"expected {length} weights, got {arr.size}")
    return arr


def _xlogy_ratio(x: np.ndarray, y) -> np.ndarray:
    """Elementwise natural-log ``x * log(x / y)``, 0 where x == 0; y > 0 wherever x > 0."""
    positive = x > 0
    out = np.divide(x, y, out=np.zeros_like(x), where=positive)
    np.log(out, out=out, where=positive)
    out *= x
    return out


# phi(d) = (1 + d) log1p(d) - d below |d| = 0.05: its Taylor coefficients, n = 13 down to 2
_PHI_SERIES = tuple((-1) ** n / (n * (n - 1)) for n in range(13, 1, -1))


def _mixture_terms(values, weights) -> np.ndarray:
    """(r, n) array: entry (f, j) is w_f * mix_j * phi(d_fj) / ln 2 >= 0, d = (v - mix) / mix.

    Column j sums to sum_f w_f v_fj log2(v_fj / mix_j), the weights scaled
    to sum to 1. mix = base + sum_f w_f (v_f - base), added row by row, with
    base the column's smallest value of positive weight, so identical rows
    give exactly 0 (``notes/decisions.md``). A row of weight 0 gives 0.
    """
    values = np.asarray(values, dtype=float)
    w = np.asarray(weights, dtype=float) / math.fsum(weights)
    base = values.min(axis=0, where=(w > 0)[:, None], initial=np.inf)
    d = values - base
    d[w == 0] = 0.0  # a row of weight 0 adds 0, and its d could overflow
    shift = sum(wf * row for wf, row in zip(w.tolist(), d))  # in row order (a matmul's BLAS rounds by layout)
    mix = base + shift
    d -= shift
    np.divide(d, mix, out=d, where=mix > 0)  # a zero mix leaves d = 0
    terms = np.log1p(d, out=np.zeros_like(d), where=d > -1)  # an empty cell (d = -1): 0 log 0 = 0
    terms *= d + 1
    terms -= d
    small = np.abs(d) < 0.05  # the first dropped term is under 3e-18 of the sum
    if small.any():
        s = d[small]
        series = s * _PHI_SERIES[0] + _PHI_SERIES[1]
        for c in _PHI_SERIES[2:]:  # Horner
            series *= s
            series += c
        terms[small] = series * (s * s)
    terms *= (w / _LN2)[:, None]
    terms *= mix
    return terms


def entropy(dist) -> float:
    """Shannon entropy in bits with the 0 log 0 = 0 convention."""
    arr = as_probability_vector(dist)
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
    return float(_xlogy_ratio(pa, pb).sum() / _LN2)


def js_divergence(a, b) -> float:
    """Jensen-Shannon divergence, summed from ``js_cells``: symmetric, in [0, 1] bit."""
    pa = as_probability_vector(a, "first distribution")
    pb = as_probability_vector(b, "second distribution")
    if pa.size != pb.size:
        raise ValueError("distributions must share a length")
    return float(pair_cells(pa, pb, (0.5, 0.5)).sum())


def generalized_js_divergence(dists: Sequence, weights) -> float:
    """Weighted JS divergence: sum_i w_i KL(A_i || mixture), summed from ``_mixture_terms``."""
    arrs = [as_probability_vector(d) for d in dists]
    if len({a.size for a in arrs}) != 1:
        raise ValueError("distributions must share a length")
    w = as_weight_vector(weights, length=len(arrs))
    return float(_mixture_terms(arrs, w).sum())


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
    accurate there, through ``_xlogy_ratio`` (0 log 0 = 0; no half of s
    to underflow). ``narrow`` says that no cell is empty or wide, so the
    check, its mask and ``np.errstate`` are skipped.
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
            cells[wide] = _xlogy_ratio(2 * a[wide], s[wide]) + _xlogy_ratio(2 * b[wide], s[wide])
    return cells


def pair_cells(a, b, weights, narrow: bool = False) -> np.ndarray:
    """Each cell's ordered weighted divergence of two 1-D profiles, in bits.

    Weights (1/2, 1/2) take ``js_cells``, the one reader of ``narrow``; any
    other pair is checked and sums the ``_mixture_terms`` of the cell-wise
    max and min, so the larger value takes w_0.
    """
    if len(weights) != 2:
        raise ValueError(f"two-profile divergence needs 2 weights, got {len(weights)}")
    if weights[0] == weights[1] == 0.5:
        cells = js_cells(a, b, narrow)
        cells *= 0.25 / _LN2
        return cells
    w = as_weight_vector(weights)
    return _mixture_terms((np.maximum(a, b), np.minimum(a, b)), w).sum(axis=0)


def ordered_mixture_terms(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """``_mixture_terms`` of ``values`` (a row per distribution, a column per
    proposition) with each column sorted descending: w_f takes the f-th largest."""
    return _mixture_terms(np.sort(np.asarray(values, dtype=float), axis=0)[::-1], weights)


def weighted_belief_divergence(m1: Bpa, m2: Bpa, propositions, weights=(0.5, 0.5)) -> float:
    """Ordered weighted divergence between two mass assignments.

    Summed from ``pair_cells``, as in the pipeline's pair stage; with
    weights (1/2, 1/2) this is the belief JS divergence, the JS divergence
    of the two ``wpbl`` profiles.
    """
    values, _ = _wpbl_matrix([m1, m2], propositions)
    return float(pair_cells(values[0], values[1], weights).sum())


def generalized_belief_divergence(masses: Sequence[Bpa], propositions, weights) -> float:
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
    terms = ordered_mixture_terms(values, w) / cards[None, :]
    return float(terms.sum())

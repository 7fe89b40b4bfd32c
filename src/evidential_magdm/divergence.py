"""Divergence measures between probability vectors and mass assignments.

Covers Kullback-Leibler, Jensen-Shannon (pairwise and generalized), the
belief JS divergence between mass assignments via their normalised
belief-plausibility distributions, and weighted/ordered generalizations.

Every logarithm is taken in one masked kernel, ``x * log(x / y)``.

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

import enum
import math
from typing import Sequence

import numpy as np

from .errors import ConfigError, DivergenceUndefinedError
from .evidence import Bpa, wpbl

PROB_SUM_TOL = 1e-9


class LogBase(enum.Enum):
    """Logarithm base used by every divergence in a computation."""

    TWO = 2.0
    NATURAL = math.e

    @classmethod
    def parse(cls, text: str | float | LogBase) -> "LogBase":
        if isinstance(text, LogBase):
            return text
        if text in (2, 2.0, "2", "two"):
            return cls.TWO
        if text in ("e", "natural", math.e):
            return cls.NATURAL
        raise ConfigError(f"unsupported log base {text!r} (use 2 or e)")

    @property
    def ln(self) -> float:
        return math.log(self.value)

    def __str__(self) -> str:
        return "2" if self is LogBase.TWO else "e"


def as_probability_vector(values, name: str = "distribution") -> np.ndarray:
    """Validate nonnegative values summing to one; return a float array."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError(f"{name} must be a nonempty 1-d vector")
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
    with np.errstate(invalid="ignore"):
        terms = np.where(weights[:, None] > 0, weights[:, None] * _xlogy_ratio(values, mix), 0.0)
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
    """Jensen-Shannon divergence; symmetric and bounded by 1 in base 2."""
    return generalized_js_divergence([a, b], (0.5, 0.5), base)


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


def belief_js_divergence(m1: Bpa, m2: Bpa, propositions, base: LogBase = LogBase.TWO) -> float:
    """JS divergence between two mass assignments' Bel+Pl distributions."""
    values, _ = _wpbl_matrix([m1, m2], propositions)
    return js_divergence(values[0], values[1], base)


def ordered_mixture_terms(values: np.ndarray, weights: np.ndarray, base: LogBase) -> np.ndarray:
    """Per-proposition contributions of the ordered weighted divergence.

    ``values`` has one row per distribution and one column per proposition.
    Each column is sorted descending so weight f multiplies the f-th
    largest value, then entry (f, j) is w_f * v_(f)j * log(v_(f)j / mix_j)
    where mix_j is the weight-mixed column.
    """
    return _mixture_terms(np.sort(np.asarray(values, dtype=float), axis=0)[::-1], weights, base)


def weighted_belief_divergence(
    m1: Bpa,
    m2: Bpa,
    propositions,
    weights=(0.5, 0.5),
    base: LogBase = LogBase.TWO,
) -> float:
    """Ordered weighted divergence between two mass assignments.

    With weights (1/2, 1/2) this equals ``belief_js_divergence``.
    """
    w = as_weight_vector(weights, length=2)
    values, _ = _wpbl_matrix([m1, m2], propositions)
    return float(ordered_mixture_terms(values, w, base).sum())


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

"""Linguistic-partition mass generation for decision matrices.

Each attribute's observed range [c, d] is split into ``H + 1``
overlapping terms (very low ... very high). The first and last terms are
linear over the whole range; interior term ``h`` peaks at ``c + h*alpha``
(alpha = (d - c) / H) and falls linearly to the range ends, so every
value has a positive degree in several terms. Degrees are then
normalised column-wise over alternatives, which makes each
(attribute, term) column a mass assignment over the alternatives.

The membership construction depends only on a value's position within
[c, d], so positive rescaling of a column leaves degrees unchanged, and
it does not matter whether the decision matrix is normalised before or
after membership computation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateAttributeError,
    DegenerateDomainError,
    OutOfDomainError,
)

DEFAULT_TERMS = 5


@dataclass(frozen=True)
class DecisionMatrix:
    """Scores of p alternatives on q attributes, from one expert."""

    expert_id: str
    values: np.ndarray = field(repr=False)
    alternative_labels: tuple[str, ...] = ()
    attribute_labels: tuple[str, ...] = ()

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim != 2:
            raise ValueError("decision matrix must be 2-d")
        p, q = arr.shape
        if p < 2 or q < 1:
            raise ValueError(f"need at least 2 alternatives and 1 attribute, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"non-finite values in decision matrix {self.expert_id!r}")
        object.__setattr__(self, "values", arr)
        if not self.alternative_labels:
            object.__setattr__(
                self, "alternative_labels", tuple(str(i + 1) for i in range(p))
            )
        if not self.attribute_labels:
            object.__setattr__(
                self, "attribute_labels", tuple(f"t{j + 1}" for j in range(q))
            )
        if len(self.alternative_labels) != p or len(self.attribute_labels) != q:
            raise ValueError("label counts do not match the matrix shape")

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape


def _unsplittable(lo, hi, segments: int):
    """Whether [lo, hi] leaves an interior peak on an endpoint.

    Peaks are computed as in ``LinguisticPartition.peak``; the first must
    lie above ``lo`` and the last below ``hi``, or a term's rising or
    falling edge has zero width. That holds for a single value and for a
    span so narrow that ``(hi - lo) / segments`` underflows or rounds away.
    """
    alpha = (hi - lo) / segments
    return (lo + alpha <= lo) | (lo + (segments - 1) * alpha >= hi)


@dataclass(frozen=True)
class LinguisticPartition:
    """Domain [c, d] split into H+1 terms of width parameter alpha."""

    lower: float
    upper: float
    segments: int  # H; term count is H + 1

    def __post_init__(self):
        if self.segments < 2:
            raise ValueError("need at least 2 segments (3 terms)")
        if _unsplittable(self.lower, self.upper, self.segments):
            raise DegenerateDomainError(
                f"degenerate domain [{self.lower}, {self.upper}] for {self.segments} segments"
            )

    @property
    def term_count(self) -> int:
        return self.segments + 1

    @property
    def alpha(self) -> float:
        return (self.upper - self.lower) / self.segments

    def peak(self, term: int) -> float:
        """Location where the given 1-based term reaches membership 1."""
        if term == 1:
            return self.lower
        if term == self.term_count:
            return self.upper
        return self.lower + (term - 1) * self.alpha


def build_partition(values, segments: int = DEFAULT_TERMS - 1) -> LinguisticPartition:
    """Partition an attribute column's observed range [min, max]."""
    arr = np.asarray(values, dtype=float)
    lo, hi = float(arr.min()), float(arr.max())
    if lo == hi:
        raise DegenerateDomainError(
            f"all {arr.size} values equal {lo}; no partition possible"
        )
    return LinguisticPartition(lo, hi, segments)


def normalize_decision_matrix(matrix: DecisionMatrix) -> DecisionMatrix:
    """Divide each attribute column by its Euclidean norm (benefit attributes)."""
    norms = np.sqrt((matrix.values ** 2).sum(axis=0))
    zero = np.flatnonzero(norms == 0)
    if zero.size:
        bad = matrix.attribute_labels[zero[0]]
        raise DegenerateAttributeError(
            f"attribute {bad!r} of expert {matrix.expert_id!r} is identically zero"
        )
    return DecisionMatrix(
        matrix.expert_id,
        matrix.values / norms,
        matrix.alternative_labels,
        matrix.attribute_labels,
    )


def _membership_kernel(values, lo, hi, segments: int, clamp: bool) -> np.ndarray:
    """Degrees of all ``segments + 1`` terms, shape ``values.shape + (terms,)``.

    ``lo`` and ``hi`` broadcast against ``values`` (scalars for one
    partition, one entry per column for a whole matrix). Interior peaks
    use the arithmetic of ``LinguisticPartition.peak``, so both callers
    get bit-identical degrees.
    """
    arr = np.asarray(values, dtype=float)
    if clamp:
        arr = np.clip(arr, lo, hi)
    else:
        outside = (arr < lo) | (arr > hi)
        if np.any(outside):
            at = tuple(np.argwhere(outside)[0])
            c, d = (float(np.broadcast_to(x, arr.shape)[at]) for x in (lo, hi))
            raise OutOfDomainError(f"value {arr[at]} outside partition domain [{c}, {d}]")
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    span = hi - lo
    out = np.empty(arr.shape + (segments + 1,))
    out[..., 0] = 1.0 - (arr - lo) / span
    out[..., segments] = (arr - lo) / span
    x, lo, hi = arr[..., None], lo[..., None], hi[..., None]
    peaks = lo + np.arange(1, segments) * (span[..., None] / segments)
    rising = (x - lo) / (peaks - lo)
    falling = 1.0 - (x - peaks) / (hi - peaks)
    out[..., 1:segments] = np.where(x <= peaks, rising, falling)
    return out


def memberships(values, partition: LinguisticPartition, clamp: bool = False) -> np.ndarray:
    """Degrees of all terms for each value; shape (n, term_count).

    Values outside [c, d] raise ``OutOfDomainError`` unless ``clamp``.
    """
    return _membership_kernel(
        values, partition.lower, partition.upper, partition.segments, clamp
    )


@dataclass(frozen=True)
class MembershipMatrix:
    """Per-expert membership degrees, shape (p, q, terms)."""

    expert_id: str
    degrees: np.ndarray = field(repr=False)
    partitions: tuple[LinguisticPartition, ...]
    alternative_labels: tuple[str, ...]
    attribute_labels: tuple[str, ...]

    def blocked(self) -> np.ndarray:
        """2-d layout p x (q * terms), attribute blocks side by side."""
        p, q, terms = self.degrees.shape
        return self.degrees.reshape(p, q * terms)


@dataclass(frozen=True)
class BpaTensor:
    """Column-normalised masses, same layout as the membership matrix.

    Each (attribute, term) column sums to 1 over alternatives unless the
    membership column was identically zero, in which case the masses stay
    zero and the column index is recorded in ``zero_columns``.
    """

    expert_id: str
    masses: np.ndarray = field(repr=False)
    partitions: tuple[LinguisticPartition, ...]
    alternative_labels: tuple[str, ...]
    attribute_labels: tuple[str, ...]
    zero_columns: tuple[tuple[int, int], ...] = ()

    @property
    def term_count(self) -> int:
        return self.masses.shape[2]

    def blocked(self) -> np.ndarray:
        p, q, terms = self.masses.shape
        return self.masses.reshape(p, q * terms)


def membership_matrix(
    matrix: DecisionMatrix,
    terms: int = DEFAULT_TERMS,
    clamp: bool = False,
    uniform_when_degenerate: bool = False,
) -> MembershipMatrix:
    """Memberships of every (alternative, attribute) pair of one expert.

    Partitions come from the expert's own column extremes. A column whose
    values all coincide, or whose range float arithmetic cannot split into
    ``terms - 1`` segments, has no partition; by default that is an error,
    with ``uniform_when_degenerate`` it yields equal degrees 1/terms and the
    stand-in partition [lo - 0.5, hi + 0.5]. Where that is still too narrow
    to split (from |v| >= 2**53 on), the half-width grows to
    ``terms - 1`` units in the last place of the column's extremes.
    """
    segments = terms - 1
    lo, hi = matrix.values.min(axis=0), matrix.values.max(axis=0)
    flat = _unsplittable(lo, hi, segments)
    if np.any(flat):
        if not uniform_when_degenerate:
            j = int(np.flatnonzero(flat)[0])
            raise DegenerateDomainError(
                f"attribute {matrix.attribute_labels[j]!r} of expert "
                f"{matrix.expert_id!r} has a single observed value "
                f"or a range that cannot be split into {segments} segments"
            )
        ulp = np.spacing(np.maximum(np.abs(lo), np.abs(hi)))
        half = np.where(_unsplittable(lo - 0.5, hi + 0.5, segments), segments * ulp, 0.5)
        lo = np.where(flat, lo - half, lo)
        hi = np.where(flat, hi + half, hi)
    partitions = tuple(
        LinguisticPartition(c, d, segments) for c, d in zip(lo.tolist(), hi.tolist())
    )
    degrees = _membership_kernel(matrix.values, lo, hi, segments, clamp)
    degrees[:, flat, :] = 1.0 / terms
    return MembershipMatrix(
        matrix.expert_id,
        degrees,
        partitions,
        matrix.alternative_labels,
        matrix.attribute_labels,
    )


def bpa_tensor(r: MembershipMatrix) -> BpaTensor:
    """Normalise each (attribute, term) column over alternatives."""
    sums = r.degrees.sum(axis=0, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        masses = np.where(sums > 0, r.degrees / sums, 0.0)
    zero = tuple(
        (int(j), int(f)) for j, f in np.argwhere(sums[0] == 0)
    )
    return BpaTensor(
        r.expert_id,
        masses,
        r.partitions,
        r.alternative_labels,
        r.attribute_labels,
        zero_columns=zero,
    )

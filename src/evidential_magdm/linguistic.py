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
after membership computation. A range wider than the float range (where
``d - c`` overflows) is therefore taken at half scale.

Layout: ``membership_matrix`` and ``bpa_tensor`` work on a whole expert
group at once. The k experts' transposed (q, p) matrices are stacked as
one (k*q, p) matrix, one row per attribute column, and degrees and
masses live in one alternative-innermost (terms, k*q, p) slab: every
ufunc runs once per term over a whole (k*q, p) plane, with each column's
domain broadcast as a (k*q, 1) column, and the sums over alternatives
reduce contiguous rows (numpy sums them pairwise). Each stage returns
one record whose ``degrees`` or ``masses`` is the (k, p, q, terms) view
``slab.reshape(terms, k, q, p).transpose(1, 3, 2, 0)``; the next stage
reads the slab back with ``term_slab``, a view of a stage's own stack
and a copy of a sub-stack or a reordering. Column domains are checked as arrays and kept as (k, q)
``lo``/``hi``; no stage needs partition objects, so ``partitions(e)``
builds them only on request.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateAttributeError, DegenerateDomainError

DEFAULT_TERMS = 5
_TINY = float(np.finfo(float).tiny)
_MAX = float(np.finfo(float).max)
_HALF_MAX = _MAX / 2


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
        if not np.isfinite(arr).all():
            raise ValueError(f"non-finite values in decision matrix {self.expert_id!r}")
        object.__setattr__(self, "values", arr)
        # the caller's labels; the defaults below are unique by construction
        for kind, labels in (("alternative", self.alternative_labels), ("attribute", self.attribute_labels)):
            if len(set(labels)) != len(labels):
                repeated = next(a for n, a in enumerate(labels) if a in labels[:n])
                raise ValueError(f"{kind} label {repeated!r} repeats in decision matrix {self.expert_id!r}")
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


def _span_scale(lo, hi):
    """1.0, or 0.5 where ``hi - lo`` overflows; elementwise on arrays.

    Degrees depend only on a value's position in [lo, hi], so a range
    taken at half scale keeps them, and halving is exact at such
    magnitudes. ``hi/2 - lo/2`` exceeds ``max/2`` exactly when
    ``hi - lo`` rounds to infinity, and it cannot overflow itself.
    """
    return 1.0 - 0.5 * (hi * 0.5 - lo * 0.5 > _HALF_MAX)


def _unsplittable(lo, hi, segments: int, scale=None):
    """Whether [lo, hi] leaves an interior peak on an endpoint.

    Peaks are computed as in ``LinguisticPartition.peak``; the first must
    lie above ``lo`` and the last below ``hi``, or a term's rising or
    falling edge has zero width. That holds for a single value and for a
    span so narrow that ``(hi - lo) / segments`` underflows or rounds away.
    ``scale`` is ``_span_scale(lo, hi)``, computed here when not given.
    """
    if scale is None:
        scale = _span_scale(lo, hi)
    lo, hi = lo * scale, hi * scale
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
        scale = _span_scale(self.lower, self.upper)
        return (self.upper * scale - self.lower * scale) / self.segments / scale

    def peak(self, term: int) -> float:
        """Location where the given 1-based term reaches membership 1."""
        if term == 1:
            return self.lower
        if term == self.term_count:
            return self.upper
        scale = _span_scale(self.lower, self.upper)
        lo = self.lower * scale
        return (lo + (term - 1) * ((self.upper * scale - lo) / self.segments)) / scale


def group_shape(matrices: list[DecisionMatrix]) -> tuple[int, int]:
    """The (p, q) shape that every expert's matrix must share."""
    shape = matrices[0].shape
    for m in matrices[1:]:
        if m.shape != shape:
            raise ValueError(f"expert {m.expert_id!r} matrix shape {m.shape} != {shape}")
    return shape


def normalize_decision_matrix(matrices: list[DecisionMatrix]) -> np.ndarray:
    """(k, p, q) stack of the experts' matrices, each attribute column
    divided by its Euclidean norm (benefit attributes).

    Sums of squares add the alternatives in order, in the stack's own
    buffer. A column whose sum of squares leaves the normal float range
    (it overflows, or it underflows while the column holds a nonzero
    value) is first divided by its largest magnitude, where it cannot. An
    all-zero column is an error naming the first one in expert order.
    """
    k, (p, q) = len(matrices), group_shape(matrices)
    values = [m.values for m in matrices]
    out = np.stack(values, out=np.empty((k, p, q)))
    with np.errstate(over="ignore"):
        squares = np.square(out, out=out).sum(axis=1)
    norms = np.sqrt(squares)
    rescale = ~((squares >= _TINY) & (squares <= _MAX))
    np.stack(values, out=out)  # the values again, over the spent squares
    if rescale.any():
        peaks = np.where(rescale, np.abs(out).max(axis=1), 1.0)
        zero = np.flatnonzero(peaks == 0)
        if zero.size:
            e, j = divmod(int(zero[0]), q)
            raise DegenerateAttributeError(
                f"attribute {matrices[e].attribute_labels[j]!r} of expert "
                f"{matrices[e].expert_id!r} is identically zero"
            )
        out /= peaks[:, None]
        norms = np.where(rescale, np.sqrt((out ** 2).sum(axis=1)), norms)
    out /= norms[:, None]
    return out


def _membership_kernel(values, lo, hi, scale, segments: int, out: np.ndarray) -> np.ndarray:
    """Degrees of all ``segments + 1`` terms, term-major, written into ``out``.

    ``out[h]`` has the shape of ``values`` and holds term ``h + 1``;
    ``lo`` and ``hi`` broadcast against ``values`` (a (columns, 1) column
    each for a group slab). Every value must lie in its [lo, hi]. Each
    ufunc runs once per term over the whole ``values`` plane, and
    interior peaks use the arithmetic of ``LinguisticPartition.peak``, so
    degrees match the partitions bit for bit. A range whose span
    overflows is taken at half scale: ``scale`` is ``_span_scale(lo, hi)``.

    An interior degree is the smaller of its rising and falling edges,
    which is the edge on the value's side of the peak, bit for bit:
    rounding is monotone, so at or below the peak rising <= 1 <= falling,
    above it falling <= 1 <= rising, and on the peak both are exactly 1.
    """
    if np.not_equal(scale, 1.0).any():  # a ufunc, so a scalar scale gives np.bool_
        values, lo, hi = values * scale, lo * scale, hi * scale
    span = hi - lo
    step = span / segments
    # the end terms' planes hold offsets and falling edges until written
    offset = np.subtract(values, lo, out=out[segments])
    falling = out[0]
    for h in range(1, segments):
        peak = lo + h * step
        np.divide(offset, peak - lo, out=out[h])
        np.subtract(values, peak, out=falling)
        falling /= hi - peak
        np.subtract(1.0, falling, out=falling)
        np.minimum(out[h], falling, out=out[h])
    offset /= span
    np.subtract(1.0, offset, out=out[0])
    return out


@dataclass(frozen=True)
class MembershipMatrix:
    """Membership degrees of a whole expert group, shape (k, p, q, terms).

    ``degrees`` is the (k, p, q, terms) view of one alternative-innermost
    (terms, k*q, p) slab, so writing to it writes to the slab. Column j
    of expert e has the domain [``lo[e, j]``, ``hi[e, j]``] (read-only
    (k, q) arrays) split into ``segments``; ``partitions(e)`` builds
    expert e's ``LinguisticPartition`` objects on request.
    """

    degrees: np.ndarray = field(repr=False)
    lo: np.ndarray = field(repr=False)
    hi: np.ndarray = field(repr=False)
    segments: int

    def partitions(self, e: int) -> tuple[LinguisticPartition, ...]:
        """One ``LinguisticPartition`` per attribute column of expert ``e``."""
        return tuple(LinguisticPartition(c, d, self.segments) for c, d in zip(self.lo[e].tolist(), self.hi[e].tolist()))


@dataclass(frozen=True)
class BpaTensor:
    """Column-normalised masses of a whole expert group, shape (k, p, q, terms).

    Each (expert, attribute, term) column sums to 1 over alternatives
    unless the membership column was identically zero, in which case the
    masses stay zero and the column is recorded in ``zero_columns`` as an
    (expert, attribute, term) triple.
    """

    masses: np.ndarray = field(repr=False)
    zero_columns: tuple[tuple[int, int, int], ...] = ()


def term_slab(stack: np.ndarray) -> np.ndarray:
    """The (terms, k*q, p) slab behind a (k, p, q, terms) stack.

    A view of a stage's own stack or of a slice of its experts, and a
    copy of any other selection or reordering. Read it, do not write to it.
    """
    k, p, q, terms = stack.shape
    return stack.transpose(3, 0, 2, 1).reshape(terms, k * q, p)


def membership_matrix(
    matrices: list[DecisionMatrix],
    terms: int = DEFAULT_TERMS,
    uniform_when_degenerate: bool = False,
) -> MembershipMatrix:
    """Memberships of every (alternative, attribute) pair of each expert.

    The experts' matrices must share one (p, q) shape; a single expert is
    a group of one. Their transposed matrices are stacked as one
    (k*q, p) matrix, and all degrees are computed in one
    alternative-innermost (terms, k*q, p) slab.
    Each column's domain [lo, hi] is its own extremes, so every value lies
    in it. A column whose values all coincide, or whose range float
    arithmetic cannot split into ``terms - 1`` segments, has no
    partition; by default that is an error naming the first such column
    in expert order, with ``uniform_when_degenerate`` it yields equal
    degrees 1/terms and the stand-in domain [lo - 0.5, hi + 0.5].
    Where that is still too narrow to split (from |v| >= 2**53 on), the
    half-width grows to ``terms - 1`` units in the last place of the
    column's extremes, taken toward zero; where the window would leave
    the float range (at ±max), it slides inward by its half-width.
    """
    segments = terms - 1
    if segments < 2:
        raise ValueError("need at least 2 segments (3 terms)")
    k, (p, q) = len(matrices), group_shape(matrices)
    values = np.empty((k * q, p))
    np.concatenate([m.values for m in matrices], axis=1, out=values.T)
    lo, hi = values.min(axis=1), values.max(axis=1)
    scale = _span_scale(lo, hi)
    flat = _unsplittable(lo, hi, segments, scale)
    any_flat = flat.any()
    if any_flat:
        if not uniform_when_degenerate:
            e, j = divmod(int(np.flatnonzero(flat)[0]), q)
            raise DegenerateDomainError(
                f"attribute {matrices[e].attribute_labels[j]!r} of expert "
                f"{matrices[e].expert_id!r} has a single observed value "
                f"or a range that cannot be split into {segments} segments"
            )
        top = np.maximum(np.abs(lo), np.abs(hi))
        ulp = top - np.nextafter(top, 0.0)
        half = np.where(_unsplittable(lo - 0.5, hi + 0.5, segments), segments * ulp, 0.5)
        # moves the window inward where it would pass ±max; no step overflows
        inward = (np.minimum(hi, _MAX - half) - hi) + (np.maximum(lo, half - _MAX) - lo)
        lo = np.where(flat, lo + (inward - half), lo)
        hi = np.where(flat, hi + (half + inward), hi)
        # a flagged span is narrow, and so is its stand-in: the scale stays 1
        still = np.flatnonzero(_unsplittable(lo, hi, segments, scale))
        if still.size:
            raise DegenerateDomainError(f"degenerate domain [{lo[still[0]]}, {hi[still[0]]}] for {segments} segments")
    lo.setflags(write=False)
    hi.setflags(write=False)
    degrees = _membership_kernel(
        values, lo[:, None], hi[:, None], scale[:, None], segments, np.empty((terms,) + values.shape),
    )
    if any_flat:
        degrees[:, flat] = 1.0 / terms
    return MembershipMatrix(
        degrees.reshape(terms, k, q, p).transpose(1, 3, 2, 0), lo.reshape(k, q), hi.reshape(k, q), segments,
    )


def bpa_tensor(memberships: MembershipMatrix) -> BpaTensor:
    """Normalise each (attribute, term) column over alternatives, for a group.

    The degrees are read as their ``term_slab``; the masses form one new
    slab of that layout, and each column's sum over alternatives reduces
    one contiguous row.
    """
    k, p, q, terms = memberships.degrees.shape
    degrees = term_slab(memberships.degrees)
    sums = degrees.sum(axis=2, keepdims=True)
    positive = sums > 0
    zero_columns = ()
    if positive.all():
        masses = degrees / sums
    else:
        masses = np.zeros(degrees.shape)
        np.divide(degrees, sums, out=masses, where=positive)
        zero = ~positive[:, :, 0].T.reshape(k, q, terms)
        zero_columns = tuple(tuple(c) for c in np.argwhere(zero).tolist())
    return BpaTensor(masses.reshape(terms, k, q, p).transpose(1, 3, 2, 0), zero_columns)

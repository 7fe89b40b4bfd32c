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
reduce contiguous rows (numpy sums them pairwise). Each expert's block is
the row range ``columns`` of the slab; its ``degrees`` and ``masses`` are
(p, q, terms) views of that block, and the next stage reads the group's
slab from the records' ``slab`` and ``columns`` (``group_slab``). Column
domains are checked as arrays and kept as ``lo``/``hi``; no stage needs
partition objects, so ``partitions`` builds them only when read.
"""

from __future__ import annotations

import bisect
import itertools
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


def normalize_decision_matrix(matrix: DecisionMatrix) -> DecisionMatrix:
    """Divide each attribute column by its Euclidean norm (benefit attributes).

    A column whose sum of squares leaves the normal float range (it
    overflows, or it underflows while the column holds a nonzero value)
    is first divided by its largest magnitude, where it cannot; every
    other column is divided by its norm directly.
    """
    values = matrix.values
    with np.errstate(over="ignore"):
        squares = (values ** 2).sum(axis=0)
    norms = np.sqrt(squares)
    rescale = ~((squares >= _TINY) & (squares <= _MAX))
    if np.any(rescale):
        peaks = np.where(rescale, np.abs(values).max(axis=0), 1.0)
        zero = np.flatnonzero(peaks == 0)
        if zero.size:
            bad = matrix.attribute_labels[zero[0]]
            raise DegenerateAttributeError(
                f"attribute {bad!r} of expert {matrix.expert_id!r} is identically zero"
            )
        values = values / peaks
        norms = np.where(rescale, np.sqrt((values ** 2).sum(axis=0)), norms)
    return DecisionMatrix(
        matrix.expert_id,
        values / norms,
        matrix.alternative_labels,
        matrix.attribute_labels,
    )


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
class _GroupBlock:
    """An expert's block of a group pass: rows ``columns`` of the group's
    (terms, columns, p) ``slab``, one row per attribute column, with column
    j's domain [``lo[j]``, ``hi[j]``] (read-only arrays) split into
    ``segments``."""

    expert_id: str
    slab: np.ndarray = field(repr=False)
    columns: slice
    lo: np.ndarray = field(repr=False)
    hi: np.ndarray = field(repr=False)
    segments: int
    alternative_labels: tuple[str, ...]
    attribute_labels: tuple[str, ...]

    def _view(self) -> np.ndarray:
        """The block as a (p, q, terms) view of the slab."""
        return self.slab[:, self.columns].transpose(2, 1, 0)

    def blocked(self) -> np.ndarray:
        """2-d layout p x (q * terms), attribute blocks side by side."""
        view = self._view()
        return view.reshape(view.shape[0], -1)

    @property
    def partitions(self) -> tuple[LinguisticPartition, ...]:
        """One ``LinguisticPartition`` per attribute column, built when read."""
        return tuple(LinguisticPartition(c, d, self.segments) for c, d in zip(self.lo.tolist(), self.hi.tolist()))


@dataclass(frozen=True)
class MembershipMatrix(_GroupBlock):
    """Per-expert membership degrees, shape (p, q, terms).

    ``degrees`` is a view of the expert's rows of the group's degree
    ``slab``, so writing to it writes to the slab; ``partitions`` builds
    the matching ``LinguisticPartition`` objects on request.
    """

    @property
    def degrees(self) -> np.ndarray:
        return self._view()


@dataclass(frozen=True)
class BpaTensor(_GroupBlock):
    """Column-normalised masses, same layout as the membership matrix.

    Each (attribute, term) column sums to 1 over alternatives unless the
    membership column was identically zero, in which case the masses stay
    zero and the column index is recorded in ``zero_columns``. ``masses``
    is a view of the expert's rows of the group's mass ``slab``; the
    column domains are the memberships' own.
    """

    zero_columns: tuple[tuple[int, int], ...] = ()

    @property
    def masses(self) -> np.ndarray:
        return self._view()

    @property
    def term_count(self) -> int:
        return self.slab.shape[0]


def group_slab(records) -> np.ndarray:
    """The (terms, columns, p) slab of a list of group records, in list order.

    Records that are, in order, adjacent blocks of one slab (a group
    pass's records, or any run of them) read it in place; any other list
    is copied into a new slab. Read it, do not write to it.
    """
    slab, start = records[0].slab, records[0].columns.start
    stop = start
    for r in records:
        if r.slab is not slab or r.columns.start != stop:
            return np.concatenate([r.slab[:, r.columns] for r in records], axis=1)
        stop = r.columns.stop
    return slab[:, start:stop]


def _column_offsets(widths) -> list[int]:
    """Start of each expert's columns in a group slab, plus the end."""
    return list(itertools.accumulate(widths, initial=0))


def membership_matrix(
    matrices: list[DecisionMatrix],
    terms: int = DEFAULT_TERMS,
    uniform_when_degenerate: bool = False,
) -> list[MembershipMatrix]:
    """Memberships of every (alternative, attribute) pair of each expert.

    The experts' transposed matrices are stacked as one (columns, p)
    matrix, and all degrees are computed in one alternative-innermost
    (terms, columns, p) slab; a single expert is a group of one.
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
    offsets = _column_offsets([m.shape[1] for m in matrices])
    values = np.empty((offsets[-1], matrices[0].shape[0]))
    np.concatenate([m.values for m in matrices], axis=1, out=values.T)
    lo, hi = values.min(axis=1), values.max(axis=1)
    scale = _span_scale(lo, hi)
    flat = _unsplittable(lo, hi, segments, scale)
    any_flat = flat.any()
    if any_flat:
        if not uniform_when_degenerate:
            column = int(np.flatnonzero(flat)[0])
            e = bisect.bisect_right(offsets, column) - 1
            raise DegenerateDomainError(
                f"attribute {matrices[e].attribute_labels[column - offsets[e]]!r} of expert "
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
    return [
        MembershipMatrix(
            m.expert_id, degrees, slice(a, b), lo[a:b], hi[a:b], segments,
            m.alternative_labels, m.attribute_labels,
        )
        for m, a, b in zip(matrices, offsets, offsets[1:])
    ]


def bpa_tensor(memberships: list[MembershipMatrix]) -> list[BpaTensor]:
    """Normalise each (attribute, term) column over alternatives, for a group.

    The masses of all experts form one new (terms, columns, p) slab, and
    each column's sum over alternatives reduces one contiguous row.
    """
    degrees = group_slab(memberships)
    sums = degrees.sum(axis=2, keepdims=True)
    positive = sums > 0
    zero = None
    if positive.all():
        masses = degrees / sums
    else:
        masses = np.zeros(degrees.shape)
        np.divide(degrees, sums, out=masses, where=positive)
        zero = ~positive[:, :, 0].T
    offsets = _column_offsets([r.columns.stop - r.columns.start for r in memberships])
    return [
        BpaTensor(
            r.expert_id, masses, slice(a, b), r.lo, r.hi, r.segments,
            r.alternative_labels, r.attribute_labels,
            zero_columns=() if zero is None else tuple(
                (int(j), int(f)) for j, f in np.argwhere(zero[a:b])
            ),
        )
        for r, a, b in zip(memberships, offsets, offsets[1:])
    ]

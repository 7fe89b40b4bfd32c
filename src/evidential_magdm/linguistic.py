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

Layout: the stages take one ``DecisionGroup``. ``normalize_decision_matrix``
squares its read-only (k, p, q) values, in any layout, into a C-ordered
buffer and sums that along the alternative axis, not the innermost, so
the alternatives add in order. ``membership_matrix`` reads
them as the (k*q, p) stack of the experts' transposed matrices, a view of
values that are the transpose of a C-contiguous (k, q, p) buffer (as
fusion's blocks are) and one copy of any other layout;
degrees and masses live in one alternative-innermost (terms, k*q, p)
slab, each term's plane is written once by whole-plane ufuncs, with each
column's domain broadcast as a (k*q, 1) column, and the sums over
alternatives reduce contiguous rows (numpy sums them pairwise). Each
stage returns one record whose ``degrees`` or ``masses`` is the
(k, p, q, terms) view ``slab.reshape(terms, k, q, p).transpose(1, 3, 2, 0)``;
the next stage reads the slab back with ``term_slab``, a view of a
stage's own stack and a copy of a sub-stack or a reordering. Column
domains are (k, q) ``lo``/``hi`` arrays; ``partitions(e)`` builds
partition objects only on request.
"""

from __future__ import annotations

import copy
import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateAttributeError, DegenerateDomainError

DEFAULT_TERMS = 5
_TINY = float(np.finfo(float).tiny)
_MAX = float(np.finfo(float).max)
_HALF_MAX = _MAX / 2


@functools.lru_cache(maxsize=32)
def _default_labels(prefix: str, count: int) -> tuple[str, ...]:
    """``prefix`` + 1, 2, ..., ``count``: one tuple shared by every record of that shape."""
    return tuple(f"{prefix}{i + 1}" for i in range(count))


def _set_scores(record, ndim: int, where: str) -> None:
    """Set ``record``'s values (a float view) and labels, checked as a matrix and a group share it:
    ``ndim``-d, at least 2 alternatives and 1 attribute, finite, and distinct labels of the right
    counts, which default to 1, 2, ... and t1, t2, ...."""
    values = np.asarray(record.values, dtype=float).view()
    if values.ndim != ndim or values.shape[-2] < 2 or values.shape[-1] < 1:
        raise ValueError(f"{where} needs {ndim}-d scores of at least 2 alternatives and 1 attribute, got {values.shape}")
    if not np.isfinite(values).all():
        raise ValueError(f"non-finite values in {where}")
    object.__setattr__(record, "values", values)
    for kind, count, prefix in (("alternative", values.shape[-2], ""), ("attribute", values.shape[-1], "t")):
        labels = _checked_labels(getattr(record, f"{kind}_labels"), count, kind, prefix, where)
        object.__setattr__(record, f"{kind}_labels", labels)


def _checked_labels(labels, count: int, kind: str, prefix: str, where: str) -> tuple[str, ...]:
    """``labels``, or ``prefix`` + 1, 2, ... when empty; ``ValueError`` unless distinct and ``count`` long."""
    labels = tuple(labels) or _default_labels(prefix, count)
    if len(set(labels)) != len(labels):
        repeated = next(a for n, a in enumerate(labels) if a in labels[:n])
        raise ValueError(f"{kind} label {repeated!r} repeats in {where}")
    if len(labels) != count:
        raise ValueError("label counts do not match the matrix shape")
    return labels


@dataclass(frozen=True)
class DecisionMatrix:
    """Scores of p alternatives on q attributes, from one expert."""

    expert_id: str
    values: np.ndarray = field(repr=False)
    alternative_labels: tuple[str, ...] = ()
    attribute_labels: tuple[str, ...] = ()

    def __post_init__(self):
        _set_scores(self, 2, f"decision matrix {self.expert_id!r}")


@dataclass(frozen=True)
class DecisionGroup:
    """k >= 1 experts' scores of one p x q problem, checked once, here: ``values`` is a read-only
    (k, p, q) view whose row e is the matrix of ``expert_ids[e]``, the ids are distinct, and the
    rest is checked as for a ``DecisionMatrix``."""

    expert_ids: tuple[str, ...]
    values: np.ndarray = field(repr=False)
    alternative_labels: tuple[str, ...] = ()
    attribute_labels: tuple[str, ...] = ()

    def __post_init__(self):
        _set_scores(self, 3, "the decision group")
        ids = tuple(self.expert_ids)
        if not 1 <= len(ids) == len(self.values):
            raise ValueError(f"need one id per expert and at least 1 expert, got {len(ids)} ids for {len(self.values)}")
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate expert ids: {ids}")
        object.__setattr__(self, "expert_ids", ids)
        self.values.setflags(write=False)

    @classmethod
    def from_matrices(cls, matrices: list[DecisionMatrix]) -> "DecisionGroup":
        """The group of one ``DecisionMatrix`` per expert; they must share one shape and labels."""
        if not matrices:
            raise ValueError("a decision group needs at least 1 expert")
        first = matrices[0]
        for m in matrices[1:]:
            if m.values.shape != first.values.shape:
                raise ValueError(f"expert {m.expert_id!r} matrix shape {m.values.shape} != {first.values.shape}")
            for kind in ("alternative", "attribute"):
                if getattr(m, f"{kind}_labels") != getattr(first, f"{kind}_labels"):
                    raise ValueError(f"expert {m.expert_id!r} {kind} labels differ")
        values = np.stack([m.values for m in matrices])
        return cls(tuple(m.expert_id for m in matrices), values, first.alternative_labels, first.attribute_labels)

    def experts(self, start: int, stop: int) -> "DecisionGroup":
        """The group of experts ``start:stop``, a view: a part of a checked group is not checked again."""
        if not 0 <= start < stop <= len(self.expert_ids):
            raise ValueError(f"expert range {start}:{stop} outside 0:{len(self.expert_ids)}")
        part = copy.copy(self)
        object.__setattr__(part, "values", self.values[start:stop])
        object.__setattr__(part, "expert_ids", self.expert_ids[start:stop])
        return part

    def snapshot(self) -> "DecisionGroup":
        """The group over a read-only copy of ``values`` in their layout, not checked again."""
        values = np.array(self.values, order="K")
        values.setflags(write=False)
        part = copy.copy(self)
        object.__setattr__(part, "values", values)
        return part


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


def normalize_decision_matrix(group: DecisionGroup) -> np.ndarray:
    """(k, p, q) stack of the group's matrices, each attribute column
    divided by its Euclidean norm (benefit attributes).

    Sums of squares add the alternatives in order, in the output's own
    buffer. That buffer is C-ordered whatever the layout of
    ``group.values``, because numpy sums pairwise along an axis that is
    innermost in memory: squares kept in the input's stride order (a
    view of an attribute-major buffer, say) would round differently.
    This is the one layout rule, so callers may pass any view. A column
    whose sum of squares leaves the normal float range (it overflows, or
    it underflows while the column holds a nonzero value) is first
    divided by its largest magnitude, where it cannot. An all-zero column
    is an error naming the first one in expert order.
    """
    values = group.values
    with np.errstate(over="ignore"):
        out = np.square(values, order="C")
        squares = out.sum(axis=1)
    norms = np.sqrt(squares)
    rescale = ~((squares >= _TINY) & (squares <= _MAX))
    if rescale.any():
        peaks = np.where(rescale, np.abs(values).max(axis=1), 1.0)
        zero = np.flatnonzero(peaks == 0)
        if zero.size:
            e, j = divmod(int(zero[0]), values.shape[2])
            raise DegenerateAttributeError(
                f"attribute {group.attribute_labels[j]!r} of expert "
                f"{group.expert_ids[e]!r} is identically zero"
            )
        values = np.divide(values, peaks[:, None], out=out)
        norms = np.where(rescale, np.sqrt((values ** 2).sum(axis=1)), norms)
    return np.divide(values, norms[:, None], out=out)


def _membership_kernel(values, lo, hi, scale, segments: int, out: np.ndarray) -> np.ndarray:
    """Degrees of all ``segments + 1`` terms, term-major, each written once into ``out``.

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
    offset = values - lo
    np.divide(offset, span, out=out[segments])
    np.subtract(1.0, out[segments], out=out[0])
    for h in range(1, segments):
        peak = lo + h * step
        np.minimum(offset / (peak - lo), 1.0 - (values - peak) / (hi - peak), out=out[h])
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
    group: DecisionGroup,
    terms: int = DEFAULT_TERMS,
    uniform_when_degenerate: bool = False,
) -> MembershipMatrix:
    """Memberships of every (alternative, attribute) pair of each expert.

    A single expert is a group of one. The group's values are read as the
    (k*q, p) stack of the experts' transposed matrices: a view when they are
    the transpose of a C-contiguous (k, q, p) buffer, else one copy. All
    degrees are computed in one alternative-innermost (terms, k*q, p) slab.
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
    k, p, q = group.values.shape
    values = group.values.transpose(0, 2, 1).reshape(k * q, p)
    lo, hi = values.min(axis=1), values.max(axis=1)
    scale = _span_scale(lo, hi)
    flat = _unsplittable(lo, hi, segments, scale)
    any_flat = flat.any()
    if any_flat:
        if not uniform_when_degenerate:
            e, j = divmod(int(np.flatnonzero(flat)[0]), q)
            raise DegenerateDomainError(
                f"attribute {group.attribute_labels[j]!r} of expert "
                f"{group.expert_ids[e]!r} has a single observed value "
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

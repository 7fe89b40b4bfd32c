"""Dempster-Shafer primitives.

A frame of discernment is an ordered set of mutually exclusive labels.
Propositions (subsets of the frame) are encoded as integer bitmasks over
the frame's element indices, which keeps subset tests, intersections and
cardinality (``int.bit_count``) cheap. Python integers are arbitrary
width, so the encoding works for frames of any size.

All types are immutable after construction and every operation is a pure
function, so values can be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterable, Mapping

import numpy as np

from .errors import DegenerateEvidenceError, FrameError, InvalidMassError

SUM_TOL = 1e-9  # how far from 1 a sum of masses or weights may lie


@dataclass(frozen=True)
class FrameOfDiscernment:
    """Ordered collection of distinct element labels."""

    elements: tuple[str, ...]

    def __post_init__(self):
        if len(self.elements) < 1:
            raise FrameError("frame needs at least one element")
        if len(set(self.elements)) != len(self.elements):
            raise FrameError(f"frame elements must be distinct: {self.elements!r}")
        object.__setattr__(
            self, "_index", {label: i for i, label in enumerate(self.elements)}
        )

    def __len__(self) -> int:
        return len(self.elements)

    @property
    def full_set(self) -> int:
        return (1 << len(self.elements)) - 1

    def subset(self, labels: Iterable[str]) -> int:
        """Encode a collection of element labels as a bitmask proposition."""
        mask = 0
        for label in labels:
            try:
                mask |= 1 << self._index[label]
            except KeyError:
                raise FrameError(f"element {label!r} not in frame {self.elements!r}")
        return mask

    def labels(self, mask: int) -> tuple[str, ...]:
        """Decode a bitmask back into element labels (frame order)."""
        self._check_mask(mask)
        return tuple(e for i, e in enumerate(self.elements) if mask >> i & 1)

    def _check_mask(self, mask: int) -> None:
        if mask < 0 or mask > self.full_set:
            raise FrameError(f"mask {mask:#x} outside frame of size {len(self)}")


class Bpa:
    """Basic probability assignment: masses over nonempty subsets of a frame.

    Masses must lie in [0, 1] and sum to 1 within ``SUM_TOL``. Inputs
    outside tolerance are rejected rather than silently renormalised.
    """

    def __init__(self, frame: FrameOfDiscernment, masses: Mapping[int | str | Iterable[str], float]):
        self.frame = frame
        converted: dict[int, float] = {}
        for key, value in masses.items():
            mask = self._as_mask(frame, key)
            if mask == 0:
                raise InvalidMassError("the empty set may not carry mass")
            if not (0.0 <= value <= 1.0 + SUM_TOL):
                raise InvalidMassError(f"mass {value!r} outside [0, 1]")
            converted[mask] = converted.get(mask, 0.0) + float(value)
        total = sum(converted.values())
        if abs(total - 1.0) > SUM_TOL:
            raise InvalidMassError(f"masses sum to {total!r}, expected 1")
        self.masses: Mapping[int, float] = MappingProxyType(converted)

    @staticmethod
    def _as_mask(frame: FrameOfDiscernment, key) -> int:
        if isinstance(key, int):
            frame._check_mask(key)
            return key
        if isinstance(key, str):
            return frame.subset([key])
        return frame.subset(key)

    def __repr__(self):
        pairs = ", ".join(
            f"{{{','.join(self.frame.labels(m))}}}={v:.4g}" for m, v in sorted(self.masses.items())
        )
        return f"{type(self).__name__}({pairs})"


@dataclass(frozen=True)
class WpblDistribution:
    """Normalised Bel+Pl values over an ordered proposition list (sums to 1)."""

    frame: FrameOfDiscernment
    propositions: tuple[int, ...]
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))


def belief(b: Bpa, proposition: int | str | Iterable[str]) -> float:
    """Total mass of focal elements contained in the proposition."""
    u = Bpa._as_mask(b.frame, proposition)
    return sum(v for mask, v in b.masses.items() if mask & ~u == 0)


def plausibility(b: Bpa, proposition: int | str | Iterable[str]) -> float:
    """Total mass of focal elements intersecting the proposition."""
    u = Bpa._as_mask(b.frame, proposition)
    return sum(v for mask, v in b.masses.items() if mask & u)


def wpbl(b: Bpa, propositions: Iterable[int | str | Iterable[str]]) -> WpblDistribution:
    """Normalised belief-plausibility distribution over a proposition list.

    value[i] = (Bel(A_i) + Pl(A_i)) / sum_j (Bel(A_j) + Pl(A_j))
    """
    masks = tuple(Bpa._as_mask(b.frame, prop) for prop in propositions)
    if not masks:
        raise DegenerateEvidenceError("empty proposition list")
    raw = np.array([belief(b, m) + plausibility(b, m) for m in masks])
    total = raw.sum()
    if total <= 0.0:
        raise DegenerateEvidenceError(
            "belief + plausibility vanish on every proposition"
        )
    return WpblDistribution(b.frame, masks, raw / total)

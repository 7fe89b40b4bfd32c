"""Exception hierarchy.

The CLI maps these onto its exit-code contract: parse errors exit 2,
numeric degeneracies exit 3, configuration problems exit 4.
"""


class MagdmError(Exception):
    """Base class for all library errors."""


class FrameError(MagdmError):
    """A proposition refers to elements outside the frame, or the frame is invalid."""


class InvalidMassError(MagdmError):
    """Mass assignment violates the BPA constraints."""


class DegenerateEvidenceError(MagdmError):
    """Belief-plausibility normalisation has a zero denominator."""


class DivergenceUndefinedError(MagdmError):
    """KL divergence requested where absolute continuity fails."""


class DegenerateAttributeError(MagdmError):
    """An attribute column cannot be normalised (zero Euclidean norm)."""


class DegenerateDomainError(MagdmError):
    """All observed values of an attribute coincide; no linguistic partition exists."""


class DegenerateCellError(MagdmError):
    """Cross-expert belief sum is zero for some (alternative, attribute) cell."""


class DegenerateRankingError(MagdmError):
    """The ideal solution is all-zero; ranking scores are undefined."""


class ZeroDivergenceError(MagdmError):
    """An expert has zero average divergence; its support 1/d is undefined."""


class NegativeDivergenceError(MagdmError):
    """An expert's average divergence is negative, so its weight would be too."""


class CsvFormatError(MagdmError):
    """Malformed CSV input; carries line/column context in the message."""


class ConfigError(MagdmError):
    """Invalid or unknown configuration."""

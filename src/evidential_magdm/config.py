"""Run configuration: validated, defaulted, and echoed into every report.

The defaults are the calibrated settings that best reproduce the bundled
recruitment study's published divergence table (see ``verify.py``):
max-entropy ordered weights at orness 0.95, pair weights (1/2, 1/2) and
belief-plausibility profiles over attribute propositions. Every divergence
is in bits (base 2), the paper's unit: a base-e run would only multiply
each by ln 2, which the expert weights' normalisation cancels.
"""

from __future__ import annotations

import dataclasses
import json
import numbers
import sys
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError
from .evidence import SUM_TOL


def read_json(path: str | Path, what: str):
    """The JSON value that ``path`` holds; a file that cannot be read or
    parsed is a ``ConfigError`` naming it as the ``what`` it is."""
    try:
        return json.loads(Path(path).read_text())
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} {path} is not valid JSON: {exc}") from exc


OWA_SCHEMES = ("uniform", "linear-descending", "orness")
WPBL_AXES = ("attributes", "alternatives")
ZERO_AVERAGE_POLICIES = ("error", "full-weight")


@dataclass(frozen=True)
class RunConfig:
    terms: int = 5
    owa_scheme: str = "orness"
    orness: float = 0.95
    pair_weights: tuple[float, float] = (0.5, 0.5)
    wpbl_axis: str = "attributes"
    uniform_when_degenerate: bool = False
    zero_average_policy: str = "error"
    seed: int = 0
    # feature-fusion harness
    block_size: int = 8
    sample_cap: int = 64
    split_ratio: float = 0.8

    def __post_init__(self):
        # the integer fields and their least values; bools are not integers here
        for name, least in (("terms", 5), ("seed", 0), ("block_size", 1), ("sample_cap", 2)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
            if value < least:
                raise ConfigError(f"{name} must be >= {least}, got {value}")
            object.__setattr__(self, name, int(value))
        if self.terms > 9:
            raise ConfigError(f"terms must be <= 9, got {self.terms}")
        if self.owa_scheme not in OWA_SCHEMES:
            raise ConfigError(f"unknown owa_scheme {self.owa_scheme!r}; use one of {OWA_SCHEMES}")
        # orness is checked under every scheme, so that no report echoes a value no run could take
        for name in ("orness", "split_ratio"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real) or not 0.0 < value < 1.0:
                raise ConfigError(f"{name} must be a real number in (0, 1), got {value!r}")
            object.__setattr__(self, name, float(value))
        if not isinstance(self.uniform_when_degenerate, bool):
            raise ConfigError(f"uniform_when_degenerate must be true or false, got {self.uniform_when_degenerate!r}")
        pw = self.pair_weights
        if not (isinstance(pw, (list, tuple)) and len(pw) == 2 and all(
            isinstance(w, numbers.Real) and not isinstance(w, bool) and abs(w) <= sys.float_info.max for w in pw
        )):  # a NaN fails the last test, and an int too large for a float too
            raise ConfigError(f"pair_weights must be two finite real numbers, got {pw!r}")
        pw = tuple(float(w) for w in pw)
        if min(pw) <= 0 or abs(sum(pw) - 1.0) > SUM_TOL:  # a zero weight zeroes every divergence
            raise ConfigError(f"pair_weights must be two positive values summing to 1, got {pw}")
        object.__setattr__(self, "pair_weights", pw)
        for name, choices in (("wpbl_axis", WPBL_AXES), ("zero_average_policy", ZERO_AVERAGE_POLICIES)):
            if getattr(self, name) not in choices:
                raise ConfigError(f"{name} must be one of {choices}, got {getattr(self, name)!r}")

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        try:
            return cls(**data)
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        data = read_json(path, "config")
        if not isinstance(data, dict):
            raise ConfigError(f"config {path} must hold a JSON object")
        return cls.from_dict(data)

    def replace(self, **changes) -> "RunConfig":
        return dataclasses.replace(self, **changes)

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out["pair_weights"] = list(self.pair_weights)
        return out

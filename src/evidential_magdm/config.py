"""Run configuration: validated, defaulted, and echoed into every report.

The defaults are the calibrated settings that best reproduce the bundled
recruitment study's published divergence table (see ``verify.py``):
max-entropy ordered weights at orness 0.95, log base 2, pair weights
(1/2, 1/2) and belief-plausibility profiles over attribute propositions.
"""

from __future__ import annotations

import dataclasses
import json
import numbers
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError

OWA_SCHEMES = ("uniform", "linear-descending", "orness")
WPBL_AXES = ("attributes", "alternatives")
ZERO_AVERAGE_POLICIES = ("error", "full-weight")


@dataclass(frozen=True)
class RunConfig:
    terms: int = 5
    owa_scheme: str = "orness"
    orness: float = 0.95
    log_base: str = "2"
    pair_weights: tuple[float, float] = (0.5, 0.5)
    wpbl_axis: str = "attributes"
    uniform_when_degenerate: bool = False
    zero_average_policy: str = "error"
    seed: int = 0
    # feature-fusion harness
    block_size: int = 8
    sample_cap: int = 64
    split_ratio: float = 0.8
    # input paths (optional; the CLI supplies them as arguments)
    inputs: tuple[str, ...] = ()

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
        if self.owa_scheme == "orness" and not 0.0 < self.orness < 1.0:
            raise ConfigError(f"orness must lie in (0, 1), got {self.orness}")
        if self.log_base not in ("2", "e"):
            raise ConfigError(f"log_base must be '2' or 'e', got {self.log_base!r}")
        pw = tuple(float(w) for w in self.pair_weights)
        if len(pw) != 2 or min(pw) <= 0 or abs(sum(pw) - 1.0) > 1e-9:  # a zero weight zeroes every divergence
            raise ConfigError(f"pair_weights must be two positive values summing to 1, got {pw}")
        object.__setattr__(self, "pair_weights", pw)
        if self.wpbl_axis not in WPBL_AXES:
            raise ConfigError(f"wpbl_axis must be one of {WPBL_AXES}, got {self.wpbl_axis!r}")
        if self.zero_average_policy not in ZERO_AVERAGE_POLICIES:
            raise ConfigError(
                f"zero_average_policy must be one of {ZERO_AVERAGE_POLICIES}, "
                f"got {self.zero_average_policy!r}"
            )
        if not 0.0 < self.split_ratio < 1.0:
            raise ConfigError(f"split_ratio must lie in (0, 1), got {self.split_ratio}")
        object.__setattr__(self, "inputs", tuple(self.inputs))

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
        try:
            text = Path(path).read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"config {path} must hold a JSON object")
        return cls.from_dict(data)

    def replace(self, **changes) -> "RunConfig":
        return dataclasses.replace(self, **changes)

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out["pair_weights"] = list(self.pair_weights)
        out["inputs"] = list(self.inputs)
        return out

"""Run manifests: the serializable record of what a CLI run was asked to do.

Every output file of a run embeds the manifest's hash, so artifacts can be
traced back to the exact inputs and settings that produced them, and
rerunning an identical manifest overwrites outputs byte-identically.

The fit fields (``dim`` through ``baseline``) mirror ``FitConfig``: they
take its defaults, and ``fit_config`` builds the config, so its checks are
the manifest's checks too.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass

from .dissimilarity import _METRICS
from .errors import ConfigError
from .fitting import FitConfig

FORMAT_VERSION = "1"

_COMMANDS = ("cmds", "fmds", "dissim", "synth")
_FORMATS = ("tensor_csv", "wide_csv")


@dataclass(frozen=True)
class RunManifest:
    """Everything needed to reproduce one CLI run."""

    command: str
    input_path: str = ""
    input_format: str = "tensor_csv"
    metric: str = "euclidean"
    window_len: int | None = None
    stride: int = 1
    dim: int = FitConfig.p
    interior_knots: int | None = FitConfig.interior_knots
    alpha: float = FitConfig.alpha
    gamma1: float = FitConfig.gamma1
    gamma2: float = FitConfig.gamma2
    eps: float = FitConfig.eps
    max_epochs: int = FitConfig.max_epochs
    seed: int = FitConfig.rng_seed
    init: str = FitConfig.init_mode
    baseline: str = FitConfig.baseline
    scenario: str = "smooth_rotation"
    scenario_n: int = 5
    scenario_m: int = 40
    noise_sd: float = 0.0
    out_dir: str = "."
    deterministic: bool = False
    format_version: str = FORMAT_VERSION

    def validate(self) -> None:
        if self.command not in _COMMANDS:
            raise ConfigError(f"unknown command {self.command!r}")
        if self.input_format not in _FORMATS:
            raise ConfigError(f"unknown input format {self.input_format!r}")
        if self.metric not in _METRICS:
            raise ConfigError(f"unknown metric {self.metric!r}")
        if self.window_len is not None and self.window_len < 1:
            raise ConfigError(f"window length must be positive, got {self.window_len}")
        if self.stride < 1:
            raise ConfigError(f"stride must be positive, got {self.stride}")
        self.fit_config()

    def fit_config(self) -> FitConfig:
        """The fit settings as a checked ``FitConfig``."""
        return FitConfig(
            p=self.dim, interior_knots=self.interior_knots, alpha=self.alpha,
            gamma1=self.gamma1, gamma2=self.gamma2, eps=self.eps,
            max_epochs=self.max_epochs, rng_seed=self.seed, init_mode=self.init,
            baseline=self.baseline,
        )

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RunManifest":
        known = {f for f in cls.__dataclass_fields__}
        extra = set(data) - known
        if extra:
            raise ConfigError(f"unknown manifest fields: {sorted(extra)}")
        return cls(**data)

    def sha256(self) -> str:
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

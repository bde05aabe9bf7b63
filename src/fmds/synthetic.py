"""Synthetic scenario generators for tests, demos, and the ``synth`` command.

Each scenario produces smooth closed-form ground-truth trajectories, the
dissimilarity tensor of their (optionally noise-jittered) samples, and an
observation panel with one row per object coordinate. All output is
deterministic under the scenario seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dissimilarity import DissimilarityTensor, ObjectPanel, _pair_distances
from .errors import ConfigError

_KINDS = ("static_cloud", "smooth_rotation", "random_walk_smoothed")


@dataclass(frozen=True)
class SyntheticScenario:
    """Recipe for one synthetic data set."""

    kind: str
    n: int = 5
    p_true: int = 2
    m: int = 40
    noise_sd: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ConfigError(f"unknown scenario kind {self.kind!r}; choose from {_KINDS}")
        if self.n < 2:
            raise ConfigError(f"need at least 2 objects, got {self.n}")
        if self.p_true < 1:
            raise ConfigError(f"trajectory dimension must be at least 1, got {self.p_true}")
        if self.kind == "smooth_rotation" and self.p_true != 2:
            raise ConfigError("smooth_rotation places objects on circles in the plane; p_true must be 2")
        if self.m < 2:
            raise ConfigError(f"need at least 2 time points, got {self.m}")
        if not 0 <= self.noise_sd < np.inf:
            raise ConfigError(f"noise level must be nonnegative and finite, got {self.noise_sd}")
        if self.seed < 0:
            raise ConfigError(f"random seed must be nonnegative, got {self.seed}")


def _trajectories(scenario: SyntheticScenario, grid: np.ndarray,
                  rng: np.random.Generator) -> np.ndarray:
    n, p, m = scenario.n, scenario.p_true, scenario.m
    if scenario.kind == "static_cloud":
        points = rng.normal(size=(n, p))
        return np.repeat(points[:, None, :], m, axis=1)
    if scenario.kind == "smooth_rotation":
        # circles with distinct radii, phases, and angular speeds, so the
        # pairwise distances genuinely vary over time while every slice is
        # exactly a planar configuration
        radii = rng.uniform(0.5, 1.5, size=n)
        phases = rng.uniform(0.0, 2.0 * np.pi, size=n)
        speeds = rng.uniform(0.5 * np.pi, 1.5 * np.pi, size=n)
        angles = phases[:, None] + speeds[:, None] * grid[None, :]
        return np.stack(
            [radii[:, None] * np.cos(angles), radii[:, None] * np.sin(angles)], axis=-1
        )
    # random_walk_smoothed: low-frequency trigonometric series with
    # amplitudes decaying like 1/frequency, a smooth closed-form stand-in
    # for a smoothed random walk
    freqs = np.arange(1, 4)
    amps = rng.normal(size=(n, p, freqs.size)) / freqs
    shifts = rng.uniform(0.0, 2.0 * np.pi, size=(n, p, freqs.size))
    phase = 2.0 * np.pi * freqs[None, None, :, None] * grid[None, None, None, :]
    waves = np.sin(phase + shifts[..., None])
    return np.einsum("ipf,ipfk->ikp", amps, waves)


def generate(
    scenario: SyntheticScenario,
) -> tuple[ObjectPanel, DissimilarityTensor, np.ndarray]:
    """Produce (panel, tensor, ground-truth trajectories) for a scenario.

    Trajectories have shape (n, m, p_true) and are noiseless closed-form
    curves; the tensor holds the Euclidean distances of the observed
    (possibly jittered) samples, and the panel exposes those same samples
    with one labelled row per object coordinate.
    """
    grid = np.linspace(0.0, 1.0, scenario.m)
    rng = np.random.default_rng(scenario.seed)
    truth = _trajectories(scenario, grid, rng)
    observed = truth
    if scenario.noise_sd > 0:
        observed = truth + rng.normal(scale=scenario.noise_sd, size=truth.shape)

    h, j = np.triu_indices(scenario.n, 1)
    pairs = np.empty((h.size, scenario.m))
    for k, out in enumerate(pairs.T):
        _pair_distances(observed[:, k, :], h, j, out)
    tensor = DissimilarityTensor._from_pairs(grid, pairs, scenario.n)

    if scenario.p_true == 1:
        labels = tuple(f"o{i + 1}" for i in range(scenario.n))
        values = observed[:, :, 0]
    else:
        labels = tuple(
            f"o{i + 1}_c{c + 1}"
            for i in range(scenario.n)
            for c in range(scenario.p_true)
        )
        values = observed.transpose(0, 2, 1).reshape(-1, scenario.m)
    panel = ObjectPanel(labels, values, grid)
    return panel, tensor, truth

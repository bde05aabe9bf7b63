"""Brute-force references that only the tests compare against.

The Adam update one object at a time, and the objective with its full
gradient expanded as plain loops. ``fmds.reference`` keeps the references
that ``fmds verify`` runs too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from fmds.dissimilarity import DissimilarityTensor
from fmds.fitting import _DENOM_SHIFT, CoefficientSet, FitConfig
from fmds.reference import naive_bspline


@dataclass
class AdamState:
    """Adam with per-object moments and update counters, one step at a time;
    an object's bias-correction exponent is its own count of updates."""

    first_moment: np.ndarray
    second_moment: np.ndarray
    step_counts: np.ndarray
    alpha: float = FitConfig.alpha
    gamma1: float = FitConfig.gamma1
    gamma2: float = FitConfig.gamma2
    denom_shift: float = _DENOM_SHIFT

    @classmethod
    def zeros(cls, n: int, p: int, q: int, **rates) -> "AdamState":
        return cls(np.zeros((n, p, q)), np.zeros((n, p, q)), np.zeros(n, dtype=np.int64),
                   **rates)

    def step(self, index: int, gradient: np.ndarray) -> np.ndarray:
        """Absorb one gradient for an object and return its parameter increment.

        At the first update the bias corrections cancel and the increment is
        -alpha * g / (|g| + shift) elementwise.
        """
        g = np.asarray(gradient, dtype=float)
        self.step_counts[index] += 1
        t = int(self.step_counts[index])
        m = self.gamma1 * self.first_moment[index] + (1.0 - self.gamma1) * g
        v = self.gamma2 * self.second_moment[index] + (1.0 - self.gamma2) * (g * g)
        self.first_moment[index], self.second_moment[index] = m, v
        m_hat = m / (1.0 - self.gamma1 ** t)
        v_hat = v / (1.0 - self.gamma2 ** t)
        return -self.alpha * m_hat / (np.sqrt(v_hat) + self.denom_shift)


def naive_stress_and_grad(
    coeffs: CoefficientSet, tensor: DissimilarityTensor
) -> tuple[float, list[np.ndarray]]:
    """Objective value and its full gradient per object, by expanded loops.

    The gradient of the total objective with respect to object i collects
    the contributions of every pair containing i.
    """
    c = coeffs.coefficients
    n, p, q = c.shape
    grid = tensor.time_grid

    total = 0.0
    grads = [np.zeros((p, q)) for _ in range(n)]
    for k in range(grid.size):
        beta = naive_bspline(coeffs.knots, grid[k])
        for i in range(n):
            for j in range(i + 1, n):
                u = c[i] @ beta - c[j] @ beta
                resid = tensor.values[k, i, j] ** 2 - float(u @ u)
                total += resid * resid
                piece = 4.0 * resid * np.outer(u, beta)
                grads[i] -= piece
                grads[j] += piece
    return total, grads

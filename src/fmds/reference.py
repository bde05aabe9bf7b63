"""Brute-force reference implementations.

Everything here is a literal, unoptimized transcription of the defining
formulas: recursive basis evaluation with no shared work, objective and
gradients expanded as plain loops, and a generic central-difference
gradient. These are the cross-checks the fast implementations are tested
against, both in the test suite and through the ``verify`` CLI command;
any disagreement beyond tolerance is treated as a bug in the fast path.
"""

from __future__ import annotations

import numpy as np

from .bspline import KnotVector, _check_in_domain
from .dissimilarity import DissimilarityTensor
from .fitting import CoefficientSet


def _indicator(knots: np.ndarray, l: int, t: float) -> float:
    """Order-1 basis: 1 on [knot_l, knot_{l+1}), with the domain's right
    endpoint owned by the last nonempty interval; zero-width intervals are
    identically zero."""
    if knots[l] == knots[l + 1]:
        return 0.0
    if knots[l] <= t < knots[l + 1]:
        return 1.0
    if t == knots[-1] and knots[l + 1] == knots[-1]:
        return 1.0
    return 0.0


def _recurse(knots: np.ndarray, l: int, order: int, t: float) -> float:
    if order == 1:
        return _indicator(knots, l, t)
    # A term whose lower-order value is zero is zero, even where its ratio is
    # 0/0 or, on a subnormal knot span, overflows to inf. A nonzero lower
    # value puts t inside that function's support, so its span is positive.
    acc = 0.0
    lower = _recurse(knots, l, order - 1, t)
    if lower != 0.0:
        acc += (t - knots[l]) / (knots[l + order - 1] - knots[l]) * lower
    lower = _recurse(knots, l + 1, order - 1, t)
    if lower != 0.0:
        acc += (knots[l + order] - t) / (knots[l + order] - knots[l + 1]) * lower
    return acc


def naive_bspline(kv: KnotVector, t: float) -> np.ndarray:
    """All basis values at t by direct unmemoized recursion."""
    _check_in_domain(kv, t)
    return np.array([_recurse(kv.extended, l, kv.order, t) for l in range(kv.num_basis)])


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
    stacked = tensor.stacked()

    total = 0.0
    grads = [np.zeros((p, q)) for _ in range(n)]
    for k in range(grid.size):
        beta = naive_bspline(coeffs.knots, grid[k])
        for i in range(n):
            for j in range(i + 1, n):
                u = c[i] @ beta - c[j] @ beta
                resid = stacked[k, i, j] ** 2 - float(u @ u)
                total += resid * resid
                piece = 4.0 * resid * np.outer(u, beta)
                grads[i] -= piece
                grads[j] += piece
    return total, grads


def central_difference_gradient(func, matrix: np.ndarray,
                                step_scale: float = 1e-6) -> np.ndarray:
    """Entrywise central finite differences of a scalar function of a matrix.

    The step for each entry is step_scale * (1 + |entry|).
    """
    base = np.asarray(matrix, dtype=float)
    grad = np.zeros_like(base)
    for idx in np.ndindex(base.shape):
        h = step_scale * (1.0 + abs(base[idx]))
        plus = base.copy()
        plus[idx] += h
        minus = base.copy()
        minus[idx] -= h
        grad[idx] = (func(plus) - func(minus)) / (2.0 * h)
    return grad

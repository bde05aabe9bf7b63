"""Clamped B-spline bases and least-squares curve smoothing.

A spline space of order ``s`` on ``[a, b]`` with ``L`` interior breakpoints
has ``q = s + L`` basis functions. Bases are evaluated bottom-up from
order-1 indicator functions, raising the order one step at a time; the
resulting functions are nonnegative, locally supported, and sum to one
everywhere on the closed domain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    IllConditioned,
    InvalidDomain,
    InvalidKnots,
    OutOfDomain,
    ShapeError,
    Underdetermined,
)

# Least-squares designs with a reciprocal condition estimate below this are
# rejected instead of silently producing garbage coefficients.
RCOND_LIMIT = 1e-12


@dataclass(frozen=True, eq=False)
class KnotVector:
    """Breakpoints of a clamped spline space.

    ``extended`` is the full non-decreasing knot sequence with each domain
    endpoint replicated ``order`` times, so endpoint values are interpolated
    and the basis size is ``order + interior.size``.
    """

    domain: tuple[float, float]
    interior: np.ndarray
    order: int
    extended: np.ndarray

    @property
    def num_basis(self) -> int:
        """Number of basis functions of this space."""
        return self.order + self.interior.size


@dataclass(frozen=True, eq=False)
class BasisMatrix:
    """Basis functions tabulated on a grid: entry (j, k) is the k-th basis
    function evaluated at the j-th grid point."""

    values: np.ndarray
    knots: KnotVector


@dataclass(frozen=True, eq=False)
class SmoothCurve:
    """A curve expressed as a coefficient vector against a spline basis."""

    coefficients: np.ndarray
    knots: KnotVector


def make_knots(domain, interior=(), order: int = 4) -> KnotVector:
    """Build a clamped knot vector.

    Parameters
    ----------
    domain : (float, float)
        Closed interval ``[a, b]`` with ``a < b``.
    interior : sequence of float
        Strictly increasing breakpoints strictly inside ``(a, b)``.
    order : int
        Spline order (cubic splines have order 4).

    Raises
    ------
    InvalidDomain
        If ``a >= b``.
    InvalidKnots
        If ``order < 1``, the interior points are not strictly increasing,
        or any interior point falls outside the open domain.
    """
    a, b = float(domain[0]), float(domain[1])
    if not a < b:
        raise InvalidDomain(f"degenerate domain [{a}, {b}]")
    if order < 1:
        raise InvalidKnots(f"order must be at least 1, got {order}")
    pts = np.asarray(interior, dtype=float).ravel()
    if pts.size and not np.all(np.diff(pts) > 0):
        raise InvalidKnots("interior breakpoints must be strictly increasing")
    if pts.size and (pts[0] <= a or pts[-1] >= b):
        raise InvalidKnots("interior breakpoints must lie strictly inside the domain")
    extended = np.concatenate([np.full(order, a), pts, np.full(order, b)])
    return KnotVector((a, b), pts, int(order), extended)


def _check_in_domain(kv: KnotVector, t: float) -> None:
    a, b = kv.domain
    if not a <= t <= b:
        raise OutOfDomain(f"t = {t} outside the domain [{a}, {b}]")


def _tabulate(kv: KnotVector, pts: np.ndarray, order: int) -> np.ndarray:
    """Order-``order`` basis values at every point, one row per point.

    Each point starts from the order-1 indicator of its half-open knot
    interval [knot_l, knot_{l+1}); a point on a zero-width interval steps
    back to the nearest nonempty one below it, so the domain's right
    endpoint belongs to the last nonempty interval and the order-1
    functions are a partition of unity on the closed domain. Rows are then
    raised one order at a time for all points together. Each entry starts
    from 0.0 and gains the recurrence's left and right terms only where the
    lower-order value a term multiplies is nonzero. There the point lies in
    that function's support, a nonempty run of knot intervals, so the knot
    span is positive (coincident knots never divide) and the ratio lies in
    [0, 1] (it cannot overflow into 0 * inf = nan). The terms skipped are
    zero, so every finite entry matches the scalar recurrence bit for bit.
    """
    a, b = kv.domain
    outside = ~((a <= pts) & (pts <= b))
    if outside.any():
        _check_in_domain(kv, pts[np.argmax(outside)])  # raises for the first one
    knots = kv.extended
    interval = np.arange(knots.size - 1)
    owner = np.maximum.accumulate(np.where(knots[1:] > knots[:-1], interval, 0))
    cell = np.minimum(np.searchsorted(knots, pts, side="right") - 1, knots.size - 2)
    rows = (owner[cell][:, None] == interval).astype(float)
    for s in range(2, order + 1):
        count = knots.size - s
        lo, hi = knots[:count], knots[s:]
        left_span = knots[s - 1:s - 1 + count] - lo
        right_span = hi - knots[1:count + 1]
        raised = np.zeros((pts.size, count))
        j, l = np.nonzero(rows[:, :count])
        raised[j, l] += (pts[j] - lo[l]) / left_span[l] * rows[j, l]
        j, l = np.nonzero(rows[:, 1:])
        raised[j, l] += (hi[l] - pts[j]) / right_span[l] * rows[j, l + 1]
        rows = raised
    return rows


def eval_basis_order1(kv: KnotVector, t: float) -> np.ndarray:
    """Order-1 (indicator) basis values over the extended knot sequence.

    Returns one value per knot interval; exactly one entry is 1 and the
    rest are 0. Zero-width intervals (replicated boundary knots) carry
    identically zero functions.
    """
    _check_in_domain(kv, t)
    return _tabulate(kv, np.array([t], dtype=float), 1)[0]


def eval_basis(kv: KnotVector, t: float) -> np.ndarray:
    """All basis function values at ``t``, by the order-raising recurrence.

    The returned vector has ``kv.num_basis`` nonnegative entries summing
    to 1, with at most ``kv.order`` of them nonzero.
    """
    _check_in_domain(kv, t)
    return _tabulate(kv, np.array([t], dtype=float), kv.order)[0]


def basis_matrix(kv: KnotVector, grid) -> BasisMatrix:
    """Tabulate the basis on a grid of points inside the domain.

    Raises OutOfDomain naming the first grid point outside the domain.
    """
    pts = np.asarray(grid, dtype=float).ravel()
    return BasisMatrix(_tabulate(kv, pts, kv.order), kv)


def _solve_least_squares(design: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Minimum-residual solve of ``design @ x = targets`` via SVD.

    ``targets`` may hold several right-hand sides as columns. Raises
    IllConditioned when the reciprocal condition estimate of the design
    falls below RCOND_LIMIT.
    """
    u, s, vt = np.linalg.svd(design, full_matrices=False)
    rcond = s[-1] / s[0] if s[0] > 0.0 else 0.0
    if rcond < RCOND_LIMIT:
        raise IllConditioned(
            f"reciprocal condition estimate {rcond:.3e} below {RCOND_LIMIT:g}"
        )
    return vt.T @ ((u.T @ targets) / s[:, None])


def smooth_least_squares(y, basis: BasisMatrix) -> SmoothCurve:
    """Least-squares fit of sampled values against a tabulated basis.

    Minimizes the sum of squared residuals between ``y`` and the spline
    evaluated on the grid the basis was tabulated on. The normal equations
    are solved through an orthogonal decomposition of the design matrix
    rather than by forming and inverting its Gram matrix.

    Raises
    ------
    Underdetermined
        If there are fewer samples than basis functions.
    IllConditioned
        If the design is numerically rank deficient.
    """
    samples = np.asarray(y, dtype=float).ravel()
    m, q = basis.values.shape
    if samples.size != m:
        raise ShapeError(f"{samples.size} samples but the basis is tabulated on {m} points")
    if m < q:
        raise Underdetermined(f"need at least {q} samples to fit {q} coefficients, got {m}")
    coeffs = _solve_least_squares(basis.values, samples[:, None])[:, 0]
    return SmoothCurve(coeffs, basis.knots)


def eval_curve(curve: SmoothCurve, t: float) -> float:
    """Evaluate a smoothed curve at a point of its domain."""
    return float(curve.coefficients @ eval_basis(curve.knots, t))

"""Fitting smooth embedding trajectories to time-varying dissimilarities.

Each object i gets a (p x q) coefficient matrix against a shared cubic
spline basis, so its embedded position at time t is the matrix applied to
the basis vector at t. The coefficients are chosen to minimize the squared
stress

    F = sum over pairs (h, j) and grid times t_k of
        [d_hj(t_k)^2 - ||x_h(t_k) - x_j(t_k)||^2]^2,

driven by a pairwise Adam scheme: every epoch visits all object pairs, the
first index in shuffled order, applying the analytic pair gradient to both
objects' coefficients through per-object moment estimates. A per-slice
classical MDS solution, rotation-aligned across slices and smoothed into
spline coefficients, provides the warm start.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bspline import KnotVector, basis_matrix, make_knots, _solve_least_squares
from .cmds import _mds_slices
from .dissimilarity import DissimilarityTensor, _squared_norms, euclidean_dissimilarity
from .errors import (
    ConfigError,
    DivergedError,
    InsufficientObjects,
    ShapeError,
    Underdetermined,
)

# Stress beyond this multiple of the data's quartic scale (sum of d**4 over
# pairs and times, floored at 1) aborts the fit as diverged; the quartic
# objective can explode quickly under a bad step size.
STRESS_OVERFLOW = 1e30

CUBIC_ORDER = 4

# Adam's shift of the denominator sqrt(v_hat) away from zero
_DENOM_SHIFT = 1e-8

# numpy sums a contiguous float64 array pairwise: it splits a range at half
# its length, rounded down to a multiple of 8, down to ranges of 128. A range
# of at most this many elements is a leaf of ``_tree_sum``: one np.sum,
# which follows the same tree inside it.
_LEAF = 1 << 16


@dataclass(frozen=True, eq=False)
class CoefficientSet:
    """Per-object coefficient matrices against a shared spline basis.

    ``coefficients`` has shape (n, p, q): n objects, p embedding
    dimensions, q basis functions of ``knots``.
    """

    coefficients: np.ndarray
    knots: KnotVector

    def __post_init__(self):
        coeffs = np.asarray(self.coefficients, dtype=float)
        if coeffs.ndim != 3:
            raise ShapeError(f"coefficients must be (n, p, q), got shape {coeffs.shape}")
        if coeffs.shape[2] != self.knots.num_basis:
            raise ShapeError(
                f"coefficient matrices have {coeffs.shape[2]} columns but the "
                f"basis has {self.knots.num_basis} functions"
            )
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def n(self) -> int:
        return self.coefficients.shape[0]

    @property
    def p(self) -> int:
        return self.coefficients.shape[1]

    @property
    def q(self) -> int:
        return self.coefficients.shape[2]


_INIT_MODES = ("cmds_warm", "random")


@dataclass(frozen=True)
class FitConfig:
    """Fit hyperparameters.

    ``interior_knots=None`` resolves to max(1, m // 10) at fit time, where
    m is the number of tensor time points; the basis is always cubic, so
    q = 4 + interior_knots.
    """

    p: int = 2
    interior_knots: int | None = None
    alpha: float = 0.001
    gamma1: float = 0.9
    gamma2: float = 0.999
    eps: float = 1e-6
    max_epochs: int = 1000
    rng_seed: int = 0
    init_mode: str = "cmds_warm"
    baseline: str = "adam"

    def __post_init__(self):
        if self.p < 1:
            raise ConfigError(f"embedding dimension must be at least 1, got {self.p}")
        if self.interior_knots is not None and self.interior_knots < 0:
            raise ConfigError(f"interior knot count must be nonnegative, got {self.interior_knots}")
        if not 0 < self.alpha < np.inf:
            raise ConfigError(f"step size must be positive and finite, got {self.alpha}")
        if not 0 <= self.gamma1 < 1 or not 0 <= self.gamma2 < 1:
            raise ConfigError("decay rates must lie in [0, 1)")
        if not 0 < self.eps < np.inf:
            raise ConfigError(f"convergence tolerance must be positive and finite, got {self.eps}")
        if self.max_epochs < 1:
            raise ConfigError(f"max_epochs must be at least 1, got {self.max_epochs}")
        if self.rng_seed < 0:
            raise ConfigError(f"random seed must be nonnegative, got {self.rng_seed}")
        if self.init_mode not in _INIT_MODES:
            raise ConfigError(f"unknown init mode {self.init_mode!r}")
        if self.baseline not in _METHODS:
            raise ConfigError(f"unknown baseline {self.baseline!r}")


def _adam_update(moments, grads, decay, gain, correction, neg_alpha, shift, scratch, out) -> None:
    """One Adam step on stacked moments, in place; the increment goes to ``out``.

    ``moments`` is (..., 2, p, q), the first and second moments of one or
    more objects; ``grads`` holds (g/s, g*g/(s*s)) and ``gain`` (1 - gamma) *
    (s, s*s) with s = ±4, which scales exactly, so gain * grads rounds as
    (1 - gamma) * (g, g*g) short of overflow and underflow. The moments become
    decay * moments + gain * grads, and ``out`` (..., p, q) receives -alpha *
    m_hat / (sqrt(v_hat) + shift), the hats being the moments / ``correction``.
    """
    np.multiply(grads, gain, scratch)
    np.multiply(moments, decay, moments)
    np.add(moments, scratch, moments)
    np.divide(moments, correction, scratch)
    m_hat, v_hat = scratch[..., 0, :, :], scratch[..., 1, :, :]
    np.sqrt(v_hat, v_hat)
    np.add(v_hat, shift, v_hat)
    np.multiply(m_hat, neg_alpha, out)
    np.divide(out, v_hat, out)


@dataclass(frozen=True, eq=False)
class FitResult:
    """Outcome of a fit: final coefficients plus per-epoch diagnostics."""

    coefficients: CoefficientSet
    stress_per_epoch: np.ndarray
    epochs_run: int
    converged: bool
    max_displacement_per_epoch: np.ndarray
    initial_stress: float

    @property
    def best_epoch(self) -> int:
        """The epoch with the lowest stress, the first on a tie; epoch 0 is
        the initialisation. The coefficients are still the final epoch's."""
        return int(np.argmin([self.initial_stress, *self.stress_per_epoch]))

    @property
    def best_stress(self) -> float:
        """The stress at ``best_epoch``."""
        return float(min([self.initial_stress, *self.stress_per_epoch]))


@dataclass(frozen=True, eq=False)
class EmbeddingTrajectory:
    """Embedded positions over a grid and the dissimilarities they induce.

    ``positions`` has shape (num_times, n, p); ``fitted_dissimilarities``
    stacks the ``euclidean_dissimilarity`` of each grid point's positions,
    so it needs two objects and finite positions. It is computed when first
    read and then kept.
    """

    time_grid: np.ndarray
    positions: np.ndarray

    @cached_property
    def fitted_dissimilarities(self) -> np.ndarray:
        points, n, _ = self.positions.shape
        # one grid point at a time, so no (points, n, n, p) difference tensor exists
        fitted = np.empty((points, n, n))
        for at, out in zip(self.positions, fitted):
            out[...] = euclidean_dissimilarity(at).values
        return fitted


def _fit_knots(grid: np.ndarray, interior_count: int) -> KnotVector:
    """Cubic knot vector spanning the grid with uniform interior knots."""
    a, b = float(grid[0]), float(grid[-1])
    interior = np.linspace(a, b, interior_count + 2)[1:-1]
    return make_knots((a, b), interior, order=CUBIC_ORDER)


# ---------------------------------------------------------------------------
# objective and gradients


def _tree_sum(start: int, size: int, leaf_sum):
    """numpy's pairwise sum of the ``size`` elements from ``start`` on, given
    ``leaf_sum(start, k)``, the np.sum of the k elements from ``start``."""
    if size <= _LEAF:
        return leaf_sum(start, size)
    half = size // 2 - size // 2 % 8
    return _tree_sum(start, half, leaf_sum) + _tree_sum(start + half, size - half, leaf_sum)


def _sum_rows(shape: tuple[int, int], fill) -> float:
    """``np.sum`` of a (rows, m) float64 array, bit for bit, given
    ``fill(first, stop, out)``, which writes its rows first..stop-1 into
    ``out``. Each leaf's rows are filled into one buffer and the leaf is
    summed there, so a row that two leaves share is filled for each."""
    rows, m = shape
    buffer = np.empty((min(rows, _LEAF // m + 2), m))

    def leaf_sum(start, size):
        first, stop = start // m, -(-(start + size) // m)
        out = buffer[:stop - first]
        fill(first, stop, out)
        offset = start - first * m
        return out.reshape(-1)[offset:offset + size].sum()

    return float(_tree_sum(0, rows * m, leaf_sum))


def _stress_value(coeffs: np.ndarray, pairs: np.ndarray, basis: np.ndarray) -> float:
    """Squared stress of raw coefficient arrays against the condensed pairs
    of d: row h * (2n - h - 1) / 2 + j - h - 1 holds pair (h, j).

    The residuals of a leaf's pair rows are formed in place, a few objects
    h at a time, and summed by ``_sum_rows``, so no (pairs, times, p)
    difference array, no full residual array and no squared copy of d
    exists, and the sum has the bits of np.sum over the whole residual
    array.
    """
    pos = np.einsum("ipq,kq->ikp", coeffs, basis)
    n, m, p = pos.shape
    # one object's pairs within one leaf: no more than n - 1 or _sum_rows's buffer
    rows = min(n - 1, _LEAF // m + 2)
    scratch = np.empty((rows, m, p))
    sums = np.empty((rows, m))
    # one past the last pair row of each object h
    ends = list(itertools.accumulate(range(n - 1, 0, -1)))

    def fill(first, stop, out):
        np.square(pairs[first:stop], out=out)
        h = bisect.bisect_right(ends, first)
        row = first
        while row < stop:
            end = min(stop, ends[h])
            # row holds the pair (h, j)
            j = row + n - ends[h]
            diff, sq = scratch[:end - row], sums[:end - row]
            np.subtract(pos[h], pos[j:j + end - row], out=diff)
            np.multiply(diff, diff, out=diff)
            resid = out[row - first:end - first]
            np.subtract(resid, _squared_norms(diff, sq), out=resid)
            row, h = end, h + 1
        np.multiply(out, out, out=out)

    return _sum_rows(pairs.shape, fill)


def _collapsed_stress(pairs: np.ndarray) -> float:
    """The stress with every object at one point, the data's own scale of
    stress: np.sum(np.square(np.square(pairs))) bit for bit, squaring a
    leaf of pairs twice at a time."""
    return _sum_rows(pairs.shape, lambda first, stop, out: np.square(
        np.square(pairs[first:stop], out=out), out=out))


def _pair_grad(c_h: np.ndarray, c_j: np.ndarray, d_pair: np.ndarray,
               basis: np.ndarray) -> np.ndarray:
    """Gradient of the pair objective with respect to the first matrix.

    The gradient with respect to the second matrix is exactly the negation.
    """
    u = (c_h - c_j) @ basis.T
    resid = np.square(d_pair) - (u * u).sum(axis=0)
    return -4.0 * (u * resid) @ basis


def _full_gradients(coeffs: np.ndarray, pairs: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Gradient of the full objective with respect to every coefficient matrix.

    Each pair's term -4 r (x_h - x_j) goes to h and, negated, to j. The
    pairs are formed one object h at a time, as in ``_stress_value``, and
    their targets squared one row at a time.
    """
    pos = np.einsum("ipq,kq->ikp", coeffs, basis)
    force = np.zeros(pos.shape)
    start = 0
    for h in range(pos.shape[0] - 1):
        diff = pos[h] - pos[h + 1:]
        rows = np.square(pairs[start:start + diff.shape[0]])
        start += diff.shape[0]
        diff *= (rows - _squared_norms(diff * diff))[..., None]
        force[h] += diff.sum(axis=0)
        force[h + 1:] -= diff
    return -4.0 * np.einsum("ikp,kq->ipq", force, basis)


def _pair_targets(tensor: DissimilarityTensor, h: int, j: int,
                  knots: KnotVector) -> tuple[np.ndarray, np.ndarray]:
    """The basis on the tensor's grid and the d values of pair (h, j)."""
    if h == j:
        raise ShapeError("pair indices must differ")
    if not (0 <= h < tensor.n and 0 <= j < tensor.n):
        raise ShapeError(f"pair ({h}, {j}) outside object range [0, {tensor.n})")
    a, b = min(h, j), max(h, j)
    row = a * (2 * tensor.n - a - 1) // 2 + b - a - 1
    return basis_matrix(knots, tensor.time_grid).values, tensor._pairs[row]


def stress(coeffs: CoefficientSet, tensor: DissimilarityTensor) -> float:
    """Squared stress of a coefficient set against a dissimilarity tensor.

    Zero exactly when the embedded squared distances reproduce the squared
    dissimilarities at every pair and grid time.
    """
    if tensor.n != coeffs.n:
        raise ShapeError(f"tensor has {tensor.n} objects but coefficients have {coeffs.n}")
    basis = basis_matrix(coeffs.knots, tensor.time_grid).values
    return _stress_value(coeffs.coefficients, tensor._pairs, basis)


def pair_stress(c_h, c_j, tensor: DissimilarityTensor, h: int, j: int,
                knots: KnotVector) -> float:
    """Contribution of one object pair to the squared stress.

    Summing over all pairs h < j recovers the full objective.
    """
    basis, d_pair = _pair_targets(tensor, h, j, knots)
    return _stress_value(np.array((c_h, c_j), dtype=float), d_pair[None], basis)


def pair_gradients(c_h, c_j, tensor: DissimilarityTensor, h: int, j: int,
                   knots: KnotVector) -> tuple[np.ndarray, np.ndarray]:
    """Analytic gradients of the pair objective for both matrices.

    Returns (g_h, g_j); the second is exactly the negation of the first,
    since the objective depends on the matrices only through their
    difference.
    """
    basis, d_pair = _pair_targets(tensor, h, j, knots)
    g_h = _pair_grad(np.asarray(c_h, float), np.asarray(c_j, float), d_pair, basis)
    return g_h, -g_h


# ---------------------------------------------------------------------------
# initialization


def _procrustes_rotation(source: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Orthogonal matrix R minimizing ||source @ R - target|| in Frobenius norm.

    R is the orthogonal polar factor of the cross-covariance source^T target;
    reflections are allowed.
    """
    u, _, vt = np.linalg.svd(source.T @ target)
    return u @ vt


def _resolve_layout(tensor: DissimilarityTensor, config: FitConfig) -> tuple[KnotVector, int]:
    """The fit's knot vector and basis size; too few objects or time points raise."""
    if tensor.n < 2:
        raise InsufficientObjects(f"need at least 2 objects, got {tensor.n}")
    interior = (
        config.interior_knots
        if config.interior_knots is not None
        else max(1, tensor.num_times // 10)
    )
    q = CUBIC_ORDER + interior
    if tensor.num_times < q:
        raise Underdetermined(
            f"{tensor.num_times} time points cannot determine {q} coefficients; "
            f"reduce the interior knot count"
        )
    return _fit_knots(tensor.time_grid, interior), q


def init_from_cmds(tensor: DissimilarityTensor, config: FitConfig) -> CoefficientSet:
    """Warm-start coefficients from per-slice classical MDS.

    Each time slice is embedded independently, then successive slices are
    aligned to their predecessor by an orthogonal Procrustes rotation --
    per-slice spectral solutions are only defined up to rotation and
    reflection, so without alignment the coordinate series are not
    smoothable. Finally every object/coordinate series is least-squares
    smoothed into one row of the coefficient matrices.
    """
    knots, q = _resolve_layout(tensor, config)
    m, n, p = tensor.num_times, tensor.n, config.p

    aligned = np.empty((m, n, p))
    for k, (embedded, _) in enumerate(_mds_slices(tensor._pairs, p)):
        aligned[k] = embedded @ _procrustes_rotation(embedded, aligned[k - 1]) if k else embedded

    basis = basis_matrix(knots, tensor.time_grid)
    solution = _solve_least_squares(basis.values, aligned.reshape(m, n * p))
    # a C-ordered copy of the strided view that the reshape gives, as numpy's
    # products round differently on that layout
    return CoefficientSet(np.ascontiguousarray(solution.T.reshape(n, p, q)), knots)


def _random_coefficients(tensor: DissimilarityTensor, config: FitConfig,
                         rng: np.random.Generator, q: int) -> np.ndarray:
    """Uniform coefficients on [-0.5, 0.5] scaled by the mean dissimilarity."""
    # each slice's mean over a contiguous array, as numpy may sum a strided
    # one in another order
    scale = float(np.mean([np.ascontiguousarray(s).mean() for s in tensor._pairs.T]))
    if scale == 0.0:
        scale = 1.0
    return rng.uniform(-0.5, 0.5, size=(tensor.n, config.p, q)) * scale


def init_random(tensor: DissimilarityTensor, config: FitConfig) -> CoefficientSet:
    """Random coefficients, provided to quantify the warm start's value."""
    knots, q = _resolve_layout(tensor, config)
    rng = np.random.default_rng(config.rng_seed)
    return CoefficientSet(_random_coefficients(tensor, config, rng, q), knots)


# ---------------------------------------------------------------------------
# optimization


class _PairwiseAdam:
    """Moments, counters and scratch buffers of the pairwise Adam epoch.

    ``epoch`` gives bit for bit the results of calling ``_pair_grad`` and
    then ``reference.AdamState.step`` for h and for j at every pair, in
    order. The j-side steps (gradient -g) of a row are kept and applied as
    one batch at the end of the row. This is exact: each j is visited once
    in the row and neither its coefficients nor its moments are read again
    before the row ends, so only the steps for h depend on their order. Each
    element still goes through the same arithmetic as in the reference, in
    fewer numpy calls.
    """

    def __init__(self, n: int, p: int, q: int, basis: np.ndarray, alpha: float,
                 gamma1: float, gamma2: float):
        self.gammas = (gamma1, gamma2)
        self.basis = basis
        self.moments = np.zeros((n, 2, p, q))
        self.step_counts = np.zeros(n, dtype=np.int64)
        rates = np.array((gamma1, gamma2)).reshape(2, 1, 1)
        # full-shape constants: broadcasting costs more than the arithmetic at this size
        self.decay = np.broadcast_to(rates, (2, p, q)).copy()
        # _pair_grad's -4 lives in the gains (see _adam_update); j's gradient is -g
        self.gain = (1.0 - self.decay) * np.array((-4.0, 16.0)).reshape(2, 1, 1)
        self.gain_j = self.gain * np.array((-1.0, 1.0)).reshape(2, 1, 1)
        self.neg_alpha = np.array(-alpha)
        self.shift = np.array(_DENOM_SHIFT)
        self.grads = np.empty((n - 1, 2, p, q))
        self.scratch = np.empty((n - 1, 2, p, q))
        self.increments = np.empty((n - 1, p, q))

    def epoch(self, coeffs: np.ndarray, pairs: np.ndarray, rows) -> None:
        """Run one epoch over the rows h in the given order, updating ``coeffs``
        in place; ``pairs`` holds the condensed pairs of d, whose row h is
        squared into one reused buffer when the row starts."""
        n, _, p, q = self.moments.shape
        basis = self.basis
        m = basis.shape[0]
        # the transposed view, as in _pair_grad: a contiguous copy takes another
        # BLAS path and changes the bits at p = 1
        basis_t = basis.T
        decay, gain, neg_alpha, shift = self.decay, self.gain, self.neg_alpha, self.shift
        # at (p, q) sizes numpy's per-call overhead is the cost: ufuncs are
        # bound to locals and given their outputs positionally, and np.dot
        # makes matmul's BLAS call with less dispatch
        add, subtract, multiply, divide, sqrt, dot = (
            np.add, np.subtract, np.multiply, np.divide, np.sqrt, np.dot)
        diff, scratch, increment = np.empty((p, q)), np.empty((2, p, q)), np.empty((p, q))
        m_hat, v_hat = scratch
        u, squares, sq_sum = np.empty((p, m)), np.empty((p, m)), np.empty(m)
        resid, weighted = np.empty(m), np.empty((p, m))
        row_targets = np.empty((n - 1, m))
        first_square, *other_squares = squares
        coeff_rows = list(coeffs)
        grad_pairs = list(self.grads)
        grad_rows = [tuple(pair) for pair in grad_pairs]
        # every object gets n - 1 steps per epoch, so all counts are equal at
        # its start and run from base + 1 to base + n - 1 within it
        base = int(self.step_counts[0])
        # bias-correction divisors with Python's ``**`` on floats, as in a single step
        g1, g2 = self.gammas
        table = np.array([(1.0 - g1 ** t, 1.0 - g2 ** t) for t in range(base + 1, base + n)])
        table = np.ascontiguousarray(np.broadcast_to(table[:, :, None, None], (n - 1, 2, p, q)))
        corrections = list(table)

        for h in rows:
            h = int(h)
            width = n - 1 - h
            c_h, moments_h = coeff_rows[h], self.moments[h]
            first = h * (2 * n - h - 1) // 2
            targets = np.square(pairs[first:first + width], out=row_targets[:width])
            t = int(self.step_counts[h]) - base
            for c_j, target, (g, g_sq), grads, correction in zip(
                    coeff_rows[h + 1:], targets, grad_rows, grad_pairs, corrections[t:]):
                subtract(c_h, c_j, diff)
                dot(diff, basis_t, u)
                multiply(u, u, squares)
                total = first_square
                for row in other_squares:
                    total = add(total, row, sq_sum)
                subtract(target, total, resid)
                multiply(u, resid, weighted)
                dot(weighted, basis, g)
                multiply(g, g, g_sq)
                # _adam_update's steps for h, on the views made above
                multiply(grads, gain, scratch)
                multiply(moments_h, decay, moments_h)
                add(moments_h, scratch, moments_h)
                divide(moments_h, correction, scratch)
                sqrt(v_hat, v_hat)
                add(v_hat, shift, v_hat)
                multiply(m_hat, neg_alpha, increment)
                divide(increment, v_hat, increment)
                add(c_h, increment, c_h)
            self.step_counts[h] += width

            later = slice(h + 1, n)
            self.step_counts[later] += 1
            out = self.increments[:width]
            _adam_update(self.moments[later], self.grads[:width], decay, self.gain_j,
                         table[self.step_counts[later] - base - 1], neg_alpha, shift,
                         self.scratch[:width], out)
            coeffs[later] += out


def _adam_epochs(coeffs, pairs, basis, config, rng):
    """The pairwise Adam epoch: every pair (h, j), h < j, with the rows h
    in shuffled order; moments and per-object bias-correction counters
    persist across epochs."""
    n, p, q = coeffs.shape
    adam = _PairwiseAdam(n, p, q, basis, config.alpha, config.gamma1, config.gamma2)
    return lambda: adam.epoch(coeffs, pairs, rng.permutation(n - 1))


def _gd_epochs(coeffs, pairs, basis, config, rng):
    """One plain gradient step on the full objective per epoch."""
    return lambda: np.subtract(coeffs, config.alpha * _full_gradients(coeffs, pairs, basis),
                               out=coeffs)


# Each ``baseline``'s optimiser: called once per fit with (coeffs, pairs,
# basis, config, rng), it returns the call that runs one epoch on ``coeffs``
# in place.
_METHODS = {"adam": _adam_epochs, "full_batch_gd": _gd_epochs}


def fit(tensor: DissimilarityTensor, config: FitConfig) -> FitResult:
    """Fit embedding trajectories to a dissimilarity tensor.

    Starts from the per-slice CMDS warm start (or, with
    ``init_mode="random"``, random coefficients) and runs epochs of
    ``config.baseline``'s entry of ``_METHODS``: the pairwise Adam scheme by
    default, or one plain gradient step on the full objective per epoch.
    Convergence is declared when no coefficient matrix moved more than
    ``config.eps`` in Frobenius norm over a full epoch.

    Raises DivergedError, reporting the epoch, if the stress becomes
    non-finite or exceeds ``STRESS_OVERFLOW`` times the stress of the
    collapsed embedding (the sum of d**4 over pairs and times, floored at
    1), so that large units alone do not count as divergence.
    """
    knots, q = _resolve_layout(tensor, config)
    basis = basis_matrix(knots, tensor.time_grid).values
    # every kernel squares d as it reads it, so no squared copy exists
    pairs = tensor._pairs

    rng = np.random.default_rng(config.rng_seed)
    if config.init_mode == "cmds_warm":
        coeffs = init_from_cmds(tensor, config).coefficients
    else:
        coeffs = _random_coefficients(tensor, config, rng, q)
    initial_stress = _stress_value(coeffs, pairs, basis)
    overflow = STRESS_OVERFLOW * max(1.0, _collapsed_stress(pairs))
    epoch_step = _METHODS[config.baseline](coeffs, pairs, basis, config, rng)

    stress_log: list[float] = []
    disp_log: list[float] = []
    converged = False
    epochs = 0
    for epoch in range(config.max_epochs):
        before = coeffs.copy()
        epoch_step()

        value = _stress_value(coeffs, pairs, basis)
        epochs = epoch + 1
        if not np.isfinite(value) or value > overflow:
            raise DivergedError(f"diverged at epoch {epoch}: stress {value}", epoch=epoch)
        stress_log.append(value)
        displacement = float(np.sqrt(((coeffs - before) ** 2).sum(axis=(1, 2))).max())
        disp_log.append(displacement)
        if displacement < config.eps:
            converged = True
            break

    return FitResult(
        coefficients=CoefficientSet(coeffs, knots),
        stress_per_epoch=np.asarray(stress_log),
        epochs_run=epochs,
        converged=converged,
        max_displacement_per_epoch=np.asarray(disp_log),
        initial_stress=initial_stress,
    )


def evaluate_trajectories(coeffs: CoefficientSet, grid) -> EmbeddingTrajectory:
    """Evaluate embedded positions on a grid; the dissimilarities they
    induce are computed when first read."""
    pts = np.asarray(grid, dtype=float).ravel()
    basis = basis_matrix(coeffs.knots, pts).values
    return EmbeddingTrajectory(pts, np.einsum("ipq,kq->kip", coeffs.coefficients, basis))

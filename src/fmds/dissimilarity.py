"""Static and time-varying dissimilarity matrices.

Two constructors are provided: pairwise Euclidean distances between feature
vectors, and the correlation dissimilarity ``(1 - R) / 2`` between windowed
series. Both produce exactly symmetric, zero-diagonal matrices; the
correlation variant may violate the triangle inequality, which ``validate``
reports but never enforces.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateSeries, ShapeError, WindowTooLong

# The rolling correlation takes as many windows at a time as keep all of a
# block's temporaries, about five (n, n) float arrays per window, within this
# many bytes.
_BLOCK_BYTES = 1 << 20

# the smallest normal float64
_TINY = np.finfo(float).tiny


def _all_finite(values: np.ndarray) -> bool:
    """Whether every entry is finite. A sum of finite values is finite
    unless it overflows, so only then, or when the sum is inf or nan, does
    the entrywise check run with its boolean temporary."""
    with np.errstate(over="ignore", invalid="ignore"):
        total = values.sum()
    return bool(np.isfinite(total)) or bool(np.isfinite(values).all())


def _checked_grid(grid, size: int) -> np.ndarray:
    """A tensor's time grid as a flat float array, for ``size`` slices."""
    grid = np.asarray(grid, dtype=float).ravel()
    if grid.size != size or grid.size == 0:
        raise ShapeError("one matrix per time point required")
    if grid.size > 1 and not np.all(np.diff(grid) > 0):
        raise ShapeError("time grid must be strictly increasing")
    return grid


def _block_windows(n: int, length: int) -> int:
    """Windows per block of the rolling correlation."""
    return max(1, _BLOCK_BYTES // (5 * 8 * n * max(n, length)))


@dataclass(frozen=True, eq=False)
class DissimilarityMatrix:
    """Square matrix of pairwise dissimilarities."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 2 or vals.shape[0] != vals.shape[1]:
            raise ShapeError(f"dissimilarity matrix must be square, got shape {vals.shape}")
        if not _all_finite(vals):
            raise ShapeError("dissimilarity matrix contains non-finite entries")
        object.__setattr__(self, "values", vals)

    @property
    def n(self) -> int:
        return self.values.shape[0]


class DissimilarityTensor:
    """Dissimilarity matrices on a time grid: ``values[k]`` is the (n, n)
    matrix at ``time_grid[k]``.

    A tensor stores only the condensed pairs: one float64
    (n(n-1)/2, num_times) array of the entries h < j in ``np.triu_indices``
    order. The constructor takes one (num_times, n, n) array whose slices are
    exactly symmetric with a zero diagonal and copies its upper triangle.
    ``values`` rebuilds the full array when first read; ``n``, ``num_times``
    and ``time_grid`` never build it.
    """

    def __init__(self, time_grid, values):
        vals = np.asarray(values, dtype=float)
        if vals.ndim != 3 or vals.shape[1] != vals.shape[2]:
            raise ShapeError(f"tensor must be (num_times, n, n), got shape {vals.shape}")
        h, j = np.triu_indices(vals.shape[1], 1)
        self._store(time_grid, vals.shape[1], vals.transpose(1, 2, 0)[h, j])
        # the stored entries are finite, so a non-finite entry elsewhere
        # fails one of these
        if not np.array_equal(vals, vals.transpose(0, 2, 1)) or vals.diagonal(0, 1, 2).any():
            raise ShapeError("each slice must be exactly symmetric with a zero diagonal")

    @classmethod
    def _from_pairs(cls, time_grid, pairs: np.ndarray, n: int) -> DissimilarityTensor:
        """A tensor storing the condensed pairs of n objects, a float64
        (n(n-1)/2, num_times) array kept as given."""
        tensor = cls.__new__(cls)
        tensor._store(time_grid, n, pairs)
        return tensor

    def _store(self, time_grid, n: int, pairs: np.ndarray) -> None:
        self._time_grid = _checked_grid(time_grid, pairs.shape[1])
        if not _all_finite(pairs):
            raise ShapeError("dissimilarity tensor contains non-finite entries")
        self._n, self._pairs, self._values = n, pairs, None

    def _on_grid(self, grid) -> DissimilarityTensor:
        """The same values on another time grid. Only the grid is checked:
        the values were checked when this tensor was made."""
        tensor = copy.copy(self)
        tensor._time_grid = _checked_grid(grid, self.num_times)
        return tensor

    @property
    def time_grid(self) -> np.ndarray:
        return self._time_grid

    @property
    def values(self) -> np.ndarray:
        if self._values is None:
            self._values = next(_slice_blocks(self._pairs, self._n))
        return self._values

    @property
    def n(self) -> int:
        return self._n

    @property
    def num_times(self) -> int:
        return self._time_grid.size

    def stacked(self) -> np.ndarray:
        """The (num_times, n, n) array itself, not a copy."""
        return self.values


def _slice_blocks(pairs: np.ndarray, n: int, step: int | None = None):
    """The exactly symmetric, zero-diagonal (n, n) matrices of the columns of
    condensed pairs, ``step`` columns at a time (all at once by default),
    each block rebuilt in one reused buffer."""
    step = step or pairs.shape[1]
    h, j = np.triu_indices(n, 1)
    upper, lower = h * n + j, j * n + h
    out = np.zeros((min(step, pairs.shape[1]), n, n))
    flat = out.reshape(len(out), n * n)
    for start in range(0, pairs.shape[1], step):
        columns = pairs[:, start:start + step].T
        flat[:len(columns), upper] = columns
        flat[:len(columns), lower] = columns
        yield out[:len(columns)]


@dataclass(frozen=True, eq=False)
class ObjectPanel:
    """Per-object observation series on a shared time grid."""

    labels: tuple[str, ...]
    values: np.ndarray
    time_grid: np.ndarray

    def __post_init__(self):
        labels = tuple(str(l) for l in self.labels)
        vals = np.asarray(self.values, dtype=float)
        grid = np.asarray(self.time_grid, dtype=float).ravel()
        if vals.ndim != 2:
            raise ShapeError(f"panel values must be 2-D, got shape {vals.shape}")
        if vals.shape != (len(labels), grid.size):
            raise ShapeError(
                f"panel shape {vals.shape} does not match {len(labels)} labels "
                f"and {grid.size} time points"
            )
        if len(set(labels)) != len(labels):
            raise ShapeError("object labels must be unique")
        if not np.all(np.isfinite(vals)):
            raise ShapeError("panel contains missing or non-finite entries")
        if grid.size > 1 and not np.all(np.diff(grid) > 0):
            raise ShapeError("panel time grid must be strictly increasing")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "time_grid", grid)

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def num_times(self) -> int:
        return self.time_grid.size


@dataclass(frozen=True)
class ValidityReport:
    """Outcome of the dissimilarity axiom probes.

    The first three checks (nonnegativity, zero diagonal, symmetry) are the
    axioms every dissimilarity must satisfy; the triangle inequality is
    reported separately because correlation dissimilarities may break it.
    """

    nonnegative: bool
    zero_diagonal: bool
    symmetric: bool
    triangle_inequality: bool
    max_negative: float
    max_diagonal: float
    max_asymmetry: float
    max_triangle_violation: float
    tol: float

    @property
    def passed(self) -> bool:
        """True when the three hard axioms hold within tolerance."""
        return self.nonnegative and self.zero_diagonal and self.symmetric


def euclidean_dissimilarity(points) -> DissimilarityMatrix:
    """Pairwise Euclidean distances between feature vectors.

    ``points`` is an (n, r) array of n objects with r features each.
    The result is exactly symmetric with an exactly zero diagonal.
    """
    try:
        pts = np.asarray(points, dtype=float)
    except ValueError as exc:
        raise ShapeError(f"points must form a rectangular (n, r) array: {exc}") from exc
    if pts.ndim != 2:
        raise ShapeError("points must form a rectangular (n, r) array")
    n, r = pts.shape
    if n < 2:
        raise ShapeError(f"need at least 2 objects, got {n}")
    if r < 1:
        raise ShapeError("feature vectors must have at least one component")
    if not _all_finite(pts):
        raise ShapeError("points contain non-finite entries")
    with np.errstate(over="ignore"):
        diff = pts[:, None, :] - pts[None, :, :]
        np.multiply(diff, diff, out=diff)
        squares = _squared_norms(diff)
        # the diagonal's n sums are 0; any other sum below the normal range
        # may have lost its squares to underflow
        small = squares < _TINY
        distances = np.sqrt(squares, out=squares)
        if np.count_nonzero(small) > n or not _all_finite(distances):
            # redo each pair whose sum of squares underflowed or overflowed
            # on its differences scaled into [0.5, 1); points that coincide
            # still give 0, and only a distance beyond the double range
            # stays infinite
            h, j = np.nonzero(small | (distances == np.inf))
            scaled = pts[h] - pts[j]
            exponents = _power_of_two_scale(scaled)
            np.multiply(scaled, scaled, out=scaled)
            distances[h, j] = np.ldexp(np.sqrt(_squared_norms(scaled)), exponents[:, 0])
    return DissimilarityMatrix(distances)


def _squared_norms(squares: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``np.sum(squares, axis=-1, out=out)`` of nonnegative ``squares``, bit for
    bit: numpy sums a last axis shorter than 8 left to right, as these column
    adds do without its slow short-axis reduction; from 8 on it sums pairwise."""
    p = squares.shape[-1]
    if not 1 < p < 8:
        return np.sum(squares, axis=-1, out=out)
    out = np.add(squares[..., 0], squares[..., 1], out=out)
    for c in range(2, p):
        np.add(out, squares[..., c], out=out)
    return out


def _power_of_two_scale(values: np.ndarray) -> np.ndarray:
    """Scale ``values`` in place, per series along the last axis, by the
    power of two that brings its largest magnitude into [0.5, 1), and return
    the exponents e that undo it through ldexp. Scaling is exact unless an
    entry falls below the normal range; it leaves a correlation unchanged and
    keeps sums of squares from overflowing."""
    exponents = np.frexp(np.abs(values).max(axis=-1, keepdims=True))[1]
    np.ldexp(values, -exponents, out=values)
    return exponents


def correlation(y_i, y_j) -> float:
    """Pearson correlation of two equal-length series.

    Raises DegenerateSeries when either series is constant.
    """
    # copies, as they are scaled in place
    a = np.array(y_i, dtype=float).ravel()
    b = np.array(y_j, dtype=float).ravel()
    if a.size != b.size:
        raise ShapeError(f"series lengths differ: {a.size} vs {b.size}")
    if a.size < 2:
        raise ShapeError("correlation needs at least 2 observations")
    _power_of_two_scale(a)
    _power_of_two_scale(b)
    da = a - a.mean()
    db = b - b.mean()
    ss_a = float(da @ da)
    ss_b = float(db @ db)
    if ss_a == 0.0 or ss_b == 0.0:
        raise DegenerateSeries("constant series has undefined correlation")
    r = float(da @ db) / np.sqrt(ss_a * ss_b)
    return float(np.clip(r, -1.0, 1.0))


def _correlation_windows(panel: ObjectPanel, start: int, count: int, stride: int,
                         length: int) -> np.ndarray:
    """Condensed correlation dissimilarities (n(n-1)/2, count) of the windows
    of ``length`` starting at start, start + stride, ..., as one stacked pass.

    Every step acts on one window's series alone, so each slice has the
    same bits as the window computed on its own.
    """
    windows = np.lib.stride_tricks.sliding_window_view(panel.values, length, axis=1)
    # a C-ordered copy, so every windowed series is contiguous
    centered = windows[:, start:start + count * stride:stride].transpose(1, 0, 2).copy()
    _power_of_two_scale(centered)
    centered -= centered.mean(axis=2, keepdims=True)
    sumsq = (centered * centered).sum(axis=2)
    constant = np.argwhere(sumsq == 0.0)
    if constant.size:
        k, i = constant[0]
        first = start + int(k) * stride
        raise DegenerateSeries(
            f"object {panel.labels[i]!r} is constant on window ({first}, {first + length})"
        )
    # Each (1, w) @ (w, 1) product is a vector-vector matmul, which numpy
    # hands to the same BLAS dot as ``centered[k, i] @ centered[k, j]``; a
    # single ``centered @ centered.T`` goes through gemm, whose blocked sums
    # differ in the last bits.
    gram = (centered[:, :, None, None, :] @ centered[:, None, :, :, None])[..., 0, 0]
    scale = np.sqrt(sumsq)
    r = np.clip(gram / (scale[:, :, None] * scale[:, None, :]), -1.0, 1.0)
    h, j = np.triu_indices(panel.n, 1)
    return ((1.0 - r[:, h, j]) / 2.0).T


def correlation_dissimilarity(panel: ObjectPanel, window: tuple[int, int]) -> DissimilarityMatrix:
    """Correlation dissimilarity (1 - R) / 2 over a window of a panel.

    ``window`` is a half-open index range (start, stop) into the panel's
    time grid. Entries lie in [0, 1]; perfectly correlated objects are at
    distance 0 and perfectly anticorrelated ones at distance 1.

    Raises DegenerateSeries naming the offending object when any windowed
    series is constant.
    """
    start, stop = int(window[0]), int(window[1])
    if not (0 <= start < stop <= panel.num_times):
        raise ConfigError(f"window ({start}, {stop}) outside panel of length {panel.num_times}")
    if stop - start < 2:
        raise ConfigError("correlation window must cover at least 2 observations")
    pairs = _correlation_windows(panel, start, 1, 1, stop - start)
    return DissimilarityMatrix(next(_slice_blocks(pairs, panel.n))[0])


def rolling_dissimilarity_tensor(
    panel: ObjectPanel,
    metric: str,
    window_len: int,
    stride: int = 1,
) -> DissimilarityTensor:
    """Slide a window over a panel and build one dissimilarity slice per stop.

    Each slice is stamped with the time of its window's right endpoint.
    With ``metric="euclidean"`` the windowed series are compared as
    feature vectors (a length-1 window reduces to per-timepoint absolute
    differences); with ``metric="correlation"`` each slice is the
    correlation dissimilarity of the window, built a block of windows at
    a time. The tensor stores the condensed pairs.
    """
    if metric not in ("euclidean", "correlation"):
        raise ConfigError(f"unknown metric {metric!r}")
    if stride < 1:
        raise ConfigError(f"stride must be at least 1, got {stride}")
    m = panel.num_times
    if window_len > m:
        raise WindowTooLong(f"window of {window_len} exceeds the {m} available time points")
    if window_len < 1 or (metric == "correlation" and window_len < 2):
        raise ConfigError(f"window of {window_len} too short for metric {metric!r}")

    count = len(range(window_len, m + 1, stride))
    pairs = np.empty((panel.n * (panel.n - 1) // 2, count))
    if metric == "correlation":
        step = _block_windows(panel.n, window_len)
        for first in range(0, count, step):
            block = pairs[:, first:first + step]
            block[...] = _correlation_windows(panel, first * stride, block.shape[1], stride,
                                              window_len)
    else:
        h, j = np.triu_indices(panel.n, 1)
        for k, out in enumerate(pairs.T):
            window = panel.values[:, k * stride:k * stride + window_len]
            out[...] = euclidean_dissimilarity(window).values[h, j]
    return DissimilarityTensor._from_pairs(panel.time_grid[window_len - 1::stride], pairs, panel.n)


def validate(matrix: DissimilarityMatrix, tol: float = 1e-10) -> ValidityReport:
    """Probe the dissimilarity axioms and report the worst deviations.

    Nonnegativity, zero diagonal, and symmetry are each checked within
    ``tol``. The triangle inequality result is informational only.
    """
    vals = matrix.values
    max_negative = float(max(0.0, -vals.min())) if vals.size else 0.0
    max_diagonal = float(np.abs(np.diag(vals)).max()) if vals.size else 0.0
    max_asymmetry = float(np.abs(vals - vals.T).max()) if vals.size else 0.0
    # worst violation of d_ij <= d_is + d_sj over all triples (i, j, s), one
    # intermediate s at a time so memory stays O(n^2); max is exact in any order
    max_triangle_violation = 0.0
    for s in range(vals.shape[0]):
        slack = vals - (vals[:, s, None] + vals[s])
        max_triangle_violation = max(max_triangle_violation, float(slack.max()))
    return ValidityReport(
        nonnegative=max_negative <= tol,
        zero_diagonal=max_diagonal <= tol,
        symmetric=max_asymmetry <= tol,
        triangle_inequality=max_triangle_violation <= tol,
        max_negative=max_negative,
        max_diagonal=max_diagonal,
        max_asymmetry=max_asymmetry,
        max_triangle_violation=max_triangle_violation,
        tol=tol,
    )

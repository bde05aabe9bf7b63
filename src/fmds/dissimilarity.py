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


@dataclass(frozen=True, eq=False)
class DissimilarityTensor:
    """One (num_times, n, n) array of dissimilarity matrices, ``values[k]`` at
    ``time_grid[k]``. A float64 array is kept as given, not copied."""

    time_grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        grid = np.asarray(self.time_grid, dtype=float).ravel()
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 3 or vals.shape[1] != vals.shape[2]:
            raise ShapeError(f"tensor must be (num_times, n, n), got shape {vals.shape}")
        grid = _checked_grid(grid, vals.shape[0])
        if not _all_finite(vals):
            raise ShapeError("dissimilarity tensor contains non-finite entries")
        object.__setattr__(self, "time_grid", grid)
        object.__setattr__(self, "values", vals)

    def _on_grid(self, grid) -> DissimilarityTensor:
        """The same values on another time grid. Only the grid is checked:
        the values were checked when this tensor was made."""
        tensor = copy.copy(self)
        object.__setattr__(tensor, "time_grid", _checked_grid(grid, self.num_times))
        return tensor

    @property
    def n(self) -> int:
        return self.values.shape[1]

    @property
    def num_times(self) -> int:
        return self.time_grid.size

    def stacked(self) -> np.ndarray:
        """The (num_times, n, n) array itself, not a copy."""
        return self.values


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
    diff = pts[:, None, :] - pts[None, :, :]
    return DissimilarityMatrix(np.sqrt((diff * diff).sum(axis=-1)))


def correlation(y_i, y_j) -> float:
    """Pearson correlation of two equal-length series.

    Raises DegenerateSeries when either series is constant.
    """
    a = np.asarray(y_i, dtype=float).ravel()
    b = np.asarray(y_j, dtype=float).ravel()
    if a.size != b.size:
        raise ShapeError(f"series lengths differ: {a.size} vs {b.size}")
    if a.size < 2:
        raise ShapeError("correlation needs at least 2 observations")
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
    """Correlation dissimilarities (count, n, n) of the windows of ``length``
    starting at start, start + stride, ..., as one stacked pass.

    Every step acts on one window's series alone, so each slice has the
    same bits as the window computed on its own.
    """
    windows = np.lib.stride_tricks.sliding_window_view(panel.values, length, axis=1)
    # a C-ordered copy, so every windowed series is contiguous
    centered = windows[:, start:start + count * stride:stride].transpose(1, 0, 2).copy()
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
    upper = np.triu((1.0 - r) / 2.0, 1)
    # entries are >= 0, so adding the zero lower triangle changes no bit and
    # leaves every slice exactly symmetric with an exactly zero diagonal
    return upper + upper.transpose(0, 2, 1)


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
    return DissimilarityMatrix(_correlation_windows(panel, start, 1, 1, stop - start)[0])


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
    a time.
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
    values = np.empty((count, panel.n, panel.n))
    if metric == "correlation":
        step = _block_windows(panel.n, window_len)
        for first in range(0, count, step):
            block = values[first:first + step]
            block[...] = _correlation_windows(panel, first * stride, len(block), stride,
                                              window_len)
    else:
        for k, out in enumerate(values):
            start = k * stride
            out[...] = euclidean_dissimilarity(panel.values[:, start:start + window_len]).values
    return DissimilarityTensor(panel.time_grid[window_len - 1::stride], values)


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

"""Classical multidimensional scaling.

Squared dissimilarities are double-centered into a Gram matrix whose top
eigenpairs give a point configuration reproducing the dissimilarities when
they are Euclidean. Output is made deterministic by a fixed eigenvector
sign convention and an explicit tie-breaking order, so repeated runs on the
same input are bit-identical.

A stack of slices is solved block by block: each block is double-centered,
eigendecomposed by one batched ``eigh`` and sign-fixed and sorted as arrays.
Every step acts on each slice alone, so a slice gets the same bits in a
block as on its own; ``classical_mds`` is the one-slice block.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .dissimilarity import DissimilarityMatrix, _block_items, _slice_blocks, euclidean_dissimilarity
from .errors import DimError, NumericalError, ShapeError

_SIGN_FLOOR = 1e-12


@dataclass(frozen=True, eq=False)
class CmdsSolution:
    """A fitted configuration and its spectral diagnostics.

    ``negative_mass`` is the share of total absolute eigenvalue mass
    carried by negative eigenvalues; it is 0 for Euclidean inputs and
    grows when the dissimilarities are not embeddable.
    """

    configuration: np.ndarray
    eigenvalues: np.ndarray
    negative_mass: float


def _double_center_stack(values: np.ndarray) -> np.ndarray:
    """Gram matrices of a (k, n, n) stack of dissimilarity matrices."""
    a = np.multiply(-0.5, values)
    a *= values
    row_means = a.mean(axis=2, keepdims=True)
    col_means = a.mean(axis=1, keepdims=True)
    grand_means = a.mean(axis=(1, 2), keepdims=True)
    a -= row_means
    a -= col_means
    a += grand_means
    gram = a + a.transpose(0, 2, 1)
    gram /= 2.0
    return gram


def double_center(matrix: DissimilarityMatrix) -> np.ndarray:
    """Gram matrix of a dissimilarity matrix.

    Forms a = -d^2 / 2 entrywise and removes row, column, and grand means,
    which is the conjugation of a by the centering projector. Every row
    and column of the result sums to zero.
    """
    if matrix.n < 2:
        raise ShapeError(f"need at least 2 objects, got {matrix.n}")
    return _double_center_stack(matrix.values[None])[0]


def _fix_stacked_signs(vectors: np.ndarray) -> None:
    """Flip, in place, each column of a (k, n, n) stack so its first
    non-negligible entry is positive."""
    big = (vectors > _SIGN_FLOOR) | (vectors < -_SIGN_FLOOR)
    first = np.argmax(big, axis=1)[:, None]
    flip = np.take_along_axis(big, first, 1) & (np.take_along_axis(vectors, first, 1) < 0)
    np.negative(vectors, out=vectors, where=flip)


def _stacked_mds(values: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Configurations (k, n, p) and descending eigenvalues (k, n) of a stack.

    Each configuration slice is column-major, as a column gather of one
    slice's eigenvectors would be.
    """
    n = values.shape[1]
    if not 1 <= p <= n - 1:
        raise DimError(f"embedding dimension {p} outside [1, {n - 1}]")
    try:
        evals, evecs = np.linalg.eigh(_double_center_stack(values))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed: {exc}") from exc
    _fix_stacked_signs(evecs)
    order = np.argsort(-evals, axis=1, kind="stable")
    ranked = np.take_along_axis(evals, order, 1)
    # an exact tie (or a nan) is broken by the sign-fixed eigenvectors in
    # order: lexsort's last row -evals is the primary key
    for k in np.flatnonzero(~(ranked[:, :-1] > ranked[:, 1:]).all(axis=1)):
        order[k] = np.lexsort(np.vstack((evecs[k][::-1], -evals[k])))
        ranked[k] = evals[k][order[k]]
    columns = np.take_along_axis(evecs.transpose(0, 2, 1), order[:, :p, None], 1)
    columns *= np.sqrt(np.maximum(ranked[:, :p, None], 0.0))
    return columns.transpose(0, 2, 1), ranked


def _mds_slices(pairs: np.ndarray, n: int, p: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The configuration and eigenvalues of ``_stacked_mds`` for each slice of
    the condensed (n(n-1)/2, m) pairs of n objects, one slice at a time. The
    slices are solved a block at a time, each block rebuilt from the pairs."""
    # every block array takes at most n * n floats per slice
    for block in _slice_blocks(pairs, n, _block_items(8 * n * n)):
        yield from zip(*_stacked_mds(block, p))


def _solution(configuration: np.ndarray, eigenvalues: np.ndarray) -> CmdsSolution:
    """One slice of ``_stacked_mds`` with its negative mass."""
    total_mass = float(np.abs(eigenvalues).sum())
    negative = float(np.abs(eigenvalues[eigenvalues < 0]).sum())
    negative_mass = negative / total_mass if total_mass > 0 else 0.0
    return CmdsSolution(configuration, eigenvalues, negative_mass)


def classical_mds(matrix: DissimilarityMatrix, p: int) -> CmdsSolution:
    """Recover a p-dimensional configuration from a dissimilarity matrix.

    The double-centered Gram matrix is eigendecomposed; the configuration
    columns are the top-p eigenvectors scaled by the square roots of their
    eigenvalues. Negative eigenvalues among the top p are clamped to zero
    (those columns become zero) and their relative mass is reported as a
    diagnostic.

    Determinism: eigenvector signs are fixed so the first non-negligible
    entry is positive, and exact eigenvalue ties are broken by comparing
    the sign-fixed eigenvectors lexicographically.
    """
    configurations, eigenvalues = _stacked_mds(matrix.values[None], p)
    return _solution(configurations[0], eigenvalues[0])


def reconstructed_dissimilarity(solution: CmdsSolution) -> DissimilarityMatrix:
    """Pairwise Euclidean distances between configuration rows."""
    return euclidean_dissimilarity(solution.configuration)

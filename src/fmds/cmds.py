"""Classical multidimensional scaling.

Squared dissimilarities are double-centered into a Gram matrix whose top
eigenpairs give a point configuration reproducing the dissimilarities when
they are Euclidean. Output is made deterministic by a fixed eigenvector
sign convention and an explicit tie-breaking order, so repeated runs on the
same input are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dissimilarity import DissimilarityMatrix, euclidean_dissimilarity
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
    used_dim: int
    negative_mass: float


def double_center(matrix: DissimilarityMatrix) -> np.ndarray:
    """Gram matrix of a dissimilarity matrix.

    Forms a = -d^2 / 2 entrywise and removes row, column, and grand means,
    which is the conjugation of a by the centering projector. Every row
    and column of the result sums to zero.
    """
    if matrix.n < 2:
        raise ShapeError(f"need at least 2 objects, got {matrix.n}")
    a = -0.5 * matrix.values * matrix.values
    row_means = a.mean(axis=1, keepdims=True)
    col_means = a.mean(axis=0, keepdims=True)
    grand_mean = a.mean()
    b = a - row_means - col_means + grand_mean
    return (b + b.T) / 2.0


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip each column so its first non-negligible entry is positive."""
    big = np.abs(vectors) > _SIGN_FLOOR
    cols = np.arange(vectors.shape[1])
    first = np.argmax(big, axis=0)
    flip = big[first, cols] & (vectors[first, cols] < 0)
    return np.where(flip, -vectors, vectors)


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
    n = matrix.n
    if not 1 <= p <= n - 1:
        raise DimError(f"embedding dimension {p} outside [1, {n - 1}]")
    b = double_center(matrix)
    try:
        evals, evecs = np.linalg.eigh(b)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed: {exc}") from exc
    evecs = _fix_signs(evecs)
    # primary key -evals (lexsort's last row), then the eigenvector entries in order
    order = np.lexsort(np.vstack((evecs[::-1], -evals)))
    evals = evals[order]
    evecs = evecs[:, order]

    clamped = np.maximum(evals[:p], 0.0)
    configuration = evecs[:, :p] * np.sqrt(clamped)
    total_mass = float(np.abs(evals).sum())
    negative_mass = float(np.abs(evals[evals < 0]).sum()) / total_mass if total_mass > 0 else 0.0
    return CmdsSolution(configuration, evals, int(p), negative_mass)


def reconstructed_dissimilarity(solution: CmdsSolution) -> DissimilarityMatrix:
    """Pairwise Euclidean distances between configuration rows."""
    return euclidean_dissimilarity(solution.configuration)

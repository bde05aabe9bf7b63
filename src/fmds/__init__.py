"""Functional multidimensional scaling.

Fits smooth low-dimensional embedding trajectories to time-varying
dissimilarities: per-slice classical MDS provides a warm start, cubic
B-splines carry the smoothness, and a pairwise Adam scheme minimizes the
squared stress between embedded and observed dissimilarities.
"""

from .bspline import (
    BasisMatrix,
    KnotVector,
    SmoothCurve,
    basis_matrix,
    eval_basis,
    eval_basis_order1,
    eval_curve,
    make_knots,
    smooth_least_squares,
)
from .cmds import CmdsSolution, classical_mds, double_center, reconstructed_dissimilarity
from .dissimilarity import (
    DissimilarityMatrix,
    DissimilarityTensor,
    ObjectPanel,
    ValidityReport,
    correlation,
    correlation_dissimilarity,
    euclidean_dissimilarity,
    rolling_dissimilarity_tensor,
    validate,
)
from .errors import (
    ConfigError,
    DegenerateSeries,
    DimError,
    DivergedError,
    FmdsError,
    IllConditioned,
    IngestError,
    InsufficientObjects,
    InvalidDomain,
    InvalidKnots,
    NumericalError,
    OutOfDomain,
    ShapeError,
    Underdetermined,
    WindowTooLong,
)
from .fitting import (
    CoefficientSet,
    EmbeddingTrajectory,
    FitConfig,
    FitResult,
    evaluate_trajectories,
    fit,
    init_from_cmds,
    init_random,
    pair_gradients,
    pair_stress,
    stress,
)
from .synthetic import SyntheticScenario, generate

__version__ = "0.1.0"

__all__ = [
    "BasisMatrix",
    "CmdsSolution",
    "CoefficientSet",
    "ConfigError",
    "DegenerateSeries",
    "DimError",
    "DissimilarityMatrix",
    "DissimilarityTensor",
    "DivergedError",
    "EmbeddingTrajectory",
    "FitConfig",
    "FitResult",
    "FmdsError",
    "IllConditioned",
    "IngestError",
    "InsufficientObjects",
    "InvalidDomain",
    "InvalidKnots",
    "KnotVector",
    "NumericalError",
    "ObjectPanel",
    "OutOfDomain",
    "ShapeError",
    "SmoothCurve",
    "SyntheticScenario",
    "Underdetermined",
    "ValidityReport",
    "WindowTooLong",
    "basis_matrix",
    "classical_mds",
    "correlation",
    "correlation_dissimilarity",
    "double_center",
    "euclidean_dissimilarity",
    "eval_basis",
    "eval_basis_order1",
    "eval_curve",
    "evaluate_trajectories",
    "fit",
    "generate",
    "init_from_cmds",
    "init_random",
    "make_knots",
    "pair_gradients",
    "pair_stress",
    "reconstructed_dissimilarity",
    "rolling_dissimilarity_tensor",
    "smooth_least_squares",
    "stress",
    "validate",
]

"""Learn Gaussian belief-network structures from complete continuous data.

The library elicits a normal-Wishart prior from a user's prior network,
computes exact log marginal likelihoods for any DAG, enumerates the
score-equivalent classes of structures, and searches for high-posterior structures
either exhaustively or by greedy hill-climbing.
"""

from .data import Dataset, SufficientStats, load_csv, project, stats, to_csv
from .errors import (
    AlphaTooSmallError,
    BgeLearnError,
    CycleDetectedError,
    DataParseError,
    DimensionMismatchError,
    DuplicateVariableError,
    EmptyInputError,
    GammaDomainError,
    IndexOutOfRangeError,
    InvalidNetworkError,
    MissingValueError,
    NonPositiveVarianceError,
    NotPositiveDefiniteError,
    TooLargeError,
    UnknownVariableError,
    VariableMismatchError,
)
from .linalg import invert_spd, log_det, spd_factor, submatrix
from .network import (
    Dag,
    EquivalenceClass,
    GaussianNetwork,
    GaussianParams,
    class_members,
    enumerate_classes,
    enumerate_dags,
    from_precision,
    implied_covariance,
    load_network,
    load_structure,
    log_abs_jacobian,
    parse_network,
    same_class,
    sample,
    to_dot,
    to_precision,
    topological_order,
)
from .priors import (
    NormalWishartPrior,
    PriorSpec,
    StructurePrior,
    elicit,
    load_prior,
    load_prior_spec,
)
from .scoring import (
    NormalWishartPosterior,
    Scorer,
    StructureScore,
    log_marginal_complete,
    log_predictive,
    log_wishart_norm,
    update_posterior,
)
from .search import Move, RankedEntry, SearchReport, exhaustive, hill_climb

__version__ = "0.1.0"

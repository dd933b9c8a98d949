"""Normal-Wishart prior elicitation from a prior Gaussian network.

A user states prior knowledge as an ordinary Gaussian network plus two
equivalent sample sizes: ``nu`` backs the mean assessment and ``alpha`` the
precision assessment. The network's means become the location
hyperparameter directly; its implied covariance, rescaled by
``nu * (alpha - n - 1) / (nu + 1)``, becomes the Wishart precision
hyperparameter, so that the resulting marginal distribution over a case has
exactly the stated means and covariance.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import AlphaTooSmallError, DataParseError, DimensionMismatchError
from .linalg import spd_factor, submatrix
from .network import GaussianNetwork, implied_covariance, parse_network, read_json


@dataclass(frozen=True, eq=False)
class NormalWishartPrior:
    """Hyperparameters of a normal-Wishart distribution over (mean, precision).

    ``mu0`` locates the mean; given a precision W the mean has precision
    ``nu * W``. The precision itself is Wishart with ``alpha`` degrees of
    freedom and precision-matrix hyperparameter ``t0`` (expected precision
    is ``alpha * inverse(t0)``).
    """

    mu0: np.ndarray
    t0: np.ndarray
    nu: float
    alpha: float

    def __post_init__(self):
        mu0 = np.array(self.mu0, dtype=float).reshape(-1)
        t0 = np.array(self.t0, dtype=float)
        n = mu0.size
        if t0.shape != (n, n):
            raise DimensionMismatchError(
                f"t0 shape {t0.shape} does not match {n} location entries"
            )
        object.__setattr__(self, "mu0", mu0)
        object.__setattr__(self, "t0", t0)
        object.__setattr__(self, "nu", float(self.nu))
        object.__setattr__(self, "alpha", float(self.alpha))
        if not self.nu > 0.0:
            raise ValueError(f"nu must be positive, got {self.nu}")
        if not self.alpha > n - 1:
            raise ValueError(f"alpha must exceed n - 1 = {n - 1}, got {self.alpha}")
        if n:
            spd_factor(t0)  # must be positive definite
        mu0.flags.writeable = False
        t0.flags.writeable = False

    @property
    def dim(self) -> int:
        return self.mu0.size

    def restrict(self, keep: Sequence[int]) -> "NormalWishartPrior":
        """The prior over a variable subset: rows/columns of ``t0`` and
        entries of ``mu0`` restricted to ``keep``; sample sizes unchanged."""
        keep = list(keep)
        return NormalWishartPrior(
            self.mu0[keep], submatrix(self.t0, keep), self.nu, self.alpha
        )


@dataclass(frozen=True)
class PriorSpec:
    """A prior network plus the two equivalent sample sizes."""

    prior_network: GaussianNetwork
    nu: float
    alpha: float

    def __post_init__(self):
        object.__setattr__(self, "nu", float(self.nu))
        object.__setattr__(self, "alpha", float(self.alpha))
        n = self.prior_network.dag.size
        if not self.nu > 0.0:
            raise DataParseError(f"nu must be positive, got {self.nu}")
        # alpha > n + 1 so the implied covariance scaling is defined;
        # scoring with directly supplied hyperparameters only needs n - 1.
        if not self.alpha > n + 1:
            raise AlphaTooSmallError(
                f"alpha must exceed n + 1 = {n + 1} for elicitation, got {self.alpha}"
            )


class StructurePrior(enum.Enum):
    """Uniform structure priors: over labeled DAGs or over their classes."""

    UNIFORM_STRUCTURES = "uniform-structures"
    UNIFORM_CLASSES = "uniform-classes"


def elicit(spec: PriorSpec) -> NormalWishartPrior:
    """Turn a prior network and sample sizes into normal-Wishart form.

    The location vector is the network's means; the Wishart hyperparameter
    is the network's implied covariance scaled by
    ``nu * (alpha - n - 1) / (nu + 1)``, which is positive because
    :class:`PriorSpec` requires ``alpha > n + 1``.
    """
    n = spec.prior_network.dag.size
    scale = spec.nu * (spec.alpha - n - 1) / (spec.nu + 1.0)
    t0 = scale * implied_covariance(spec.prior_network)
    mu0 = np.array(spec.prior_network.params.means, dtype=float)
    return NormalWishartPrior(mu0, t0, spec.nu, spec.alpha)


def parse_prior_spec(obj) -> PriorSpec:
    """Parse the prior-spec document: the network JSON plus ``nu``/``alpha``."""
    if not isinstance(obj, dict):
        raise DataParseError("expected a JSON object")
    for key in ("nu", "alpha"):
        if key not in obj:
            raise DataParseError(f'prior spec is missing "{key}"')
        if isinstance(obj[key], bool) or not isinstance(obj[key], (int, float)):
            raise DataParseError(f'"{key}" must be a number, got {obj[key]!r}')
    network = parse_network(obj)
    return PriorSpec(network, float(obj["nu"]), float(obj["alpha"]))


def load_prior_spec(path) -> PriorSpec:
    return parse_prior_spec(read_json(path))


def parse_prior(obj) -> tuple[NormalWishartPrior, tuple[str, ...] | None]:
    """Parse either prior form into hyperparameters.

    The network form (a prior network plus ``nu``/``alpha``) goes through
    elicitation and requires ``alpha > n + 1``; the direct form supplies
    ``mu0`` and ``t0`` verbatim and needs only the scoring bound
    ``alpha > n - 1``. Returns the prior and the variable names when the
    document declares them.
    """
    if not isinstance(obj, dict):
        raise DataParseError("expected a JSON object")
    if "mu0" in obj or "t0" in obj:
        for key in ("nu", "alpha", "mu0", "t0"):
            if key not in obj:
                raise DataParseError(f'direct prior form is missing "{key}"')
        names = obj.get("variables")
        if names is not None:
            if not isinstance(names, list) or not all(
                isinstance(v, str) for v in names
            ):
                raise DataParseError('"variables" must be a list of names')
            names = tuple(names)
        try:
            prior = NormalWishartPrior(obj["mu0"], obj["t0"], obj["nu"], obj["alpha"])
        except (TypeError, ValueError) as exc:
            raise DataParseError(f"invalid direct prior: {exc}") from None
        if names is not None and len(names) != prior.dim:
            raise DimensionMismatchError(
                f"{len(names)} variable names for dimension {prior.dim}"
            )
        return prior, names
    spec = parse_prior_spec(obj)
    return elicit(spec), spec.prior_network.variables


def load_prior(path) -> tuple[NormalWishartPrior, tuple[str, ...] | None]:
    return parse_prior(read_json(path))

"""Marginal-likelihood scoring for Gaussian network structures.

The closed-form machinery: the Wishart normalizing constant, conjugate
normal-Wishart posterior updates, the exact marginal likelihood of complete
data under a complete structure, the per-variable local scores that extend
it to arbitrary structures (computed by a :class:`Scorer` bound to one
dataset and prior). The independent validation oracles (a constructive
Wishart Monte-Carlo estimator and direct quadrature) live in the tests.

All densities live in natural-log space end to end; convert to base-10
scientific notation only when presenting results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import Dataset, SufficientStats, stats
from .errors import (
    DimensionMismatchError,
    EmptyInputError,
    GammaDomainError,
)
from .linalg import as_sym, log_det, sym_log_det
from .network import Dag, topological_order
from .priors import NormalWishartPrior

LOG_2PI = math.log(2.0 * math.pi)


def log_wishart_norm(n: int, alpha: float) -> float:
    """Log normalizing constant of the n-dimensional Wishart density.

    The density with ``alpha`` degrees of freedom and precision hyperparameter
    T is ``c * |T|**(alpha/2) * |W|**((alpha-n-1)/2) * exp(-tr(T W)/2)``;
    this returns ``log c``:

        -[ (alpha*n/2) log 2 + (n(n-1)/4) log pi
           + sum_{i=1..n} lgamma((alpha + 1 - i)/2) ]

    Requires ``alpha > n - 1`` so every gamma argument is positive.
    """
    if n < 1:
        raise GammaDomainError(f"dimension must be at least 1, got {n}")
    args = [(alpha + 1.0 - i) / 2.0 for i in range(1, n + 1)]
    if min(args) <= 0.0:
        raise GammaDomainError(
            f"alpha = {alpha} gives a nonpositive gamma argument at n = {n}"
        )
    return float(
        -(alpha * n / 2.0) * math.log(2.0)
        - (n * (n - 1) / 4.0) * math.log(math.pi)
        - sum(math.lgamma(x) for x in args)
    )


@dataclass(frozen=True, eq=False)
class NormalWishartPosterior:
    """Updated normal-Wishart hyperparameters after observing data."""

    mu: np.ndarray
    t: np.ndarray
    nu: float
    alpha: float

    def as_prior(self) -> NormalWishartPrior:
        """Reinterpret the posterior as the prior for further updating."""
        return NormalWishartPrior(self.mu, self.t, self.nu, self.alpha)


def _updated_t(prior: NormalWishartPrior, s: SufficientStats) -> np.ndarray:
    m = s.count
    shrink = prior.nu * m / (prior.nu + m) if m else 0.0
    diff = prior.mu0 - s.mean
    return prior.t0 + s.scatter + shrink * np.outer(diff, diff)


def update_posterior(
    prior: NormalWishartPrior, s: SufficientStats
) -> NormalWishartPosterior:
    """Conjugate update of a normal-Wishart prior with sufficient statistics.

    The location becomes the sample-size weighted average of prior location
    and sample mean; the Wishart hyperparameter gains the scatter plus a
    shrinkage term in the location-mean gap; both sample sizes grow by the
    case count.
    """
    if s.mean.shape != prior.mu0.shape:
        raise DimensionMismatchError(
            f"stats dimension {s.mean.shape} does not match prior {prior.mu0.shape}"
        )
    m = s.count
    if m == 0:
        return NormalWishartPosterior(prior.mu0, prior.t0, prior.nu, prior.alpha)
    mu = (prior.nu * prior.mu0 + m * s.mean) / (prior.nu + m)
    return NormalWishartPosterior(
        mu=mu, t=_updated_t(prior, s), nu=prior.nu + m, alpha=prior.alpha + m
    )


def _size_constant(n: int, m: int, nu: float, alpha: float) -> float:
    """The part of an n-variable log marginal fixed by n, the case count m
    and the sample sizes: everything but the two log-determinant terms."""
    return (
        -0.5 * n * m * LOG_2PI
        + 0.5 * n * (math.log(nu) - math.log(nu + m))
        + log_wishart_norm(n, alpha)
        - log_wishart_norm(n, alpha + m)
    )


def _log_marginal_stats(prior: NormalWishartPrior, s: SufficientStats) -> float:
    """Closed-form log marginal likelihood from sufficient statistics."""
    n = prior.dim
    if n == 0:
        return 0.0  # the empty-set marginal is 1
    m = s.count
    return (
        _size_constant(n, m, prior.nu, prior.alpha)
        + 0.5 * prior.alpha * log_det(prior.t0)
        - 0.5 * (prior.alpha + m) * log_det(_updated_t(prior, s))
    )


def log_marginal_complete(prior: NormalWishartPrior, d: Dataset) -> float:
    """Log marginal likelihood of a complete dataset under the complete
    structure on its variables.

    This is the telescoped product of the sequential predictive densities;
    the zero-variable and zero-case datasets both yield log 1 = 0.
    """
    if d.width != prior.dim:
        raise DimensionMismatchError(
            f"dataset has {d.width} variables, prior has {prior.dim}"
        )
    return _log_marginal_stats(prior, stats(d))


def log_predictive(prior: NormalWishartPrior, case) -> float:
    """Log predictive density of a single case: the multivariate-t form.

    Identical to :func:`log_marginal_complete` on the one-case dataset.
    """
    case = np.asarray(case, dtype=float).reshape(-1)
    if case.size != prior.dim:
        raise DimensionMismatchError(
            f"case has {case.size} entries, prior has {prior.dim}"
        )
    single = SufficientStats(1, case, np.zeros((case.size, case.size)))
    return _log_marginal_stats(prior, single)


# ---------------------------------------------------------------------------
# local scores and structure scores


@dataclass(frozen=True)
class StructureScore:
    """A structure's log marginal likelihood and its per-variable terms."""

    log_marginal: float
    local_terms: tuple[float, ...]


class Scorer:
    """Local and structure scores of one dataset under one prior.

    A subset marginal depends on the data and the prior only through the
    prior precision hyperparameter ``T0``, the posterior ``T_N`` and
    constants fixed by the subset size, so all of them are computed once
    here, and ``T0`` and ``T_N`` are checked for symmetry and symmetrized
    once. The marginal over an index set is then read from the
    log-determinants of the matching principal submatrices of ``T0`` and
    ``T_N``; this equals scoring the restricted prior against the projected
    data. Subset marginals are memoized by the subset's bitmask, and local
    scores by ``(child, parents)``; the local memo counts its ``hits`` and
    ``misses``.
    """

    def __init__(self, d: Dataset, prior: NormalWishartPrior):
        if d.width != prior.dim:
            raise DimensionMismatchError(
                f"dataset has {d.width} variables, prior has {prior.dim}"
            )
        s = stats(d)
        m = s.count
        self.variables = d.variables
        self._t0 = as_sym(prior.t0)
        self._tn = as_sym(_updated_t(prior, s))
        self._w0 = 0.5 * prior.alpha
        self._wn = 0.5 * (prior.alpha + m)
        self._const = [0.0] + [
            _size_constant(size, m, prior.nu, prior.alpha)
            for size in range(1, d.width + 1)
        ]
        self._marginals: dict[int, float] = {0: 0.0}  # the empty-set marginal is 1
        self._memo: dict[tuple[int, frozenset[int]], float] = {}
        self.hits = 0
        self.misses = 0

    def _marginal(self, mask: int) -> float:
        """Log marginal of the data over the variables whose bits are set in
        ``mask``."""
        value = self._marginals.get(mask)
        if value is None:
            ix = [i for i in range(mask.bit_length()) if mask >> i & 1]
            # take() on both axes: the principal submatrices, as np.ix_
            # would give them, at a fraction of its cost.
            value = self._marginals[mask] = (
                self._const[len(ix)]
                + self._w0 * sym_log_det(self._t0.take(ix, 0).take(ix, 1))
                - self._wn * sym_log_det(self._tn.take(ix, 0).take(ix, 1))
            )
        return value

    def local(self, child: int, parents: frozenset[int]) -> float:
        """The contribution of variable ``child`` with parent set ``parents``
        (column indices): the log marginal over the family minus the log
        marginal over the parents."""
        key = (child, parents)
        value = self._memo.get(key)
        if value is not None:
            self.hits += 1
            return value
        if child in parents:
            raise ValueError(f"{self.variables[child]!r} cannot be its own parent")
        self.misses += 1
        mask = 0
        for p in parents:
            mask |= 1 << p
        value = self._marginal(mask | 1 << child) - self._marginal(mask)
        self._memo[key] = value
        return value

    def score(self, dag: Dag) -> StructureScore:
        """Score a DAG on the dataset's variables: the sum of its local scores.

        No structure prior is added: a uniform one is constant over any fixed
        candidate set, so it changes neither rankings nor normalized
        posteriors.
        """
        if set(dag.variables) != set(self.variables):
            raise DimensionMismatchError(
                f"structure variables {sorted(dag.variables)} do not match "
                f"dataset variables {sorted(self.variables)}"
            )
        topological_order(dag)  # reject cyclic candidates up front
        if dag.variables == self.variables:
            families = enumerate(dag.parents)
        else:
            col = [self.variables.index(v) for v in dag.variables]
            families = (
                (col[i], frozenset(col[p] for p in ps))
                for i, ps in enumerate(dag.parents)
            )
        terms = tuple(self.local(child, ps) for child, ps in families)
        return StructureScore(float(sum(terms)), terms)


def normalize_log_weights(log_weights: Sequence[float]) -> np.ndarray:
    """Exponentiate max-shifted log weights and normalize to sum to one."""
    if len(log_weights) == 0:
        raise EmptyInputError("no weights to normalize")
    arr = np.asarray(log_weights, dtype=float)
    shifted = np.exp(arr - arr.max())
    return shifted / shifted.sum()

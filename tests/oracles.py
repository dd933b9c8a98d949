"""Test-only oracles that the package itself never calls.

A constructive Wishart sampler and the Monte-Carlo estimate of the log
marginal likelihood built on it (acceptance criterion 8). They use scipy,
which is a test dependency only.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import solve_triangular
from scipy.special import logsumexp

from bgelearn.data import Dataset
from bgelearn.errors import BgeLearnError, DimensionMismatchError
from bgelearn.linalg import spd_factor
from bgelearn.priors import NormalWishartPrior
from bgelearn.scoring import LOG_2PI


class NonIntegerAlphaError(BgeLearnError):
    """The constructive Wishart sampler needs an integer degree count."""


def sample_wishart(t0, alpha: int, count: int, rng) -> np.ndarray:
    """Draw Wishart precision matrices constructively.

    Each draw is the sum of ``alpha`` outer products of normal vectors with
    zero mean and precision matrix ``t0``; stacked result has shape
    (count, n, n).
    """
    t0 = np.asarray(t0, dtype=float)
    n = t0.shape[0]
    lower = spd_factor(t0)
    inv_lower = solve_triangular(lower, np.eye(n), lower=True)
    z = rng.standard_normal((count, alpha, n))
    y = z @ inv_lower  # rows have covariance inverse(t0)
    return np.einsum("sai,saj->sij", y, y)


def mc_marginal_oracle(
    prior: NormalWishartPrior,
    d: Dataset,
    samples: int,
    seed: int,
    chunk: int = 100_000,
) -> tuple[float, float]:
    """Monte-Carlo estimate of the log marginal likelihood.

    Draws (precision, mean) pairs from the prior by constructive Wishart
    sampling, averages the data likelihood over draws, and returns the log
    of that average together with its delta-method standard error (the
    relative standard error of the density). Requires an integer ``alpha``
    of at least the dimension. With no cases the estimate is exactly log 1.
    """
    n = prior.dim
    if prior.alpha != int(prior.alpha):
        raise NonIntegerAlphaError(
            f"constructive sampling needs integer alpha, got {prior.alpha}"
        )
    alpha = int(prior.alpha)
    if samples < 1:
        raise ValueError(f"samples must be positive, got {samples}")
    if d.width != n:
        raise DimensionMismatchError(
            f"dataset has {d.width} variables, prior has {n}"
        )
    if d.count == 0:
        return 0.0, 0.0

    rng = np.random.default_rng(seed)
    cases = d.cases
    m = cases.shape[0]
    log_liks = np.empty(samples)
    done = 0
    while done < samples:
        size = min(chunk, samples - done)
        w = sample_wishart(prior.t0, alpha, size, rng)
        lw = np.linalg.cholesky(w)
        log_det_w = 2.0 * np.log(
            np.einsum("sii->si", lw)
        ).sum(axis=1)
        inv_lw = np.linalg.inv(lw)
        u = rng.standard_normal((size, n))
        means = prior.mu0 + np.einsum("si,sij->sj", u, inv_lw) / math.sqrt(prior.nu)
        diffs = cases[None, :, :] - means[:, None, :]  # (size, m, n)
        quad = np.einsum("sli,sij,slj->s", diffs, w, diffs)
        log_liks[done : done + size] = (
            -0.5 * n * m * LOG_2PI + 0.5 * m * log_det_w - 0.5 * quad
        )
        done += size

    log_mean = float(logsumexp(log_liks) - math.log(samples))
    weights = np.exp(log_liks - log_liks.max())
    rel_se = float(
        weights.std(ddof=1) / weights.mean() / math.sqrt(samples)
    )
    return log_mean, rel_se

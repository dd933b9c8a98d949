"""Test-only oracles that the package itself never calls.

A constructive Wishart sampler and the Monte-Carlo estimate of the log
marginal likelihood built on it (acceptance criterion 8), which use scipy, a
test dependency only; and the full-rescan greedy climb that the incremental
one in :mod:`bgelearn.search` must reproduce move for move.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import solve_triangular
from scipy.special import logsumexp

from bgelearn.data import Dataset
from bgelearn.errors import BgeLearnError, DimensionMismatchError
from bgelearn.linalg import spd_factor
from bgelearn.network import Dag
from bgelearn.priors import NormalWishartPrior
from bgelearn.scoring import LOG_2PI, Scorer
from bgelearn.search import _MOVE_RANK, Move


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


def _has_path(children, src: int, dst: int, skip: int = -1) -> bool:
    """Directed path src -> ... -> dst along child links, leaving out the
    arc src -> skip."""
    stack = [c for c in children[src] if c != skip]
    seen = {src}
    while stack:
        node = stack.pop()
        if node == dst:
            return True
        if node in seen:
            continue
        seen.add(node)
        stack.extend(children[node])
    return False


def rescan_climb(scorer: Scorer, start: Dag, max_iters: int):
    """One greedy climb that rescans every ordered pair on every iteration:
    a fresh depth-first legality check and fresh local scores per candidate
    move. Returns ``(terminal, trace, evaluations)`` like
    ``search._climb_once``."""
    names = start.variables
    n = start.size
    local = scorer.local
    parents = list(start.parents)
    current = [local(v, parents[v]) for v in range(n)]
    trace: list[Move] = []
    evaluations = 0
    for _ in range(max_iters):
        children = [[] for _ in range(n)]
        for c, ps in enumerate(parents):
            for p in ps:
                children[p].append(c)
        best = None
        for u in range(n):
            for v in range(n):
                if u == v:
                    continue
                # Each move: (kind, delta, post-move parent set per affected child).
                if u in parents[v]:
                    dropped = parents[v] - {u}
                    delta = local(v, dropped) - current[v]
                    moves = [("delete", delta, ((v, dropped),))]
                    # Reversal is legal unless another u -> v path remains.
                    if not _has_path(children, u, v, skip=v):
                        raised = parents[u] | {v}
                        moves.append((
                            "reverse",
                            delta + local(u, raised) - current[u],
                            ((v, dropped), (u, raised)),
                        ))
                elif v not in parents[u] and not _has_path(children, v, u):
                    raised = parents[v] | {u}
                    moves = [("add", local(v, raised) - current[v], ((v, raised),))]
                else:
                    continue
                for kind, delta, changes in moves:
                    evaluations += 1
                    if delta > 0.0 and (best is None or delta >= best[0]):
                        key = (_MOVE_RANK[kind], names[u], names[v])
                        if best is None or delta > best[0] or key < best[1]:
                            best = (delta, key, kind, (u, v), changes)
        if best is None:
            break
        delta, _, kind, (u, v), changes = best
        for child, ps in changes:
            parents[child] = ps
            current[child] = local(child, ps)
        trace.append(Move(kind, (names[u], names[v]), delta))
    return Dag(names, tuple(parents)), trace, evaluations

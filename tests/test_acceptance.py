"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with the measured numbers.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.

Criterion 2 checks the posterior precision matrix in two halves. (a) The
update of the demo table as printed must equal an independent closed form
with exactly rounded (``math.fsum``) sums to 1e-12. (b) The published T20
was most likely computed from unrounded data, and the printed table rounds
each cell to two decimals; from the table as printed, two entries land
0.054 and 0.088 away, beyond the 0.05 that T20's own one-decimal rounding
allows. So the test finds, by a linear program on the closed form, a witness table within
±0.004 of every printed cell (it rounds back to the printed table) and
requires the program's update of that table to be within 0.05 of T20. A
negative control shows that an update with the wrong shrinkage weight
cannot pass (b) with any table that rounds to the printed one. See README,
"Reference values and known discrepancies".
"""

import itertools
import math
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy.optimize import linprog

from bgelearn.data import Dataset, stats
from bgelearn.network import (
    Dag,
    enumerate_classes,
    from_precision,
    implied_covariance,
    load_network,
    sample,
    same_class,
)
from bgelearn.priors import NormalWishartPrior, elicit
from bgelearn.scoring import (
    Scorer,
    log_marginal_complete,
    log_predictive,
    update_posterior,
)
from bgelearn.search import exhaustive, hill_climb

from oracles import mc_marginal_oracle, sample_wishart
from test_network import precision_flat
from test_scoring import (
    posterior_t_oracle,
    quadrature_marginal,
    random_dataset,
    random_prior,
)

# Classical reported values for the bundled worked example. The densities
# assume a different Wishart normalization convention than the standard
# density this package implements; README documents the reconciliation.
REFERENCE_T0 = np.array([[1.7, 0.0, 1.7], [0.0, 1.7, 1.7], [1.7, 1.7, 5.1]])
REFERENCE_T20 = np.array(
    [[13.8, 11.3, 6.7], [11.3, 35.8, 27.7], [6.7, 27.7, 41.2]]
)
REFERENCE_COMPLETE_DENSITY = 1.5e-88
REFERENCE_CHAIN_DENSITY = 3.5e-88
REFERENCE_CHAIN_POSTERIOR = 0.60


def report(number, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    tail = f" — {detail}" if detail else ""
    print(f"[acceptance {number:02d}] {description}: {status}{tail}")
    return ok


def test_01_prior_hyperparameter_reproduction(demo_spec):
    prior = elicit(demo_spec)
    t = 12.0 / 7.0
    exact = np.array([[t, 0.0, t], [0.0, t, t], [t, t, 3 * t]])
    err_exact = np.abs(prior.t0 - exact).max()
    err_printed = np.abs(prior.t0 - REFERENCE_T0).max()
    ok = err_exact < 1e-12 and err_printed < 0.05
    assert report(
        1,
        "prior precision hyperparameter reproduction",
        ok,
        f"max |t0 - exact| = {err_exact:.2e}, max |t0 - printed| = {err_printed:.3f}",
    )


def rounding_witness(formula, cases, target, box):
    """Cases within ``±box`` of ``cases`` that minimise the largest deviation
    of ``formula`` from ``target`` over the upper triangle, by a linear
    program on ``formula`` linearised at ``cases``.

    ``formula`` is quadratic in the cells, so central differences give its
    Jacobian exactly. Returns the witness and the linear optimum.
    """
    rows = np.triu_indices(target.shape[0])
    residual = formula(cases)[rows] - target[rows]
    h = 1e-3
    jac = np.empty((residual.size, cases.size))
    for k in range(cases.size):
        step = np.zeros(cases.size)
        step[k] = h
        step = step.reshape(cases.shape)
        jac[:, k] = (formula(cases + step)[rows] - formula(cases - step)[rows]) / (2 * h)
    # Variables: the cell shifts, then the max deviation t, which is minimised
    # subject to -t <= residual + jac·shift <= t.
    cost = np.zeros(cases.size + 1)
    cost[-1] = 1.0
    minus_t = -np.ones((residual.size, 1))
    result = linprog(
        cost,
        A_ub=np.vstack([np.hstack([jac, minus_t]), np.hstack([-jac, minus_t])]),
        b_ub=np.concatenate([-residual, residual]),
        bounds=[(-box, box)] * cases.size + [(0.0, None)],
        method="highs",
    )
    assert result.success, result.message
    return cases + result.x[:-1].reshape(cases.shape), result.x[-1]


def test_02_posterior_hyperparameter_reproduction(demo_prior, demo_dataset):
    # (a) The update of the table as printed equals the closed form exactly.
    cases = demo_dataset.cases
    post = update_posterior(demo_prior, stats(demo_dataset))
    oracle_err = np.abs(post.t - posterior_t_oracle(demo_prior, cases)).max()

    # (b) The printed T20 most likely came from unrounded data: a table that
    # rounds to the printed one reproduces it. The witness is found from the oracle,
    # within ±0.004 so that it rounds back to the printed cells.
    witness, _ = rounding_witness(
        lambda x: posterior_t_oracle(demo_prior, x), cases, REFERENCE_T20, 0.004
    )
    shift = np.abs(witness - cases).max()
    rounds_back = np.array_equal(np.round(witness, 2), cases)
    witness_t = update_posterior(
        demo_prior, stats(Dataset(demo_dataset.variables, witness))
    ).t
    deviation = np.abs(witness_t - REFERENCE_T20).max()

    ok = oracle_err <= 1e-12 and rounds_back and deviation <= 0.05
    printed_gap = np.abs(post.t - REFERENCE_T20).max()
    detail = (
        f"printed table: max |T - fsum oracle| = {oracle_err:.1e} "
        f"(max |T - printed| = {printed_gap:.4f}); witness table rounding to "
        f"the printed one (max cell shift {shift:.4f}): max |T - printed| = "
        f"{deviation:.4f}"
    )
    assert report(2, "posterior precision matrix within 0.05 of printed", ok, detail)


def test_02_control_wrong_shrinkage_weight(demo_prior, demo_dataset):
    # Shrinkage weight nu in place of nu·m/(nu+m): no table that rounds to
    # the printed one brings this update within 0.05 of the printed T20.
    cases = demo_dataset.cases
    box = 0.005

    def wrong(x):
        return posterior_t_oracle(demo_prior, x, shrink=demo_prior.nu)

    witness, linear_best = rounding_witness(wrong, cases, REFERENCE_T20, box)
    # Cell shifts d_k within ±box change T by its linear part plus
    # sum_k (d_k - dbar)(d_k - dbar)ᵀ + nu·dbar dbarᵀ, bounded entrywise by:
    bound = len(cases) * (2 * box) ** 2 + demo_prior.nu * box**2
    deviation = np.abs(wrong(witness) - REFERENCE_T20).max()
    ok = linear_best - bound > 0.05 and deviation > 0.05
    assert report(
        2,
        "control: shrinkage weight nu stays beyond 0.05 of printed",
        ok,
        f"best table within ±{box}: max |T - printed| >= "
        f"{linear_best:.4f} - {bound:.4f} (witness {deviation:.4f})",
    )


def test_03_ranking_reproduction(demo_dataset, demo_prior, chain_dag):
    t0 = time.perf_counter()
    result = exhaustive(demo_dataset, demo_prior)
    elapsed = time.perf_counter() - t0
    top = result.best
    complete_ln = log_marginal_complete(demo_prior, demo_dataset)
    chain_ln = Scorer(demo_dataset, demo_prior).score(chain_dag).log_marginal
    ok = len(result.ranked) == 11 and same_class(top.unit.representative, chain_dag)
    detail = (
        f"{len(result.ranked)} classes in {elapsed:.2f}s; top = "
        f"{sorted(top.unit.representative.edge_names())} with posterior "
        f"{top.posterior:.3f} (reference {REFERENCE_CHAIN_POSTERIOR}); computed "
        f"densities: complete {math.exp(complete_ln):.3e} (reference "
        f"{REFERENCE_COMPLETE_DENSITY:.1e}), chain {math.exp(chain_ln):.3e} "
        f"(reference {REFERENCE_CHAIN_DENSITY:.1e}); offsets explained by the "
        "normalization-convention reconciliation in README"
    )
    assert report(3, "exhaustive ranking: 11 classes, chain class first", ok, detail)


def test_04_score_equivalence_sweeps(demo_dataset, demo_prior):
    scorer = Scorer(demo_dataset, demo_prior)
    worst3 = 0.0
    for cls in enumerate_classes(3, demo_dataset.variables):
        values = [scorer.score(m).log_marginal for m in cls.members]
        worst3 = max(worst3, max(values) - min(values))

    rng = np.random.default_rng(404)
    d4 = random_dataset(rng, 4, 30)
    prior4 = NormalWishartPrior(np.zeros(4), np.eye(4), nu=6.0, alpha=8.0)
    t0 = time.perf_counter()
    scorer4 = Scorer(d4, prior4)
    worst4 = 0.0
    for cls in enumerate_classes(4, d4.variables):
        values = [scorer4.score(m).log_marginal for m in cls.members]
        worst4 = max(worst4, max(values) - min(values))
    elapsed = time.perf_counter() - t0
    ok = worst3 < 1e-9 and worst4 < 1e-9 and elapsed < 60.0
    assert report(
        4,
        "within-class score agreement over all DAGs (n=3 and n=4)",
        ok,
        f"max spread n=3: {worst3:.2e}, n=4: {worst4:.2e} "
        f"(543 DAGs in {elapsed:.1f}s)",
    )


def test_05_complete_structure_invariance(demo_dataset, demo_prior):
    values = []
    for order in itertools.permutations(range(3)):
        parents = [frozenset() for _ in range(3)]
        for pos, child in enumerate(order):
            parents[child] = frozenset(order[:pos])
        dag = Dag(demo_dataset.variables, tuple(parents))
        values.append(Scorer(demo_dataset, demo_prior).score(dag).log_marginal)
    spread = max(values) - min(values)
    ok = spread < 1e-9
    assert report(
        5,
        "all 6 complete orderings score identically",
        ok,
        f"spread = {spread:.2e}",
    )


def test_06_telescoping_consistency():
    rng = np.random.default_rng(606)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(0, 31))
        prior = random_prior(rng, n)
        d = random_dataset(rng, n, m)
        sequential = 0.0
        current = prior
        for row in d.cases:
            sequential += log_predictive(current, row)
            one = Dataset(d.variables, row.reshape(1, -1))
            current = update_posterior(current, stats(one)).as_prior()
        worst = max(worst, abs(log_marginal_complete(prior, d) - sequential))
    ok = worst < 1e-8
    assert report(
        6,
        "closed form equals sequential predictive product (20 draws)",
        ok,
        f"max |difference| = {worst:.2e}",
    )


@pytest.mark.slow
def test_07_quadrature_oracle():
    prior = NormalWishartPrior([0.0], [[1.0]], nu=1.0, alpha=2.0)
    closed = math.exp(log_marginal_complete(prior, Dataset(("y",), [[0.0]])))
    quad = quadrature_marginal(0.0, nu=1.0, alpha=2.0, t0=1.0)
    ok = (
        abs(closed - 0.3536) / 0.3536 < 1e-3
        and abs(closed - quad) / quad < 1e-3
    )
    assert report(
        7,
        "one-variable marginal vs 0.3536 and 2-D quadrature",
        ok,
        f"closed = {closed:.6f}, quadrature = {quad:.6f}",
    )


def test_08_monte_carlo_oracle():
    rng = np.random.default_rng(808)
    prior = NormalWishartPrior([0.0, 0.0], np.eye(2), nu=3.0, alpha=3.0)
    d = Dataset(("a", "b"), rng.normal(size=(3, 2)))
    closed = log_marginal_complete(prior, d)
    t0 = time.perf_counter()
    estimate, se = mc_marginal_oracle(prior, d, samples=1_000_000, seed=9)
    elapsed = time.perf_counter() - t0
    gap = abs(estimate - closed)
    ok = gap <= 3 * se and elapsed < 60.0
    assert report(
        8,
        "1e6-sample Monte-Carlo marginal within 3 standard errors",
        ok,
        f"closed = {closed:.5f}, estimate = {estimate:.5f}, "
        f"gap = {gap:.4f} vs 3*se = {3 * se:.4f} ({elapsed:.1f}s)",
    )


def test_09_jacobian_property():
    from bgelearn.network import log_abs_jacobian

    rng = np.random.default_rng(909)
    n, h = 3, 1e-5
    dim = n + n * (n - 1) // 2
    worst = 0.0
    for _ in range(20):
        theta = np.concatenate(
            [rng.uniform(0.5, 2.0, size=n), rng.normal(size=dim - n)]
        )
        jac = np.empty((dim, dim))
        for col in range(dim):
            plus, minus = theta.copy(), theta.copy()
            plus[col] += h
            minus[col] -= h
            jac[:, col] = (precision_flat(plus, n) - precision_flat(minus, n)) / (2 * h)
        _, fd_log = np.linalg.slogdet(jac)
        closed = log_abs_jacobian(theta[:n])
        worst = max(worst, abs(closed - fd_log) / max(1e-6, abs(fd_log)))
    ok = worst < 1e-4
    assert report(
        9,
        "parameterization Jacobian vs finite differences (20 draws)",
        ok,
        f"max relative error = {worst:.2e}",
    )


def test_10_parameter_block_independence(demo_prior):
    from scipy.stats import spearmanr

    rng = np.random.default_rng(1010)
    draws = sample_wishart(demo_prior.t0, 6, 10_000, rng)
    coords = np.empty((draws.shape[0], 6))
    for s, w in enumerate(draws):
        params = from_precision(w, (0, 1, 2))
        v, c = params.cond_variances, params.coefficients
        coords[s] = (v[0], v[1], c[(1, 0)], v[2], c[(2, 0)], c[(2, 1)])
    blocks = np.array([0, 1, 1, 2, 2, 2])
    corr, _ = spearmanr(coords)
    cross = [
        abs(corr[i, j])
        for i in range(6)
        for j in range(6)
        if blocks[i] != blocks[j]
    ]
    ok = max(cross) < 0.05
    assert report(
        10,
        "cross-block rank correlations of transformed Wishart draws",
        ok,
        f"max |rank corr| = {max(cross):.4f} over {len(cross)} pairs",
    )


def test_11_sampling_correctness(sample_dir):
    net = load_network(sample_dir / "generator.json")
    d = sample(net, 50_000, seed=11)
    s = stats(d)
    empirical = s.scatter / d.count
    err = np.abs(empirical - implied_covariance(net)).max()
    ok = err < 0.05
    assert report(
        11,
        "ancestral sampling covariance matches the closed form",
        ok,
        f"max per-entry error = {err:.4f} at 50000 cases",
    )


def test_12_recovery_property(sample_dir, demo_prior, chain_dag):
    net = load_network(sample_dir / "generator.json")
    d = sample(net, 200, seed=12)
    full = exhaustive(d, demo_prior)
    greedy = hill_climb(d, demo_prior)
    ok = same_class(full.best.unit.representative, chain_dag) and same_class(
        greedy.terminal, chain_dag
    )
    assert report(
        12,
        "generating chain recovered by exhaustive and greedy search",
        ok,
        f"exhaustive top = {sorted(full.best.unit.representative.edge_names())}, "
        f"greedy terminal = {sorted(greedy.terminal.edge_names())}",
    )


def test_13_cli_determinism(sample_dir):
    commands = [
        ["learn", str(sample_dir / "cases.csv"), str(sample_dir / "prior.json"),
         "--json"],
        ["learn", str(sample_dir / "cases.csv"), str(sample_dir / "prior.json"),
         "--mode", "greedy", "--restarts", "3", "--seed", "5", "--trace"],
        ["sample", str(sample_dir / "generator.json"), "--count", "25", "--seed", "2"],
        ["score", str(sample_dir / "cases.csv"), str(sample_dir / "prior.json"),
         str(sample_dir / "chain.json"), "--json"],
    ]
    ok = True
    for argv in commands:
        outputs = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-m", "bgelearn.cli", *argv],
                capture_output=True,
                check=True,
            )
            outputs.append(proc.stdout)
        ok = ok and outputs[0] == outputs[1] and outputs[0]
    assert report(
        13,
        "repeated CLI runs are byte-identical",
        bool(ok),
        f"{len(commands)} commands, two runs each, separate processes",
    )

import itertools
import math

import numpy as np
import pytest
from scipy import stats as sps
from scipy.integrate import dblquad
from scipy.special import gammaln

from bgelearn.data import Dataset, project, stats
import bgelearn.scoring
from bgelearn.errors import (
    DimensionMismatchError,
    EmptyInputError,
    GammaDomainError,
    NotPositiveDefiniteError,
)
from bgelearn.network import (
    Dag,
    GaussianNetwork,
    GaussianParams,
    enumerate_classes,
    enumerate_dags,
    from_precision,
    sample,
)
from bgelearn.priors import NormalWishartPrior
from bgelearn.scoring import (
    Scorer,
    log_marginal_complete,
    log_predictive,
    log_wishart_norm,
    normalize_log_weights,
    update_posterior,
)
from bgelearn.search import hill_climb

from oracles import NonIntegerAlphaError, mc_marginal_oracle, sample_wishart

TOY_PRIOR = NormalWishartPrior([0.0], [[1.0]], nu=1.0, alpha=2.0)
TOY_LOG_DENSITY = -1.5 * math.log(2.0)  # exp(.) = 0.353553...


def single_case(value):
    return Dataset(("y",), np.array([[float(value)]]))


def random_prior(rng, n):
    g = rng.standard_normal((n, n))
    t0 = g @ g.T + 0.5 * np.eye(n)
    return NormalWishartPrior(
        rng.normal(size=n),
        (t0 + t0.T) / 2.0,
        nu=float(rng.uniform(0.5, 5.0)),
        alpha=float(n - 1 + rng.uniform(0.5, 4.0)),
    )


def random_dataset(rng, n, m):
    return Dataset(
        tuple(f"x{i + 1}" for i in range(n)), rng.normal(size=(m, n), scale=1.5)
    )


def posterior_t_oracle(prior, cases, shrink=None):
    """``T0 + S + shrink·(mu0 - mean)(mu0 - mean)ᵀ`` with every sum exactly
    rounded by ``math.fsum``; ``shrink`` defaults to the conjugate
    ``nu·m/(nu + m)``. Independent of ``update_posterior``."""
    m, n = cases.shape
    if shrink is None:
        shrink = prior.nu * m / (prior.nu + m)
    mean = np.array([math.fsum(cases[:, j]) / m for j in range(n)])
    centred = cases - mean
    scatter = np.array(
        [[math.fsum(centred[:, i] * centred[:, j]) for j in range(n)] for i in range(n)]
    )
    diff = prior.mu0 - mean
    return prior.t0 + scatter + shrink * np.outer(diff, diff)


class TestLogWishartNorm:
    def test_one_dim_alpha_two(self):
        assert log_wishart_norm(1, 2.0) == pytest.approx(math.log(0.5), abs=1e-14)

    def test_one_dim_alpha_three(self):
        # 2**1.5 * Gamma(1.5) = sqrt(2 pi)
        assert log_wishart_norm(1, 3.0) == pytest.approx(
            -0.5 * math.log(2 * math.pi), abs=1e-13
        )

    def test_three_dim_alpha_six_closed_form(self):
        # 2**9 * pi**1.5 * Gamma(3)Gamma(2.5)Gamma(2) = 768 * pi**2
        assert log_wishart_norm(3, 6.0) == pytest.approx(
            -math.log(768 * math.pi**2), abs=1e-12
        )
        assert math.exp(log_wishart_norm(3, 6.0)) == pytest.approx(1.3193e-4, rel=1e-4)

    def test_domain_error(self):
        with pytest.raises(GammaDomainError):
            log_wishart_norm(3, 2.0)  # third gamma argument hits zero

    @pytest.mark.parametrize("n", range(1, 31))
    def test_matches_vectorized_gammaln_form(self, n):
        alphas = [n + 2 + m for m in (0, 1, 500, 1000, 20000)]
        alphas += [n - 1 + 0.5, n + 0.37, n + 2 + 1000.25]
        for alpha in alphas:
            args = (alpha + 1.0 - np.arange(1, n + 1)) / 2.0
            expected = (
                -(alpha * n / 2.0) * math.log(2.0)
                - (n * (n - 1) / 4.0) * math.log(math.pi)
                - gammaln(args).sum()
            )
            assert log_wishart_norm(n, alpha) == pytest.approx(expected, rel=1e-13)


class TestUpdatePosterior:
    def test_empty_update_is_identity(self, demo_prior):
        empty = Dataset(("x1", "x2", "x3"), np.empty((0, 3)))
        post = update_posterior(demo_prior, stats(empty))
        np.testing.assert_array_equal(post.mu, demo_prior.mu0)
        np.testing.assert_array_equal(post.t, demo_prior.t0)
        assert (post.nu, post.alpha) == (demo_prior.nu, demo_prior.alpha)

    def test_one_dim_hand_case(self):
        post = update_posterior(TOY_PRIOR, stats(single_case(2.0)))
        assert post.mu[0] == pytest.approx(1.0)
        assert post.t[0, 0] == pytest.approx(3.0)
        assert (post.nu, post.alpha) == (2.0, 3.0)

    def test_demo_posterior_against_fsum_oracle(self, demo_prior, demo_dataset):
        oracle = posterior_t_oracle(demo_prior, demo_dataset.cases)
        post = update_posterior(demo_prior, stats(demo_dataset))
        np.testing.assert_allclose(post.t, oracle, atol=1e-12)
        assert (post.nu, post.alpha) == (26.0, 26.0)

    def test_sequential_updates_compose(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            n = int(rng.integers(1, 5))
            prior = random_prior(rng, n)
            d1 = random_dataset(rng, n, int(rng.integers(1, 12)))
            d2 = random_dataset(rng, n, int(rng.integers(1, 12)))
            both = Dataset(d1.variables, np.vstack([d1.cases, d2.cases]))
            stepwise = update_posterior(
                update_posterior(prior, stats(d1)).as_prior(), stats(d2)
            )
            at_once = update_posterior(prior, stats(both))
            np.testing.assert_allclose(stepwise.mu, at_once.mu, atol=1e-10)
            np.testing.assert_allclose(stepwise.t, at_once.t, atol=1e-10)
            assert stepwise.nu == at_once.nu
            assert stepwise.alpha == at_once.alpha

    def test_dimension_mismatch(self, demo_prior):
        with pytest.raises(DimensionMismatchError):
            update_posterior(demo_prior, stats(single_case(1.0)))


def quadrature_marginal(x, nu, alpha, t0):
    """Independent oracle: integrate the 1-D likelihood against the
    normal-gamma prior over (mean, precision) by quadrature."""

    def integrand(m, w):
        return (
            sps.norm.pdf(x, loc=m, scale=1.0 / math.sqrt(w))
            * sps.norm.pdf(m, loc=0.0, scale=1.0 / math.sqrt(nu * w))
            * sps.gamma.pdf(w, a=alpha / 2.0, scale=2.0 / t0)
        )

    value, abserr = dblquad(integrand, 0, np.inf, -np.inf, np.inf)
    assert abserr < 1e-6
    return value


class TestLogMarginalComplete:
    def test_toy_case_closed_form(self):
        assert log_marginal_complete(TOY_PRIOR, single_case(0.0)) == pytest.approx(
            TOY_LOG_DENSITY, abs=1e-12
        )

    @pytest.mark.slow
    def test_toy_case_against_quadrature(self):
        closed = math.exp(log_marginal_complete(TOY_PRIOR, single_case(0.0)))
        assert closed == pytest.approx(0.3536, rel=1e-3)
        assert closed == pytest.approx(quadrature_marginal(0.0, 1.0, 2.0, 1.0), rel=1e-3)

    def test_no_cases_gives_log_one(self, demo_prior):
        empty = Dataset(("x1", "x2", "x3"), np.empty((0, 3)))
        assert log_marginal_complete(demo_prior, empty) == 0.0

    def test_telescopes_over_sequential_predictives(self):
        rng = np.random.default_rng(30)
        for _ in range(10):
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
            assert log_marginal_complete(prior, d) == pytest.approx(
                sequential, abs=1e-8
            )


class TestLogPredictive:
    def test_toy_value(self):
        assert log_predictive(TOY_PRIOR, [0.0]) == pytest.approx(
            TOY_LOG_DENSITY, abs=1e-12
        )

    def test_symmetry_about_location(self, demo_prior):
        delta = np.array([0.4, -1.1, 0.7])
        hi = log_predictive(demo_prior, demo_prior.mu0 + delta)
        lo = log_predictive(demo_prior, demo_prior.mu0 - delta)
        assert hi == pytest.approx(lo, abs=1e-12)

    def test_equals_single_case_marginal(self, demo_prior):
        rng = np.random.default_rng(31)
        for _ in range(5):
            case = rng.normal(size=3)
            d = Dataset(("x1", "x2", "x3"), case.reshape(1, -1))
            assert log_predictive(demo_prior, case) == pytest.approx(
                log_marginal_complete(demo_prior, d), abs=1e-12
            )

    def test_dimension_mismatch(self, demo_prior):
        with pytest.raises(DimensionMismatchError):
            log_predictive(demo_prior, [0.0])


class TestLocalScore:
    def test_no_parents_is_single_column_marginal(self, demo_prior, demo_dataset):
        value = Scorer(demo_dataset, demo_prior).local(1, frozenset())
        expected = log_marginal_complete(
            demo_prior.restrict([1]), project(demo_dataset, ["x2"])
        )
        assert value == expected

    def test_chain_assembles_from_subset_marginals(self, demo_prior, demo_dataset, chain_dag):
        def marginal(names):
            keep = [demo_dataset.variables.index(n) for n in names]
            return log_marginal_complete(
                demo_prior.restrict(keep), project(demo_dataset, names)
            )

        total = Scorer(demo_dataset, demo_prior).score(chain_dag).log_marginal
        assembled = (
            marginal(["x1", "x2"]) + marginal(["x2", "x3"]) - marginal(["x2"])
        )
        assert total == pytest.approx(assembled, abs=1e-12)

    def test_restricting_stats_equals_projecting_data(self, demo_prior, demo_dataset):
        # ascending subsets reproduce the projected computation bit for bit
        for names in (["x1"], ["x2"], ["x1", "x3"], ["x1", "x2", "x3"]):
            keep = [demo_dataset.variables.index(n) for n in names]
            parents = names[:-1]
            par_keep = keep[:-1]
            via_local = Scorer(demo_dataset, demo_prior).local(
                keep[-1], frozenset(par_keep)
            )
            projected = log_marginal_complete(
                demo_prior.restrict(keep), project(demo_dataset, names)
            ) - (
                log_marginal_complete(
                    demo_prior.restrict(par_keep), project(demo_dataset, parents)
                )
                if parents
                else 0.0
            )
            assert via_local == projected

    def test_subset_order_invariance(self, demo_prior, demo_dataset):
        forward = log_marginal_complete(
            demo_prior.restrict([1, 2]), project(demo_dataset, ["x2", "x3"])
        )
        backward = log_marginal_complete(
            demo_prior.restrict([2, 1]), project(demo_dataset, ["x3", "x2"])
        )
        assert forward == pytest.approx(backward, abs=1e-10)

    def test_cache_hit_is_bit_identical_without_recompute(
        self, demo_prior, demo_dataset
    ):
        scorer = Scorer(demo_dataset, demo_prior)
        first = scorer.local(2, frozenset({0}))
        assert (scorer.misses, scorer.hits) == (1, 0)
        second = scorer.local(2, frozenset({0}))
        assert (scorer.misses, scorer.hits) == (1, 1)
        assert first == second
        assert first == Scorer(demo_dataset, demo_prior).local(2, frozenset({0}))

    def test_cache_distinguishes_priors(self, demo_prior, demo_dataset):
        other = NormalWishartPrior(
            demo_prior.mu0, demo_prior.t0, demo_prior.nu, demo_prior.alpha + 1
        )
        a = Scorer(demo_dataset, demo_prior).local(0, frozenset())
        b = Scorer(demo_dataset, other).local(0, frozenset())
        assert a != b

    def test_child_cannot_be_own_parent(self, demo_prior, demo_dataset):
        with pytest.raises(ValueError):
            Scorer(demo_dataset, demo_prior).local(0, frozenset({0}))


def scratch_local(prior, d, child, parents):
    """Independent local score: restricted prior against projected data,
    family marginal minus parent marginal, through the complete-data
    closed form."""
    names = d.variables
    parents = sorted(parents)
    family = sorted(parents + [child])

    def marginal(ix):
        if not ix:
            return 0.0
        return log_marginal_complete(
            prior.restrict(ix), project(d, [names[i] for i in ix])
        )

    return marginal(family) - marginal(parents)


class TestScorer:
    def test_local_matches_subset_marginal_oracle(self):
        rng = np.random.default_rng(1302)
        shapes = [(1, 0), (2, 1), (3, 0), (3, 1), (4, 1), (5, 1), (5, 0)]
        shapes += [(int(rng.integers(1, 6)), int(rng.integers(2, 40))) for _ in range(8)]
        for n, m in shapes:
            prior = random_prior(rng, n)
            d = random_dataset(rng, n, m)
            scorer = Scorer(d, prior)
            for child in range(n):
                others = [i for i in range(n) if i != child]
                for size in range(n):
                    for parents in itertools.combinations(others, size):
                        value = scorer.local(child, frozenset(parents))
                        assert value == pytest.approx(
                            scratch_local(prior, d, child, list(parents)), abs=1e-10
                        ), (n, m, child, parents)

    def test_greedy_trace_matches_scratch_deltas(self):
        rng = np.random.default_rng(6808)
        n = 10
        names = tuple(f"v{i}" for i in range(n))
        parents = [
            frozenset(int(p) for p in range(i) if rng.random() < 0.3)
            for i in range(n)
        ]
        coeffs = {
            (c, p): float(rng.uniform(0.5, 1.5) * rng.choice((-1, 1)))
            for c, ps in enumerate(parents)
            for p in ps
        }
        net = GaussianNetwork(
            Dag(names, tuple(parents)),
            GaussianParams(tuple(rng.normal(size=n)), (1.0,) * n, coeffs),
        )
        d = sample(net, 300, seed=11)
        prior = NormalWishartPrior(np.zeros(n), (n + 2) * np.eye(n), 1.0, n + 2)
        report = hill_climb(d, prior)
        assert len(report.trace) >= 5
        current = [frozenset() for _ in range(n)]
        for move in report.trace:
            u, v = names.index(move.arc[0]), names.index(move.arc[1])
            after = list(current)
            if move.kind == "add":
                after[v] = current[v] | {u}
            elif move.kind == "delete":
                after[v] = current[v] - {u}
            else:
                after[v] = current[v] - {u}
                after[u] = current[u] | {v}
            delta = sum(
                scratch_local(prior, d, c, list(after[c]))
                - scratch_local(prior, d, c, list(current[c]))
                for c in range(n)
                if after[c] != current[c]
            )
            assert move.delta == pytest.approx(delta, abs=1e-9)
            current = after
        assert tuple(current) == report.terminal.parents

    def test_dimension_mismatch(self, demo_prior):
        with pytest.raises(DimensionMismatchError):
            Scorer(single_case(1.0), demo_prior)

    def test_each_subset_marginal_is_computed_once(
        self, monkeypatch, demo_prior, demo_dataset
    ):
        calls = []
        real = bgelearn.scoring.sym_log_det

        def counted(a):
            calls.append(a.shape[0])
            return real(a)

        monkeypatch.setattr(bgelearn.scoring, "sym_log_det", counted)
        scorer = Scorer(demo_dataset, demo_prior)
        first = scorer.local(2, frozenset({0}))  # subsets {0, 2} and {0}
        assert sorted(calls) == [1, 1, 2, 2]  # T0 and T_N blocks of each
        second = scorer.local(0, frozenset({2}))  # {0, 2} again, and {2}
        assert sorted(calls) == [1, 1, 1, 1, 2, 2]
        assert scorer.misses == 2
        assert first - second == pytest.approx(
            scratch_local(demo_prior, demo_dataset, 2, [0])
            - scratch_local(demo_prior, demo_dataset, 0, [2]),
            abs=1e-10,
        )

    def test_pivot_test_runs_on_each_subset(self):
        # Two columns equal up to 1e-7 under a prior with T0 = 1e-14 I: T_N
        # passes the symmetry check and each column alone factors, but their
        # 2 x 2 block has a pivot far below 1e-12 times its largest diagonal
        # entry.
        rng = np.random.default_rng(5)
        z = rng.standard_normal(50)
        cases = np.column_stack(
            [z, z + 1e-7 * rng.standard_normal(50), rng.standard_normal(50)]
        )
        d = Dataset(("a", "b", "c"), cases)
        prior = NormalWishartPrior(np.zeros(3), 1e-14 * np.eye(3), 1.0, 5.0)
        scorer = Scorer(d, prior)
        scorer.local(0, frozenset({2}))
        scorer.local(1, frozenset())
        with pytest.raises(NotPositiveDefiniteError):
            scorer.local(1, frozenset({0}))


class TestScoreStructure:
    def test_complete_structures_telescope(self, demo_prior, demo_dataset):
        full = log_marginal_complete(demo_prior, demo_dataset)
        names = demo_dataset.variables
        for order in itertools.permutations(range(3)):
            parents = [frozenset() for _ in range(3)]
            for pos, child in enumerate(order):
                parents[child] = frozenset(order[:pos])
            dag = Dag(names, tuple(parents))
            result = Scorer(demo_dataset, demo_prior).score(dag)
            assert result.log_marginal == pytest.approx(full, abs=1e-9)

    def test_empty_dag_sums_single_marginals(self, demo_prior, demo_dataset):
        dag = Dag.from_edges(demo_dataset.variables)
        result = Scorer(demo_dataset, demo_prior).score(dag)
        singles = sum(
            log_marginal_complete(
                demo_prior.restrict([i]), project(demo_dataset, [name])
            )
            for i, name in enumerate(demo_dataset.variables)
        )
        assert result.log_marginal == pytest.approx(singles, abs=1e-12)
        assert sum(result.local_terms) == result.log_marginal

    def test_variable_mismatch(self, demo_prior, demo_dataset):
        with pytest.raises(DimensionMismatchError):
            Scorer(demo_dataset, demo_prior).score(Dag.from_edges(("a", "b")))

    def test_structure_variable_order_follows_names(
        self, demo_prior, demo_dataset, chain_dag
    ):
        shuffled = Dag.from_edges(("x3", "x1", "x2"), chain_dag.edge_names())
        ordered = Scorer(demo_dataset, demo_prior).score(chain_dag)
        result = Scorer(demo_dataset, demo_prior).score(shuffled)
        assert result.log_marginal == pytest.approx(ordered.log_marginal, abs=1e-12)
        assert result.local_terms == tuple(
            ordered.local_terms[i] for i in (2, 0, 1)
        )


class TestScoreEquivalence:
    def test_all_classes_on_demo_inputs(self, demo_prior, demo_dataset):
        scorer = Scorer(demo_dataset, demo_prior)
        for cls in enumerate_classes(3, demo_dataset.variables):
            values = [scorer.score(m).log_marginal for m in cls.members]
            assert max(values) - min(values) < 1e-9

    def test_randomized_priors_and_data(self):
        rng = np.random.default_rng(77)
        for _ in range(5):
            n = int(rng.integers(2, 5))
            prior = random_prior(rng, n)
            d = random_dataset(rng, n, int(rng.integers(2, 31)))
            scorer = Scorer(d, prior)
            classes = enumerate_classes(n, d.variables)
            picks = [classes[i] for i in rng.integers(0, len(classes), size=6)]
            for cls in picks:
                values = [scorer.score(m).log_marginal for m in cls.members]
                assert max(values) - min(values) < 1e-9

    def test_complete_orderings_score_identically(self, demo_prior, demo_dataset):
        names = demo_dataset.variables
        values = []
        for order in itertools.permutations(range(3)):
            parents = [frozenset() for _ in range(3)]
            for pos, child in enumerate(order):
                parents[child] = frozenset(order[:pos])
            dag = Dag(names, tuple(parents))
            values.append(Scorer(demo_dataset, demo_prior).score(dag).log_marginal)
        assert max(values) - min(values) < 1e-9


class TestPosteriorOverSet:
    def test_two_equal_scores(self, demo_prior, demo_dataset, chain_dag):
        s = Scorer(demo_dataset, demo_prior).score(chain_dag).log_marginal
        assert list(normalize_log_weights([s, s])) == pytest.approx([0.5, 0.5])

    def test_single_structure(self, demo_prior, demo_dataset, chain_dag):
        s = Scorer(demo_dataset, demo_prior).score(chain_dag).log_marginal
        assert list(normalize_log_weights([s])) == [1.0]

    def test_sums_to_one(self, demo_prior, demo_dataset):
        scorer = Scorer(demo_dataset, demo_prior)
        scores = [
            scorer.score(d).log_marginal
            for d in enumerate_dags(3, demo_dataset.variables)
        ]
        assert sum(normalize_log_weights(scores)) == pytest.approx(1.0, abs=1e-12)

    def test_empty_input(self):
        with pytest.raises(EmptyInputError):
            normalize_log_weights([])


class TestMonteCarloOracle:
    def test_no_cases_is_exact(self, demo_prior):
        empty = Dataset(("x1", "x2", "x3"), np.empty((0, 3)))
        assert mc_marginal_oracle(demo_prior, empty, samples=10, seed=0) == (0.0, 0.0)

    def test_toy_case_agrees_with_quadrature_value(self):
        estimate, se = mc_marginal_oracle(
            TOY_PRIOR, single_case(0.0), samples=200_000, seed=5
        )
        assert se < 0.02
        assert abs(estimate - TOY_LOG_DENSITY) < 3 * se

    def test_non_integer_alpha_rejected(self):
        prior = NormalWishartPrior([0.0], [[1.0]], nu=1.0, alpha=2.5)
        with pytest.raises(NonIntegerAlphaError):
            mc_marginal_oracle(prior, single_case(0.0), samples=10, seed=0)

    def test_matches_closed_form_on_small_multivariate_case(self):
        rng = np.random.default_rng(58)
        prior = NormalWishartPrior([0.0, 0.0], np.eye(2), nu=3.0, alpha=3.0)
        d = Dataset(("a", "b"), rng.normal(size=(3, 2)))
        closed = log_marginal_complete(prior, d)
        estimate, se = mc_marginal_oracle(prior, d, samples=200_000, seed=6)
        assert abs(estimate - closed) < 3 * se


class TestWishartSampler:
    def test_mean_matches_alpha_times_inverse_t0(self, demo_prior):
        rng = np.random.default_rng(55)
        draws = sample_wishart(demo_prior.t0, 6, 20_000, rng)
        expectation = 6 * np.linalg.inv(demo_prior.t0)
        np.testing.assert_allclose(draws.mean(axis=0), expectation, atol=0.1)

    def test_parameter_blocks_are_uncorrelated(self, demo_prior):
        rng = np.random.default_rng(56)
        draws = sample_wishart(demo_prior.t0, 6, 10_000, rng)
        coords = np.empty((draws.shape[0], 6))
        for s, w in enumerate(draws):
            params = from_precision(w, (0, 1, 2))
            v = params.cond_variances
            c = params.coefficients
            coords[s] = (v[0], v[1], c[(1, 0)], v[2], c[(2, 0)], c[(2, 1)])
        blocks = np.array([0, 1, 1, 2, 2, 2])
        corr, _ = sps.spearmanr(coords)
        for i in range(6):
            for j in range(6):
                if blocks[i] != blocks[j]:
                    assert abs(corr[i, j]) < 0.05

import numpy as np
import pytest

from bgelearn.data import Dataset
from bgelearn.errors import TooLargeError
from bgelearn.network import (
    Dag,
    GaussianNetwork,
    GaussianParams,
    class_key,
    sample,
    same_class,
    topological_order,
)
from bgelearn.priors import NormalWishartPrior, StructurePrior
from bgelearn.scoring import Scorer, score_structure
from bgelearn.search import exhaustive, hill_climb

from test_network import SHUFFLED_NAMES, all_dags_oracle
from test_scoring import scratch_local


def two_var_dependent_dataset(seed=17, count=200, coeff=1.0):
    net = GaussianNetwork(
        Dag.from_edges(("a", "b"), [("a", "b")]),
        GaussianParams((0.0, 0.0), (1.0, 1.0), {(1, 0): coeff}),
    )
    return sample(net, count, seed)


def flat_prior(n, names=None, nu=6.0, alpha=None):
    alpha = alpha if alpha is not None else n + 3
    return NormalWishartPrior(np.zeros(n), np.eye(n), nu, alpha)


def apply_move(dag: Dag, move) -> Dag:
    names = dag.variables
    u, v = names.index(move.arc[0]), names.index(move.arc[1])
    if move.kind == "add":
        return dag.replace_parents(v, dag.parents[v] | {u})
    if move.kind == "delete":
        return dag.replace_parents(v, dag.parents[v] - {u})
    out = dag.replace_parents(v, dag.parents[v] - {u})
    return out.replace_parents(u, out.parents[u] | {v})


class TestExhaustive:
    def test_demo_ranking(self, demo_dataset, demo_prior, chain_dag):
        report = exhaustive(demo_dataset, demo_prior, verify=True)
        assert len(report.ranked) == 11
        assert same_class(report.best.unit.representative, chain_dag)
        assert sum(e.posterior for e in report.ranked) == pytest.approx(1.0, abs=1e-12)
        assert report.trace == ()
        # sorted by score descending
        scores = [e.log_score for e in report.ranked]
        assert scores == sorted(scores, reverse=True)

    def test_single_variable(self):
        d = Dataset(("only",), np.array([[0.1], [0.4], [-0.2]]))
        report = exhaustive(d, flat_prior(1))
        assert len(report.ranked) == 1
        assert report.best.posterior == 1.0

    def test_dependent_pair_beats_empty(self):
        d = two_var_dependent_dataset()
        report = exhaustive(d, flat_prior(2))
        top = report.best.unit.representative
        assert top.edges() == ((0, 1),)
        assert report.best.unit.size == 2  # the two orientations

    def test_uniform_structures_weights_class_size(self, demo_dataset, demo_prior):
        by_classes = exhaustive(
            demo_dataset, demo_prior, StructurePrior.UNIFORM_CLASSES
        )
        by_structures = exhaustive(
            demo_dataset, demo_prior, StructurePrior.UNIFORM_STRUCTURES
        )
        assert sum(e.posterior for e in by_structures.ranked) == pytest.approx(1.0)
        marg = {
            tuple(sorted(e.unit.representative.edge_names())): e
            for e in by_classes.ranked
        }
        for entry in by_structures.ranked:
            key = tuple(sorted(entry.unit.representative.edge_names()))
            twin = marg[key]
            # same marginal content, priors differ by size/(counts) offsets
            expected = (
                twin.log_score
                + np.log(11)
                - np.log(25)
                + np.log(entry.unit.size)
            )
            assert entry.log_score == pytest.approx(expected, abs=1e-12)

    def test_verify_on_four_variables_against_every_dag(self):
        names = SHUFFLED_NAMES
        parents = (frozenset(), frozenset({0}), frozenset({0, 1}), frozenset({2}))
        coeffs = {(1, 0): 0.9, (2, 0): -0.7, (2, 1): 1.1, (3, 2): 0.8}
        net = GaussianNetwork(
            Dag(names, parents), GaussianParams((0.0,) * 4, (1.0,) * 4, coeffs)
        )
        d = sample(net, 60, seed=4)
        prior = flat_prior(4)
        report = exhaustive(d, prior, StructurePrior.UNIFORM_STRUCTURES, verify=True)
        assert len(report.ranked) == 185
        assert sum(e.unit.size for e in report.ranked) == 543
        assert report.evaluations == 185 + sum(e.unit.size > 1 for e in report.ranked)
        by_key = {class_key(e.unit.representative): e for e in report.ranked}
        scorer = Scorer(d, prior)
        for dag in all_dags_oracle(names):
            entry = by_key[class_key(dag)]
            expected = (
                scorer.score(dag).log_marginal - np.log(543) + np.log(entry.unit.size)
            )
            assert entry.log_score == pytest.approx(expected, abs=1e-9)

    def test_too_many_variables(self):
        d = Dataset(tuple(f"v{i}" for i in range(7)), np.zeros((2, 7)))
        with pytest.raises(TooLargeError):
            exhaustive(d, flat_prior(7))


class TestHillClimb:
    def test_start_at_optimum_makes_no_moves(self, demo_dataset, demo_prior, chain_dag):
        report = hill_climb(demo_dataset, demo_prior, start=chain_dag)
        assert report.trace == ()
        assert report.terminal == chain_dag

    def test_start_in_another_variable_order(self, demo_dataset, demo_prior):
        start = Dag.from_edges(("x3", "x2", "x1"), [("x1", "x3")])
        same = Dag.from_edges(demo_dataset.variables, [("x1", "x3")])
        shuffled = hill_climb(demo_dataset, demo_prior, start=start)
        ordered = hill_climb(demo_dataset, demo_prior, start=same)
        assert shuffled.trace == ordered.trace
        assert shuffled.terminal == ordered.terminal

    def test_demo_reaches_chain_class(self, demo_dataset, demo_prior, chain_dag):
        report = hill_climb(demo_dataset, demo_prior)
        assert same_class(report.terminal, chain_dag)
        assert report.best.unit.size == 3

    def test_delete_improvement_traced_first(self):
        rng = np.random.default_rng(23)
        d = Dataset(("a", "b"), rng.normal(size=(200, 2)))  # independent columns
        start = Dag.from_edges(("a", "b"), [("a", "b")])
        report = hill_climb(d, flat_prior(2), start=start)
        assert report.trace
        assert report.trace[0].kind == "delete"
        assert report.terminal.edges() == ()

    def test_trace_graphs_acyclic_and_strictly_improving(
        self, demo_dataset, demo_prior
    ):
        report = hill_climb(demo_dataset, demo_prior)
        current = Dag.from_edges(demo_dataset.variables)
        score = score_structure(current, demo_dataset, demo_prior).log_marginal
        for move in report.trace:
            assert move.delta > 0
            current = apply_move(current, move)
            topological_order(current)  # raises on a cycle
            stepped = score_structure(current, demo_dataset, demo_prior).log_marginal
            assert stepped == pytest.approx(score + move.delta, abs=1e-10)
            assert stepped > score
            score = stepped
        assert current == report.terminal

    def test_cached_total_matches_scratch_scoring(self, demo_dataset, demo_prior):
        report = hill_climb(demo_dataset, demo_prior)
        cached = report.ranked[0].log_score
        scratch = sum(
            scratch_local(demo_prior, demo_dataset, c, list(ps))
            for c, ps in enumerate(report.terminal.parents)
        )
        assert cached == pytest.approx(scratch, abs=1e-10)

    def test_agrees_with_exhaustive_on_synthetic_instances(self):
        rng = np.random.default_rng(91)
        for trial in range(10):
            names = ("x1", "x2", "x3")
            parents = [frozenset(j for j in range(i) if rng.random() < 0.6)
                       for i in range(3)]
            dag = Dag(names, tuple(parents))
            coeffs = {
                (c, p): float(rng.uniform(0.8, 1.5) * rng.choice((-1, 1)))
                for c, ps in enumerate(parents)
                for p in ps
            }
            net = GaussianNetwork(
                dag, GaussianParams((0.0,) * 3, (1.0,) * 3, coeffs)
            )
            d = sample(net, 200, seed=1000 + trial)
            prior = flat_prior(3)
            full = exhaustive(d, prior)
            greedy = hill_climb(d, prior)
            assert same_class(
                full.best.unit.representative, greedy.terminal
            ), f"trial {trial}"

    def test_restarts_deterministic_and_not_worse(self, demo_dataset, demo_prior):
        plain = hill_climb(demo_dataset, demo_prior, seed=3)
        multi_a = hill_climb(demo_dataset, demo_prior, restarts=4, seed=3)
        multi_b = hill_climb(demo_dataset, demo_prior, restarts=4, seed=3)
        assert multi_a.ranked == multi_b.ranked
        assert multi_a.terminal == multi_b.terminal
        assert sum(e.posterior for e in multi_a.ranked) == pytest.approx(
            1.0, abs=1e-12
        )
        best_plain = score_structure(
            plain.terminal, demo_dataset, demo_prior
        ).log_marginal
        best_multi = score_structure(
            multi_a.terminal, demo_dataset, demo_prior
        ).log_marginal
        assert best_multi >= best_plain - 1e-12

    def test_max_iters_caps_moves(self, demo_dataset, demo_prior):
        report = hill_climb(demo_dataset, demo_prior, max_iters=1)
        assert len(report.trace) <= 1

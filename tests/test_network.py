import itertools
import json
import math

import numpy as np
import pytest

from bgelearn.errors import (
    CycleDetectedError,
    DataParseError,
    InvalidNetworkError,
    NonPositiveVarianceError,
    TooLargeError,
    UnknownVariableError,
    VariableMismatchError,
)
from bgelearn.data import stats
from bgelearn.network import (
    Dag,
    EquivalenceClass,
    GaussianNetwork,
    GaussianParams,
    class_key,
    class_members,
    enumerate_classes,
    enumerate_dags,
    from_precision,
    implied_covariance,
    load_network,
    log_abs_jacobian,
    network_to_dict,
    parse_network,
    parse_structure,
    partition_classes,
    same_class,
    sample,
    to_dot,
    to_precision,
    topological_order,
)

COLLIDER_W = np.array([[2.0, 1.0, -1.0], [1.0, 2.0, -1.0], [-1.0, -1.0, 1.0]])


def collider_net(means=(0.1, -0.3, 0.2)):
    """Two independent roots pointing at one child, unit everything."""
    dag = Dag.from_edges(("x1", "x2", "x3"), [("x1", "x3"), ("x2", "x3")])
    params = GaussianParams(means, (1.0, 1.0, 1.0), {(2, 0): 1.0, (2, 1): 1.0})
    return GaussianNetwork(dag, params)


def chain_net():
    dag = Dag.from_edges(("x1", "x2", "x3"), [("x1", "x2"), ("x2", "x3")])
    params = GaussianParams(
        (0.5, 0.2, -0.5), (1.0, 1.0, 1.0), {(1, 0): 1.0, (2, 1): 1.0}
    )
    return GaussianNetwork(dag, params)


def random_network(rng, n):
    names = tuple(f"x{i}" for i in range(n))
    parents = [frozenset(j for j in range(i) if rng.random() < 0.5) for i in range(n)]
    dag = Dag(names, tuple(parents))
    coeffs = {(c, p): float(rng.normal()) for c, ps in enumerate(parents) for p in ps}
    params = GaussianParams(
        tuple(rng.normal(size=n)),
        tuple(rng.uniform(0.3, 2.5, size=n)),
        coeffs,
    )
    return GaussianNetwork(dag, params)


class TestTopologicalOrder:
    def test_empty_graph(self):
        assert topological_order(Dag.from_edges(("a", "b", "c"))) == (0, 1, 2)

    def test_collider(self):
        dag = Dag.from_edges(("x1", "x2", "x3"), [("x1", "x3"), ("x2", "x3")])
        assert topological_order(dag) == (0, 1, 2)

    def test_two_cycle(self):
        dag = Dag.from_edges(("x1", "x2"), [("x1", "x2"), ("x2", "x1")])
        with pytest.raises(CycleDetectedError) as err:
            topological_order(dag)
        assert set(err.value.cycle) == {"x1", "x2"}

    def test_parents_precede_children(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            net = random_network(rng, int(rng.integers(2, 7)))
            order = topological_order(net.dag)
            pos = {v: k for k, v in enumerate(order)}
            for child, ps in enumerate(net.dag.parents):
                assert all(pos[p] < pos[child] for p in ps)


class TestToPrecision:
    def test_no_arcs_unit_variance(self):
        dag = Dag.from_edges(("a", "b", "c"))
        net = GaussianNetwork(dag, GaussianParams((0, 0, 0), (1, 1, 1)))
        np.testing.assert_allclose(to_precision(net), np.eye(3))

    def test_collider_matches_closed_form(self):
        np.testing.assert_allclose(to_precision(collider_net()), COLLIDER_W, atol=1e-14)

    def test_single_node(self):
        net = GaussianNetwork(Dag.from_edges(("a",)), GaussianParams((0,), (2,)))
        np.testing.assert_allclose(to_precision(net), [[0.5]])

    def test_zero_variance_rejected_at_construction(self):
        with pytest.raises(NonPositiveVarianceError):
            GaussianParams((5.0,), (0.0,))

    def test_output_positive_definite(self):
        rng = np.random.default_rng(1)
        for _ in range(40):
            net = random_network(rng, int(rng.integers(1, 7)))
            w = to_precision(net)
            np.testing.assert_allclose(w, w.T)
            assert np.all(np.linalg.eigvalsh(w) > 0)

    def test_declared_order_independent_of_recursion_order(self):
        # Re-declare the same chain with variables shuffled: the precision
        # in declared coordinates must just be the matching permutation.
        net = chain_net()
        w = to_precision(net)
        shuffled = GaussianNetwork(
            Dag.from_edges(("x3", "x1", "x2"), [("x1", "x2"), ("x2", "x3")]),
            GaussianParams(
                (-0.5, 0.5, 0.2), (1.0, 1.0, 1.0), {(2, 1): 1.0, (0, 2): 1.0}
            ),
        )
        w_shuffled = to_precision(shuffled)
        perm = [2, 0, 1]  # declared positions of x3, x1, x2 in the original
        np.testing.assert_allclose(w_shuffled, w[np.ix_(perm, perm)], atol=1e-12)


class TestFromPrecision:
    def test_identity(self):
        params = from_precision(np.eye(3), (0, 1, 2))
        assert params.cond_variances == (1.0, 1.0, 1.0)
        assert all(b == 0.0 for b in params.coefficients.values())

    def test_collider_recovered(self):
        params = from_precision(COLLIDER_W, (0, 1, 2))
        np.testing.assert_allclose(params.cond_variances, (1.0, 1.0, 1.0), atol=1e-12)
        assert params.coeff(2, 0) == pytest.approx(1.0, abs=1e-12)
        assert params.coeff(2, 1) == pytest.approx(1.0, abs=1e-12)
        assert params.coeff(1, 0) == pytest.approx(0.0, abs=1e-12)

    def test_roundtrip_reproduces_precision(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            n = int(rng.integers(1, 7))
            g = rng.standard_normal((n, n))
            w = g @ g.T + 0.5 * np.eye(n)
            w = (w + w.T) / 2.0
            order = tuple(rng.permutation(n).tolist())
            params = from_precision(w, order)
            names = tuple(f"x{i}" for i in range(n))
            pos = {v: k for k, v in enumerate(order)}
            parents = tuple(
                frozenset(p for p in range(n) if (c, p) in params.coefficients)
                for c in range(n)
            )
            net = GaussianNetwork(Dag(names, parents), params)
            np.testing.assert_allclose(to_precision(net), w, rtol=1e-9, atol=1e-9)
            # complete in the chosen order: parent positions precede children
            for c in range(n):
                assert parents[c] == frozenset(
                    p for p in range(n) if pos[p] < pos[c]
                )


class TestImpliedCovariance:
    def test_no_arc_identity(self):
        net = GaussianNetwork(
            Dag.from_edges(("a", "b")), GaussianParams((0, 0), (1, 1))
        )
        np.testing.assert_allclose(implied_covariance(net), np.eye(2))

    def test_collider_closed_form(self):
        expected = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [1.0, 1.0, 3.0]])
        np.testing.assert_allclose(implied_covariance(collider_net()), expected, atol=1e-12)

    def test_single_node(self):
        net = GaussianNetwork(Dag.from_edges(("a",)), GaussianParams((0,), (2,)))
        np.testing.assert_allclose(implied_covariance(net), [[2.0]])


class TestSample:
    def test_zero_count(self):
        d = sample(chain_net(), 0, seed=1)
        assert d.count == 0
        assert d.variables == ("x1", "x2", "x3")

    def test_deterministic_for_seed(self):
        a = sample(chain_net(), 50, seed=42)
        b = sample(chain_net(), 50, seed=42)
        np.testing.assert_array_equal(a.cases, b.cases)

    def test_empirical_covariance_matches_implied(self):
        net = chain_net()
        d = sample(net, 50_000, seed=9)
        s = stats(d)
        empirical = s.scatter / d.count
        np.testing.assert_allclose(empirical, implied_covariance(net), atol=0.05)
        np.testing.assert_allclose(s.mean, net.params.means, atol=0.05)


class TestSameClass:
    def test_chain_and_fork_agree(self):
        chain = Dag.from_edges(("x1", "x2", "x3"), [("x1", "x2"), ("x2", "x3")])
        fork = Dag.from_edges(("x1", "x2", "x3"), [("x2", "x1"), ("x2", "x3")])
        assert same_class(chain, fork)

    def test_chain_differs_from_collider(self):
        chain = Dag.from_edges(("x1", "x2", "x3"), [("x1", "x2"), ("x2", "x3")])
        collider = Dag.from_edges(("x1", "x2", "x3"), [("x1", "x3"), ("x2", "x3")])
        assert not same_class(chain, collider)

    def test_reflexive(self):
        dag = Dag.from_edges(("a", "b"), [("a", "b")])
        assert same_class(dag, dag)

    def test_variable_mismatch(self):
        with pytest.raises(VariableMismatchError):
            same_class(Dag.from_edges(("a",)), Dag.from_edges(("b",)))

    def test_equivalence_relation_on_random_dags(self):
        rng = np.random.default_rng(4)
        dags = enumerate_dags(3)
        picks = [dags[i] for i in rng.integers(0, len(dags), size=12)]
        for a, b, c in itertools.product(picks, repeat=3):
            assert same_class(a, a)
            assert same_class(a, b) == same_class(b, a)
            if same_class(a, b) and same_class(b, c):
                assert same_class(a, c)


def brute_force_dag_count(n):
    """Independent oracle: every subset of ordered pairs, acyclicity by
    networkx, bidirectional pairs excluded by the cycle check itself."""
    import networkx as nx

    arcs = [(i, j) for i in range(n) for j in range(n) if i != j]
    count = 0
    for mask in range(2 ** len(arcs)):
        chosen = [arc for k, arc in enumerate(arcs) if mask >> k & 1]
        g = nx.DiGraph(chosen)
        g.add_nodes_from(range(n))
        if nx.is_directed_acyclic_graph(g):
            count += 1
    return count


class TestEnumerateDags:
    def test_single_node(self):
        assert len(enumerate_dags(1)) == 1

    def test_three_nodes_against_oracle(self):
        dags = enumerate_dags(3)
        assert len(dags) == 25
        assert len(dags) == brute_force_dag_count(3)
        assert len(set(tuple(d.edges()) for d in dags)) == 25

    def test_four_nodes(self):
        assert len(enumerate_dags(4)) == 543

    def test_cap(self):
        with pytest.raises(TooLargeError):
            enumerate_dags(7)


class TestPartitionClasses:
    def test_three_node_classes(self):
        classes = partition_classes(enumerate_dags(3))
        assert len(classes) == 11
        assert sum(c.size for c in classes) == 25

    def test_two_node_classes(self):
        classes = partition_classes(enumerate_dags(2))
        assert len(classes) == 2
        sizes = sorted(c.size for c in classes)
        assert sizes == [1, 2]

    def test_four_node_classes(self):
        assert len(partition_classes(enumerate_dags(4))) == 185

    def test_representative_is_least_member(self):
        for cls in partition_classes(enumerate_dags(3)):
            keys = [sorted(m.edge_names()) for m in cls.members]
            assert sorted(cls.representative.edge_names()) == min(keys)

    def test_partition_agrees_with_pairwise_oracle(self):
        dags = enumerate_dags(3)
        classes = partition_classes(dags)
        for cls in classes:
            for a, b in itertools.combinations(cls.members, 2):
                assert same_class(a, b)
        reps = [c.representative for c in classes]
        for a, b in itertools.combinations(reps, 2):
            assert not same_class(a, b)


class TestClassMembers:
    def test_chain_class_has_three_members(self, chain_dag):
        cls = class_members(chain_dag)
        assert cls.size == 3
        assert all(same_class(m, chain_dag) for m in cls.members)

    def test_collider_class_is_singleton(self):
        collider = Dag.from_edges(("x1", "x2", "x3"), [("x1", "x3"), ("x2", "x3")])
        assert class_members(collider).size == 1


# Names whose sorted order differs from their declaration order.
SHUFFLED_NAMES = ("b", "x", "a", "z")


def all_dags_oracle(names):
    """Every DAG on ``names`` from the none/forward/backward states of the
    node pairs, acyclicity checked by repeatedly removing parentless nodes."""
    n = len(names)
    pairs = list(itertools.combinations(range(n), 2))
    out = []
    for states in itertools.product((0, 1, 2), repeat=len(pairs)):
        parents = [set() for _ in range(n)]
        for (i, j), s in zip(pairs, states):
            if s == 1:
                parents[j].add(i)
            elif s == 2:
                parents[i].add(j)
        left = set(range(n))
        while any(not parents[v] & left for v in left):
            left -= {v for v in left if not parents[v] & left}
        if not left:
            out.append(Dag(names, tuple(frozenset(ps) for ps in parents)))
    return out


def classes_oracle(dags):
    """Group by the name-based ``class_key``; order members and classes by
    their sorted edge-name lists. Returns a list of member lists."""
    groups = {}
    for dag in dags:
        groups.setdefault(class_key(dag), []).append(dag)
    by_edges = lambda dag: sorted(dag.edge_names())  # noqa: E731
    classes = [sorted(members, key=by_edges) for members in groups.values()]
    return sorted(classes, key=lambda members: by_edges(members[0]))


def as_lists(classes):
    for cls in classes:
        assert cls.representative == cls.members[0]
    return [list(cls.members) for cls in classes]


class TestClassCoreAgainstOracle:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_all_three_entry_points(self, n):
        names = SHUFFLED_NAMES[:n]
        dags = all_dags_oracle(names)
        expected = classes_oracle(dags)
        assert as_lists(enumerate_classes(n, names)) == expected
        shuffled = [dags[i] for i in np.random.default_rng(n).permutation(len(dags))]
        assert as_lists(partition_classes(shuffled)) == expected
        for members in expected:
            for dag in members:
                assert as_lists([class_members(dag)]) == [members]
        assert enumerate_dags(n, names) == [d for ms in expected for d in ms]

    def test_partition_mixes_variable_orders(self):
        names, other = ("b", "x", "a"), ("a", "b", "x")
        dags = all_dags_oracle(names)
        mixed = [
            Dag.from_edges(other, d.edge_names()) if k % 2 else d
            for k, d in enumerate(dags)
        ]
        classes = partition_classes(mixed)
        expected = classes_oracle(mixed)  # class_key is name-based
        assert [[id(m) for m in c.members] for c in classes] == [
            [id(m) for m in ms] for ms in expected
        ]
        assert {m.variables for c in classes for m in c.members} == {names, other}

    def test_five_nodes(self):
        classes = enumerate_classes(5, ("e", "b", "d", "a", "c"))
        assert len(classes) == 8782
        assert sum(c.size for c in classes) == 29281
        for cls in classes:
            keys = [sorted(m.edge_names()) for m in cls.members]
            assert sorted(cls.representative.edge_names()) == min(keys)
            assert len({class_key(m) for m in cls.members}) == 1
        assert len({class_key(c.representative) for c in classes}) == 8782

    def test_lazy_and_eager_classes_agree(self):
        for lazy in enumerate_classes(4, SHUFFLED_NAMES):
            eager = class_members(lazy.representative)
            assert hash(lazy) == hash(eager)
            assert lazy == eager and eager == lazy
            assert lazy.size == eager.size
        a, b = enumerate_classes(3)[3:5]
        assert a != b

    def test_lazy_class_checks_its_first_member(self):
        lazy = next(c for c in enumerate_classes(3) if c.size > 1)
        other = class_members(lazy.representative).members[1]
        wrong = EquivalenceClass._lazy(other, lazy._masks)
        with pytest.raises(InvalidNetworkError):
            wrong.members

    def test_caller_built_class_checks_representative(self):
        a = Dag.from_edges(("x", "y"), [("x", "y")])
        b = Dag.from_edges(("x", "y"))
        with pytest.raises(InvalidNetworkError):
            EquivalenceClass((a,), b)

    def test_cap(self):
        with pytest.raises(TooLargeError):
            enumerate_classes(7)


def precision_flat(theta, n):
    """The parameter-to-precision map on flattened upper-triangle output."""
    v = theta[:n]
    coeffs = {}
    k = n
    for child in range(n):
        for parent in range(child):
            coeffs[(child, parent)] = theta[k]
            k += 1
    names = tuple(f"x{i}" for i in range(n))
    parents = tuple(frozenset(range(c)) for c in range(n))
    net = GaussianNetwork(
        Dag(names, parents), GaussianParams((0.0,) * n, tuple(v), coeffs)
    )
    w = to_precision(net)
    iu = np.triu_indices(n)
    return w[iu]


class TestLogAbsJacobian:
    def test_unit_variances(self):
        assert log_abs_jacobian((1.0, 1.0, 1.0)) == 0.0

    def test_two_variables(self):
        assert log_abs_jacobian((1.0, 2.0)) == pytest.approx(-3 * math.log(2))

    def test_nonpositive_rejected(self):
        with pytest.raises(NonPositiveVarianceError):
            log_abs_jacobian((1.0, 0.0))

    def test_against_finite_differences(self):
        n = 3
        rng = np.random.default_rng(12)
        h = 1e-5
        dim = n + n * (n - 1) // 2
        for _ in range(20):
            theta = np.concatenate(
                [rng.uniform(0.5, 2.0, size=n), rng.normal(size=dim - n)]
            )
            jac = np.empty((dim, dim))
            for col in range(dim):
                plus, minus = theta.copy(), theta.copy()
                plus[col] += h
                minus[col] -= h
                jac[:, col] = (precision_flat(plus, n) - precision_flat(minus, n)) / (
                    2 * h
                )
            _, fd_log = np.linalg.slogdet(jac)
            closed = log_abs_jacobian(theta[:n])
            assert closed == pytest.approx(fd_log, rel=1e-4, abs=1e-6)


class TestSerialization:
    def test_roundtrip(self):
        net = collider_net()
        again = parse_network(network_to_dict(net))
        assert again.dag == net.dag
        assert again.params == net.params

    def test_order_free_parent_references(self):
        obj = {
            "variables": [
                {
                    "name": "child",
                    "mean": 0.0,
                    "variance": 1.0,
                    "parents": [{"name": "root", "coeff": 2.0}],
                },
                {"name": "root", "mean": 1.0, "variance": 1.0, "parents": []},
            ]
        }
        net = parse_network(obj)
        assert net.dag.parents[0] == frozenset({1})
        assert net.params.coeff(0, 1) == 2.0

    def test_cycle_rejected_at_load(self):
        obj = {
            "variables": [
                {"name": "a", "mean": 0, "variance": 1,
                 "parents": [{"name": "b", "coeff": 1}]},
                {"name": "b", "mean": 0, "variance": 1,
                 "parents": [{"name": "a", "coeff": 1}]},
            ]
        }
        with pytest.raises(CycleDetectedError):
            parse_network(obj)

    def test_unknown_parent(self):
        obj = {
            "variables": [
                {"name": "a", "mean": 0, "variance": 1,
                 "parents": [{"name": "ghost", "coeff": 1}]},
            ]
        }
        with pytest.raises(UnknownVariableError):
            parse_network(obj)

    def test_non_numeric_field(self):
        obj = {"variables": [{"name": "a", "mean": "zero", "variance": 1}]}
        with pytest.raises(DataParseError):
            parse_network(obj)

    def test_load_network_file(self, sample_dir):
        net = load_network(sample_dir / "generator.json")
        assert net.variables == ("x1", "x2", "x3")
        assert net.params.coeff(1, 0) == 1.0

    def test_parse_structure_accepts_plain_names(self):
        dag = parse_structure(
            {"variables": [{"name": "a"}, {"name": "b", "parents": ["a"]}]}
        )
        assert dag.edges() == ((0, 1),)

    def test_structure_accepts_full_network_document(self, sample_dir):
        dag = parse_structure(
            json.loads((sample_dir / "generator.json").read_text())
        )
        assert dag.edge_names() == (("x1", "x2"), ("x2", "x3"))

    def test_dot_output(self, chain_dag):
        dot = to_dot(chain_dag)
        assert dot.startswith("digraph")
        assert '"x1" -> "x2";' in dot
        assert '"x2" -> "x3";' in dot

"""Gaussian belief networks: DAG structures, parameters, and transforms.

A network couples a directed acyclic graph with linear-Gaussian parameters:
each variable is normal with mean linear in its parents and a fixed
conditional variance. The joint distribution is multivariate normal, and the
precision matrix is obtained from (variances, arc coefficients) by a
recursion along any ancestral ordering; the reverse transform recovers the
parameters of the complete network in a chosen ordering.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .data import Dataset
from .errors import (
    CycleDetectedError,
    DataParseError,
    DuplicateVariableError,
    IndexOutOfRangeError,
    InvalidNetworkError,
    NonPositiveVarianceError,
    NotPositiveDefiniteError,
    TooLargeError,
    UnknownVariableError,
    VariableMismatchError,
)
from .linalg import invert_spd, spd_factor

MAX_ENUMERABLE_NODES = 6  # 3,781,503 labeled DAGs; beyond this use greedy search


@dataclass(frozen=True)
class Dag:
    """A labeled directed graph given as per-variable parent sets.

    Construction checks names, indices, and self-loops only; acyclicity is
    enforced where an ancestral ordering is actually needed, so that cyclic
    inputs can be diagnosed with a concrete offending cycle.
    """

    variables: tuple[str, ...]
    parents: tuple[frozenset[int], ...]

    def __post_init__(self):
        names = tuple(str(v) for v in self.variables)
        if len(set(names)) != len(names):
            raise DuplicateVariableError(f"duplicate variable name in {names}")
        parents = tuple(frozenset(int(p) for p in ps) for ps in self.parents)
        if len(parents) != len(names):
            raise InvalidNetworkError(
                f"{len(parents)} parent sets for {len(names)} variables"
            )
        for child, ps in enumerate(parents):
            for p in ps:
                if not 0 <= p < len(names):
                    raise IndexOutOfRangeError(
                        f"parent index {p} of {names[child]!r} not in [0, {len(names)})"
                    )
            if child in ps:
                raise CycleDetectedError([names[child], names[child]])
        object.__setattr__(self, "variables", names)
        object.__setattr__(self, "parents", parents)

    @property
    def size(self) -> int:
        return len(self.variables)

    def edges(self) -> tuple[tuple[int, int], ...]:
        """All arcs as (parent, child) index pairs, sorted."""
        return tuple(
            sorted((p, c) for c, ps in enumerate(self.parents) for p in ps)
        )

    def edge_names(self) -> tuple[tuple[str, str], ...]:
        return tuple(
            (self.variables[p], self.variables[c]) for p, c in self.edges()
        )

    def replace_parents(self, child: int, new_parents: Iterable[int]) -> "Dag":
        ps = list(self.parents)
        ps[child] = frozenset(new_parents)
        return Dag(self.variables, tuple(ps))

    @classmethod
    def from_edges(
        cls, variables: Sequence[str], edges: Iterable[tuple[str, str]] = ()
    ) -> "Dag":
        """Build a DAG from (parent, child) name pairs."""
        names = tuple(variables)
        index = {name: i for i, name in enumerate(names)}
        parents = [set() for _ in names]
        for parent, child in edges:
            for name in (parent, child):
                if name not in index:
                    raise UnknownVariableError(
                        f"unknown variable {name!r}; have {names}"
                    )
            parents[index[child]].add(index[parent])
        return cls(names, tuple(frozenset(ps) for ps in parents))


@dataclass(frozen=True)
class GaussianParams:
    """Linear-Gaussian parameters: means, conditional variances, and one
    slope per arc, keyed by (child index, parent index).

    An absent arc means a slope of exactly zero (minimal-network reading).
    """

    means: tuple[float, ...]
    cond_variances: tuple[float, ...]
    coefficients: Mapping[tuple[int, int], float] = field(default_factory=dict)

    def __post_init__(self):
        means = tuple(float(m) for m in self.means)
        variances = tuple(float(v) for v in self.cond_variances)
        for i, v in enumerate(variances):
            if not v > 0.0:
                raise NonPositiveVarianceError(
                    f"conditional variance {v} of variable {i} must be positive"
                )
        coeffs = {
            (int(c), int(p)): float(b) for (c, p), b in dict(self.coefficients).items()
        }
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "cond_variances", variances)
        object.__setattr__(self, "coefficients", coeffs)

    def coeff(self, child: int, parent: int) -> float:
        return self.coefficients[(child, parent)]


@dataclass(frozen=True)
class GaussianNetwork:
    """A DAG plus matching linear-Gaussian parameters."""

    dag: Dag
    params: GaussianParams

    def __post_init__(self):
        n = self.dag.size
        if len(self.params.means) != n or len(self.params.cond_variances) != n:
            raise InvalidNetworkError(
                f"parameters sized for {len(self.params.means)} variables, graph has {n}"
            )
        arcs = {(c, p) for c, ps in enumerate(self.dag.parents) for p in ps}
        keys = set(self.params.coefficients)
        if keys != arcs:
            raise InvalidNetworkError(
                f"coefficient keys {sorted(keys)} do not match arcs {sorted(arcs)}"
            )

    @property
    def variables(self) -> tuple[str, ...]:
        return self.dag.variables


@dataclass(frozen=True)
class EquivalenceClass:
    """A set of DAGs encoding identical independence assertions.

    The representative is the member with the lexicographically least
    (parent, child) edge list.
    """

    members: tuple[Dag, ...]
    representative: Dag

    def __post_init__(self):
        if self.representative not in self.members:
            raise InvalidNetworkError("representative is not a member")

    @property
    def size(self) -> int:
        return len(self.members)


def topological_order(dag: Dag) -> tuple[int, ...]:
    """An ancestral ordering of the variables, parents before children.

    Deterministic: among ready variables the smallest declaration index goes
    first. Raises :class:`CycleDetectedError` listing one offending cycle.
    """
    n = dag.size
    remaining = set(range(n))
    placed: set[int] = set()
    order: list[int] = []
    while remaining:
        ready = [i for i in sorted(remaining) if dag.parents[i] <= placed]
        if not ready:
            raise CycleDetectedError(_find_cycle(dag, remaining))
        nxt = ready[0]
        order.append(nxt)
        placed.add(nxt)
        remaining.remove(nxt)
    return tuple(order)


def _find_cycle(dag: Dag, remaining: set[int]) -> list[str]:
    """Walk parent links inside ``remaining`` until a node repeats."""
    start = min(remaining)
    seen: list[int] = []
    node = start
    while node not in seen:
        seen.append(node)
        node = min(p for p in dag.parents[node] if p in remaining)
    cycle = seen[seen.index(node) :] + [node]
    return [dag.variables[i] for i in reversed(cycle)]


def to_precision(net: GaussianNetwork) -> np.ndarray:
    """Precision matrix of the joint normal a network defines.

    Runs the rank-one recursion along a topological order, then permutes the
    result back so rows and columns follow the declared variable order.
    """
    order = topological_order(net.dag)
    pos = {var: k for k, var in enumerate(order)}
    n = net.dag.size
    w = np.zeros((n, n))
    for k, var in enumerate(order):
        v = net.params.cond_variances[var]
        b = np.zeros(k)
        for parent in net.dag.parents[var]:
            b[pos[parent]] = net.params.coeff(var, parent)
        w[:k, :k] += np.outer(b, b) / v
        w[:k, k] = -b / v
        w[k, :k] = -b / v
        w[k, k] = 1.0 / v
    declared = np.empty_like(w)
    declared[np.ix_(order, order)] = w
    return declared


def from_precision(w, order: Sequence[int]) -> GaussianParams:
    """Recover complete-network parameters from a precision matrix.

    Factorizes ``w`` along ``order`` (first entry is the root): the trailing
    variable's conditional variance is the reciprocal of the trailing
    diagonal, its slopes are read off the trailing column, and the recursion
    continues on the deflated leading block. Means are not represented in a
    precision matrix and come back as zeros.
    """
    w = np.asarray(w, dtype=float)
    n = w.shape[0]
    order = list(order)
    if sorted(order) != list(range(n)):
        raise IndexOutOfRangeError(f"order {order} is not a permutation of 0..{n - 1}")
    spd_factor(w)  # positive definiteness gate
    block = w[np.ix_(order, order)].copy()
    variances = [0.0] * n
    coefficients: dict[tuple[int, int], float] = {}
    for k in range(n - 1, -1, -1):
        pivot = block[k, k]
        if pivot <= 0.0:
            raise NotPositiveDefiniteError(f"deflated diagonal {pivot} at {order[k]}")
        v = 1.0 / pivot
        b = -v * block[:k, k]
        variances[order[k]] = v
        for j in range(k):
            coefficients[(order[k], order[j])] = float(b[j])
        block = block[:k, :k] - np.outer(b, b) / v
    return GaussianParams(
        means=(0.0,) * n,
        cond_variances=tuple(variances),
        coefficients=coefficients,
    )


def implied_covariance(net: GaussianNetwork) -> np.ndarray:
    """Covariance of the joint normal: inverse of the precision matrix."""
    return invert_spd(to_precision(net))


def sample(net: GaussianNetwork, count: int, seed: int) -> Dataset:
    """Draw ``count`` cases by ancestral sampling with a private generator.

    Each variable is drawn after its parents: mean plus slope-weighted
    parent deviations, noise scaled by the conditional standard deviation.
    """
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    order = topological_order(net.dag)
    n = net.dag.size
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal((count, n))
    cases = np.empty((count, n))
    means = net.params.means
    for k, var in enumerate(order):
        loc = np.full(count, means[var])
        for parent in net.dag.parents[var]:
            loc += net.params.coeff(var, parent) * (cases[:, parent] - means[parent])
        cases[:, var] = loc + np.sqrt(net.params.cond_variances[var]) * noise[:, k]
    return Dataset(net.variables, cases)


def _skeleton(dag: Dag) -> frozenset[frozenset[str]]:
    return frozenset(
        frozenset((dag.variables[p], dag.variables[c])) for p, c in dag.edges()
    )


def _v_structures(dag: Dag) -> frozenset[tuple[str, frozenset[str]]]:
    """Converging arc pairs at a child whose tails are non-adjacent."""
    skel = _skeleton(dag)
    out = set()
    for child, ps in enumerate(dag.parents):
        for a, b in itertools.combinations(sorted(ps), 2):
            names = frozenset((dag.variables[a], dag.variables[b]))
            if names not in skel:
                out.add((dag.variables[child], names))
    return frozenset(out)


def class_key(dag: Dag) -> tuple[frozenset, frozenset]:
    """Hashable equivalence-class signature: skeleton plus v-structures."""
    return (_skeleton(dag), _v_structures(dag))


def same_class(a: Dag, b: Dag) -> bool:
    """Whether two DAGs encode identical independence assertions."""
    if set(a.variables) != set(b.variables):
        raise VariableMismatchError(
            f"variable sets differ: {sorted(a.variables)} vs {sorted(b.variables)}"
        )
    return class_key(a) == class_key(b)


def enumerate_dags(n: int, variables: Sequence[str] | None = None) -> list[Dag]:
    """All labeled DAGs on ``n`` nodes, each exactly once, in a fixed order.

    Brute force over the 3^(n(n-1)/2) none/forward/backward states of the
    node pairs with an acyclicity filter; capped at n = 6.
    """
    if n < 1:
        raise ValueError(f"need at least one variable, got {n}")
    if n > MAX_ENUMERABLE_NODES:
        raise TooLargeError(
            f"{n} > {MAX_ENUMERABLE_NODES} nodes: exhaustive enumeration disabled"
        )
    names = tuple(variables) if variables is not None else tuple(
        f"x{i + 1}" for i in range(n)
    )
    if len(names) != n:
        raise VariableMismatchError(f"{len(names)} names for {n} nodes")
    pairs = list(itertools.combinations(range(n), 2))
    out: list[Dag] = []
    for states in itertools.product((0, 1, 2), repeat=len(pairs)):
        parents = [set() for _ in range(n)]
        for (i, j), s in zip(pairs, states):
            if s == 1:
                parents[j].add(i)
            elif s == 2:
                parents[i].add(j)
        if _acyclic_parents(parents):
            out.append(Dag(names, tuple(frozenset(ps) for ps in parents)))
    return out


def _acyclic_parents(parents: list[set[int]]) -> bool:
    n = len(parents)
    indeg = [len(ps) for ps in parents]
    children = [[] for _ in range(n)]
    for c, ps in enumerate(parents):
        for p in ps:
            children[p].append(c)
    stack = [i for i in range(n) if indeg[i] == 0]
    seen = 0
    while stack:
        node = stack.pop()
        seen += 1
        for c in children[node]:
            indeg[c] -= 1
            if indeg[c] == 0:
                stack.append(c)
    return seen == n


def partition_classes(dags: Sequence[Dag]) -> list[EquivalenceClass]:
    """Partition DAGs into equivalence classes.

    Classes are keyed by (skeleton, v-structures); members and classes are
    ordered by their name-based edge lists so output is deterministic.
    """
    if not dags:
        return []
    names = set(dags[0].variables)
    groups: dict[tuple, list[Dag]] = {}
    for dag in dags:
        if set(dag.variables) != names:
            raise VariableMismatchError(
                f"variable sets differ: {sorted(names)} vs {sorted(dag.variables)}"
            )
        groups.setdefault(class_key(dag), []).append(dag)
    classes = []
    for members in groups.values():
        members = sorted(members, key=lambda d: sorted(d.edge_names()))
        classes.append(EquivalenceClass(tuple(members), members[0]))
    classes.sort(key=lambda c: sorted(c.representative.edge_names()))
    return classes


def class_members(dag: Dag, max_edges: int = 16) -> EquivalenceClass:
    """The full equivalence class of one DAG.

    Enumerates the 2^E orientations of its skeleton and keeps the acyclic
    ones with the same v-structures; exponential in the edge count, hence
    the cap.
    """
    undirected = sorted(tuple(sorted((p, c))) for p, c in dag.edges())
    if len(undirected) > max_edges:
        raise TooLargeError(f"{len(undirected)} edges > cap {max_edges}")
    key = class_key(dag)
    members = []
    for flips in itertools.product((False, True), repeat=len(undirected)):
        parents = [set() for _ in range(dag.size)]
        for (i, j), flip in zip(undirected, flips):
            p, c = (j, i) if flip else (i, j)
            parents[c].add(p)
        if not _acyclic_parents(parents):
            continue
        candidate = Dag(dag.variables, tuple(frozenset(ps) for ps in parents))
        if class_key(candidate) == key:
            members.append(candidate)
    members.sort(key=lambda d: sorted(d.edge_names()))
    return EquivalenceClass(tuple(members), members[0])


def log_abs_jacobian(cond_variances: Sequence[float]) -> float:
    """Log |Jacobian| of the precision-matrix parameterization.

    For the map from (variances, slopes) in an ancestral order to the
    precision matrix, the absolute Jacobian determinant is the product of
    v_i^-(i+1) over 1-based positions i.
    """
    v = np.asarray(cond_variances, dtype=float)
    if np.any(v <= 0.0):
        raise NonPositiveVarianceError(f"variances must be positive, got {v}")
    weights = np.arange(2, v.size + 2)
    return float(-(weights * np.log(v)).sum())


# ---------------------------------------------------------------------------
# serialization


def _require_number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise DataParseError(f"{where}: expected a number, got {value!r}")
    return float(value)


def parse_network(obj) -> GaussianNetwork:
    """Build a network from the JSON document structure.

    Expected shape: ``{"variables": [{"name", "mean", "variance",
    "parents": [{"name", "coeff"}, ...]}, ...]}``. Parent references may
    point forward or backward; cycles are rejected here.
    """
    if not isinstance(obj, dict) or not isinstance(obj.get("variables"), list):
        raise DataParseError('expected an object with a "variables" array')
    entries = obj["variables"]
    names = []
    for e in entries:
        if not isinstance(e, dict) or "name" not in e:
            raise DataParseError(f"variable entry missing a name: {e!r}")
        names.append(str(e["name"]))
    if len(set(names)) != len(names):
        raise DuplicateVariableError(f"duplicate variable name in {names}")
    index = {name: i for i, name in enumerate(names)}
    means, variances = [], []
    parents: list[set[int]] = [set() for _ in names]
    coefficients: dict[tuple[int, int], float] = {}
    for i, e in enumerate(entries):
        means.append(_require_number(e.get("mean"), f"{names[i]}.mean"))
        variances.append(_require_number(e.get("variance"), f"{names[i]}.variance"))
        for arc in e.get("parents", ()):
            if not isinstance(arc, dict) or "name" not in arc:
                raise DataParseError(f"{names[i]}: parent entry needs a name: {arc!r}")
            pname = str(arc["name"])
            if pname not in index:
                raise UnknownVariableError(
                    f"{names[i]}: unknown parent {pname!r}; have {tuple(names)}"
                )
            p = index[pname]
            if p in parents[i]:
                raise DataParseError(f"{names[i]}: parent {pname!r} repeated")
            parents[i].add(p)
            coefficients[(i, p)] = _require_number(
                arc.get("coeff"), f"{names[i]}.parents[{pname}].coeff"
            )
    dag = Dag(tuple(names), tuple(frozenset(ps) for ps in parents))
    topological_order(dag)  # reject cyclic declarations at load
    params = GaussianParams(tuple(means), tuple(variances), coefficients)
    return GaussianNetwork(dag, params)


def network_to_dict(net: GaussianNetwork) -> dict:
    """Inverse of :func:`parse_network`."""
    out = []
    for i, name in enumerate(net.variables):
        out.append(
            {
                "name": name,
                "mean": net.params.means[i],
                "variance": net.params.cond_variances[i],
                "parents": [
                    {"name": net.variables[p], "coeff": net.params.coeff(i, p)}
                    for p in sorted(net.dag.parents[i])
                ],
            }
        )
    return {"variables": out}


def load_network(path) -> GaussianNetwork:
    path = Path(path)
    try:
        obj = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise DataParseError(f"{path}: {exc}") from None
    return parse_network(obj)


def parse_structure(obj) -> Dag:
    """Parse a bare structure: like the network format, but parameters are
    optional and parent entries may be plain name strings."""
    if not isinstance(obj, dict) or not isinstance(obj.get("variables"), list):
        raise DataParseError('expected an object with a "variables" array')
    names = []
    for e in obj["variables"]:
        if not isinstance(e, dict) or "name" not in e:
            raise DataParseError(f"variable entry missing a name: {e!r}")
        names.append(str(e["name"]))
    if len(set(names)) != len(names):
        raise DuplicateVariableError(f"duplicate variable name in {names}")
    index = {name: i for i, name in enumerate(names)}
    parents: list[set[int]] = [set() for _ in names]
    for i, e in enumerate(obj["variables"]):
        for arc in e.get("parents", ()):
            pname = str(arc["name"]) if isinstance(arc, dict) else str(arc)
            if pname not in index:
                raise UnknownVariableError(
                    f"{names[i]}: unknown parent {pname!r}; have {tuple(names)}"
                )
            parents[i].add(index[pname])
    dag = Dag(tuple(names), tuple(frozenset(ps) for ps in parents))
    topological_order(dag)
    return dag


def load_structure(path) -> Dag:
    path = Path(path)
    try:
        obj = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise DataParseError(f"{path}: {exc}") from None
    return parse_structure(obj)


def to_dot(dag: Dag, name: str = "learned") -> str:
    """Render a structure in DOT syntax with sorted, quoted identifiers."""
    lines = [f"digraph {name} {{"]
    for var in dag.variables:
        lines.append(f'  "{var}";')
    for parent, child in sorted(dag.edge_names()):
        lines.append(f'  "{parent}" -> "{child}";')
    lines.append("}")
    return "\n".join(lines) + "\n"

"""Gaussian belief networks: DAG structures, parameters, and transforms.

A network couples a directed acyclic graph with linear-Gaussian parameters:
each variable is normal with mean linear in its parents and a fixed
conditional variance. The joint distribution is multivariate normal, and the
precision matrix is obtained from (variances, arc coefficients) by a
recursion along any ancestral ordering; the reverse transform recovers the
parameters of the complete network in a chosen ordering.

Equivalence classes (same skeleton, same v-structures) are enumerated and
ordered on numpy arrays of integer parent masks, one row per DAG: each row is keyed by a skeleton bitmask and a v-structure bitmask and
ordered by its sorted (parent, child) name list, and a :class:`Dag` is built
only for the rows a caller reads. ``class_key`` and ``same_class`` compute
the same relation from names and serve as its independent check.
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
        # Inputs already in normal form are kept, so that DAGs built from
        # shared name tuples and parent sets share them.
        names = self.variables
        if type(names) is not tuple or not all(type(v) is str for v in names):
            names = tuple(str(v) for v in names)
        if len(set(names)) != len(names):
            raise DuplicateVariableError(f"duplicate variable name in {names}")
        parents = tuple(
            ps
            if type(ps) is frozenset and all(type(p) is int for p in ps)
            else frozenset(int(p) for p in ps)
            for ps in self.parents
        )
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


class EquivalenceClass:
    """A set of DAGs encoding identical independence assertions.

    The representative is the member with the lexicographically least
    sorted (parent, child) edge-name list. A class built by
    :func:`enumerate_classes` holds its members as parent masks and builds
    their :class:`Dag` objects on the first read of ``members``;
    ``representative`` and ``size`` never need them. Classes compare equal
    when their representatives and member tuples are equal, however they
    were built.
    """

    __slots__ = ("_representative", "_members", "_masks")

    def __init__(self, members: Sequence[Dag], representative: Dag):
        members = tuple(members)
        if representative not in members:
            raise InvalidNetworkError("representative is not a member")
        self._representative = representative
        self._members: tuple[Dag, ...] | None = members
        self._masks: np.ndarray | None = None

    @classmethod
    def _lazy(cls, representative: Dag, masks: np.ndarray) -> "EquivalenceClass":
        """A class whose members, least first, are the rows of ``masks``."""
        self = cls.__new__(cls)
        self._representative = representative
        self._members = None
        self._masks = masks
        return self

    @property
    def representative(self) -> Dag:
        return self._representative

    @property
    def members(self) -> tuple[Dag, ...]:
        if self._members is None:
            rep = self._representative
            members = tuple(_mask_dags(rep.variables, self._masks, range(rep.size)))
            if members[0] != rep:
                raise InvalidNetworkError("first member is not the representative")
            self._members, self._masks = members, None
        return self._members

    @property
    def size(self) -> int:
        return len(self._members if self._members is not None else self._masks)

    def __eq__(self, other):
        if not isinstance(other, EquivalenceClass):
            return NotImplemented
        return (
            self.representative == other.representative
            and self.members == other.members
        )

    def __hash__(self):
        return hash(self._representative)

    def __repr__(self):
        return (
            f"EquivalenceClass(representative={self._representative!r}, "
            f"size={self.size})"
        )


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


def enumerate_classes(
    n: int, variables: Sequence[str] | None = None
) -> list[EquivalenceClass]:
    """All equivalence classes of labeled DAGs on ``n`` nodes; capped at n = 6.

    Members are ordered by their sorted (parent, child) name lists and
    classes by that of their least member, the representative. Only each
    representative is built as a :class:`Dag`; the other members wait as
    parent masks until ``members`` is read.
    """
    if n < 1:
        raise ValueError(f"need at least one variable, got {n}")
    if n > MAX_ENUMERABLE_NODES:  # checked before any array is allocated
        raise TooLargeError(
            f"{n} > {MAX_ENUMERABLE_NODES} nodes: exhaustive enumeration disabled"
        )
    names = tuple(variables) if variables is not None else tuple(
        f"x{i + 1}" for i in range(n)
    )
    if len(names) != n:
        raise VariableMismatchError(f"{len(names)} names for {n} nodes")
    masks = _all_dag_masks(n)
    order, bounds = _order_classes(masks, _ranks(names), n)
    masks = masks[order]
    reps = _mask_dags(names, masks[bounds[:-1]], range(n))
    return [
        EquivalenceClass._lazy(rep, masks[a:b])
        for rep, a, b in zip(reps, bounds[:-1].tolist(), bounds[1:].tolist())
    ]


def enumerate_dags(n: int, variables: Sequence[str] | None = None) -> list[Dag]:
    """All labeled DAGs on ``n`` nodes, each exactly once; capped at n = 6.

    Ordered as the members of :func:`enumerate_classes`, class after class:
    classes by their representative's sorted (parent, child) name list,
    members within a class by their own.
    """
    return [dag for cls in enumerate_classes(n, variables) for dag in cls.members]


def class_members(dag: Dag, max_edges: int = 16) -> EquivalenceClass:
    """The full equivalence class of one DAG.

    Enumerates the 2^E orientations of its skeleton as parent masks over
    the nodes the skeleton touches, and keeps the acyclic ones with the
    same v-structures; exponential in the edge count, hence the cap.
    """
    undirected = sorted(tuple(sorted(e)) for e in dag.edges())
    if len(undirected) > max_edges:
        raise TooLargeError(f"{len(undirected)} edges > cap {max_edges}")
    nodes = sorted({v for e in undirected for v in e})
    local = {v: k for k, v in enumerate(nodes)}
    dtype = _mask_dtype(len(nodes))
    flips = np.arange(1 << len(undirected))
    masks = np.zeros((len(flips), len(nodes)), dtype=dtype)
    for e, (i, j) in enumerate(undirected):
        flipped = ((flips >> e) & 1).astype(bool)
        masks[~flipped, local[j]] |= dtype(1 << local[i])
        masks[flipped, local[i]] |= dtype(1 << local[j])
    masks = masks[_acyclic(masks)]
    own = np.zeros((1, len(nodes)), dtype=dtype)
    for p, c in dag.edges():
        own[0, local[c]] |= dtype(1 << local[p])
    masks = masks[(_class_keys(masks) == _class_keys(own)).all(axis=1)]
    order = _edge_order(masks, _ranks(dag.variables)[nodes], dag.size)
    members = _mask_dags(dag.variables, masks[order], nodes)
    return EquivalenceClass(tuple(members), members[0])


# ---------------------------------------------------------------------------
# the class core on parent masks
#
# A batch of K DAGs over n nodes is an unsigned integer array of shape
# (K, n) whose entry [k, c] has bit p set when node p is a parent of node c
# in DAG k. Everything above that groups or orders DAGs goes through here.

_ROWS_PER_BLOCK = 1 << 16  # bounds the temporaries of the per-row sort


def _mask_dtype(n: int):
    for dtype in (np.uint8, np.uint16, np.uint32, np.uint64):
        if n <= 8 * np.dtype(dtype).itemsize:
            return dtype
    raise TooLargeError(f"{n} variables: parent masks hold at most 64")


def _ranks(names: Sequence[str]) -> np.ndarray:
    """Each name's position in sorted order."""
    ranks = np.empty(len(names), dtype=np.int64)
    ranks[sorted(range(len(names)), key=names.__getitem__)] = np.arange(len(names))
    return ranks


def _all_dag_masks(n: int) -> np.ndarray:
    """Every DAG on ``n`` nodes: the 3^(n(n-1)/2) none/forward/backward
    states of the node pairs, less the cyclic ones.

    The states of the last ten pairs form one table; the states of the
    others are laid over it one block at a time, so that no array holds
    all states at once (3^15 of them at n = 6).
    """
    pairs = list(itertools.combinations(range(n), 2))
    split = max(0, len(pairs) - 10)
    table = np.zeros((1, n), dtype=np.uint8)
    for i, j in pairs[split:]:
        states = np.zeros((3, n), dtype=np.uint8)
        states[1, j] = 1 << i
        states[2, i] = 1 << j
        table = (table[:, None, :] | states[None, :, :]).reshape(-1, n)
    blocks = []
    for head_states in itertools.product((0, 1, 2), repeat=split):
        head = np.zeros(n, dtype=np.uint8)
        for (i, j), s in zip(pairs, head_states):
            if s == 1:
                head[j] |= 1 << i
            elif s == 2:
                head[i] |= 1 << j
        block = table | head
        blocks.append(block[_acyclic(block)])
    return np.concatenate(blocks)


def _acyclic(masks: np.ndarray) -> np.ndarray:
    """Which rows are acyclic: peel off nodes whose parents are all peeled;
    n sweeps place every node of a DAG and none on a cycle."""
    n = masks.shape[1]
    placed = np.zeros(len(masks), dtype=masks.dtype)
    for _ in range(n):
        for c in range(n):
            placed |= ((masks[:, c] & ~placed) == 0).astype(masks.dtype) << c
    return placed == (1 << n) - 1


def _class_keys(masks: np.ndarray) -> np.ndarray:
    """The skeleton and v-structures of each row as unsigned 64-bit words,
    two per row for n <= 8: a skeleton bitmask and a v-structure bitmask.

    The skeleton is kept as adjacency masks. Call a parent of c colliding
    when c has another parent not adjacent to it. Given the skeleton, the
    v-structures at c are exactly the non-adjacent pairs of its colliding
    parents, so the per-child masks of colliding parents fix them.
    """
    n = masks.shape[1]
    dtype = masks.dtype.type
    adjacent = masks.copy()
    for c in range(n):
        for p in range(n):
            adjacent[:, p] |= ((masks[:, c] >> p) & 1) << c
    colliding = np.zeros_like(masks)
    for c in range(n):
        for a in range(n):
            bit = dtype(1 << a)
            partner = masks[:, c] & ~adjacent[:, a] & ~bit
            hit = ((masks[:, c] & bit) != 0) & (partner != 0)
            colliding[:, c] |= hit.astype(masks.dtype) << a
    return np.hstack([_words(adjacent), _words(colliding)])


def _words(masks: np.ndarray) -> np.ndarray:
    """The bytes of each row, zero-padded and read as uint64 words."""
    raw = np.ascontiguousarray(masks).view(np.uint8)
    raw = np.pad(raw, ((0, 0), (0, -raw.shape[1] % 8)))
    return raw.view(np.uint64)


def _edge_order(masks: np.ndarray, ranks: np.ndarray, base: int) -> np.ndarray:
    """The row order of the DAGs' sorted (parent, child) name lists, as
    ``sorted(dag.edge_names())`` compares them."""
    codes = _edge_codes(masks, ranks, base)
    if not codes.shape[1]:  # no row has an arc
        return np.arange(len(masks))
    return np.lexsort(codes.T[::-1])


def _edge_codes(masks: np.ndarray, ranks: np.ndarray, base: int) -> np.ndarray:
    """Each row's arcs as codes ``ranks[parent] * base + ranks[child]``,
    sorted and padded with -1.

    ``ranks`` gives each column's position among the sorted variable names
    and ``base`` exceeds every rank, so comparing two rows lexicographically
    compares the DAGs' sorted (parent, child) name lists, a shorter prefix
    first.
    """
    n = masks.shape[1]
    present = np.bitwise_or.reduce(masks, axis=0)
    arcs = [(p, c) for c in range(n) for p in range(n) if int(present[c]) >> p & 1]
    width = min(len(arcs), n * (n - 1) // 2)
    none = base * base
    dtype = np.min_scalar_type(-none - 1)
    codes = np.empty((len(masks), width), dtype=dtype)
    for start in range(0, len(masks), _ROWS_PER_BLOCK):
        block = masks[start : start + _ROWS_PER_BLOCK]
        full = np.full((len(block), len(arcs)), none, dtype=dtype)
        for k, (p, c) in enumerate(arcs):
            full[((block[:, c] >> p) & 1).astype(bool), k] = ranks[p] * base + ranks[c]
        full.sort(axis=1)
        codes[start : start + len(block)] = full[:, :width]
    codes[codes == none] = -1
    return codes


def _order_classes(
    masks: np.ndarray, ranks: np.ndarray, base: int
) -> tuple[np.ndarray, np.ndarray]:
    """Group rows into classes and order them.

    Returns ``order`` and ``bounds``: class i is the rows
    ``order[bounds[i]:bounds[i + 1]]``, members by their sorted edge-name
    lists, classes by that of their least member.
    """
    by_edges = _edge_order(masks, ranks, base)
    keys = _class_keys(masks[by_edges])
    by_key = np.lexsort(keys.T[::-1])  # stable: members keep the edge order
    keys = keys[by_key]
    new = np.ones(len(keys), dtype=bool)
    new[1:] = (keys[1:] != keys[:-1]).any(axis=1)
    place = np.empty(int(new.sum()), dtype=np.int64)  # key group -> class index
    place[np.argsort(by_key[new])] = np.arange(len(place))
    cls = place[np.cumsum(new) - 1]
    final = by_key[np.argsort(cls, kind="stable")]
    bounds = np.concatenate([[0], np.cumsum(np.bincount(cls))])
    return by_edges[final], bounds


def _mask_dags(variables: tuple[str, ...], masks: np.ndarray, nodes) -> list[Dag]:
    """Build one Dag per row; column k of ``masks`` is variable ``nodes[k]``."""
    nodes = list(nodes)
    empty = frozenset()
    sets: dict[int, frozenset[int]] = {0: empty}
    out = []
    for row in masks.tolist():
        parents = [empty] * len(variables)
        for node, m in zip(nodes, row):
            ps = sets.get(m)
            if ps is None:
                ps = sets[m] = frozenset(
                    nodes[k] for k in range(len(nodes)) if m >> k & 1
                )
            parents[node] = ps
        out.append(Dag(variables, tuple(parents)))
    return out


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
# JSON documents


def _require_number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise DataParseError(f"{where}: expected a number, got {value!r}")
    return float(value)


def read_json(path):
    """The JSON document in a file; malformed JSON is a :class:`DataParseError`."""
    path = Path(path)
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise DataParseError(f"{path}: {exc}") from None


def _variable_entries(obj) -> tuple[list, list[str], dict[str, int]]:
    """The variable entries of a network or structure document, their names
    and each name's index.

    Checks what both document kinds share: a ``"variables"`` array of named,
    distinct entries whose ``parents``, where given, is a list in which every
    object has a ``name``.
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
    for name, e in zip(names, entries):
        arcs = e.get("parents", [])
        if not isinstance(arcs, list):
            raise DataParseError(f'{name}: "parents" must be a list, got {arcs!r}')
        for arc in arcs:
            if isinstance(arc, dict) and "name" not in arc:
                raise DataParseError(f"{name}: parent entry needs a name: {arc!r}")
    return entries, names, {name: i for i, name in enumerate(names)}


def parse_network(obj) -> GaussianNetwork:
    """Build a network from the JSON document structure.

    Expected shape: ``{"variables": [{"name", "mean", "variance",
    "parents": [{"name", "coeff"}, ...]}, ...]}``. Parent references may
    point forward or backward; cycles are rejected here.
    """
    entries, names, index = _variable_entries(obj)
    means, variances = [], []
    parents: list[set[int]] = [set() for _ in names]
    coefficients: dict[tuple[int, int], float] = {}
    for i, e in enumerate(entries):
        means.append(_require_number(e.get("mean"), f"{names[i]}.mean"))
        variances.append(_require_number(e.get("variance"), f"{names[i]}.variance"))
        for arc in e.get("parents", ()):
            if not isinstance(arc, dict):
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


def load_network(path) -> GaussianNetwork:
    return parse_network(read_json(path))


def parse_structure(obj) -> Dag:
    """Parse a bare structure: like the network format, but parameters are
    optional and parent entries may be plain name strings."""
    entries, names, index = _variable_entries(obj)
    parents: list[set[int]] = [set() for _ in names]
    for i, e in enumerate(entries):
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
    return parse_structure(read_json(path))


def to_dot(dag: Dag, name: str = "learned") -> str:
    """Render a structure in DOT syntax with sorted, quoted identifiers."""
    lines = [f"digraph {name} {{"]
    for var in dag.variables:
        lines.append(f'  "{var}";')
    for parent, child in sorted(dag.edge_names()):
        lines.append(f'  "{parent}" -> "{child}";')
    lines.append("}")
    return "\n".join(lines) + "\n"

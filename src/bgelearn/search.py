"""Structure search over DAG space.

Two modes: exhaustive enumeration with equivalence-class ranking for up to
six variables, and deterministic greedy hill-climbing over single-arc moves
(add, delete, reverse) for anything larger. Each search scores through one
:class:`~bgelearn.scoring.Scorer` for its dataset and prior, whose memo
makes a repeated (child, parents) score a dict lookup.

The climb is incremental, as the score is decomposable: a move changes the
local scores of only the one or two children it touches. Each iteration
computes every node's ancestors as a bitmask, which decides each move's
legality with one bit test, and each child keeps the local scores of its
parent set with one arc toggled; a move clears only the rows of the
children it changed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .data import Dataset
from .errors import TooLargeError, VariableMismatchError
from .network import (
    Dag,
    EquivalenceClass,
    class_members,
    enumerate_classes,
    topological_order,
)
from .priors import NormalWishartPrior, StructurePrior
from .scoring import Scorer, StructureScore, normalize_log_weights

# Tie-break order among equal-delta moves.
_MOVE_RANK = {"delete": 0, "reverse": 1, "add": 2}


class Move(NamedTuple):
    kind: str
    arc: tuple[str, str]
    delta: float


class RankedEntry(NamedTuple):
    unit: EquivalenceClass
    log_score: float
    posterior: float


@dataclass(frozen=True)
class SearchReport:
    """Outcome of a structure search.

    ``ranked`` is sorted by log score descending (ties broken by the
    representative's edge list); posteriors are normalized over exactly the
    entries listed. ``terminal`` is the greedy end point, when applicable.
    """

    ranked: tuple[RankedEntry, ...]
    trace: tuple[Move, ...]
    evaluations: int
    terminal: Dag | None = None

    @property
    def best(self) -> RankedEntry:
        return self.ranked[0]


def _rank_entries(units, log_scores) -> tuple[RankedEntry, ...]:
    posteriors = normalize_log_weights(log_scores)
    entries = list(zip(units, log_scores, posteriors))
    entries.sort(key=lambda e: (-e[1], sorted(e[0].representative.edge_names())))
    return tuple(RankedEntry(u, float(s), float(p)) for u, s, p in entries)


def exhaustive(
    d: Dataset,
    prior: NormalWishartPrior,
    policy: StructurePrior = StructurePrior.UNIFORM_CLASSES,
    verify: bool = False,
) -> SearchReport:
    """Score every structure on the dataset's variables, ranked by class.

    The classes come from :func:`~bgelearn.network.enumerate_classes`, which
    builds a :class:`Dag` only for each class's representative, and one
    representative is scored per class. With ``verify`` a second member
    (where one exists) is built and scored too and must agree to 1e-9, a
    direct check that the metric is score equivalent. Class posteriors are
    uniform over classes, or aggregate labeled-DAG mass (class size over
    the number of DAGs) when the policy is uniform over structures.
    """
    # Raises TooLargeError beyond the cap.
    classes = enumerate_classes(len(d.variables), d.variables)
    dag_count = sum(cls.size for cls in classes)
    scorer = Scorer(d, prior)
    evaluations = 0
    log_scores = []
    for cls in classes:
        # Representatives are acyclic and in the dataset's variable order by
        # construction, so Scorer.score's checks are skipped; summing in the
        # same child order gives the same float.
        rep_score = sum(
            scorer.local(c, ps) for c, ps in enumerate(cls.representative.parents)
        )
        evaluations += 1
        if verify and cls.size > 1:
            other = scorer.score(cls.members[1])
            evaluations += 1
            if abs(other.log_marginal - rep_score) > 1e-9:
                raise AssertionError(
                    "score equivalence violated within class "
                    f"{cls.representative.edge_names()}: "
                    f"{rep_score} vs {other.log_marginal}"
                )
        if policy is StructurePrior.UNIFORM_STRUCTURES:
            # Class mass aggregates its members under a per-DAG uniform prior.
            log_prior = -float(np.log(dag_count)) + float(np.log(cls.size))
        else:
            log_prior = -float(np.log(len(classes)))
        log_scores.append(log_prior + rep_score)
    return SearchReport(
        ranked=_rank_entries(classes, log_scores),
        trace=(),
        evaluations=evaluations,
    )


def hill_climb(
    d: Dataset,
    prior: NormalWishartPrior,
    start: Dag | None = None,
    max_iters: int = 100,
    restarts: int = 0,
    seed: int = 0,
) -> SearchReport:
    """Greedy best-first search over single-arc moves.

    Each iteration applies the best strictly improving move; ties go to
    deletes before reverses before adds, then to the lexicographically
    least arc. An add u -> v is legal when v is not an ancestor of u, and a
    reversal of u -> v when u is not an ancestor of another parent of v;
    ``evaluations`` counts every legal move of every iteration. A move's
    delta is read from a per-child cache of local scores, which is filled
    for legal moves only and cleared for the children a move changes, so
    the climb scores exactly the parent sets a full rescan would. The climb
    stops after ``max_iters`` moves or when no move improves the score.
    Restarts rerun the climb from seed-derived random DAGs and
    the best terminal wins. The ranked list covers the distinct terminal
    classes found; the uniform structure priors are constant per DAG and
    cancel in that normalization, so they take no part here. Terminals use
    the dataset's variable order.
    """
    if start is None:
        start = Dag.from_edges(d.variables)
    if set(start.variables) != set(d.variables):
        raise VariableMismatchError(
            f"start variables {sorted(start.variables)} do not match "
            f"dataset {sorted(d.variables)}"
        )
    topological_order(start)
    if start.variables != d.variables:
        start = Dag.from_edges(d.variables, start.edge_names())
    scorer = Scorer(d, prior)
    evaluations = 0
    runs = []
    rng = np.random.default_rng(seed)
    for run_index in range(restarts + 1):
        origin = start if run_index == 0 else _random_dag(d.variables, rng)
        terminal, trace, evals = _climb_once(scorer, origin, max_iters)
        evaluations += evals
        score = scorer.score(terminal)
        runs.append((terminal, trace, score))
    best_terminal, best_trace, _ = min(
        runs, key=lambda r: (-r[2].log_marginal, sorted(r[0].edge_names()))
    )

    distinct: dict[tuple, tuple[Dag, StructureScore]] = {}
    for terminal, _, score in runs:
        unit_key = tuple(sorted(terminal.edge_names()))
        distinct.setdefault(unit_key, (terminal, score))
    units, log_scores = [], []
    seen_classes = []
    for terminal, score in distinct.values():
        cls = _terminal_class(terminal)
        key = tuple(sorted(cls.representative.edge_names()))
        if key in seen_classes:
            continue
        seen_classes.append(key)
        units.append(cls)
        log_scores.append(score.log_marginal)
    return SearchReport(
        ranked=_rank_entries(units, log_scores),
        trace=tuple(best_trace),
        evaluations=evaluations,
        terminal=best_terminal,
    )


def _terminal_class(dag: Dag) -> EquivalenceClass:
    try:
        return class_members(dag)
    except TooLargeError:
        # Too many edges to enumerate the class; report the DAG alone.
        return EquivalenceClass((dag,), dag)


def _ancestors(parents) -> list[int]:
    """Each node's ancestors as a bitmask, for a DAG given by parent index
    sets."""
    n = len(parents)
    children = [[] for _ in range(n)]
    waiting = [len(ps) for ps in parents]
    for c, ps in enumerate(parents):
        for p in ps:
            children[p].append(c)
    anc = [0] * n
    ready = [v for v in range(n) if not waiting[v]]
    for v in ready:  # appended to as nodes become ready: a topological order
        above = anc[v] | 1 << v
        for c in children[v]:
            anc[c] |= above
            waiting[c] -= 1
            if not waiting[c]:
                ready.append(c)
    return anc


def _climb_once(scorer: Scorer, start: Dag, max_iters: int):
    names = start.variables
    n = start.size
    local = scorer.local
    parents = list(start.parents)
    current = [local(v, parents[v]) for v in range(n)]
    # flips[v][u] is local(v, parents[v] ^ {u}), filled when a move that
    # needs it is legal and cleared when v's parents change.
    flips: list[dict[int, float]] = [{} for _ in range(n)]
    trace: list[Move] = []
    evaluations = 0
    for _ in range(max_iters):
        anc = _ancestors(parents)
        moves = []  # (delta, kind, u, v) for every legal move on an arc u -> v
        for v in range(n):
            pv, row, now = parents[v], flips[v], current[v]
            above = 0  # ancestors of v's parents
            for w in pv:
                above |= anc[w]
            for u in range(n):
                if u == v or (u not in pv and anc[u] >> v & 1):
                    continue  # adding u -> v would close a cycle
                flip = row.get(u)
                if flip is None:
                    flip = row[u] = local(v, pv ^ {u})
                if u not in pv:
                    moves.append((flip - now, "add", u, v))
                    continue
                moves.append((flip - now, "delete", u, v))
                if not above >> u & 1:  # no other u -> v path: reversible
                    back = flips[u].get(v)
                    if back is None:
                        back = flips[u][v] = local(u, parents[u] | {v})
                    moves.append((flip - now + back - current[u], "reverse", u, v))
        evaluations += len(moves)
        improving = [m for m in moves if m[0] > 0.0]
        if not improving:
            break
        top = max(m[0] for m in improving)
        delta, kind, u, v = min(
            (m for m in improving if m[0] == top),
            key=lambda m: (_MOVE_RANK[m[1]], names[m[2]], names[m[3]]),
        )
        changes = [(v, parents[v] ^ {u})]
        if kind == "reverse":
            changes.append((u, parents[u] | {v}))
        for child, ps in changes:
            parents[child] = ps
            current[child] = local(child, ps)
            flips[child] = {}
        trace.append(Move(kind, (names[u], names[v]), delta))
    return Dag(names, tuple(parents)), trace, evaluations


def _random_dag(variables, rng) -> Dag:
    """A uniform-order random DAG with arc probability 1/2."""
    n = len(variables)
    order = rng.permutation(n)
    parents = [set() for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.5:
                parents[order[j]].add(int(order[i]))
    return Dag(tuple(variables), tuple(frozenset(ps) for ps in parents))

"""Structure search over DAG space.

Two modes: exhaustive enumeration with equivalence-class ranking for up to
six variables, and deterministic greedy hill-climbing over single-arc moves
(add, delete, reverse) for anything larger. Each search scores through one
:class:`~bgelearn.scoring.Scorer` for its dataset and prior, whose memo
makes a repeated (child, parents) score a dict lookup; a candidate move
re-scores only the children it touches.
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
    unit: EquivalenceClass | Dag
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
    entries.sort(
        key=lambda e: (
            -e[1],
            sorted(_unit_representative(e[0]).edge_names()),
        )
    )
    return tuple(RankedEntry(u, float(s), float(p)) for u, s, p in entries)


def _unit_representative(unit) -> Dag:
    return unit.representative if isinstance(unit, EquivalenceClass) else unit


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
        rep_score = scorer.score(cls.representative)
        evaluations += 1
        if verify and cls.size > 1:
            other = scorer.score(cls.members[1])
            evaluations += 1
            if abs(other.log_marginal - rep_score.log_marginal) > 1e-9:
                raise AssertionError(
                    "score equivalence violated within class "
                    f"{cls.representative.edge_names()}: "
                    f"{rep_score.log_marginal} vs {other.log_marginal}"
                )
        if policy is StructurePrior.UNIFORM_STRUCTURES:
            # Class mass aggregates its members under a per-DAG uniform prior.
            log_prior = -float(np.log(dag_count)) + float(np.log(cls.size))
        else:
            log_prior = -float(np.log(len(classes)))
        log_scores.append(log_prior + rep_score.log_marginal)
    return SearchReport(
        ranked=_rank_entries(classes, log_scores),
        trace=(),
        evaluations=evaluations,
    )


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
    least arc. Restarts rerun the climb from seed-derived random DAGs and
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


def _climb_once(scorer: Scorer, start: Dag, max_iters: int):
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

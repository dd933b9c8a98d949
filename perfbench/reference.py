"""Reference BGe scorer and the output checks of every benchmark job.

A compact, independent implementation of the closed-form normal-Wishart
marginal likelihood (Geiger & Heckerman, UAI 1994) in the paper convention:
the prior over a variable subset keeps ``nu`` and ``alpha`` and restricts
``mu0`` and ``t0``. Statistics come from numpy (BLAS), log-determinants from
``slogdet`` and the Wishart constant from ``gammaln``, so it shares no code
path with the program.

Every check returns a list of failure messages; an empty list means the
report is correct. Scores are compared with a relative tolerance of 1e-9
(``|a - b| <= 1e-9 * max(1, |b|)``): local terms reach 1e4 in magnitude at
m = 20,000, where an absolute 1e-9 is below the rounding of the sums.
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy.special import gammaln, logsumexp

RTOL = 1e-9
LOG_2PI = math.log(2.0 * math.pi)


def close(a: float, b: float) -> bool:
    return abs(a - b) <= RTOL * max(1.0, abs(b))


def _log_wishart_const(l: int, alpha: float) -> float:
    i = np.arange(1, l + 1)
    return float(
        -(alpha * l / 2.0) * math.log(2.0)
        - (l * (l - 1) / 4.0) * math.log(math.pi)
        - gammaln((alpha + 1.0 - i) / 2.0).sum()
    )


def _logdet(a: np.ndarray) -> float:
    sign, value = np.linalg.slogdet(a)
    if sign <= 0:
        raise ValueError("matrix is not positive definite")
    return float(value)


class Reference:
    """Log marginals of one dataset under the benchmark's direct prior."""

    def __init__(self, cases: np.ndarray):
        self.m, self.n = cases.shape
        self.nu, self.alpha = 1.0, float(self.n + 2)
        self.mu0 = np.zeros(self.n)
        self.t0 = float(self.n + 2) * np.eye(self.n)
        mean = cases.mean(axis=0)
        centered = cases - mean
        diff = self.mu0 - mean
        self.tn = (
            self.t0
            + centered.T @ centered
            + (self.nu * self.m / (self.nu + self.m)) * np.outer(diff, diff)
        )
        self._memo: dict[tuple[int, ...], float] = {}

    def log_marginal(self, subset) -> float:
        """Log marginal likelihood of the data restricted to ``subset``."""
        idx = tuple(sorted(subset))
        if not idx:
            return 0.0
        if idx not in self._memo:
            l, m, ix = len(idx), self.m, np.ix_(idx, idx)
            self._memo[idx] = (
                -0.5 * l * m * LOG_2PI
                + 0.5 * l * (math.log(self.nu) - math.log(self.nu + m))
                + _log_wishart_const(l, self.alpha)
                - _log_wishart_const(l, self.alpha + m)
                + 0.5 * self.alpha * _logdet(self.t0[ix])
                - 0.5 * (self.alpha + m) * _logdet(self.tn[ix])
            )
        return self._memo[idx]

    def local(self, child: int, parents) -> float:
        parents = set(parents)
        return self.log_marginal(parents | {child}) - self.log_marginal(parents)

    def structure(self, parents) -> float:
        return sum(self.local(c, ps) for c, ps in enumerate(parents))


def _parents_from_edges(edges, names) -> list[set[int]]:
    index = {name: i for i, name in enumerate(names)}
    parents = [set() for _ in names]
    for p, c in edges:
        parents[index[c]].add(index[p])
    return parents


def _acyclic(parents) -> bool:
    remaining = set(range(len(parents)))
    while remaining:
        roots = {v for v in remaining if not (parents[v] & remaining)}
        if not roots:
            return False
        remaining -= roots
    return True


def _parse(text: str):
    try:
        return json.loads(text), []
    except json.JSONDecodeError as exc:
        return None, [f"report is not JSON: {exc}"]


def check_score(text: str, ref: Reference, names, parents) -> list[str]:
    report, errors = _parse(text)
    if errors:
        return errors
    local = report["scores"]["local"]
    if list(local) != list(names):
        return [f"local terms name {list(local)}, expected {names}"]
    for i, name in enumerate(names):
        expected = ref.local(i, parents[i])
        if not close(local[name], expected):
            errors.append(f"local term {name}: {local[name]!r} != reference {expected!r}")
    total = ref.structure(parents)
    if not close(report["scores"]["log_marginal"], total):
        errors.append(f"log marginal {report['scores']['log_marginal']!r} != {total!r}")
    return errors


def check_predict(text: str, ref: Reference, ref_plus: Reference) -> list[str]:
    """``ref_plus`` is the reference over the data plus the held-out case."""
    report, errors = _parse(text)
    if errors:
        return errors
    everything = range(ref.n)
    expected = ref_plus.log_marginal(everything) - ref.log_marginal(everything)
    got = report["scores"]["log_predictive"]
    if not close(got, expected):
        errors.append(f"log predictive {got!r} != reference {expected!r}")
    return errors


N5_DAGS, N5_CLASSES = 29_281, 8_782


def check_exhaustive(text: str, ref: Reference, names) -> list[str]:
    report, errors = _parse(text)
    if errors:
        return errors
    ranking = report["ranking"]
    if len(ranking) != N5_CLASSES:
        return [f"{len(ranking)} ranked classes, expected {N5_CLASSES}"]
    sizes = sum(e["class_size"] for e in ranking)
    if sizes != N5_DAGS:
        errors.append(f"class sizes sum to {sizes}, expected {N5_DAGS}")
    posteriors = np.array([e["posterior"] for e in ranking])
    if not close(float(posteriors.sum()), 1.0):
        errors.append(f"posteriors sum to {posteriors.sum()!r}")
    scores = np.array([e["log_score"] for e in ranking])
    if np.any(np.diff(scores) > 0):
        errors.append("ranking is not sorted by log score")
    implied = np.exp(scores - logsumexp(scores))
    if np.abs(implied - posteriors).max() > RTOL:
        errors.append("posteriors do not follow from the log scores")
    top = ranking[0]
    expected = ref.structure(_parents_from_edges(top["representative"], names))
    expected -= math.log(N5_CLASSES)  # uniform prior over classes
    if not close(top["log_score"], expected):
        errors.append(f"top log score {top['log_score']!r} != reference {expected!r}")
    return errors


def check_greedy(text: str, ref: Reference, names) -> list[str]:
    """Replays the trace from the empty graph: every move must be legal and
    its delta must match the reference, and the replay must end at the
    reported acyclic terminal."""
    report, errors = _parse(text)
    if errors:
        return errors
    index = {name: i for i, name in enumerate(names)}
    parents = [set() for _ in names]
    start = ref.structure(parents)
    total = 0.0
    for step, move in enumerate(report["trace"]):
        u, v = (index[a] for a in move["arc"])
        before = ref.local(v, parents[v]) + ref.local(u, parents[u])
        if move["kind"] == "add":
            parents[v].add(u)
        elif move["kind"] == "delete":
            parents[v].discard(u)
        elif move["kind"] == "reverse":
            parents[v].discard(u)
            parents[u].add(v)
        else:
            return [f"move {step} has unknown kind {move['kind']!r}"]
        after = ref.local(v, parents[v]) + ref.local(u, parents[u])
        if not _acyclic(parents):
            return [f"move {step} ({move['kind']} {move['arc']}) makes a cycle"]
        if not close(move["delta"], after - before):
            errors.append(f"move {step} delta {move['delta']!r} != reference {after - before!r}")
        total += move["delta"]
    terminal = _parents_from_edges(report["terminal"], names)
    if terminal != parents:
        errors.append("trace replay does not end at the reported terminal")
    if not _acyclic(terminal):
        errors.append("terminal is cyclic")
    final = ref.structure(terminal)
    if not close(total, final - start):
        errors.append(f"summed trace deltas {total!r} != reference gain {final - start!r}")
    if not close(report["ranking"][0]["log_score"], final):
        errors.append(f"terminal log score {report['ranking'][0]['log_score']!r} != {final!r}")
    if report["evaluations"] <= 0:
        errors.append("no moves evaluated")
    return errors


def perturb(text: str) -> str:
    """A report with one number changed in its 7th significant digit, for
    the self-test: every check must reject it."""
    report = json.loads(text)
    if "ranking" in report and report.get("trace"):
        report["trace"][0]["delta"] *= 1 + 1e-6
    elif "ranking" in report:
        report["ranking"][0]["log_score"] *= 1 + 1e-6
    elif "log_predictive" in report["scores"]:
        report["scores"]["log_predictive"] *= 1 + 1e-6
    else:
        first = next(iter(report["scores"]["local"]))
        report["scores"]["local"][first] *= 1 + 1e-6
    return json.dumps(report, indent=2)


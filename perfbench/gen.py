"""Seeded synthetic inputs for the benchmark workloads (numpy only).

Each job gets a fresh random sparse linear-Gaussian DAG with about two
parents per node, a case table drawn from it, the direct normal-Wishart prior
``mu0 = 0, t0 = (n+2) I, nu = 1, alpha = n + 2`` and the generating
structure. Nothing here calls into ``bgelearn``, so a change to the program
cannot change what the benchmark feeds it.

Inputs are cached on disk by (workload, seed, job), so repeated runs of one
seed read the same files and generation never falls inside a timed interval.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Workload name -> (variables n, cases m). The same table sets the report's
# machine block, so what is stated is what is run.
SIZES = {
    "exhaustive_n5": (5, 500),
    "greedy_n30": (30, 1000),
    "score_predict_m20k": (30, 20_000),
}


@dataclass(frozen=True)
class JobInput:
    """Paths of one job's files plus the arrays the checks need."""

    csv: Path
    prior: Path
    structure: Path
    cases: np.ndarray  # m x n, exactly the values written to ``csv``
    parents: tuple[tuple[int, ...], ...]  # generating structure
    held_out: np.ndarray  # one extra case, never in ``csv``

    @property
    def names(self) -> list[str]:
        return [f"x{i + 1}" for i in range(self.cases.shape[1])]


def _draw(rng: np.random.Generator, n: int, m: int):
    order = rng.permutation(n)
    parents: list[tuple[int, ...]] = [() for _ in range(n)]
    x = np.empty((m + 1, n))
    for k, node in enumerate(order):
        count = min(k, int(rng.integers(1, 4)))  # 1..3 parents, mean 2
        chosen = tuple(sorted(int(p) for p in rng.choice(order[:k], count, replace=False)))
        parents[node] = chosen
        noise = rng.standard_normal(m + 1)
        if chosen:
            coeffs = rng.uniform(0.5, 1.5, count) * rng.choice((-1.0, 1.0), count)
            signal = x[:, list(chosen)] @ coeffs
            # Rescale to unit variance with a random signal share, so that
            # long chains neither explode nor vanish at n = 30.
            share = rng.uniform(0.3, 0.8)
            signal = signal / signal.std()
            x[:, node] = np.sqrt(share) * signal + np.sqrt(1.0 - share) * noise
        else:
            x[:, node] = noise
        x[:, node] += rng.uniform(-1.0, 1.0)
    return x[:m], x[m], tuple(parents)


def job_input(workdir: Path, workload: str, seed: int, job: int) -> JobInput:
    """The inputs of one job, generated on first use and cached on disk."""
    n, m = SIZES[workload]
    folder = workdir / "inputs" / workload / f"seed{seed}" / f"job{job}"
    arrays = folder / "arrays.npz"
    paths = (folder / "data.csv", folder / "prior.json", folder / "structure.json")
    if not arrays.exists():
        rng = np.random.default_rng([seed, list(SIZES).index(workload), job])
        cases, held_out, parents = _draw(rng, n, m)
        names = [f"x{i + 1}" for i in range(n)]
        folder.mkdir(parents=True, exist_ok=True)
        with paths[0].open("w", encoding="utf-8") as fh:
            fh.write(",".join(names) + "\n")
            np.savetxt(fh, cases, fmt="%.17g", delimiter=",")
        prior = {
            "variables": names,
            "mu0": [0.0] * n,
            "t0": (float(n + 2) * np.eye(n)).tolist(),
            "nu": 1.0,
            "alpha": float(n + 2),
        }
        paths[1].write_text(json.dumps(prior), encoding="utf-8")
        structure = {
            "variables": [
                {"name": names[i], "parents": [names[p] for p in parents[i]]}
                for i in range(n)
            ]
        }
        paths[2].write_text(json.dumps(structure), encoding="utf-8")
        flat = np.array([len(ps) for ps in parents] + [p for ps in parents for p in ps])
        # Written last and renamed into place: its presence marks a complete
        # cache entry.
        tmp = folder / "arrays.tmp.npz"
        np.savez(tmp, cases=cases, held_out=held_out, parents=flat)
        tmp.replace(arrays)
    with np.load(arrays) as z:
        cases, held_out, flat = z["cases"], z["held_out"], z["parents"]
    counts, rest, parents = flat[:n], list(flat[n:]), []
    for c in counts:
        parents.append(tuple(int(p) for p in rest[:c]))
        rest = rest[c:]
    return JobInput(*paths, cases, tuple(parents), held_out)

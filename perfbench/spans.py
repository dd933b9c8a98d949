"""Span shims on the public names at each ``bgelearn`` module boundary.

:class:`Tracer` replaces each name in :data:`SHIMS` with a wrapper that
records a span (name, start, end, parent span, job id) and restores the
originals on :meth:`Tracer.uninstall`. A function is replaced wherever it is
bound, so names re-bound by ``from ... import`` (``search.local_score``,
``priors.spd_factor``, ...) are traced too. A name the program no longer has
is listed in ``absent`` instead of failing the run.

Spans live in flat arrays in memory and are written by :meth:`Tracer.save`
when the run ends. :func:`summarize` turns them into per-job layer figures;
a span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import sys
from array import array
from functools import wraps
from pathlib import Path
from statistics import median
from time import perf_counter

import numpy as np

# (layer, module, attribute). "Class.method" patches the method on the class.
SHIMS = [
    ("cli", "bgelearn.cli", "main"),
    ("data", "bgelearn.data", "load_csv"),
    ("data", "bgelearn.data", "stats"),
    ("linalg", "bgelearn.linalg", "spd_factor"),
    ("linalg", "bgelearn.linalg", "log_det"),
    ("linalg", "bgelearn.linalg", "submatrix"),
    ("priors", "bgelearn.priors", "load_prior"),
    ("priors", "bgelearn.priors", "NormalWishartPrior.restrict"),
    ("scoring", "bgelearn.scoring", "local_score"),
    ("scoring", "bgelearn.scoring", "LocalScoreCache.get_or_compute"),
    ("scoring", "bgelearn.scoring", "score_structure"),
    ("scoring", "bgelearn.scoring", "update_posterior"),
    ("scoring", "bgelearn.scoring", "log_predictive"),
    ("network", "bgelearn.network", "load_structure"),
    ("network", "bgelearn.network", "topological_order"),
    ("network", "bgelearn.network", "enumerate_dags"),
    ("network", "bgelearn.network", "partition_classes"),
    ("network", "bgelearn.network", "class_members"),
    ("network", "bgelearn.network", "to_dot"),
    ("search", "bgelearn.search", "exhaustive"),
    ("search", "bgelearn.search", "hill_climb"),
]
LAYERS = ("cli", "data", "linalg", "priors", "scoring", "network", "search")

# Spans whose result size is worth recording: name -> size of the result.
_SIZES = {
    "data.load_csv": lambda d: d.cases.size,
    "network.enumerate_dags": len,
    "network.partition_classes": len,
}
_CACHE = "scoring.get_or_compute"


def _span_name(layer: str, attribute: str) -> str:
    return f"{layer}.{attribute.rsplit('.', 1)[-1]}"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.layers: list[str] = []
        self.name_id = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.job_of = array("l")
        self.extra = array("d")  # result size, or 1.0 for a cache miss
        self.job = -1
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []
        self.absent: list[str] = []

    def _shim(self, name_id: int, fn, size=None):
        ids, start, end, parent, job_of, extra, stack = (
            self.name_id, self.start, self.end, self.parent, self.job_of,
            self.extra, self._stack,
        )

        @wraps(fn)
        def shim(*args, **kwargs):
            idx = len(start)
            ids.append(name_id)
            parent.append(stack[-1])
            job_of.append(self.job)
            end.append(0.0)
            extra.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if size is not None:
                extra[idx] = size(out)
            return out

        return shim

    def _cache_probe(self, get_or_compute):
        """Marks the enclosing cache span as a miss when ``compute`` runs."""
        extra, stack = self.extra, self._stack

        @wraps(get_or_compute)
        def probe(cache, key, compute):
            def miss():
                extra[stack[-1]] = 1.0
                return compute()

            return get_or_compute(cache, key, miss)

        return probe

    def install(self) -> None:
        for layer, module_name, attribute in SHIMS:
            module = sys.modules.get(module_name)
            owner_name, _, member = attribute.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, member, None) if owner is not None else None
            if original is None:
                self.absent.append(f"{module_name}.{attribute}")
                continue
            name = _span_name(layer, attribute)
            self.names.append(name)
            self.layers.append(layer)
            fn = self._cache_probe(original) if name == _CACHE else original
            shim = self._shim(len(self.names) - 1, fn, _SIZES.get(name))
            if owner_name:
                self._patch(owner, member, shim)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "bgelearn" or mod_name.startswith("bgelearn."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, shim)

    def _patch(self, owner, key, shim) -> None:
        self._patched.append((owner, key, getattr(owner, key)))
        setattr(owner, key, shim)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.array(self.name_id, dtype=np.int64),
            "start": np.array(self.start),
            "end": np.array(self.end),
            "parent": np.array(self.parent, dtype=np.int64),
            "job": np.array(self.job_of, dtype=np.int64),
            "extra": np.array(self.extra),
        }

    def save(self, path: Path) -> None:
        """Write every span: parallel arrays plus the table of span names."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


# Figures that depend only on the inputs; they are averaged over the first
# jobs of a run, whose inputs a seed fixes, so they repeat exactly.
COUNTS = {
    "data.stats.calls", "linalg.spd_factor.calls", "priors.restrict.calls",
    "scoring.local_score.calls", "scoring.cache.hits", "scoring.cache.misses",
    "scoring.cache.hit_ratio", "network.enumerate_dags.dags",
    "network.partition_classes.classes", "network.class_members.calls",
    "search.moves_evaluated", "search.moves_accepted", "search.converged_share",
    "cli.output_bytes",
}


def summarize(arrays, names, layers, walls, outputs, count_jobs):
    """Per-layer figures of the traced jobs, by the names ``BENCHMARK.json``
    lists under ``per_layer``, plus the absolute seconds of the spans that it
    lists only as shares of job wall time (so that no time it reports reads a
    constant 0 on the workloads that skip those spans).

    ``walls`` and ``outputs`` map job id to the job's wall time and to the
    facts read from its reports (``moves_evaluated``, ``moves_accepted``,
    ``converged``, ``output_bytes``). Times are medians over jobs; the
    figures in :data:`COUNTS` are means over the first ``count_jobs`` jobs.
    """
    name, parent, job, extra = (arrays[k] for k in ("name", "parent", "job", "extra"))
    dur = arrays["end"] - arrays["start"]
    covered = np.zeros_like(dur)
    nested = parent >= 0
    np.add.at(covered, parent[nested], dur[nested])
    own = dur - covered
    masks = {n: name == i for i, n in enumerate(names)}
    none = np.zeros(len(name), dtype=bool)
    layer_masks = {
        layer: np.isin(name, [i for i, l in enumerate(layers) if l == layer])
        for layer in LAYERS
    }
    cache = masks.get("scoring.get_or_compute", none)
    hit = np.zeros(len(name), dtype=bool)
    hit[parent[cache & (extra == 0.0) & nested]] = True
    local = masks.get("scoring.local_score", none)

    per_job = []
    for j, wall in walls.items():
        in_job = job == j

        def total(n, values=dur):
            return float(values[masks.get(n, none) & in_job].sum())

        def calls(n):
            return int((masks.get(n, none) & in_job).sum())

        lookups = calls("scoring.get_or_compute")
        misses = int((cache & (extra == 1.0) & in_job).sum())
        hits = lookups - misses
        hit_spans, miss_spans = local & hit & in_job, local & ~hit & in_job
        f = {
            "data.load_csv.s": total("data.load_csv"),
            "data.stats.s": total("data.stats"),
            "data.stats.calls": calls("data.stats"),
            "linalg.spd_factor.calls": calls("linalg.spd_factor"),
            "linalg.spd_factor.s": total("linalg.spd_factor"),
            "priors.restrict.calls": calls("priors.restrict"),
            "priors.restrict.s": total("priors.restrict"),
            "scoring.local_score.calls": calls("scoring.local_score"),
            "scoring.cache.hits": hits,
            "scoring.cache.misses": misses,
            "scoring.cache.hit_ratio": hits / lookups if lookups else 0.0,
            "scoring.hit_us": 1e6 * float(dur[hit_spans].mean()) if hit_spans.any() else 0.0,
            "scoring.miss_us": 1e6 * float(dur[miss_spans].mean()) if miss_spans.any() else 0.0,
            "scoring.hit_share": float(dur[hit_spans].sum()) / wall,
            "scoring.score_structure.s": total("scoring.score_structure"),
            "scoring.log_predictive.s": total("scoring.log_predictive"),
            "network.enumerate_dags.s": total("network.enumerate_dags"),
            "network.enumerate_dags.dags": total("network.enumerate_dags", extra),
            "network.partition_classes.s": total("network.partition_classes"),
            "network.partition_classes.classes": total("network.partition_classes", extra),
            "network.class_members.calls": calls("network.class_members"),
            "network.class_members.s": total("network.class_members"),
            "search.exhaustive.self_s": total("search.exhaustive", own),
            "search.hill_climb.self_s": total("search.hill_climb", own),
            "cli.self_s": total("cli.main", own),
            "trace.accounted_share": float(own[in_job].sum()) / wall,
        }
        cells = total("data.load_csv", extra)
        f["data.load_csv.cells_per_s"] = cells / f["data.load_csv.s"] if cells else 0.0
        for layer, mask in layer_masks.items():
            f[f"{layer}.self_s"] = float(own[mask & in_job].sum())
        for key in (
            "scoring.log_predictive", "network.enumerate_dags",
            "network.partition_classes", "network.class_members",
        ):
            f[f"{key}.share"] = f[f"{key}.s"] / wall
        for key in ("search.exhaustive", "search.hill_climb", "search"):
            f[f"{key}.self_share"] = f[f"{key}.self_s"] / wall
        f.update(outputs[j])
        per_job.append(f)

    first = per_job[:count_jobs]
    return {
        key: (
            sum(f[key] for f in first) / len(first)
            if key in COUNTS
            else median(f[key] for f in per_job)
        )
        for key in per_job[0]
    }

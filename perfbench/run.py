"""End-to-end benchmark of the bgelearn command line.

Run from the repository root:

    python3 perfbench/run.py --workload greedy_n30 --seed 1 --seconds 45 --trace 0

One client runs a closed loop in this process. Each job gets a fresh seeded
synthetic dataset (generated untimed), runs ``bgelearn.cli.main`` with
``--json`` exactly as a user's command line would (timed), and has every
report checked against the reference scorer (untimed). Jobs run until their
summed wall time reaches ``--seconds``.

With ``--trace 0`` the metrics are the end-to-end ones. With ``--trace 1``
the budget is split: an untraced half, then a traced half with span shims on
every module boundary; the metrics are the per-layer figures of the traced
half, and ``trace.overhead`` compares the two halves on the same inputs.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. The lines before it give the
machine, the workload and every figure in readable form; the same, with the
machine block, is written to ``perfbench/_work/results/``. NOTES.md explains
the workloads, metrics and baseline.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

# One client, one compute thread. Set before numpy loads; the set-up probes
# inherit it.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import gen  # noqa: E402
import reference  # noqa: E402
import spans  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / "_work"
SPEC = HERE.parent / "BENCHMARK.json"  # metric names and units
WORKLOADS = tuple(gen.SIZES)
# Set-up probes per run: one after each job, the rest after the loop, so that
# they sample the host's speed across the whole run rather than one moment.
SETUP_PROBES = 15
TRACED_MIN_JOBS = 3  # counts are averaged over the first jobs, fixed by the seed
GREEDY_MAX_ITERS = 100  # the CLI default; a climb that stops earlier converged

# Measures the program's set-up in a fresh interpreter: from the first
# statement to a built CLI parser, which covers ``import bgelearn``.
PROBE = """\
import time
t = time.perf_counter()
import sys
sys.path.insert(0, sys.argv[1])
import bgelearn, bgelearn.cli
bgelearn.cli.build_parser()
print(repr(time.perf_counter() - t))
"""


def _argvs(workload, ji) -> list[list[str]]:
    data, prior = str(ji.csv), str(ji.prior)
    if workload == "exhaustive_n5":
        return [["learn", data, prior, "--json"]]
    if workload == "greedy_n30":
        return [["learn", data, prior, "--mode", "greedy", "--json"]]
    case = [repr(float(v)) for v in ji.held_out]
    return [
        ["score", data, prior, str(ji.structure), "--json"],
        ["predict", data, prior, *case, "--json"],
    ]


def _check(workload, outs, ji) -> list[str]:
    ref = reference.Reference(ji.cases)
    if workload == "exhaustive_n5":
        return reference.check_exhaustive(outs[0], ref, ji.names)
    if workload == "greedy_n30":
        return reference.check_greedy(outs[0], ref, ji.names)
    plus = reference.Reference(np.vstack([ji.cases, ji.held_out]))
    return reference.check_score(outs[0], ref, ji.names, ji.parents) + reference.check_predict(
        outs[1], ref, plus
    )


def _facts(workload, job) -> dict[str, float]:
    """Figures read from a job's reports for the traced summary."""
    outs = job["outs"]
    moves = accepted = converged = 0
    if workload == "greedy_n30" and not job["errors"]:
        report = json.loads(outs[0])
        moves, accepted = report["evaluations"], len(report["trace"])
        converged = int(accepted < GREEDY_MAX_ITERS)
    return {
        "search.moves_evaluated": moves,
        "search.moves_accepted": accepted,
        "search.converged_share": converged,
        "cli.output_bytes": sum(len(o.encode()) for o in outs),
    }


def _run_job(argvs):
    """Runs one job's CLI invocations; returns (wall seconds, outputs, errors)."""
    import bgelearn.cli

    outs, errors = [], []
    start = perf_counter()
    try:
        for argv in argvs:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = bgelearn.cli.main(argv)
            outs.append(buf.getvalue())
            if code != 0:
                errors.append(f"{argv[0]} exited with code {code}")
                break
    except (Exception, SystemExit):
        errors.append(traceback.format_exc())
    return perf_counter() - start, outs, errors


def _phase(workload, seed, budget, min_jobs, tracer=None, after_job=None):
    """Closed loop until the jobs' summed wall time reaches ``budget``.
    ``after_job`` runs after each job's check, outside the timed interval."""
    jobs, busy = [], 0.0
    while busy < budget or len(jobs) < min_jobs:
        ji = gen.job_input(WORK, workload, seed, len(jobs))
        if tracer is not None:
            tracer.job = len(jobs)
        gc.collect()  # every job starts from a clean heap, as a fresh CLI process would
        wall, outs, errors = _run_job(_argvs(workload, ji))
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            tracer.job = -1
        if not errors:
            try:
                errors = _check(workload, outs, ji)
            except (KeyError, TypeError, ValueError, IndexError):
                errors = ["malformed report: " + traceback.format_exc()]
        for e in errors:
            print(f"job {len(jobs)} failed: {e}", file=sys.stderr)
        jobs.append({"wall": wall, "outs": outs, "errors": errors, "rss_mb": rss_mb})
        busy += wall
        if after_job is not None:
            after_job()
    return jobs


def _self_test(workload, seed, job) -> list[str]:
    """Every report of a passing job, perturbed, must fail its check.
    Returns the problems found; empty means the checks are live."""
    ji = gen.job_input(WORK, workload, seed, 0)
    if job["errors"]:
        return ["job 0 failed, so the self-test has no correct report to perturb"]
    problems = []
    for i in range(len(job["outs"])):
        outs = list(job["outs"])
        outs[i] = reference.perturb(outs[i])
        if not _check(workload, outs, ji):
            problems.append(f"perturbed report {i} passed the check")
    return problems


def _setup_probe() -> float:
    done = subprocess.run(
        [sys.executable, "-c", PROBE, str(SRC)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def _machine() -> dict:
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
    }


def _timed(workload, seed, seconds):
    """The end-to-end run: the closed loop untraced, with set-up probes
    between jobs."""
    setup: list[float] = []
    jobs = _phase(workload, seed, seconds, 1, after_job=lambda: setup.append(_setup_probe()))
    setup += [_setup_probe() for _ in range(SETUP_PROBES - len(setup))]
    if workload == "greedy_n30":
        gc.collect()
        _, outs, _ = _run_job(_argvs(workload, gen.job_input(WORK, workload, seed, 0)))
        if outs != jobs[0]["outs"] and not jobs[0]["errors"]:
            jobs[0]["errors"].append("a repeat of job 0 gave different JSON")
    walls = [j["wall"] for j in jobs]
    values = {
        "jobs_per_s": sum(1 for j in jobs if not j["errors"]) / sum(walls),
        "job_p50_s": statistics.median(walls),
        "setup_s": statistics.median(setup),
        # A user runs one job per process, so the peak that counts is the one
        # after the first job; later jobs only add heap fragmentation.
        "peak_rss_mb": jobs[0]["rss_mb"],
    }
    return jobs, values, {"setup_samples_s": setup}


def _traced(workload, seed, seconds):
    """Half the budget untraced, then the same jobs traced."""
    untraced = _phase(workload, seed, seconds / 2, 1)
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = _phase(workload, seed, seconds / 2, TRACED_MIN_JOBS, tracer)
    finally:
        tracer.uninstall()
    for a, b in zip(untraced, traced):
        if a["outs"] != b["outs"] and not (a["errors"] or b["errors"]):
            b["errors"].append("traced report differs from the untraced one")
    tracer.save(WORK / "traces" / f"{workload}-seed{seed}.npz")
    values = spans.summarize(
        tracer.arrays(), tracer.names, tracer.layers,
        {i: j["wall"] for i, j in enumerate(traced)},
        {i: _facts(workload, j) for i, j in enumerate(traced)},
        TRACED_MIN_JOBS,
    )
    k = min(len(untraced), len(traced))
    values["trace.overhead"] = (
        sum(j["wall"] for j in traced[:k]) / sum(j["wall"] for j in untraced[:k]) - 1.0
    )
    return untraced + traced, values, {"absent_names": tracer.absent, "per_layer_detail": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "bgelearn" / "__init__.py").is_file():
        print(f"error: no bgelearn sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bgelearn.cli  # noqa: F401  (loaded before any job, and before the tracer patches it)

    workload, seed = args.workload, args.seed
    run = _traced if args.trace else _timed
    jobs, values, extra = run(workload, seed, args.seconds)

    self_test = _self_test(workload, seed, jobs[0])
    attempted = len(jobs)
    failed = sum(1 for j in jobs if j["errors"])
    n, m = gen.SIZES[workload]
    info = {
        "workload": workload, "seed": seed, "trace": args.trace, "n": n, "m": m,
        "csv_bytes": gen.job_input(WORK, workload, seed, 0).csv.stat().st_size,
        "jobs": attempted, "failed": failed, "error_rate": failed / attempted,
        "job_walls_s": [j["wall"] for j in jobs],
        "self_test": self_test or "perturbed reports rejected",
        **extra,
    }
    section = "per_layer" if args.trace else "end_to_end"
    metrics = {
        m_["name"]: {"value": values[m_["name"]], "unit": m_["unit"]}
        for m_ in json.loads(SPEC.read_text(encoding="utf-8"))[section]
    }
    result = {
        "correct": failed == 0 and not self_test,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    record = {"machine": _machine(), "workload": info, "result": result}
    out = WORK / "results" / f"{workload}-seed{seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    print("machine: " + json.dumps(record["machine"]))
    print("workload: " + json.dumps({k: v for k, v in info.items() if k != "per_layer_detail"}))
    shown = {name: (m_["value"], m_["unit"]) for name, m_ in metrics.items()}
    if args.trace:
        for name, value in values.items():
            shown.setdefault(name, (value, "us" if name.endswith("_us") else "s"))
    else:
        shown["error_rate"] = (info["error_rate"], "share")
    for name, (value, unit) in shown.items():
        print(f"{name:36s} {value:.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface: elicit, score, learn, sample, predict.

Every command is deterministic given identical inputs and seeds. Log scores
are printed in natural log and in base-10 scientific notation; ``--json``
emits a machine-readable report instead of text.

Exit codes: 0 success, 2 input or validation error, 3 capability limit.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import data, network, priors, scoring, search
from .errors import BgeLearnError, TooLargeError

LOG10 = math.log(10.0)


def _sci_from_log(ln_value: float) -> str:
    """Base-10 scientific notation of exp(ln_value), e.g. '3.506e-88'."""
    if ln_value == float("-inf"):
        return "0"
    log10 = ln_value / LOG10
    exponent = math.floor(log10)
    mantissa = 10.0 ** (log10 - exponent)
    if mantissa >= 9.9995:  # rounding bumped the mantissa into the next decade
        mantissa /= 10.0
        exponent += 1
    return f"{mantissa:.3f}e{exponent:+03d}"


def _g(x: float) -> str:
    return f"{float(x):.10g}"


def _emit(args, report: dict, text_lines: list[str]) -> None:
    if getattr(args, "json", False):
        print(json.dumps(report, indent=2))
    else:
        print("\n".join(text_lines))


def _edges_text(dag: network.Dag) -> str:
    names = [f"{p} -> {c}" for p, c in sorted(dag.edge_names())]
    return ", ".join(names) if names else "(no arcs)"


def cmd_elicit(args) -> int:
    spec = priors.load_prior_spec(args.prior_spec)
    prior = priors.elicit(spec)
    report = {
        "command": "elicit",
        "inputs": {"prior_spec": args.prior_spec},
        "variables": list(spec.prior_network.variables),
        "nu": prior.nu,
        "alpha": prior.alpha,
        "mu0": [float(x) for x in prior.mu0],
        "t0": [[float(x) for x in row] for row in prior.t0],
    }
    lines = [
        "variables: " + " ".join(spec.prior_network.variables),
        f"nu: {_g(prior.nu)}",
        f"alpha: {_g(prior.alpha)}",
        "mu0: " + " ".join(_g(x) for x in prior.mu0),
        "t0:",
    ]
    lines += ["  " + " ".join(_g(x) for x in row) for row in prior.t0]
    _emit(args, report, lines)
    return 0


def _load_scoring_inputs(args):
    d = data.load_csv(args.dataset)
    prior, names = priors.load_prior(args.prior_spec)
    if names is not None and tuple(names) != d.variables:
        raise BgeLearnError(
            f"prior variables {tuple(names)} do not match "
            f"dataset variables {d.variables}"
        )
    if prior.dim != d.width:
        raise BgeLearnError(
            f"prior dimension {prior.dim} does not match dataset width {d.width}"
        )
    return d, prior


def cmd_score(args) -> int:
    d, prior = _load_scoring_inputs(args)
    dag = network.load_structure(args.structure)
    result = scoring.Scorer(d, prior).score(dag)
    log10_total = result.log_marginal / LOG10
    report = {
        "command": "score",
        "inputs": {
            "dataset": args.dataset,
            "prior_spec": args.prior_spec,
            "structure": args.structure,
        },
        "scores": {
            "local": {
                name: float(term)
                for name, term in zip(dag.variables, result.local_terms)
            },
            "log_marginal": float(result.log_marginal),
            "log10_marginal": float(log10_total),
        },
    }
    lines = [
        f"dataset: {args.dataset} ({d.count} cases, {d.width} variables)",
        f"structure: {_edges_text(dag)}",
        "local scores (natural log):",
    ]
    for i, name in enumerate(dag.variables):
        parents = ", ".join(sorted(dag.variables[p] for p in dag.parents[i]))
        lines.append(f"  {name} | {{{parents}}}: {_g(result.local_terms[i])}")
    lines += [
        f"log marginal (ln): {_g(result.log_marginal)}",
        f"log marginal (log10): {_g(log10_total)}",
        f"marginal: {_sci_from_log(result.log_marginal)}",
    ]
    _emit(args, report, lines)
    return 0


def cmd_learn(args) -> int:
    d, prior = _load_scoring_inputs(args)
    policy = priors.StructurePrior(args.policy)
    if args.mode == "exhaustive":
        report_obj = search.exhaustive(d, prior, policy)
    else:
        report_obj = search.hill_climb(
            d,
            prior,
            max_iters=args.max_iters,
            restarts=args.restarts,
            seed=args.seed,
        )
    top = (
        report_obj.terminal
        if report_obj.terminal is not None
        else report_obj.best.unit.representative
    )
    dot = network.to_dot(top)
    ranking = []
    for rank, entry in enumerate(report_obj.ranked, start=1):
        ranking.append(
            {
                "rank": rank,
                "representative": [list(e) for e in sorted(entry.unit.representative.edge_names())],
                "class_size": entry.unit.size,
                "log_score": float(entry.log_score),
                "posterior": float(entry.posterior),
            }
        )
    report = {
        "command": "learn",
        "inputs": {
            "dataset": args.dataset,
            "prior_spec": args.prior_spec,
            "mode": args.mode,
            "policy": args.policy,
            "seed": args.seed,
            "restarts": args.restarts,
        },
        "ranking": ranking,
        "posteriors": [float(e.posterior) for e in report_obj.ranked],
        "trace": [
            {"kind": m.kind, "arc": list(m.arc), "delta": float(m.delta)}
            for m in report_obj.trace
        ],
        "evaluations": report_obj.evaluations,
        "dot": dot,
    }
    if report_obj.terminal is not None:
        report["terminal"] = [list(e) for e in sorted(report_obj.terminal.edge_names())]
    lines = [
        f"mode: {args.mode}",
        f"policy: {args.policy}",
        f"candidates ranked: {len(report_obj.ranked)}",
        "rank  size  log-score       posterior  structure",
    ]
    for entry in ranking:
        edges = ", ".join(f"{p} -> {c}" for p, c in entry["representative"]) or "(no arcs)"
        lines.append(
            f"{entry['rank']:<5d} {entry['class_size']:<5d} "
            f"{entry['log_score']:<15.6f} {entry['posterior']:<10.6f} {edges}"
        )
    if args.mode == "greedy" and report_obj.terminal is not None:
        lines.append(f"terminal: {_edges_text(report_obj.terminal)}")
    if args.trace and report_obj.trace:
        lines.append("trace:")
        for m in report_obj.trace:
            lines.append(f"  {m.kind} {m.arc[0]} -> {m.arc[1]} (delta {_g(m.delta)})")
    lines.append("top structure (DOT):")
    lines.append(dot.rstrip("\n"))
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(dot)
    _emit(args, report, lines)
    return 0


def cmd_sample(args) -> int:
    net = network.load_network(args.network)
    sampled = network.sample(net, args.count, args.seed)
    sys.stdout.write(data.to_csv(sampled))
    return 0


def cmd_predict(args) -> int:
    d, prior = _load_scoring_inputs(args)
    posterior = scoring.update_posterior(prior, data.stats(d)).as_prior()
    log_pred = scoring.log_predictive(posterior, args.values)
    report = {
        "command": "predict",
        "inputs": {"dataset": args.dataset, "prior_spec": args.prior_spec},
        "case": [float(v) for v in args.values],
        "scores": {
            "log_predictive": float(log_pred),
            "log10_predictive": float(log_pred / LOG10),
        },
    }
    lines = [
        "case: " + " ".join(_g(v) for v in args.values),
        f"log predictive (ln): {_g(log_pred)}",
        f"log predictive (log10): {_g(log_pred / LOG10)}",
        f"predictive density: {_sci_from_log(log_pred)}",
    ]
    _emit(args, report, lines)
    return 0


def _count(text: str) -> int:
    """An argparse type: a non-negative integer."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bgelearn",
        description="Score and learn Gaussian belief-network structures "
        "from complete continuous data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("elicit", help="turn a prior network into hyperparameters")
    p.add_argument("prior_spec", help="prior network JSON with nu and alpha")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_elicit)

    p = sub.add_parser("score", help="score one structure against data")
    p.add_argument("dataset", help="CSV case table")
    p.add_argument("prior_spec")
    p.add_argument("structure", help="structure JSON (parents per variable)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("learn", help="search for high-posterior structures")
    p.add_argument("dataset")
    p.add_argument("prior_spec")
    p.add_argument("--mode", choices=("exhaustive", "greedy"), default="exhaustive")
    p.add_argument(
        "--policy",
        choices=[e.value for e in priors.StructurePrior],
        default=priors.StructurePrior.UNIFORM_CLASSES.value,
    )
    p.add_argument("--restarts", type=_count, default=0)
    p.add_argument("--seed", type=_count, default=0)
    p.add_argument("--max-iters", type=_count, default=100)
    p.add_argument("--dot", help="also write the top structure to this DOT file")
    p.add_argument("--trace", action="store_true", help="print accepted moves")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_learn)

    p = sub.add_parser("sample", help="draw cases from a network as CSV")
    p.add_argument("network", help="network JSON")
    p.add_argument("--count", type=_count, default=20)
    p.add_argument("--seed", type=_count, default=0)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("predict", help="predictive density of a case after data")
    p.add_argument("dataset")
    p.add_argument("prior_spec")
    p.add_argument("values", type=float, nargs="+", help="one value per variable")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_predict)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except TooLargeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except BgeLearnError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

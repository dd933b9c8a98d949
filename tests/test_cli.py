import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bgelearn
from bgelearn.cli import main

from test_search import random_problem

FIXTURES = Path(__file__).resolve().parent / "fixtures"
NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:e[-+]?\d+)?")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def toy_predict_files(tmp_path):
    """A one-variable direct-form prior and a header-only dataset."""
    prior = tmp_path / "toy_prior.json"
    prior.write_text(
        json.dumps(
            {"nu": 1, "alpha": 2, "mu0": [0.0], "t0": [[1.0]], "variables": ["y"]}
        )
    )
    dataset = tmp_path / "empty.csv"
    dataset.write_text("y\n")
    return str(dataset), str(prior)


class TestElicit:
    def test_demo_prior_values(self, capsys, sample_dir):
        code, out, _ = run_cli(capsys, "elicit", str(sample_dir / "prior.json"))
        assert code == 0
        assert "1.714285714" in out
        assert "5.142857143" in out

    def test_json_output(self, capsys, sample_dir):
        code, out, _ = run_cli(
            capsys, "elicit", str(sample_dir / "prior.json"), "--json"
        )
        assert code == 0
        report = json.loads(out)
        assert report["command"] == "elicit"
        assert report["t0"][0][0] == pytest.approx(12 / 7)
        assert report["mu0"] == [0.1, -0.3, 0.2]

    def test_alpha_at_bound_fails_validation(self, capsys, tmp_path, sample_dir):
        spec = json.loads((sample_dir / "prior.json").read_text())
        spec["alpha"] = 4  # n + 1 for three variables
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(spec))
        code, _, err = run_cli(capsys, "elicit", str(bad))
        assert code == 2
        assert "alpha must exceed n + 1" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "elicit", str(tmp_path / "nowhere.json"))
        assert code == 2
        assert err


class TestScore:
    def test_chain_report(self, capsys, sample_dir):
        code, out, _ = run_cli(
            capsys,
            "score",
            str(sample_dir / "cases.csv"),
            str(sample_dir / "prior.json"),
            str(sample_dir / "chain.json"),
        )
        assert code == 0
        assert "log marginal (ln):" in out
        assert "log marginal (log10):" in out
        assert "e-" in out  # scientific notation present

    def test_json_totals_recompute_from_parts(self, capsys, sample_dir):
        code, out, _ = run_cli(
            capsys,
            "score",
            str(sample_dir / "cases.csv"),
            str(sample_dir / "prior.json"),
            str(sample_dir / "chain.json"),
            "--json",
        )
        assert code == 0
        report = json.loads(out)
        scores = report["scores"]
        assert sum(scores["local"].values()) == pytest.approx(
            scores["log_marginal"], abs=1e-12
        )
        assert scores["log10_marginal"] == pytest.approx(
            scores["log_marginal"] / math.log(10), abs=1e-12
        )

    def test_unknown_variable_in_structure(self, capsys, sample_dir, tmp_path):
        bad = tmp_path / "bad_structure.json"
        bad.write_text(
            json.dumps({"variables": [{"name": "zz", "parents": []}]})
        )
        code, _, err = run_cli(
            capsys,
            "score",
            str(sample_dir / "cases.csv"),
            str(sample_dir / "prior.json"),
            str(bad),
        )
        assert code == 2
        assert err


class TestLearn:
    def test_exhaustive_demo(self, capsys, sample_dir, tmp_path):
        dot_path = tmp_path / "top.dot"
        code, out, _ = run_cli(
            capsys,
            "learn",
            str(sample_dir / "cases.csv"),
            str(sample_dir / "prior.json"),
            "--dot",
            str(dot_path),
        )
        assert code == 0
        lines = out.splitlines()
        ranked = [ln for ln in lines if ln[:2].strip().isdigit()]
        assert len(ranked) == 11
        assert "x1 -> x2, x2 -> x3" in ranked[0]
        dot = dot_path.read_text()
        assert '"x1" -> "x2";' in dot and '"x2" -> "x3";' in dot

    def test_greedy_matches_exhaustive_top(self, capsys, sample_dir):
        code, out, _ = run_cli(
            capsys,
            "learn",
            str(sample_dir / "cases.csv"),
            str(sample_dir / "prior.json"),
            "--mode",
            "greedy",
            "--trace",
            "--json",
        )
        assert code == 0
        report = json.loads(out)
        assert report["ranking"][0]["representative"] == [["x1", "x2"], ["x2", "x3"]]
        assert report["trace"]  # accepted moves recorded
        assert all(step["delta"] > 0 for step in report["trace"])

    def test_json_posteriors_normalize(self, capsys, sample_dir):
        code, out, _ = run_cli(
            capsys,
            "learn",
            str(sample_dir / "cases.csv"),
            str(sample_dir / "prior.json"),
            "--json",
        )
        report = json.loads(out)
        assert code == 0
        assert sum(report["posteriors"]) == pytest.approx(1.0, abs=1e-12)
        assert report["posteriors"] == [
            entry["posterior"] for entry in report["ranking"]
        ]

    @pytest.mark.parametrize("policy", ["uniform-classes", "uniform-structures"])
    def test_exhaustive_text_is_pinned(self, capsys, sample_dir, policy):
        # The fixtures are the text reports of an earlier release; the text
        # rounds scores to 6 decimals, so they do not depend on the BLAS build.
        code, out, _ = run_cli(
            capsys,
            "learn",
            str(sample_dir / "cases.csv"),
            str(sample_dir / "prior.json"),
            "--policy",
            policy,
        )
        assert code == 0
        expected = FIXTURES / f"learn_demo_{policy}.txt"
        assert out == expected.read_text(encoding="utf-8")

    def test_exhaustive_cap_exit_code(self, capsys, tmp_path):
        header = ",".join(f"v{i}" for i in range(7))
        row = ",".join("0.0" for _ in range(7))
        dataset = tmp_path / "wide.csv"
        dataset.write_text(f"{header}\n{row}\n{row}\n")
        prior = tmp_path / "prior.json"
        prior.write_text(
            json.dumps(
                {
                    "nu": 6,
                    "alpha": 10,
                    "mu0": [0.0] * 7,
                    "t0": [[1.0 if i == j else 0.0 for j in range(7)] for i in range(7)],
                }
            )
        )
        code, _, err = run_cli(capsys, "learn", str(dataset), str(prior))
        assert code == 3
        assert "exhaustive" in err


class TestSample:
    def test_zero_count_header_only(self, capsys, sample_dir):
        code, out, _ = run_cli(
            capsys, "sample", str(sample_dir / "generator.json"), "--count", "0"
        )
        assert code == 0
        assert out == "x1,x2,x3\n"

    def test_shape_matches_demo_table(self, capsys, sample_dir):
        code, out, _ = run_cli(
            capsys,
            "sample",
            str(sample_dir / "generator.json"),
            "--count",
            "20",
            "--seed",
            "7",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x1,x2,x3"
        assert len(lines) == 21
        assert all(len(ln.split(",")) == 3 for ln in lines[1:])

    def test_seeded_runs_identical(self, capsys, sample_dir):
        _, first, _ = run_cli(
            capsys, "sample", str(sample_dir / "generator.json"), "--seed", "3"
        )
        _, second, _ = run_cli(
            capsys, "sample", str(sample_dir / "generator.json"), "--seed", "3"
        )
        assert first == second
        _, third, _ = run_cli(
            capsys, "sample", str(sample_dir / "generator.json"), "--seed", "4"
        )
        assert third != first

    def test_invalid_network_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "net.json"
        bad.write_text(json.dumps({"variables": [{"name": "a", "mean": 0.0}]}))
        code, _, err = run_cli(capsys, "sample", str(bad))
        assert code == 2
        assert err


class TestPredict:
    def test_toy_case(self, capsys, toy_predict_files):
        dataset, prior = toy_predict_files
        code, out, _ = run_cli(capsys, "predict", dataset, prior, "0.0")
        assert code == 0
        value = float(
            [ln for ln in out.splitlines() if ln.startswith("log predictive (ln)")][0]
            .split(":")[1]
        )
        assert value == pytest.approx(-1.5 * math.log(2.0), abs=1e-9)
        assert math.exp(value) == pytest.approx(0.3536, rel=1e-3)

    def test_density_falls_away_from_center(self, capsys, sample_dir):
        args = [
            "predict",
            str(sample_dir / "cases.csv"),
            str(sample_dir / "prior.json"),
            "--json",
        ]
        _, near_out, _ = run_cli(capsys, *args[:-1], "0.5", "-0.4", "-0.8", "--json")
        _, far_out, _ = run_cli(capsys, *args[:-1], "5.0", "5.0", "5.0", "--json")
        near = json.loads(near_out)["scores"]["log_predictive"]
        far = json.loads(far_out)["scores"]["log_predictive"]
        assert near > far

    def test_wrong_arity(self, capsys, sample_dir):
        code, _, err = run_cli(
            capsys,
            "predict",
            str(sample_dir / "cases.csv"),
            str(sample_dir / "prior.json"),
            "0.0",
        )
        assert code == 2
        assert err


def assert_numbers_match(actual: str, expected: str, zero: float) -> None:
    """Compare two reports number by number at the precision the text
    prints (10 significant digits), reading any number below ``zero`` in
    magnitude as 0; everything between the numbers must match exactly."""

    def rounded(text):
        return [
            "0" if abs(float(tok)) < zero else f"{float(tok):.10g}"
            for tok in NUMBER.findall(text)
        ]

    assert NUMBER.sub("#", actual) == NUMBER.sub("#", expected)
    assert rounded(actual) == rounded(expected)


class TestPinnedDemoReports:
    # Not byte for byte: t0[0, 1] of the elicited demo prior is 0 in exact
    # arithmetic and prints as rounding noise near 2e-16 whose value depends
    # on the LAPACK build, and --json prints full float precision.
    @pytest.mark.parametrize(
        "argv, fixture",
        [
            (("elicit", "prior.json"), "elicit_demo.txt"),
            (("elicit", "prior.json", "--json"), "elicit_demo.json"),
            (("predict", "cases.csv", "prior.json", "0.5", "-0.4", "-0.8"), "predict_demo.txt"),
            (
                ("predict", "cases.csv", "prior.json", "0.5", "-0.4", "-0.8", "--json"),
                "predict_demo.json",
            ),
        ],
    )
    def test_demo_report_is_pinned(
        self, capsys, monkeypatch, sample_dir, demo_prior, argv, fixture
    ):
        monkeypatch.chdir(sample_dir)  # the fixtures record relative input paths
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        zero = 1e-12 * float(abs(demo_prior.t0).max())
        expected = (FIXTURES / fixture).read_text(encoding="utf-8")
        assert_numbers_match(out, expected, zero)

    def test_comparison_rejects_a_changed_digit(self):
        assert_numbers_match("t0: 1.714285714 2e-16", "t0: 1.714285714 -3e-16", 1e-12)
        with pytest.raises(AssertionError):
            assert_numbers_match("t0: 1.714285715 0", "t0: 1.714285714 0", 1e-12)
        with pytest.raises(AssertionError):
            assert_numbers_match("t0: 2e-12", "t0: 0", 1e-12)


# Runs every CLI command on the demo inputs in a fresh interpreter, then
# prints the scipy modules it loaded; the runtime needs numpy alone.
NO_SCIPY_PROBE = """\
import contextlib, io, sys
import bgelearn, bgelearn.cli
s = sys.argv[1]
runs = [
    ["elicit", f"{s}/prior.json"],
    ["score", f"{s}/cases.csv", f"{s}/prior.json", f"{s}/chain.json"],
    ["learn", f"{s}/cases.csv", f"{s}/prior.json"],
    ["learn", f"{s}/cases.csv", f"{s}/prior.json", "--mode", "greedy", "--restarts", "2"],
    ["predict", f"{s}/cases.csv", f"{s}/prior.json", "0.5", "-0.4", "-0.8"],
    ["sample", f"{s}/generator.json", "--count", "5"],
]
for argv in runs:
    with contextlib.redirect_stdout(io.StringIO()):
        if bgelearn.cli.main(argv) != 0:
            sys.exit(f"{argv[0]} failed")
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def run_python(*args) -> subprocess.CompletedProcess:
    """Run a fresh interpreter that imports this checkout's ``bgelearn``."""
    src = str(Path(bgelearn.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_cli_never_imports_scipy(sample_dir):
    done = run_python("-c", NO_SCIPY_PROBE, str(sample_dir))
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def with_parents(tmp_path, source: Path, variable: str, parents) -> Path:
    """A copy of the JSON document ``source`` in which ``variable`` has the
    given ``parents`` entry."""
    doc = json.loads(source.read_text())
    for entry in doc["variables"]:
        if entry["name"] == variable:
            entry["parents"] = parents
    out = tmp_path / source.name
    out.write_text(json.dumps(doc))
    return out


def with_field(tmp_path, source: Path, key: str, value) -> Path:
    """A copy of the JSON document ``source`` with top-level ``key`` set to
    ``value``."""
    doc = json.loads(source.read_text())
    doc[key] = value
    out = tmp_path / source.name
    out.write_text(json.dumps(doc))
    return out


# Command lines with one malformed value each, built from the demo inputs.
MALFORMED = {
    "learn --seed -1": lambda s, t: [
        "learn", s / "cases.csv", s / "prior.json", "--mode", "greedy", "--seed", "-1"
    ],
    "sample --seed -1": lambda s, t: ["sample", s / "generator.json", "--seed", "-1"],
    "elicit nu 0": lambda s, t: ["elicit", with_field(t, s / "prior.json", "nu", 0)],
    "score nu 0": lambda s, t: [
        "score", s / "cases.csv", with_field(t, s / "prior.json", "nu", 0), s / "chain.json"
    ],
    "learn nu 0": lambda s, t: [
        "learn", s / "cases.csv", with_field(t, s / "prior.json", "nu", 0)
    ],
    "predict nu 0": lambda s, t: [
        "predict", s / "cases.csv", with_field(t, s / "prior.json", "nu", 0),
        "0.5", "-0.4", "-0.8",
    ],
    "learn --restarts -1": lambda s, t: [
        "learn", s / "cases.csv", s / "prior.json", "--mode", "greedy", "--restarts", "-1"
    ],
    "learn --max-iters -1": lambda s, t: [
        "learn", s / "cases.csv", s / "prior.json", "--mode", "greedy", "--max-iters", "-1"
    ],
    "sample --count -1": lambda s, t: ["sample", s / "generator.json", "--count", "-1"],
    "structure parent without a name": lambda s, t: [
        "score", s / "cases.csv", s / "prior.json",
        with_parents(t, s / "chain.json", "x2", [{"coeff": 1}]),
    ],
    "structure parents not a list": lambda s, t: [
        "score", s / "cases.csv", s / "prior.json",
        with_parents(t, s / "chain.json", "x2", 5),
    ],
    "prior spec parents not a list": lambda s, t: [
        "elicit", with_parents(t, s / "prior.json", "x3", 5)
    ],
    "network parents not a list": lambda s, t: [
        "sample", with_parents(t, s / "generator.json", "x2", 5)
    ],
}


@pytest.mark.parametrize("case", list(MALFORMED))
def test_malformed_input_exits_2_without_traceback(sample_dir, tmp_path, case):
    argv = [str(a) for a in MALFORMED[case](sample_dir, tmp_path)]
    done = run_python("-m", "bgelearn.cli", *argv)
    assert done.returncode == 2, done.stderr
    assert "Traceback" not in done.stderr
    assert done.stderr


class TestDeterminism:
    @pytest.mark.parametrize("json_flag", [(), ("--json",)])
    def test_learn_byte_identical(self, capsys, sample_dir, json_flag):
        argv = [
            "learn",
            str(sample_dir / "cases.csv"),
            str(sample_dir / "prior.json"),
            "--mode",
            "greedy",
            "--restarts",
            "2",
            "--seed",
            "11",
            *json_flag,
        ]
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second


def write_greedy_problem(folder: Path, n: int, seed: int, count: int = 1000) -> None:
    """The cases of ``random_problem(n, seed, count)`` as ``data.csv``, and
    the direct prior ``mu0 = 0, t0 = (n + 2) I, nu = 1, alpha = n + 2`` as
    ``prior.json``."""
    d, _ = random_problem(n, seed, count)
    names = list(d.variables)
    with open(folder / "data.csv", "w", encoding="utf-8") as fh:
        fh.write(",".join(names) + "\n")
        np.savetxt(fh, d.cases, fmt="%.17g", delimiter=",")
    prior = {
        "variables": names,
        "mu0": [0.0] * n,
        "t0": (float(n + 2) * np.eye(n)).tolist(),
        "nu": 1.0,
        "alpha": float(n + 2),
    }
    (folder / "prior.json").write_text(json.dumps(prior), encoding="utf-8")


class TestPinnedGreedyReports:
    # sha256 of the whole output, recorded with the full-rescan climb before
    # the incremental one replaced it (numpy 2.4 with OpenBLAS on x86-64; a
    # LAPACK build that rounds differently changes --json's full-precision
    # floats). The n = 30 climbs converge in 75 moves; the n = 60 ones stop at
    # the default 100.
    @pytest.mark.parametrize(
        "n, seed, flags, digest",
        [
            pytest.param(
                30, 3, ("--json",),
                "a47190b06056a55ca106f9d0b83d6333851cba01981ff2c5860dbf934f260a6e",
                id="n30-json",
            ),
            pytest.param(
                30, 3, ("--restarts", "2", "--trace"),
                "51c3a5e6610ae3ea811adddbd25808e03ac43337a7ee7067a9446575894a5bc0",
                id="n30-restarts-trace",
            ),
            pytest.param(
                60, 6, ("--json",),
                "8e43a7ad7e5276d57e95cd732718f32f858d78e86596f279649d92feffdc02a4",
                id="n60-json",
            ),
            pytest.param(
                60, 6, ("--restarts", "2", "--trace"),
                "ba4ef9d5feea40061efd88783d0ee38bb9a7f36b152dc0e5243afd275f5acf37",
                id="n60-restarts-trace",
            ),
        ],
    )
    def test_greedy_report_is_pinned(
        self, capsys, monkeypatch, tmp_path, n, seed, flags, digest
    ):
        write_greedy_problem(tmp_path, n, seed)
        monkeypatch.chdir(tmp_path)  # the reports record relative input paths
        code, out, _ = run_cli(
            capsys, "learn", "data.csv", "prior.json", "--mode", "greedy", *flags
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

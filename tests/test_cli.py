import json
import math
from pathlib import Path

import pytest

from bgelearn.cli import main

FIXTURES = Path(__file__).resolve().parent / "fixtures"


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

import math

import numpy as np
import pytest

from bgelearn.data import Dataset, load_csv, project, stats, to_csv
from bgelearn.errors import (
    DataParseError,
    DuplicateVariableError,
    MissingValueError,
    UnknownVariableError,
)
from bgelearn.linalg import spd_factor, submatrix


class TestLoadCsv:
    def test_demo_table(self, demo_dataset):
        assert demo_dataset.count == 20
        assert demo_dataset.variables == ("x1", "x2", "x3")
        assert demo_dataset.cases[0, 0] == -0.78

    def test_header_only(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("a,b\n")
        d = load_csv(p)
        assert d.count == 0
        assert d.variables == ("a", "b")

    def test_empty_cell_is_missing_value(self, tmp_path):
        p = tmp_path / "gap.csv"
        p.write_text("a,b\n1.0,\n")
        with pytest.raises(MissingValueError) as err:
            load_csv(p)
        assert err.value.row == 1
        assert err.value.column == "b"

    def test_nan_cell_is_missing_value(self, tmp_path):
        p = tmp_path / "nan.csv"
        p.write_text("a\nnan\n")
        with pytest.raises(MissingValueError):
            load_csv(p)

    def test_non_numeric_cell(self, tmp_path):
        p = tmp_path / "text.csv"
        p.write_text("a\nhello\n")
        with pytest.raises(DataParseError):
            load_csv(p)

    def test_ragged_row(self, tmp_path):
        p = tmp_path / "ragged.csv"
        p.write_text("a,b\n1.0\n")
        with pytest.raises(DataParseError):
            load_csv(p)

    def test_duplicate_header(self, tmp_path):
        p = tmp_path / "dup.csv"
        p.write_text("a,a\n1,2\n")
        with pytest.raises(DuplicateVariableError):
            load_csv(p)

    def test_comments_crlf_and_scientific_notation(self, tmp_path):
        p = tmp_path / "mixed.csv"
        p.write_bytes(b"# generated\r\na,b\r\n1e-3, 2.5E+1 \r\n# trailing\r\n")
        d = load_csv(p)
        assert d.count == 1
        np.testing.assert_allclose(d.cases[0], [1e-3, 25.0])

    def test_csv_roundtrip(self, demo_dataset, tmp_path):
        p = tmp_path / "again.csv"
        p.write_text(to_csv(demo_dataset))
        again = load_csv(p)
        np.testing.assert_array_equal(again.cases, demo_dataset.cases)
        assert again.variables == demo_dataset.variables


class TestProject:
    def test_single_column(self, demo_dataset):
        col = project(demo_dataset, ["x2"])
        assert col.variables == ("x2",)
        np.testing.assert_allclose(col.cases[:2, 0], [-1.55, -3.04])

    def test_identity_projection(self, demo_dataset):
        same = project(demo_dataset, list(demo_dataset.variables))
        np.testing.assert_array_equal(same.cases, demo_dataset.cases)

    def test_empty_projection(self, demo_dataset):
        empty = project(demo_dataset, [])
        assert empty.count == 20
        assert empty.width == 0

    def test_reorder(self, demo_dataset):
        flipped = project(demo_dataset, ["x3", "x1"])
        np.testing.assert_array_equal(flipped.cases[:, 0], demo_dataset.cases[:, 2])

    def test_unknown_variable(self, demo_dataset):
        with pytest.raises(UnknownVariableError):
            project(demo_dataset, ["x9"])


class TestStats:
    def test_demo_mean(self, demo_dataset):
        s = stats(demo_dataset)
        # independent oracle: fsum of the column over the case count
        oracle = math.fsum(demo_dataset.cases[:, 0]) / 20
        assert oracle == pytest.approx(0.5095, abs=1e-12)
        assert s.mean[0] == pytest.approx(oracle, abs=1e-14)

    def test_single_case_zero_scatter(self):
        d = Dataset(("a", "b"), np.array([[3.0, -1.0]]))
        s = stats(d)
        np.testing.assert_array_equal(s.scatter, np.zeros((2, 2)))
        np.testing.assert_array_equal(s.mean, [3.0, -1.0])

    def test_empty_dataset(self):
        d = Dataset(("a",), np.empty((0, 1)))
        s = stats(d)
        assert s.count == 0
        np.testing.assert_array_equal(s.mean, [0.0])
        np.testing.assert_array_equal(s.scatter, [[0.0]])

    def test_projection_commutes_exactly(self, demo_dataset):
        full = stats(demo_dataset)
        for subset in (["x2"], ["x1", "x3"], ["x3", "x2"], ["x1", "x2", "x3"]):
            idx = [demo_dataset.variables.index(n) for n in subset]
            sub = stats(project(demo_dataset, subset))
            np.testing.assert_array_equal(sub.mean, full.mean[idx])
            np.testing.assert_array_equal(sub.scatter, submatrix(full.scatter, idx))

    def test_scatter_positive_semidefinite(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            m, n = int(rng.integers(2, 40)), int(rng.integers(1, 6))
            d = Dataset(tuple(f"v{i}" for i in range(n)), rng.normal(size=(m, n)))
            s = stats(d)
            # full-rank data: scatter must factor once nudged into PD range
            spd_factor(s.scatter + 1e-9 * np.eye(n))
            assert np.all(np.linalg.eigvalsh(s.scatter) > -1e-10)

    def test_row_order_invariance(self, demo_dataset):
        rng = np.random.default_rng(13)
        perm = rng.permutation(demo_dataset.count)
        shuffled = Dataset(demo_dataset.variables, demo_dataset.cases[perm])
        a, b = stats(demo_dataset), stats(shuffled)
        np.testing.assert_allclose(a.mean, b.mean, atol=1e-14)
        np.testing.assert_allclose(a.scatter, b.scatter, atol=1e-12)


class TestDatasetInvariants:
    def test_non_finite_cell_rejected(self):
        with pytest.raises(MissingValueError):
            Dataset(("a",), np.array([[np.nan]]))

    def test_cases_are_read_only(self, demo_dataset):
        with pytest.raises(ValueError):
            demo_dataset.cases[0, 0] = 1.0

"""Complete continuous case tables and their sufficient statistics."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import (
    DataParseError,
    DuplicateVariableError,
    MissingValueError,
    UnknownVariableError,
)


@dataclass(frozen=True, eq=False)
class Dataset:
    """An m x n table of fully observed continuous cases.

    Immutable after construction; every cell must be finite. Rows keep file
    order, columns follow ``variables``.
    """

    variables: tuple[str, ...]
    cases: np.ndarray = field(repr=False)

    def __post_init__(self):
        names = tuple(str(v) for v in self.variables)
        if len(set(names)) != len(names):
            raise DuplicateVariableError(f"duplicate variable name in {names}")
        cases = np.array(self.cases, dtype=float)
        if cases.size == 0:
            # reshape(-1, ...) cannot infer the row count of an empty table
            rows = cases.shape[0] if cases.ndim == 2 else 0
            cases = cases.reshape(rows, len(names))
        else:
            cases = cases.reshape(-1, len(names))
        bad = np.argwhere(~np.isfinite(cases))
        if bad.size:
            r, c = bad[0]
            raise MissingValueError(int(r) + 1, names[int(c)])
        cases.flags.writeable = False
        object.__setattr__(self, "variables", names)
        object.__setattr__(self, "cases", cases)

    @property
    def count(self) -> int:
        return self.cases.shape[0]

    @property
    def width(self) -> int:
        return len(self.variables)

    def column_index(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise UnknownVariableError(
                f"unknown variable {name!r}; have {self.variables}"
            ) from None


@dataclass(frozen=True, eq=False)
class SufficientStats:
    """Case count, sample mean, and centered scatter matrix of a dataset."""

    count: int
    mean: np.ndarray
    scatter: np.ndarray


def load_csv(path) -> Dataset:
    """Load a complete dataset from a CSV file.

    First non-comment row is the header; lines starting with ``#`` are
    skipped. Cells must be decimal or scientific-notation numbers; an empty
    or non-finite cell raises :class:`MissingValueError` naming the offending
    row and column.
    """
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        rows = [row for row in csv.reader(fh) if row and not row[0].lstrip().startswith("#")]
    if not rows:
        raise DataParseError(f"{path}: no header row")
    header = [cell.strip() for cell in rows[0]]
    if any(not name for name in header):
        raise DataParseError(f"{path}: empty variable name in header")
    if len(set(header)) != len(header):
        raise DuplicateVariableError(f"{path}: duplicate variable name in header")
    cases = np.empty((len(rows) - 1, len(header)))
    for r, row in enumerate(rows[1:], start=1):
        if len(row) != len(header):
            raise DataParseError(
                f"{path}: row {r} has {len(row)} cells, expected {len(header)}"
            )
        for c, cell in enumerate(row):
            text = cell.strip()
            if not text:
                raise MissingValueError(r, header[c])
            try:
                value = float(text)
            except ValueError:
                raise DataParseError(
                    f"{path}: row {r}, column {header[c]!r}: not a number: {text!r}"
                ) from None
            if math.isnan(value):
                raise MissingValueError(r, header[c])
            if math.isinf(value):
                raise DataParseError(
                    f"{path}: row {r}, column {header[c]!r}: non-finite value"
                )
            cases[r - 1, c] = value
    return Dataset(tuple(header), cases)


def to_csv(d: Dataset) -> str:
    """Render a dataset as CSV text (header plus one line per case)."""
    lines = [",".join(d.variables)]
    for row in d.cases:
        lines.append(",".join(repr(float(x)) for x in row))
    return "\n".join(lines) + "\n"


def project(d: Dataset, subset: Sequence[str]) -> Dataset:
    """Restrict and reorder columns to ``subset``; rows are unchanged.

    The empty subset is legal and yields an m x 0 dataset, whose marginal
    density is defined as 1.
    """
    idx = [d.column_index(name) for name in subset]
    return Dataset(tuple(subset), d.cases[:, idx])


def stats(d: Dataset) -> SufficientStats:
    """Sample mean and centered scatter of a dataset.

    Two-pass: mean first, then the scatter of the centered rows, which keeps
    the arithmetic of each entry identical under column projection (so
    restricting stats commutes exactly with projecting the data). The mean of
    an empty dataset is the zero vector. Not memoized: each command computes
    the stats of its dataset once, and a :class:`~bgelearn.scoring.Scorer`
    keeps what it needs of them.
    """
    m, n = d.cases.shape
    # math.fsum is exactly rounded, so each entry depends only on its own
    # column values, never on array layout or summation order; that is what
    # makes restriction of the full stats bit-identical to projecting first.
    if m == 0:
        mean = np.zeros(n)
    else:
        mean = np.array([math.fsum(d.cases[:, j].tolist()) / m for j in range(n)])
    centered = d.cases - mean
    scatter = np.empty((n, n))
    for i in range(n):
        for j in range(i, n):
            scatter[i, j] = scatter[j, i] = math.fsum(
                (centered[:, i] * centered[:, j]).tolist()
            )
    return SufficientStats(m, mean, scatter)

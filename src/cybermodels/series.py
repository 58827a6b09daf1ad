"""Tabular (x, column...) series: the common output of sweeps and simulations."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np


def format_value(value) -> str:
    """Render a CSV cell: 12 significant digits for floats, bare ints, true/false."""
    if isinstance(value, float):  # the common case first; np.float64 is a float
        return f"{value:.12g}"
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, np.floating):
        return f"{float(value):.12g}"
    return str(value)


def rows_to_csv(header: list[str], rows: Iterable[Sequence]) -> str:
    """CSV text: header row then formatted rows, LF line endings."""
    lines = [",".join(header)]
    lines.extend(",".join(map(format_value, row)) for row in rows)
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class CurveSeries:
    """Named equal-length numeric columns; ``x_label`` names the (strictly
    increasing) abscissa column."""

    columns: dict[str, np.ndarray]
    x_label: str
    units: str = ""

    def __post_init__(self):
        if not self.columns:
            raise ValueError("CurveSeries needs at least one column")
        cols = {name: np.asarray(vals, dtype=float) for name, vals in self.columns.items()}
        lengths = {v.shape[0] for v in cols.values()}
        if len(lengths) != 1:
            raise ValueError(f"CurveSeries columns have mismatched lengths: {sorted(lengths)}")
        if self.x_label not in cols:
            raise ValueError(f"x column {self.x_label!r} is not among the columns")
        x = cols[self.x_label]
        if x.shape[0] > 1 and not np.all(np.diff(x) > 0):
            raise ValueError(f"x column {self.x_label!r} must be strictly increasing")
        object.__setattr__(self, "columns", cols)

    def __len__(self) -> int:
        return next(iter(self.columns.values())).shape[0]

    @property
    def x(self) -> np.ndarray:
        return self.columns[self.x_label]

    def column(self, name: str) -> np.ndarray:
        return self.columns[name]

    def to_csv(self) -> str:
        return rows_to_csv(
            list(self.columns), zip(*(col.tolist() for col in self.columns.values()))
        )

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(self.to_csv())

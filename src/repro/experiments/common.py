"""Shared experiment machinery: result containers and text rendering.

Every experiment module exposes ``run(**knobs) -> ExperimentResult``;
benchmarks and tests call it directly.  ``hirep-experiments``
(:mod:`repro.experiments.runner`) is the one command-line entry point: it
schedules each experiment's jobs and prints the assembled result the way
the paper's figure/table reads (series of points, or labelled rows).
Only ``table1`` keeps a ``main()``, which prints its parameter table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["Series", "ExperimentResult", "format_table", "squared_errors"]


@dataclass
class Series:
    """One named curve of an experiment figure."""

    name: str
    x: list[float]
    y: list[float]

    def __post_init__(self) -> None:
        if len(self.x) != len(self.y):
            raise ValueError(
                f"series {self.name!r}: len(x)={len(self.x)} != len(y)={len(self.y)}"
            )

    def final(self) -> float:
        """Last y value (e.g. cumulative total at the end of the run)."""
        return self.y[-1]

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return np.asarray(self.x, dtype=np.float64), np.asarray(self.y, dtype=np.float64)


@dataclass
class ExperimentResult:
    """The regenerated figure/table: series plus free-form findings."""

    experiment_id: str
    title: str
    x_label: str
    y_label: str
    series: list[Series] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    scalars: dict[str, float] = field(default_factory=dict)

    def get(self, name: str) -> Series:
        for s in self.series:
            if s.name == name:
                return s
        raise KeyError(f"no series named {name!r} in {self.experiment_id}")

    def note(self, text: str) -> None:
        self.notes.append(text)

    def render(self, points: int = 11) -> str:
        """Plain-text rendering: a column per series, downsampled."""
        lines = [f"== {self.experiment_id}: {self.title} =="]
        lines.append(f"   x = {self.x_label};  y = {self.y_label}")
        if self.series:
            # Use the densest series' x grid for display.
            ref = max(self.series, key=lambda s: len(s.x))
            idx = np.unique(
                np.linspace(0, len(ref.x) - 1, min(points, len(ref.x)))
                .round()
                .astype(int)
            )
            header = ["x".rjust(10)] + [s.name.rjust(14) for s in self.series]
            lines.append(" ".join(header))
            for i in idx:
                xv = ref.x[int(i)]
                row = [f"{xv:10.4g}"]
                for s in self.series:
                    yv = _value_at(s, xv)
                    row.append(f"{yv:14.6g}" if yv == yv else " " * 13 + "-")
                lines.append(" ".join(row))
        for key, value in self.scalars.items():
            lines.append(f"   {key} = {value:.6g}")
        for note in self.notes:
            lines.append(f"   note: {note}")
        return "\n".join(lines)


def _value_at(series: Series, x: float) -> float:
    """y at the largest series x not exceeding ``x`` (NaN before start)."""
    xs, ys = series.as_arrays()
    pos = int(np.searchsorted(xs, x, side="right")) - 1
    if pos < 0:
        return float("nan")
    return float(ys[pos])


def format_table(
    headers: list[str], rows: list[tuple], title: str | None = None
) -> str:
    """Fixed-width text table used by the table1 and robustness outputs."""
    cols = len(headers)
    cells = [[str(c) for c in row] for row in rows]
    widths = [
        max(len(headers[i]), max((len(r[i]) for r in cells), default=0))
        for i in range(cols)
    ]
    lines = []
    if title:
        lines.append(f"== {title} ==")
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def squared_errors(cell: dict) -> list[float]:
    """A campaign cell's per-transaction squared errors (``None`` -> NaN).

    A list, not an array: a window's ``np.mean`` over a slice of it is the
    same float the live system's ``MSETracker`` reports for that window.
    """
    return [math.nan if v is None else v for v in cell["trace"]["squared_errors"]]

"""Deterministic CSV/JSON writers for run artefacts.

All real numbers are written with six decimal places so that identical runs
produce byte-identical files.
"""

from __future__ import annotations

import json
from dataclasses import astuple, fields
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ConfigurationError
from .landscape import LandscapeGrid
from .metrics import OUTPUT_METRICS, RunSummary, Trajectory, is_integer_column
from .sensitivity import SaltelliDesign, SobolIndices

_MAP_HEADER = "x,y,aft_id"


def fmt(x: float) -> str:
    return f"{float(x):.6f}"


def _integer(x: int) -> str:
    return str(int(x))


def _writers(cls) -> dict[str, Callable[[object], str]]:
    """Each field's column name and writer, in field order."""
    return {f.name: _integer if is_integer_column(f) else fmt for f in fields(cls)}


# A run's key columns lead its summary columns in metrics.csv and sweep.csv.
_SUMMARY = _writers(RunSummary)
_METRICS = {"run_id": str, "seed": _integer, **_SUMMARY}


def _csv_text(writers: dict[str, Callable[[object], str]], rows: Iterable[Sequence]) -> str:
    """Header of column names, then one line per row of values in column order."""
    lines = [",".join(writers)]
    lines += [",".join(w(v) for w, v in zip(writers.values(), row)) for row in rows]
    return "\n".join(lines) + "\n"


def _cell_csv_text(header: str, line: str, grid: LandscapeGrid, *columns: np.ndarray) -> str:
    """Header, then one ``line.format(x, y, *values)`` per cell in row-major order."""
    xs = np.tile(np.arange(grid.width), grid.height).tolist()
    ys = np.repeat(np.arange(grid.height), grid.width).tolist()
    lines = map(line.format, xs, ys, *(column.tolist() for column in columns))
    return "\n".join([header, *lines]) + "\n"


def write_capitals_csv(path: str | Path, grid: LandscapeGrid) -> None:
    text = _cell_csv_text("x,y,c_prod,c_nat", "{},{},{:.6f},{:.6f}", grid, grid.c_prod, grid.c_nat)
    Path(path).write_text(text)


def write_map_csv(path: str | Path, grid: LandscapeGrid) -> None:
    Path(path).write_text(_cell_csv_text(_MAP_HEADER, "{},{},{}", grid, grid.aft_id))


def read_map_csv(path: str | Path) -> tuple[int, int, np.ndarray]:
    """Read a land-use map back; rows must cover the grid in row-major order."""
    path = Path(path)
    if not path.exists():
        raise ConfigurationError(f"map file not found: {path}")
    lines = path.read_text().strip().splitlines()
    if not lines or lines[0].strip() != _MAP_HEADER:
        raise ConfigurationError(f"{path}: expected header {_MAP_HEADER!r}")
    if len(lines) == 1:
        raise ConfigurationError(f"{path}: the map has no rows")
    xs, ys, ids = [], [], []
    for lineno, ln in enumerate(lines[1:], start=2):
        try:
            px, py, pid = (int(v) for v in ln.split(","))
        except ValueError:
            raise ConfigurationError(
                f"{path}, line {lineno}: expected three integers {_MAP_HEADER}, got {ln!r}"
            ) from None
        xs.append(px)
        ys.append(py)
        ids.append(pid)
    width, height = max(xs) + 1, max(ys) + 1
    if len(ids) != width * height:
        raise ConfigurationError(f"{path}: expected {width * height} rows, got {len(ids)}")
    expected = np.arange(width * height)
    actual = np.asarray(ys) * width + np.asarray(xs)
    if not np.array_equal(expected, actual):
        raise ConfigurationError(f"{path}: rows are not in row-major order")
    return width, height, np.asarray(ids, dtype=np.int64)


def write_trajectory_csv(path: str | Path, trajectory: Trajectory) -> None:
    """One line per tick; scheduled_attitude only for a scheduled run."""
    writers = {
        name: write
        for name, write in _writers(Trajectory).items()
        if getattr(trajectory, name) is not None
    }
    columns = [getattr(trajectory, name).tolist() for name in writers]
    Path(path).write_text(_csv_text(writers, zip(*columns)))


def metrics_csv(rows: Iterable[tuple[str, int, RunSummary]]) -> str:
    """metrics.csv text: one line per (run_id, seed, summary)."""
    return _csv_text(_METRICS, ((run_id, seed, *astuple(s)) for run_id, seed, s in rows))


def write_metrics_csv(path: str | Path, rows: Iterable[tuple[str, int, RunSummary]]) -> None:
    Path(path).write_text(metrics_csv(rows))


def write_sweep_csv(path: str | Path, param_names: list[str], rows: list[dict]) -> None:
    """One line per run_sweep row: swept values, rep, seed, then its summary."""
    writers = {**{p: fmt for p in param_names}, "rep": _integer, "seed": _integer, **_SUMMARY}
    Path(path).write_text(_csv_text(writers, ([row[c] for c in writers] for row in rows)))


def write_outputs_csv(path: str | Path, outputs: np.ndarray) -> None:
    """One line per design row of evaluate_design's outputs."""
    Path(path).write_text(_csv_text(dict.fromkeys(OUTPUT_METRICS, fmt), outputs))


def write_design_csv(path: str | Path, design: SaltelliDesign) -> None:
    Path(path).write_text(_csv_text(dict.fromkeys(design.space.names, fmt), design.matrix))


def write_indices_json(path: str | Path, indices_by_metric: dict[str, SobolIndices]) -> None:
    payload = {metric: idx.to_dict() for metric, idx in indices_by_metric.items()}
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

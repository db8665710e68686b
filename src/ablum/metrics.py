"""Output metrics: intensity shares, service supply, and patch connectivity."""

from __future__ import annotations

from dataclasses import Field, dataclass, field, fields
from typing import Sequence

import numpy as np

from .errors import ConfigurationError
from .landscape import DEFAULT_AFTS, S_NAT, S_PROD, LandscapeGrid


def integer_column():
    """Field of an output column written as an integer; every other column is
    written with six decimals."""
    return field(metadata={"integer": True})


def is_integer_column(f: Field) -> bool:
    return f.metadata.get("integer", False)


@dataclass
class Trajectory:
    """Per-tick record of shares, supplies, and the mean attitude; the fields
    are trajectory.csv's columns, in order."""

    tick: np.ndarray = integer_column()
    share_c: np.ndarray
    share_mi: np.ndarray
    share_hi: np.ndarray
    s_mat: np.ndarray
    s_nm: np.ndarray
    mean_attitude: np.ndarray
    scheduled_attitude: np.ndarray | None = None

    @property
    def n_rows(self) -> int:
        return int(self.tick.size)

    @classmethod
    def from_rows(cls, rows: Sequence[tuple]) -> Trajectory:
        """Columns from per-tick rows of field values in order; rows that end
        before scheduled_attitude give a trajectory without that column."""
        spec = fields(cls)
        columns = list(zip(*rows)) or [()] * (len(spec) - 1)
        return cls(
            **{
                f.name: np.asarray(col, dtype=np.int64 if is_integer_column(f) else float)
                for f, col in zip(spec, columns)
            }
        )


# The sensitivity outputs: the final values of these trajectory columns.
OUTPUT_METRICS = ("share_c", "share_mi", "share_hi", "s_mat", "s_nm")


@dataclass(frozen=True)
class RunSummary:
    """One run's outcome; the fields are its columns in metrics.csv and
    sweep.csv, in order. The first five are the final OUTPUT_METRICS."""

    final_share_c: float
    final_share_mi: float
    final_share_hi: float
    s_mat: float
    s_nm: float
    mesh: float
    stabilised_at: int = integer_column()


def intensity_shares(grid: LandscapeGrid) -> dict[int, float]:
    """Share of cells per intensity class; shares sum to 1."""
    counts = np.bincount(grid.aft_id, minlength=len(DEFAULT_AFTS))
    return {a.id: float(counts[a.id]) / grid.n_cells for a in DEFAULT_AFTS}


def total_supply(grid: LandscapeGrid) -> tuple[float, float]:
    """Landscape totals of material and non-material production."""
    return float(S_PROD[grid.aft_id] @ grid.c_prod), float(S_NAT[grid.aft_id] @ grid.c_nat)


def patch_decomposition(grid: LandscapeGrid, connectivity: int = 4) -> dict[int, tuple[int, ...]]:
    """Cell counts of the connected patches of each intensity class, in
    row-major order of each patch's first cell (ndimage.label's order).

    A union-find over the row runs, numbered in row-major order: same-class
    edges between rows hook the larger root onto the smaller, and pointer
    jumping flattens the roots, until every edge joins one root. A patch's
    root is then its first run, which starts at the patch's first cell.
    """
    if connectivity not in (4, 8):
        raise ConfigurationError("connectivity must be 4 or 8")
    ids, w = grid.aft_id, grid.width
    field = ids.reshape(grid.height, w)
    run_start = np.ones(ids.size, dtype=bool)
    run_start[1:] = ids[1:] != ids[:-1]
    run_start[::w] = True
    run = (np.cumsum(run_start) - 1).reshape(field.shape)

    edges = [(field[:-1] == field[1:], run[:-1], run[1:])]  # straight down
    if connectivity == 8:
        edges += [
            (field[:-1, :-1] == field[1:, 1:], run[:-1, :-1], run[1:, 1:]),
            (field[:-1, 1:] == field[1:, :-1], run[:-1, 1:], run[1:, :-1]),
        ]
    a = np.concatenate([upper[same] for same, upper, _ in edges])
    b = np.concatenate([lower[same] for same, _, lower in edges])
    root = np.arange(run[-1, -1] + 1)
    while (split := root[a] != root[b]).any():
        a, b = a[split], b[split]
        ra, rb = root[a], root[b]
        np.minimum.at(root, np.maximum(ra, rb), np.minimum(ra, rb))
        while not np.array_equal(root, jumped := root[root]):
            root = jumped

    sizes = np.bincount(root[run.ravel()])
    first = np.flatnonzero(sizes)
    sizes, classes = sizes[first], ids[run_start][first]
    return {c: tuple(sizes[classes == c].tolist()) for c in range(len(DEFAULT_AFTS))}


def mesh_connectivity(grid: LandscapeGrid, connectivity: int = 4) -> float:
    """Effective mesh size: sum of squared patch areas over total area.

    Ranges from 1 (fully fragmented) to n_cells (one uniform patch).
    """
    areas = patch_decomposition(grid, connectivity).values()
    total = sum(a * a for class_areas in areas for a in class_areas)
    return float(total) / grid.n_cells


def share_trajectory_summary(trajectory: Trajectory, mesh: float) -> RunSummary:
    """Final shares and supplies, the given mesh, and the tick the run settled on."""
    if trajectory.n_rows == 0:
        raise ValueError("trajectory is empty")
    return RunSummary(
        *(float(getattr(trajectory, m)[-1]) for m in OUTPUT_METRICS),
        mesh=mesh,
        stabilised_at=int(trajectory.tick[-1]),
    )

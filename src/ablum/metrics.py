"""Output metrics: intensity shares, service supply, and patch connectivity."""

from __future__ import annotations

from dataclasses import Field, dataclass, field, fields
from typing import Sequence

import numpy as np
from scipy import ndimage

from .errors import ConfigurationError
from .landscape import DEFAULT_AFTS, AgentFunctionalType, LandscapeGrid

_STRUCTURE_4 = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)
_STRUCTURE_8 = np.ones((3, 3), dtype=bool)


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


def intensity_shares(grid: LandscapeGrid, n_types: int = 3) -> dict[int, float]:
    """Share of cells per intensity class; shares sum to 1."""
    counts = np.bincount(grid.aft_id, minlength=n_types)
    return {c: float(counts[c]) / grid.n_cells for c in range(n_types)}


def total_supply(
    grid: LandscapeGrid, afts: Sequence[AgentFunctionalType] = DEFAULT_AFTS
) -> tuple[float, float]:
    """Landscape totals of material and non-material production."""
    s_prod = np.array([a.s_prod for a in afts])[grid.aft_id]
    s_nat = np.array([a.s_nat for a in afts])[grid.aft_id]
    return float(s_prod @ grid.c_prod), float(s_nat @ grid.c_nat)


def patch_decomposition(
    grid: LandscapeGrid, connectivity: int = 4, n_types: int = 3
) -> dict[int, tuple[int, ...]]:
    """Cell counts of the connected patches of each intensity class."""
    if connectivity not in (4, 8):
        raise ConfigurationError("connectivity must be 4 or 8")
    structure = _STRUCTURE_4 if connectivity == 4 else _STRUCTURE_8
    field = grid.aft_id.reshape(grid.height, grid.width)
    areas: dict[int, tuple[int, ...]] = {}
    for c in range(n_types):
        labels, n_patches = ndimage.label(field == c, structure=structure)
        if n_patches == 0:
            areas[c] = ()
            continue
        sizes = np.bincount(labels.ravel())[1:]  # label 0 is background
        areas[c] = tuple(int(s) for s in sizes)
    return areas


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

"""Deterministic CSV/JSON writers for run artefacts.

All real numbers are written with six decimal places so that identical runs
produce byte-identical files.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import ConfigurationError
from .landscape import LandscapeGrid
from .metrics import Trajectory
from .network import SocialNetwork
from .sensitivity import SaltelliDesign, SobolIndices

METRICS_HEADER = (
    "run_id,seed,final_share_c,final_share_mi,final_share_hi,s_mat,s_nm,mesh,stabilised_at"
)


def fmt(x: float) -> str:
    return f"{float(x):.6f}"


def write_capitals_csv(path: str | Path, grid: LandscapeGrid) -> None:
    lines = ["x,y,c_prod,c_nat"]
    for i in range(grid.n_cells):
        x, y = i % grid.width, i // grid.width
        lines.append(f"{x},{y},{fmt(grid.c_prod[i])},{fmt(grid.c_nat[i])}")
    Path(path).write_text("\n".join(lines) + "\n")


def write_map_csv(path: str | Path, grid: LandscapeGrid) -> None:
    lines = ["x,y,aft_id"]
    for i in range(grid.n_cells):
        x, y = i % grid.width, i // grid.width
        lines.append(f"{x},{y},{int(grid.aft_id[i])}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_map_csv(path: str | Path) -> tuple[int, int, np.ndarray]:
    """Read a land-use map back; rows must cover the grid in row-major order."""
    path = Path(path)
    if not path.exists():
        raise ConfigurationError(f"map file not found: {path}")
    lines = path.read_text().strip().splitlines()
    if not lines or lines[0].strip() != "x,y,aft_id":
        raise ConfigurationError(f"{path}: expected header 'x,y,aft_id'")
    xs, ys, ids = [], [], []
    for lineno, ln in enumerate(lines[1:], start=2):
        try:
            px, py, pid = (int(v) for v in ln.split(","))
        except ValueError:
            raise ConfigurationError(
                f"{path}, line {lineno}: expected three integers x,y,aft_id, got {ln!r}"
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


def trajectory_lines(trajectory: Trajectory) -> list[str]:
    header = "tick,share_c,share_mi,share_hi,s_mat,s_nm,mean_attitude"
    scheduled = trajectory.scheduled_attitude
    if scheduled is not None:
        header += ",scheduled_attitude"
    lines = [header]
    for r in range(trajectory.n_rows):
        row = [
            str(int(trajectory.tick[r])),
            fmt(trajectory.share_c[r]),
            fmt(trajectory.share_mi[r]),
            fmt(trajectory.share_hi[r]),
            fmt(trajectory.s_mat[r]),
            fmt(trajectory.s_nm[r]),
            fmt(trajectory.mean_attitude[r]),
        ]
        if scheduled is not None:
            row.append(fmt(scheduled[r]))
        lines.append(",".join(row))
    return lines


def write_trajectory_csv(path: str | Path, trajectory: Trajectory) -> None:
    Path(path).write_text("\n".join(trajectory_lines(trajectory)) + "\n")


def metrics_line(run_id: str, seed: int, summary, mesh: float) -> str:
    return ",".join(
        [
            run_id,
            str(int(seed)),
            fmt(summary.final_share_c),
            fmt(summary.final_share_mi),
            fmt(summary.final_share_hi),
            fmt(summary.final_s_mat),
            fmt(summary.final_s_nm),
            fmt(mesh),
            str(int(summary.stabilised_at)),
        ]
    )


def write_metrics_csv(path: str | Path, lines: list[str]) -> None:
    Path(path).write_text("\n".join([METRICS_HEADER, *lines]) + "\n")


def write_edges_csv(path: str | Path, net: SocialNetwork) -> None:
    lines = ["i,j"]
    for i, j in net.edge_pairs():
        lines.append(f"{i},{j}")
    Path(path).write_text("\n".join(lines) + "\n")


def write_sweep_csv(path: str | Path, param_names: list[str], rows: list[dict]) -> None:
    header = param_names + [
        "rep",
        "seed",
        "final_share_c",
        "final_share_mi",
        "final_share_hi",
        "s_mat",
        "s_nm",
        "mesh",
        "stabilised_at",
    ]
    lines = [",".join(header)]
    for row in rows:
        cells = [fmt(row[p]) for p in param_names]
        cells += [
            str(int(row["rep"])),
            str(int(row["seed"])),
            fmt(row["final_share_c"]),
            fmt(row["final_share_mi"]),
            fmt(row["final_share_hi"]),
            fmt(row["s_mat"]),
            fmt(row["s_nm"]),
            fmt(row["mesh"]),
            str(int(row["stabilised_at"])),
        ]
        lines.append(",".join(cells))
    Path(path).write_text("\n".join(lines) + "\n")


def write_design_csv(path: str | Path, design: SaltelliDesign) -> None:
    lines = [",".join(design.space.names)]
    for row in design.matrix:
        lines.append(",".join(fmt(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def write_indices_json(path: str | Path, indices_by_metric: dict[str, SobolIndices]) -> None:
    payload = {metric: idx.to_dict() for metric, idx in indices_by_metric.items()}
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

"""The benchmark's workloads: inputs made from the workload seed, one program
invocation at a time, and the checks on what each invocation wrote.

Invocation i of workload seed s runs the program with config seed
``s * SEED_STRIDE + i``, so a seed fixes the whole input sequence and two
workload seeds never share an input. The program sees only that config (or
design); every invocation runs serially with one thread.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

from ablum import cli, experiments, fileio
from ablum.config import ExperimentConfig, load_config
from ablum.experiments import OUTPUT_METRICS
from ablum.sensitivity import ParameterDim, ParameterSpace, default_parameter_space

SEED_STRIDE = 1000

# Rounding of one share to the six decimals the writers use.
_SHARE_ROUNDING = 0.5e-6


class Workload:
    name = ""
    runs_per_invocation = 1
    # Rough plain seconds per invocation on a 2-core x86-64 machine; sizes
    # the traced run, which must repeat the same invocations on every
    # machine so its counts are exact.
    nominal_s = 1.0

    def __init__(self, root: Path, seed: int):
        self.root = root
        self.seed = seed

    def config_seed(self, index: int) -> int:
        return self.seed * SEED_STRIDE + index

    def invoke(self, index: int, out: Path):
        """Run invocation ``index``, writing into ``out``; returns in-memory
        results the checks need beyond the files."""
        raise NotImplementedError

    def warm_up(self, out: Path) -> None:
        """One model run of this workload's kind, paying first-call costs."""
        raise NotImplementedError

    def check(self, index: int, out: Path, extra) -> list[str]:
        """Invariants of invocation ``index``'s outputs; returns problems."""
        raise NotImplementedError

    def digest(self, out: Path, extra) -> str:
        """SHA-256 over every file written (path and bytes, sorted by path)."""
        h = hashlib.sha256()
        for path in sorted(p for p in out.rglob("*") if p.is_file()):
            h.update(path.relative_to(out).as_posix().encode() + b"\0")
            h.update(path.read_bytes())
        return h.hexdigest()

    def _cli(self, argv: list[str]) -> None:
        rc = cli.cli_entry([*argv, "--threads", "1"])
        if rc != 0:
            raise RuntimeError(f"ablum {' '.join(argv)} exited with {rc}")


def _rows(path: Path) -> list[dict[str, str]]:
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def _share_problems(where: str, shares: list[float], n_cells: int) -> list[str]:
    """Written shares must be whole cell counts over n_cells summing to 1.

    Each share is written to six decimals, so the check recovers the counts
    and requires them to sum to n_cells exactly; that is the 1e-9 share-sum
    invariant, made exact.
    """
    counts = [round(s * n_cells) for s in shares]
    if sum(counts) != n_cells:
        return [f"{where}: shares {shares} do not sum to 1"]
    if any(abs(s - c / n_cells) > _SHARE_ROUNDING + 1e-9 for s, c in zip(shares, counts)):
        return [f"{where}: shares {shares} are not whole cell counts over {n_cells}"]
    return []


def _run_dir_problems(run_dir: Path, n_cells: int, max_ticks: int) -> list[str]:
    """Invariants of one run directory (trajectory, map, metrics)."""
    problems = []
    traj = _rows(run_dir / "trajectory.csv")
    if not traj or int(traj[0]["tick"]) != 0:
        return [f"{run_dir.name}: trajectory does not start at tick 0"]
    for row in traj:
        shares = [float(row[k]) for k in ("share_c", "share_mi", "share_hi")]
        problems += _share_problems(f"{run_dir.name} tick {row['tick']}", shares, n_cells)
    final = int(traj[-1]["tick"])
    if final != len(traj) - 1:
        problems.append(f"{run_dir.name}: {len(traj)} trajectory rows end at tick {final}")
    if final > max_ticks:
        problems.append(f"{run_dir.name}: final tick {final} beyond max_ticks {max_ticks}")
    if len((run_dir / "map.csv").read_text().splitlines()) != n_cells + 1:
        problems.append(f"{run_dir.name}: map.csv does not have {n_cells} rows")
    metrics = _rows(run_dir / "metrics.csv")
    if len(metrics) != 1 or int(metrics[0]["stabilised_at"]) != final:
        problems.append(f"{run_dir.name}: metrics.csv disagrees with the trajectory")
    return problems


class DefaultRun(Workload):
    """``ablum run`` on the default config, one consecutive seed per call."""

    name = "default_run"
    nominal_s = 0.1

    def __init__(self, root, seed):
        super().__init__(root, seed)
        self.config = ExperimentConfig()

    def invoke(self, index, out):
        self._cli(["run", "--seed", str(self.config_seed(index)), "--out", str(out)])

    def warm_up(self, out):
        self.invoke(0, out)

    def check(self, index, out, extra):
        run_dir = out / f"run_s{self.config_seed(index)}_r0"
        n = self.config.grid_width * self.config.grid_height
        return _run_dir_problems(run_dir, n, self.config.max_ticks)


class NetworkMaps(Workload):
    """``ablum sweep --reps 1`` on the network-maps preset: 25 full-size runs
    over n_tele 0-2500 by moore_radius 1-5."""

    name = "network_maps"
    nominal_s = 9.0

    def __init__(self, root, seed):
        super().__init__(root, seed)
        self.preset = root / "presets" / "network_maps.cfg"
        self.config = load_config(self.preset)
        self.points = experiments.sweep_points(self.config.sweep)
        self.runs_per_invocation = len(self.points)

    def invoke(self, index, out):
        seed = str(self.config_seed(index))
        self._cli(
            ["sweep", "--config", str(self.preset), "--reps", "1", "--seed", seed, "--out", str(out)]
        )

    def warm_up(self, out):
        cfg = experiments.apply_values(self.config, self.points[0])
        experiments.run_single(cfg)

    def check(self, index, out, extra):
        rows = _rows(out / "sweep.csv")
        if len(rows) != len(self.points):
            return [f"sweep.csv has {len(rows)} rows for {len(self.points)} points"]
        n = self.config.grid_width * self.config.grid_height
        problems = []
        for k, row in enumerate(rows):
            shares = [float(row[f"final_share_{t}"]) for t in ("c", "mi", "hi")]
            problems += _share_problems(f"sweep row {k}", shares, n)
            if int(row["stabilised_at"]) > self.config.max_ticks:
                problems.append(f"sweep row {k}: stabilised_at beyond max_ticks")
            if int(row["seed"]) != self.config_seed(index) or int(row["rep"]) != 0:
                problems.append(f"sweep row {k}: wrong seed or rep")
        return problems


def reduced_space() -> ParameterSpace:
    """Criterion 9's 25x25 screening space: demands and n_tele are extensive,
    so they are rescaled by the cell-count ratio to keep the full grid's
    scarcity and edge density."""
    scale = 625.0 / 10201.0
    dims = []
    for dim in default_parameter_space().dims:
        if dim.name in ("demand_mat", "demand_nm"):
            dims.append(ParameterDim(dim.name, dim.lower * scale, dim.upper * scale))
        elif dim.name == "n_tele":
            dims.append(ParameterDim(dim.name, 0.0, round(dim.upper * scale), kind="integer"))
        else:
            dims.append(dim)
    return ParameterSpace(tuple(dims))


class SobolScreen(Workload):
    """``run_sobol`` over criterion 9's reduced space, second order, n_base 8
    (160 runs of 25x25), then the design.csv and indices.json writers."""

    name = "sobol_screen"
    nominal_s = 5.5
    n_base = 8

    def __init__(self, root, seed):
        super().__init__(root, seed)
        self.space = reduced_space()
        self.runs_per_invocation = self.n_base * (2 * self.space.d + 2)

    def base_config(self, index: int) -> ExperimentConfig:
        return ExperimentConfig(grid_width=25, grid_height=25, seed=self.config_seed(index))

    def invoke(self, index, out):
        design, outputs, indices = experiments.run_sobol(
            self.base_config(index), self.n_base, second_order=True, space=self.space, threads=1
        )
        out.mkdir(parents=True, exist_ok=True)
        fileio.write_design_csv(out / "design.csv", design)
        fileio.write_indices_json(out / "indices.json", indices)
        return outputs

    def warm_up(self, out):
        design = experiments.saltelli_sample(self.space, self.n_base, seed=0, second_order=True)
        cfg = experiments.map_sample_to_config(design.matrix[0], self.space, self.base_config(0))
        experiments.run_single(cfg)

    def check(self, index, out, extra):
        problems = []
        design_rows = _rows(out / "design.csv")
        if len(design_rows) != self.runs_per_invocation:
            problems.append(f"design.csv has {len(design_rows)} rows")
        if extra.shape != (self.runs_per_invocation, len(OUTPUT_METRICS)):
            problems.append(f"outputs have shape {extra.shape}")
        for k, row in enumerate(extra):
            if abs(row[0] + row[1] + row[2] - 1.0) > 1e-9:
                problems.append(f"design row {k}: shares sum to {row[0] + row[1] + row[2]}")
            if not all(math.isfinite(v) for v in row):
                problems.append(f"design row {k}: non-finite output")
        indices = json.loads((out / "indices.json").read_text())
        if sorted(indices) != sorted(OUTPUT_METRICS):
            problems.append(f"indices.json covers {sorted(indices)}")
        elif any(len(indices[m]["ST"]) != self.space.d for m in OUTPUT_METRICS):
            problems.append("indices.json lacks a parameter")
        return problems

    def digest(self, out, extra):
        h = hashlib.sha256(super().digest(out, extra).encode())
        for row in extra:
            h.update(",".join(fileio.fmt(v) for v in row).encode() + b"\n")
        return h.hexdigest()


WORKLOADS = {w.name: w for w in (DefaultRun, NetworkMaps, SobolScreen)}

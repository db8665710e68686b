"""Command-line entry point.

Subcommands: run, sweep, hysteresis, sobol, landscape, metrics; each takes
only the flags it reads (_COMMANDS). All artefacts are deterministic CSV/JSON;
rerunning a command with the same config and seed reproduces identical bytes.
hysteresis and sobol also print a short summary.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path

import numpy as np

from . import fileio
from .config import ExperimentConfig, SobolSettings, load_config
from .errors import ConfigurationError
from .experiments import (
    recompute_metrics,
    run_replicates,
    run_single,
    run_sobol,
    run_sweep,
    seed_streams,
)
from .landscape import LandscapeGrid, generate_capitals


def _default_threads() -> int:
    raw = os.environ.get("ABLUM_THREADS", "1")
    try:
        return int(raw)
    except ValueError:
        raise ConfigurationError(f"ABLUM_THREADS must be an integer, got {raw!r}") from None


_OPTIONS = {
    "--config": dict(type=Path, help="config file (INI)"),
    "--seed": dict(type=int, help="override the config seed"),
    "--out": dict(type=Path, default=Path("out"), help="output directory"),
    "--reps": dict(type=int, help="override replication count"),
    "--threads": dict(type=int, help="worker pool size (default: ABLUM_THREADS or 1)"),
    "--n-base": dict(type=int, help="base sample count"),
    "--second-order": dict(action="store_true", default=None, help="estimate pairwise indices"),
    "--map": dict(type=Path, required=True, help="map CSV to read"),
    "--connectivity": dict(type=int, choices=(4, 8), default=4, help="patch adjacency rule"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ablum",
        description="Agent-based land-use simulation with a behavioural decision layer.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, flags) in _COMMANDS.items():
        command = sub.add_parser(name, help=handler.__doc__)
        for flag in flags:
            command.add_argument(flag, **_OPTIONS[flag])
    return parser


def _load(args) -> ExperimentConfig:
    config = load_config(args.config) if args.config is not None else ExperimentConfig()
    if args.seed is not None:
        config.seed = args.seed
    if "reps" in args and args.reps is not None:
        if args.reps < 1:
            raise ConfigurationError("--reps must be at least 1")
        config.replications = args.reps
    config.validate()
    return config


def _write_runs(out: Path, results: list) -> None:
    """One directory per replicate, plus a combined metrics.csv for several."""
    rows = [(result.run_id, result.seed, result.summary) for result in results]
    for result, row in zip(results, rows):
        run_dir = out / result.run_id
        run_dir.mkdir(parents=True, exist_ok=True)
        fileio.write_trajectory_csv(run_dir / "trajectory.csv", result.trajectory)
        fileio.write_map_csv(run_dir / "map.csv", result.state.grid)
        fileio.write_metrics_csv(run_dir / "metrics.csv", [row])
    if len(rows) > 1:
        fileio.write_metrics_csv(out / "metrics.csv", rows)


def _cmd_run(args) -> int:
    """Single run (or replicates) to stability."""
    _write_runs(args.out, run_replicates(_load(args), threads=args.threads))
    return 0


def _cmd_sweep(args) -> int:
    """Parameter grid sweep."""
    config = _load(args)
    sweep = config.sweep
    if sweep is None:
        raise ConfigurationError("sweep command needs a [sweep] section in the config")
    if args.reps is not None:
        sweep = dataclasses.replace(sweep, replications=args.reps)
    names, rows = run_sweep(config, sweep, threads=args.threads)
    args.out.mkdir(parents=True, exist_ok=True)
    fileio.write_sweep_csv(args.out / "sweep.csv", names, rows)
    return 0


def _cmd_hysteresis(args) -> int:
    """Run a scheduled attitude ramp."""
    config = _load(args)
    if config.schedule is None:
        raise ConfigurationError("hysteresis command needs a [schedule] section in the config")
    # run_single per replicate, not run_replicates: perfbench traces cli.run_single by name
    results = [run_single(config, rep) for rep in range(config.replications)]
    _write_runs(args.out, results)
    for result in results:
        traj = result.trajectory
        shares = (traj.share_c, traj.share_mi, traj.share_hi)
        start, end = ("/".join(f"{share[i]:.3f}" for share in shares) for i in (0, -1))
        drift = sum(abs(share[-1] - share[0]) for share in shares)
        returns = traj.scheduled_attitude[-1] == traj.scheduled_attitude[0]
        print(f"shares start -> end: {start} -> {end}")
        print(f"L1 drift {drift:.3f}; scheduled attitude returns: {returns}")
    return 0


def _cmd_sobol(args) -> int:
    """Sobol sensitivity campaign."""
    config = _load(args)
    if args.n_base is None and config.sobol is None:
        raise ConfigurationError("sobol command needs --n-base or a [sobol] section")
    settings = config.sobol or SobolSettings()
    design, outputs, indices = run_sobol(
        config,
        settings.n_base if args.n_base is None else args.n_base,
        second_order=settings.second_order if args.second_order is None else args.second_order,
        replicates=settings.replicates if args.reps is None else args.reps,
        threads=args.threads,
    )
    args.out.mkdir(parents=True, exist_ok=True)
    fileio.write_design_csv(args.out / "design.csv", design)
    fileio.write_outputs_csv(args.out / "outputs.csv", outputs)
    fileio.write_indices_json(args.out / "indices.json", indices)
    for metric, idx in indices.items():
        ranked = "  ".join(f"{idx.names[i]}={idx.st[i]:.3f}" for i in np.argsort(idx.st)[::-1][:4])
        print(f"{metric:8s} total effect: {ranked}")
    return 0


def _cmd_landscape(args) -> int:
    """Emit the capital fields as CSV."""
    config = _load(args)
    s_capital = seed_streams((config.seed, 0, 0)).capital
    c_prod, c_nat = generate_capitals(
        config.grid_width, config.grid_height, config.peaks, config.noise_amp, s_capital
    )
    grid = LandscapeGrid(
        config.grid_width,
        config.grid_height,
        c_prod,
        c_nat,
        np.zeros(config.grid_width * config.grid_height, dtype=np.int64),
    )
    args.out.mkdir(parents=True, exist_ok=True)
    fileio.write_capitals_csv(args.out / "capitals.csv", grid)
    return 0


def _cmd_metrics(args) -> int:
    """Recompute metrics from a land-use map CSV."""
    config = _load(args)
    width, height, aft_id = fileio.read_map_csv(args.map)
    summary = recompute_metrics(config, width, height, aft_id, connectivity=args.connectivity)
    sys.stdout.write(fileio.metrics_csv([(args.map.stem, config.seed, summary)]))
    return 0


_CAMPAIGN = ("--config", "--seed", "--out", "--reps", "--threads")
_COMMANDS = {  # name: (handler, whose docstring is its help, the flags it reads)
    "run": (_cmd_run, _CAMPAIGN),
    "sweep": (_cmd_sweep, _CAMPAIGN),
    "hysteresis": (_cmd_hysteresis, ("--config", "--seed", "--out", "--reps")),
    "sobol": (_cmd_sobol, (*_CAMPAIGN, "--n-base", "--second-order")),
    "landscape": (_cmd_landscape, ("--config", "--seed", "--out")),
    "metrics": (_cmd_metrics, ("--config", "--seed", "--map", "--connectivity")),
}


def cli_entry(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if "threads" in args and args.threads is None:
            args.threads = _default_threads()
        return _COMMANDS[args.command][0](args)
    except (ConfigurationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_entry())


if __name__ == "__main__":
    main()

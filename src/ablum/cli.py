"""Command-line entry point.

Subcommands: run, sweep, hysteresis, sobol, landscape, metrics. All artefacts
are deterministic CSV/JSON; rerunning a command with the same config and seed
reproduces identical bytes.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path

import numpy as np

from . import fileio
from .config import ExperimentConfig, load_config
from .errors import ConfigurationError
from .experiments import (
    OUTPUT_METRICS,
    recompute_metrics,
    run_replicates,
    run_single,
    run_sobol,
    run_sweep,
    seed_streams,
)
from .landscape import LandscapeGrid, generate_capitals
from .metrics import RunSummary


def _default_threads() -> int:
    raw = os.environ.get("ABLUM_THREADS", "1")
    try:
        return int(raw)
    except ValueError:
        raise ConfigurationError(f"ABLUM_THREADS must be an integer, got {raw!r}") from None


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=Path, default=None, help="config file (INI)")
    common.add_argument("--seed", type=int, default=None, help="override the config seed")
    common.add_argument("--out", type=Path, default=Path("out"), help="output directory")
    common.add_argument("--reps", type=int, default=None, help="override replication count")
    common.add_argument(
        "--threads",
        type=int,
        default=None,
        help="worker pool size (default: ABLUM_THREADS or 1)",
    )

    parser = argparse.ArgumentParser(
        prog="ablum",
        description="Agent-based land-use simulation with a behavioural decision layer.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("run", parents=[common], help="single run (or replicates) to stability")
    sub.add_parser("sweep", parents=[common], help="parameter grid sweep")
    sub.add_parser("hysteresis", parents=[common], help="run a scheduled attitude ramp")

    p_sobol = sub.add_parser("sobol", parents=[common], help="Sobol sensitivity campaign")
    p_sobol.add_argument("--n-base", type=int, default=None, help="base sample count")
    p_sobol.add_argument(
        "--second-order", action="store_true", default=None, help="estimate pairwise indices"
    )

    sub.add_parser("landscape", parents=[common], help="emit the capital fields as CSV")

    p_metrics = sub.add_parser(
        "metrics", parents=[common], help="recompute metrics from a land-use map CSV"
    )
    p_metrics.add_argument("--map", type=Path, required=True, help="map CSV to read")
    p_metrics.add_argument(
        "--connectivity", type=int, choices=(4, 8), default=4, help="patch adjacency rule"
    )
    return parser


def _load(args) -> ExperimentConfig:
    config = load_config(args.config) if args.config is not None else ExperimentConfig()
    if args.seed is not None:
        config.seed = args.seed
    if args.reps is not None:
        if args.reps < 1:
            raise ConfigurationError("--reps must be at least 1")
        config.replications = args.reps
    config.validate()
    return config


def _write_run_dir(out: Path, result) -> Path:
    run_dir = out / result.run_id
    run_dir.mkdir(parents=True, exist_ok=True)
    fileio.write_trajectory_csv(run_dir / "trajectory.csv", result.trajectory)
    fileio.write_map_csv(run_dir / "map.csv", result.state.grid)
    fileio.write_metrics_csv(
        run_dir / "metrics.csv",
        [fileio.metrics_line(result.run_id, result.seed, result.summary, result.mesh)],
    )
    return run_dir


def _cmd_run(args) -> int:
    config = _load(args)
    results = run_replicates(config, threads=args.threads)
    for result in results:
        _write_run_dir(args.out, result)
    if len(results) > 1:
        fileio.write_metrics_csv(
            args.out / "metrics.csv",
            [fileio.metrics_line(r.run_id, r.seed, r.summary, r.mesh) for r in results],
        )
    return 0


def _cmd_sweep(args) -> int:
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
    config = _load(args)
    if config.schedule is None:
        raise ConfigurationError("hysteresis command needs a [schedule] section in the config")
    result = run_single(config)
    _write_run_dir(args.out, result)
    return 0


def _cmd_sobol(args) -> int:
    config = _load(args)
    settings = config.sobol
    n_base = args.n_base if args.n_base is not None else (settings.n_base if settings else None)
    if n_base is None:
        raise ConfigurationError("sobol command needs --n-base or a [sobol] section")
    second = args.second_order
    if second is None:
        second = settings.second_order if settings else False
    replicates = args.reps if args.reps is not None else (settings.replicates if settings else 1)
    design, outputs, indices = run_sobol(
        config,
        n_base,
        second_order=second,
        replicates=replicates,
        threads=args.threads,
    )
    args.out.mkdir(parents=True, exist_ok=True)
    fileio.write_design_csv(args.out / "design.csv", design)
    out_lines = [",".join(OUTPUT_METRICS)]
    out_lines += [",".join(fileio.fmt(v) for v in row) for row in outputs]
    (args.out / "outputs.csv").write_text("\n".join(out_lines) + "\n")
    fileio.write_indices_json(args.out / "indices.json", indices)
    return 0


def _cmd_landscape(args) -> int:
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
    config = _load(args)
    width, height, aft_id = fileio.read_map_csv(args.map)
    shares, (s_mat, s_nm), mesh = recompute_metrics(
        config, width, height, aft_id, connectivity=args.connectivity
    )
    # Stabilisation tick is not recoverable from a stored map; -1 marks that.
    summary = RunSummary(
        final_share_c=shares[0],
        final_share_mi=shares[1],
        final_share_hi=shares[2],
        final_s_mat=s_mat,
        final_s_nm=s_nm,
        stabilised_at=-1,
    )
    line = fileio.metrics_line(args.map.stem, config.seed, summary, mesh)
    sys.stdout.write(fileio.METRICS_HEADER + "\n" + line + "\n")
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "hysteresis": _cmd_hysteresis,
    "sobol": _cmd_sobol,
    "landscape": _cmd_landscape,
    "metrics": _cmd_metrics,
}


def cli_entry(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.threads is None:
            args.threads = _default_threads()
        return _COMMANDS[args.command](args)
    except (ConfigurationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_entry())

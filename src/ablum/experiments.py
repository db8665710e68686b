"""Run harness: build simulations from configs and execute experiment plans.

Seeds are derived from the config seed with numpy's splittable SeedSequence,
keyed by (seed, point/row, replicate), so every run is reproducible on its
own and adding replicates or reordering work never changes earlier results.
Sensitivity rows share the seed of their base sample across Saltelli blocks
(common random numbers), which keeps inert parameters' indices near zero.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from .behaviour import BehaviourGlobals, BehaviouralProfile
from .config import CM_ALIAS, ExperimentConfig, SweepSpec, apply_values
from .dynamics import (
    AttitudeSchedule,
    DemandState,
    SimulationState,
    StopRule,
    run_lockstep,
    run_schedule,
    run_until_stable,
)
from .errors import ConfigurationError, DegenerateVarianceError
from .landscape import LandscapeGrid, generate_capitals, init_land_use
from .metrics import (
    OUTPUT_METRICS,
    RunSummary,
    Trajectory,
    intensity_shares,
    mesh_connectivity,
    share_trajectory_summary,
    total_supply,
)
from .network import SocialNetwork, add_teleconnections, build_lattice
from .sensitivity import (
    ParameterSpace,
    SaltelliDesign,
    SobolIndices,
    default_parameter_space,
    map_sample_to_config,
    saltelli_sample,
    sobol_indices,
)

# Cells per lockstep batch of a campaign. A 101x101 run (10,201 cells) always
# runs alone; 25x25 runs (625 cells) go 19 at a time. Larger batches add
# memory (each run keeps its own network) faster than they save time.
CELL_BUDGET = 12_288


class SeedStreams(NamedTuple):
    """A run's independent seed streams, in the order they are spawned from
    its master seed. Campaign run (point, rep) of config seed s has master
    key (s, point, rep); a single run is point 0."""

    capital: np.random.SeedSequence
    init: np.random.SeedSequence
    net: np.random.SeedSequence
    profiles: np.random.SeedSequence
    sim: np.random.SeedSequence


def seed_streams(master: np.random.SeedSequence | tuple[int, ...]) -> SeedStreams:
    """Split a master seed, or its key, into the run's streams."""
    if not isinstance(master, np.random.SeedSequence):
        master = np.random.SeedSequence(master)
    return SeedStreams(*master.spawn(len(SeedStreams._fields)))


def _build_profiles(config: ExperimentConfig, n: int, seed_seq) -> tuple[BehaviouralProfile, np.ndarray]:
    """Draw per-cell behavioural parameters around the configured means.

    Every field consumes the stream even at sigma 0, so turning heterogeneity
    on or off for one parameter never shifts another parameter's draws.
    """
    rng = np.random.default_rng(seed_seq)

    def draws():
        return rng.standard_normal(n)

    z_att = draws()
    attitude_offsets = config.attitude_sigma * z_att
    attitude = np.clip(config.attitude_mean + attitude_offsets, -1.0, 1.0)

    def spread(mean, sigma, z, lo, hi):
        if sigma == 0.0:
            return float(mean)
        return np.clip(mean + sigma * z, lo, hi)

    profile = BehaviouralProfile(
        attitude=attitude,
        inertia_coeff=spread(config.inertia_lambda, config.inertia_sigma, draws(), 0.0, 1.0),
        norm_weight=spread(config.norm_weight_w, config.norm_weight_sigma, draws(), 0.0, 1.0),
        cm_int=spread(config.cm_int, config.cm_int_sigma, draws(), 0.0, 1.0),
        cm_ext=spread(config.cm_ext, config.cm_ext_sigma, draws(), 0.0, 1.0),
        git_upper=spread(config.git_upper_L, config.git_upper_sigma, draws(), 0.0, 1.0),
    )
    return profile, attitude_offsets


def build_state(
    config: ExperimentConfig,
    master: np.random.SeedSequence | tuple[int, ...] | None = None,
    lattices: dict[tuple[int, int, int], SocialNetwork] | None = None,
) -> SimulationState:
    """Assemble a ready-to-run simulation; the master seed (or its key)
    splits into the streams of SeedStreams.

    ``lattices`` maps (width, height, radius) to a built lattice; the runs
    of one batch share it, and a missing lattice is built and added.
    """
    streams = seed_streams(master if master is not None else (config.seed, 0))

    c_prod, c_nat = generate_capitals(
        config.grid_width, config.grid_height, config.peaks, config.noise_amp, streams.capital
    )
    n = config.grid_width * config.grid_height
    aft_id = init_land_use(n, config.shares, streams.init)
    profiles, attitude_offsets = _build_profiles(config, n, streams.profiles)
    grid = LandscapeGrid(
        config.grid_width, config.grid_height, c_prod, c_nat, aft_id, profiles=profiles
    )
    shape = (config.grid_width, config.grid_height, config.moore_radius)
    lattices = {} if lattices is None else lattices
    if shape not in lattices:
        lattices[shape] = build_lattice(*shape)
    net = add_teleconnections(lattices[shape], config.n_tele, streams.net)
    return SimulationState(
        grid=grid,
        network=net,
        behaviour_globals=BehaviourGlobals(config.logistic_k),
        demand=DemandState(config.demand_mat, config.demand_nm),
        rng=np.random.default_rng(streams.sim),
        economic_baseline=config.economic_baseline,
        attitude_offsets=attitude_offsets,
    )


@dataclass
class RunResult:
    config: ExperimentConfig
    seed: int
    rep: int
    state: SimulationState
    trajectory: Trajectory
    summary: RunSummary

    @property
    def run_id(self) -> str:
        return f"run_s{self.seed}_r{self.rep}"


def _stop_rule(config: ExperimentConfig) -> StopRule | AttitudeSchedule:
    if config.schedule is not None:
        return AttitudeSchedule(config.schedule)
    return StopRule(config.max_ticks, config.window, config.epsilon)


def _batches(jobs: list) -> list[list]:
    """Consecutive jobs grouped up to CELL_BUDGET cells; a larger run goes alone."""
    batches, cells = [], CELL_BUDGET
    for job in jobs:
        n = job[0].grid_width * job[0].grid_height
        if cells + n > CELL_BUDGET:
            batches.append([])
            cells = 0
        batches[-1].append(job)
        cells += n
    return batches


def _run_batch(args) -> list:
    """Build and run one batch of (config, seed key) jobs in lockstep, then
    map each run through ``finish(config, key, state, trajectory)``."""
    jobs, finish = args
    lattices: dict = {}
    states = [build_state(config, key, lattices) for config, key in jobs]
    del lattices  # runs with teleconnections no longer need theirs
    trajectories = run_lockstep(states, [_stop_rule(config) for config, _ in jobs])
    return [finish(c, key, s, t) for (c, key), s, t in zip(jobs, states, trajectories)]


def _run_jobs(jobs: list, finish, threads: int) -> list:
    """Results of every (config, seed key) job, in job order; batches are
    spread over ``threads`` worker processes."""
    batches = [(batch, finish) for batch in _batches(jobs)]
    return [r for results in _parallel_map(_run_batch, batches, threads) for r in results]


def _run_result(config, key, state, trajectory) -> RunResult:
    return RunResult(
        config=config,
        seed=config.seed,
        rep=key[2],
        state=state,
        trajectory=trajectory,
        summary=share_trajectory_summary(trajectory, mesh_connectivity(state.grid)),
    )


def run_single(config: ExperimentConfig, rep: int = 0) -> RunResult:
    """One full run; scheduled configs follow their schedule, others run to
    stability.

    Seeded as point 0 of a sweep, so a one-point sweep reproduces it exactly.
    """
    key = (config.seed, 0, rep)
    state = build_state(config, key)
    if config.schedule is not None:
        state, trajectory = run_schedule(state, AttitudeSchedule(config.schedule))
    else:
        state, trajectory = run_until_stable(
            state, config.max_ticks, config.window, config.epsilon
        )
    return _run_result(config, key, state, trajectory)


def run_replicates(config: ExperimentConfig, threads: int = 1) -> list[RunResult]:
    jobs = [(config, (config.seed, 0, rep)) for rep in range(config.replications)]
    return _run_jobs(jobs, _run_result, threads)


def sweep_points(sweep: SweepSpec) -> list[dict[str, float]]:
    """Grid points in row-major order: first parameter outermost."""
    names = [param.name for param in sweep.params]
    grids = [param.values().tolist() for param in sweep.params]
    return [dict(zip(names, point)) for point in itertools.product(*grids)]


def _sweep_row(names, config, key, state, trajectory) -> dict:
    summary = share_trajectory_summary(trajectory, mesh_connectivity(state.grid))
    row = {name: config.cm_int if name == CM_ALIAS else getattr(config, name) for name in names}
    row.update(rep=key[2], seed=key[0], **asdict(summary))
    return row


def run_sweep(
    config: ExperimentConfig, sweep: SweepSpec | None = None, threads: int = 1
) -> tuple[list[str], list[dict]]:
    """Run the full parameter grid; returns (swept names, long-format rows)."""
    sweep = sweep if sweep is not None else config.sweep
    if sweep is None:
        raise ConfigurationError("no sweep specified: add a [sweep] section")
    names = [p.name for p in sweep.params]
    jobs = [
        (apply_values(config, point), (config.seed, point_idx, rep))
        for point_idx, point in enumerate(sweep_points(sweep))
        for rep in range(sweep.replications)
    ]
    return names, _run_jobs(jobs, partial(_sweep_row, names), threads)


def _design_outputs(config, key, state, trajectory) -> np.ndarray:
    return np.array([getattr(trajectory, m)[-1] for m in OUTPUT_METRICS])


def evaluate_design(
    design: SaltelliDesign,
    base_config: ExperimentConfig,
    replicates: int = 1,
    threads: int = 1,
) -> np.ndarray:
    """Model outputs for every design row, averaged over replicate seeds.

    Returns an (n_rows, 5) array with columns OUTPUT_METRICS. Rows derived
    from the same base sample share their replicate seeds.
    """
    jobs = []
    for r in range(design.n_rows):
        config = map_sample_to_config(list(design.matrix[r]), design.space, base_config)
        jobs += [(config, (base_config.seed, design.base_index(r), rep)) for rep in range(replicates)]
    outputs = _run_jobs(jobs, _design_outputs, threads)
    rows = []
    for r in range(design.n_rows):
        acc = np.zeros(len(OUTPUT_METRICS))
        for rep in range(replicates):
            acc += outputs[r * replicates + rep]
        rows.append(list(acc / replicates))
    return np.asarray(rows)


def run_sobol(
    config: ExperimentConfig,
    n_base: int,
    second_order: bool = False,
    replicates: int = 1,
    space: ParameterSpace | None = None,
    threads: int = 1,
) -> tuple[SaltelliDesign, np.ndarray, dict[str, SobolIndices]]:
    """Full campaign: design, model evaluations, and per-metric indices."""
    space = space if space is not None else default_parameter_space()
    design = saltelli_sample(space, n_base, seed=config.seed, second_order=second_order)
    outputs = evaluate_design(design, config, replicates=replicates, threads=threads)
    indices = {}
    for m, metric in enumerate(OUTPUT_METRICS):
        try:
            indices[metric] = sobol_indices(design, outputs[:, m], seed=config.seed)
        except DegenerateVarianceError as exc:
            raise DegenerateVarianceError(f"{metric}: {exc}") from None
    return design, outputs, indices


def _parallel_map(fn, jobs, threads):
    if threads <= 1:
        return [fn(job) for job in jobs]
    with ProcessPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, jobs))


def recompute_metrics(
    config: ExperimentConfig,
    width: int,
    height: int,
    aft_id: np.ndarray,
    connectivity: int = 4,
    rep: int = 0,
) -> RunSummary:
    """Shares, supplies, and mesh for a stored land-use map; stabilised_at is
    -1, since a map does not record when its run settled.

    Capitals are regenerated from the config (same stream as the run that
    wrote the map) so supplies are well-defined.
    """
    if (width, height) != (config.grid_width, config.grid_height):
        raise ConfigurationError(
            f"map is {width}x{height} but config grid is "
            f"{config.grid_width}x{config.grid_height}"
        )
    s_capital = seed_streams((config.seed, 0, rep)).capital
    c_prod, c_nat = generate_capitals(width, height, config.peaks, config.noise_amp, s_capital)
    grid = LandscapeGrid(width, height, c_prod, c_nat, aft_id)
    return RunSummary(
        *intensity_shares(grid).values(),
        *total_supply(grid),
        mesh=mesh_connectivity(grid, connectivity),
        stabilised_at=-1,
    )

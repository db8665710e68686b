"""Run harness: build simulations from configs and execute experiment plans.

Seeds are derived from the config seed with numpy's splittable SeedSequence,
keyed by (seed, point/row, replicate), so every run is reproducible on its
own and adding replicates or reordering work never changes earlier results.
Sensitivity rows share the seed of their base sample across Saltelli blocks
(common random numbers), which keeps inert parameters' indices near zero.
"""

from __future__ import annotations

import itertools
import re
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields
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
from .network import add_teleconnections, build_lattice
from .sensitivity import (
    ParameterSpace,
    SaltelliDesign,
    SobolIndices,
    default_parameter_space,
    map_sample_to_config,
    saltelli_sample,
    sobol_indices,
)

# Cells per lockstep batch of a campaign: 160 runs of 25x25 (a whole
# sobol_screen design) or 9 of 101x101. A run's lattice is held as its shape
# and the run keeps only its teleconnections, so memory grows with the cells.
# One network_maps sweep (25 runs of 101x101, one rep) peaked at 72.4 MB of
# resident memory with a budget of 262,144 (the whole sweep in one batch),
# against 52.6 MB at this budget, and took 1.05 s against 1.14 s (two fresh
# processes each, 2-core Xeon, numpy 2.4, one BLAS thread).
CELL_BUDGET = 100_000


class SeedStreams(NamedTuple):
    """A run's independent seed streams, in the order they are spawned from
    its master seed. Campaign run (point, rep) of config seed s has master
    key (s, point, rep); a single run is point 0."""

    capital: np.random.SeedSequence
    init: np.random.SeedSequence
    net: np.random.SeedSequence
    profiles: np.random.SeedSequence
    sim: np.random.SeedSequence


def seed_streams(key: tuple[int, ...]) -> SeedStreams:
    """Split the master seed of a seed key into the run's streams."""
    return SeedStreams(*np.random.SeedSequence(key).spawn(len(SeedStreams._fields)))


def run_capitals(config: ExperimentConfig, streams: SeedStreams) -> tuple[np.ndarray, np.ndarray]:
    """The capital fields of the run with these streams, as its build draws them."""
    return generate_capitals(
        config.grid_width, config.grid_height, config.peaks, config.noise_amp, streams.capital
    )


def _build_profiles(config: ExperimentConfig, z: np.ndarray) -> tuple[BehaviouralProfile, np.ndarray]:
    """Per-cell behavioural parameters around the configured means, from the
    seed key's standard-normal draws ``z``: one row per profile field, in
    field order, drawn in that order from the profiles stream.

    Every field has its row even at sigma 0, and an economic baseline zeroes
    its giving-in ceiling only after drawing it, so turning either on or off
    never shifts another parameter's draws.
    """
    attitude_offsets = config.attitude_sigma * z[0]
    attitude = np.clip(config.attitude_mean + attitude_offsets, -1.0, 1.0)

    def spread(mean, sigma, row):
        if sigma == 0.0:
            return float(mean)
        return np.clip(mean + sigma * row, 0.0, 1.0)

    profile = BehaviouralProfile(
        attitude=attitude,
        inertia_coeff=spread(config.inertia_lambda, config.inertia_sigma, z[1]),
        norm_weight=spread(config.norm_weight_w, config.norm_weight_sigma, z[2]),
        cm_int=spread(config.cm_int, config.cm_int_sigma, z[3]),
        cm_ext=spread(config.cm_ext, config.cm_ext_sigma, z[4]),
        git_upper=spread(config.git_upper_L, config.git_upper_sigma, z[5]),
    )
    if config.economic_baseline:
        profile.git_upper = 0.0
    return profile, attitude_offsets


def _build_states(jobs: list) -> list[SimulationState]:
    """Assemble a ready-to-run simulation for every (config, seed key) job,
    in job order; the key's master seed splits into the streams of
    SeedStreams.

    A draw depends only on its stream and the inputs it reads, so each is
    made once for the jobs that share them: the capitals, the initial land
    use and the profile draws once per seed key, grid, peaks, noise and
    initial shares, and the network once per seed key, grid, radius and
    teleconnection count. Each job then derives only its own profile values
    and its own generator. Jobs may share their capital and land-use arrays,
    which a Lockstep batch joins into its own before a tick writes land use,
    and their network, which is immutable.
    """
    groups: dict[tuple, list[int]] = {}
    for i, (config, key) in enumerate(jobs):
        inputs = (key, config.grid_width, config.grid_height, config.peaks, config.noise_amp, config.shares)
        groups.setdefault(inputs, []).append(i)
    states: list = [None] * len(jobs)
    networks = {}
    for members in groups.values():
        config, key = jobs[members[0]]
        streams = seed_streams(key)
        width, height = config.grid_width, config.grid_height
        n = width * height
        c_prod, c_nat = run_capitals(config, streams)
        aft_id = init_land_use(n, config.shares, streams.init)
        z = np.random.default_rng(streams.profiles).standard_normal((len(fields(BehaviouralProfile)), n))
        for i in members:
            config = jobs[i][0]
            profiles, attitude_offsets = _build_profiles(config, z)
            net_key = (key, width, height, config.moore_radius, config.n_tele)
            if net_key not in networks:
                lattice = build_lattice(width, height, config.moore_radius)
                networks[net_key] = add_teleconnections(lattice, config.n_tele, streams.net)
            states[i] = SimulationState(
                grid=LandscapeGrid(width, height, c_prod, c_nat, aft_id, profiles=profiles),
                network=networks[net_key],
                behaviour_globals=BehaviourGlobals(config.logistic_k),
                demand=DemandState(config.demand_mat, config.demand_nm),
                rng=np.random.default_rng(streams.sim),
                attitude_offsets=attitude_offsets,
            )
    return states


def build_state(config: ExperimentConfig, key: tuple[int, ...] | None = None) -> SimulationState:
    """Assemble a ready-to-run simulation; the seed key's master seed splits
    into the streams of SeedStreams."""
    return _build_states([(config, key if key is not None else (config.seed, 0, 0))])[0]


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


def parse_run_id(name: str) -> tuple[int, int] | None:
    """The (seed, rep) a RunResult.run_id names, or None for another name."""
    match = re.fullmatch(r"run_s(\d+)_r(\d+)", name)
    return (int(match[1]), int(match[2])) if match else None


def _stop_rule(config: ExperimentConfig) -> StopRule | AttitudeSchedule:
    if config.schedule is not None:
        return AttitudeSchedule(config.schedule)
    return StopRule(config.max_ticks, config.window, config.epsilon)


def _batches(jobs: list, threads: int = 1) -> list[list]:
    """A campaign's jobs, which vary only sweepable keys and so share one
    grid and one stop rule, cut into consecutive batches of up to CELL_BUDGET
    cells and up to an even share of all cells over ``threads`` workers, so
    that each worker gets a batch; a larger run goes alone."""
    n = max((config.grid_width * config.grid_height for config, _ in jobs), default=1)
    cap = min(CELL_BUDGET, -(-n * len(jobs) // max(threads, 1)))
    size = max(cap // n, 1)
    return [jobs[i : i + size] for i in range(0, len(jobs), size)]


def _run_batch(args) -> list:
    """Build and run one batch of (config, seed key) jobs in lockstep, then
    map each run through ``finish(config, key, state, trajectory)``."""
    jobs, finish = args
    states = _build_states(jobs)
    trajectories = run_lockstep(states, _stop_rule(jobs[0][0]))
    return [finish(c, key, s, t) for (c, key), s, t in zip(jobs, states, trajectories)]


def _run_jobs(jobs: list, finish, threads: int) -> list:
    """Results of every (config, seed key) job, in job order; batches are
    spread over ``threads`` worker processes."""
    batches = [(batch, finish) for batch in _batches(jobs, threads)]
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
    design: SaltelliDesign, base_config: ExperimentConfig, *, threads: int = 1
) -> np.ndarray:
    """Model outputs for every design row, averaged over the base config's
    ``replications`` seeds.

    Returns an (n_rows, 5) array with columns OUTPUT_METRICS. Rows derived
    from the same base sample share their replicate seeds.
    """
    base_config.validate()
    replicates = base_config.replications
    jobs = []
    for r in range(design.n_rows):
        config = map_sample_to_config(list(design.matrix[r]), design.space, base_config)
        jobs += [(config, (base_config.seed, design.base_index(r), rep)) for rep in range(replicates)]
    outputs = _run_jobs(jobs, _design_outputs, threads)
    return np.asarray(outputs).reshape(design.n_rows, replicates, len(OUTPUT_METRICS)).mean(axis=1)


def run_sobol(
    config: ExperimentConfig,
    n_base: int,
    *,
    second_order: bool = False,
    space: ParameterSpace | None = None,
    threads: int = 1,
) -> tuple[SaltelliDesign, np.ndarray, dict[str, SobolIndices]]:
    """Full campaign: design, model evaluations (each row averaged over
    ``config.replications`` seeds), and per-metric indices."""
    space = space if space is not None else default_parameter_space()
    design = saltelli_sample(space, n_base, seed=config.seed, second_order=second_order)
    outputs = evaluate_design(design, config, threads=threads)
    indices = {}
    for m, metric in enumerate(OUTPUT_METRICS):
        try:
            indices[metric] = sobol_indices(design, outputs[:, m], seed=config.seed)
        except DegenerateVarianceError as exc:
            raise DegenerateVarianceError(f"{metric}: {exc}") from None
    return design, outputs, indices


def _parallel_map(fn, jobs, threads):
    # Under the fork start method a pool starts all its workers at once, so
    # it gets no more workers than jobs.
    workers = min(threads, len(jobs))
    if workers <= 1:
        return [fn(job) for job in jobs]
    with ProcessPoolExecutor(max_workers=workers) as pool:
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
    c_prod, c_nat = run_capitals(config, seed_streams((config.seed, 0, rep)))
    grid = LandscapeGrid(width, height, c_prod, c_nat, aft_id)
    return RunSummary(
        *intensity_shares(grid).values(),
        *total_supply(grid),
        mesh=mesh_connectivity(grid, connectivity),
        stabilised_at=-1,
    )

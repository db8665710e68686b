"""Simulation engine: demand-driven competition gated by giving-in thresholds.

Each tick recomputes landscape supply, draws a random subset of cells, and
lets the non-incumbent management types compete for each drawn cell against a
start-of-tick snapshot. A competitor wins only if its utility surplus over
the incumbent strictly exceeds the manager's giving-in threshold; among
admissible competitors the largest surplus-over-threshold wins, with ties
broken towards the smaller intensity jump, then the lower type id.

One engine serves one run and many: a Lockstep batch advances independent
runs together, one vectorised tick for all, and a single run is a batch of
one. Each run's results are the same either way, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .behaviour import BehaviourGlobals, _giving_in, _influence_score, clip_social
from .errors import ConfigurationError
from .landscape import DEFAULT_AFTS, AgentFunctionalType, Cell, LandscapeGrid
from .metrics import Trajectory
from .network import SocialNetwork

# Fraction of cells reconsidering their management each tick.
UPDATE_FRACTION = 0.05


@dataclass
class DemandState:
    """Exogenous demands and the most recent supply totals."""

    d_mat: float
    d_nm: float
    s_mat: float = 0.0
    s_nm: float = 0.0

    def __post_init__(self):
        if self.d_mat <= 0 or self.d_nm <= 0:
            raise ConfigurationError("demands must be positive")


def unit_benefit(demand, supply):
    """Marginal value of one supply unit: relative shortfall, floored at 0.

    Takes scalars or arrays, elementwise.
    """
    demand = np.asarray(demand, dtype=np.float64)
    if np.any(demand <= 0):
        raise ConfigurationError("demand must be positive")
    return np.maximum(0.0, (demand - supply) / demand)


def utility(aft: AgentFunctionalType, cell: Cell, demand: DemandState) -> float:
    """Benefit-weighted production of a cell under a given management type."""
    b_mat = unit_benefit(demand.d_mat, demand.s_mat)
    b_nm = unit_benefit(demand.d_nm, demand.s_nm)
    return b_mat * aft.s_prod * cell.c_prod + b_nm * aft.s_nat * cell.c_nat


@dataclass
class AttitudeSchedule:
    """Piecewise-linear mean attitude over ticks; ends held constant."""

    breakpoints: tuple[tuple[int, float], ...]

    def __post_init__(self):
        if not self.breakpoints:
            raise ConfigurationError("schedule needs at least one breakpoint")
        ticks = [t for t, _ in self.breakpoints]
        if any(b <= a for a, b in zip(ticks, ticks[1:])):
            raise ConfigurationError("schedule ticks must be strictly increasing")
        if ticks[0] < 0:
            raise ConfigurationError("schedule ticks must be non-negative")
        for _, mean in self.breakpoints:
            if not -1.0 <= mean <= 1.0:
                raise ConfigurationError("schedule means must lie in [-1, 1]")

    @property
    def last_tick(self) -> int:
        return int(self.breakpoints[-1][0])

    def mean_at(self, tick: int) -> float:
        ticks = [t for t, _ in self.breakpoints]
        means = [m for _, m in self.breakpoints]
        return float(np.interp(tick, ticks, means))


@dataclass
class SimulationState:
    """Everything a run needs: landscape, network, behaviour, demand, RNG."""

    grid: LandscapeGrid
    network: SocialNetwork
    behaviour_globals: BehaviourGlobals
    demand: DemandState
    rng: np.random.Generator
    afts: tuple[AgentFunctionalType, ...] = DEFAULT_AFTS
    tick: int = 0
    economic_baseline: bool = False
    attitude_offsets: np.ndarray | None = None
    intensity_table: np.ndarray = field(init=False, repr=False)
    s_prod_table: np.ndarray = field(init=False, repr=False)
    s_nat_table: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.grid.profiles is None:
            raise ConfigurationError("grid needs behavioural profiles attached")
        if self.network.n_cells != self.grid.n_cells:
            raise ConfigurationError("network size does not match the grid")
        self.intensity_table = np.array([a.intensity for a in self.afts])
        self.s_prod_table = np.array([a.s_prod for a in self.afts])
        self.s_nat_table = np.array([a.s_nat for a in self.afts])


@dataclass(frozen=True)
class TickReport:
    """Cells drawn this tick and the transitions that were committed.

    Cells are batch cells (see Lockstep); for a single run they are its own.
    """

    selected: np.ndarray
    cells: np.ndarray
    old_aft: np.ndarray
    new_aft: np.ndarray


def selection_count(n_cells: int) -> int:
    """Number of cells reconsidered per tick, rounded to the nearest integer."""
    return int(math.floor(UPDATE_FRACTION * n_cells + 0.5))


_PROFILE_FIELDS = ("attitude", "inertia_coeff", "norm_weight", "cm_int", "cm_ext", "git_upper")


def _join(parts: list[np.ndarray]) -> np.ndarray:
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _join_cells(values: list, n_cells: np.ndarray) -> np.ndarray:
    """One parameter over the batch cells: a 0-d array when every run has
    the same scalar, else one value per cell."""
    if all(np.ndim(v) == 0 for v in values) and len({float(v) for v in values}) == 1:
        return np.asarray(values[0], dtype=np.float64)
    return _join([np.broadcast_to(v, n) for v, n in zip(values, n_cells)])


def _join_networks(nets: list[SocialNetwork], offsets: np.ndarray) -> SocialNetwork:
    """The networks as one block-diagonal CSR over the batch cells."""
    if len(nets) == 1:
        return nets[0]
    edge_offsets = np.cumsum([0] + [net.indices.size for net in nets])
    indptr = [net.indptr[:-1] + e for net, e in zip(nets, edge_offsets)]
    # Batch cells number far below 2**31, so 32-bit indices halve the copy.
    indices = [net.indices + o for net, o in zip(nets, offsets)]
    return SocialNetwork(
        n_cells=int(offsets[-1]),
        indptr=np.concatenate(indptr + [edge_offsets[-1:]]),
        indices=np.concatenate(indices, dtype=np.int32),
    )


def _neighbours(net: SocialNetwork, cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Neighbours of the given cells, concatenated, and their counts per cell."""
    starts = net.indptr[cells]
    lens = net.indptr[cells + 1] - starts
    first = np.cumsum(lens) - lens
    return net.indices[np.repeat(starts - first, lens) + np.arange(int(lens.sum()))], lens


def _class_counts(net: SocialNetwork, aft_id: np.ndarray, n_types: int) -> np.ndarray:
    """(n_cells, n_types) counts of each class among every cell's neighbours."""
    keys = np.repeat(np.arange(net.n_cells), np.diff(net.indptr))
    keys *= n_types
    keys += aft_id[net.indices]
    counts = np.bincount(keys, minlength=net.n_cells * n_types).astype(np.int32)
    return counts.reshape(net.n_cells, n_types)


class Lockstep:
    """B independent runs advanced together, one `tick` for all of them.

    Run b's cell i is batch cell ``offsets[b] + i``. Land use, capitals and
    decision parameters (``params``) are joined along that index, and the B
    networks into one block-diagonal CSR, so a tick decides for every run in
    one set of array operations. Each run's ``grid.aft_id`` becomes a view of the joined
    land use, so a commit updates every run in place. Commits also keep
    ``class_counts`` (each run's cells per class) and ``neighbour_counts``
    (each cell's neighbours per class) current.

    Runs keep their own generator, demand and supply. A tick draws only the
    runs in ``live`` (ascending). ``supply[b]`` is run b's (material,
    non-material) supply, valid unless ``stale[b]``.
    """

    def __init__(self, states: Sequence[SimulationState]):
        if not states:
            raise ConfigurationError("a batch needs at least one run")
        if any(s.afts != states[0].afts for s in states):
            raise ConfigurationError("runs in a batch must share their management types")
        self.states = list(states)
        tables = self.states[0]
        grids = [s.grid for s in self.states]
        self.n_cells = np.array([g.n_cells for g in grids])
        self.offsets = np.concatenate([[0], np.cumsum(self.n_cells)])
        self.draws = np.array([selection_count(n) for n in self.n_cells])
        self.aft_id = _join([g.aft_id for g in grids])
        if len(grids) > 1:
            for g, lo, hi in zip(grids, self.offsets, self.offsets[1:]):
                g.aft_id = self.aft_id[lo:hi]
        self.c_prod = _join([g.c_prod for g in grids])
        self.c_nat = _join([g.c_nat for g in grids])
        self.params = {
            name: _join_cells([getattr(g.profiles, name) for g in grids], self.n_cells)
            for name in _PROFILE_FIELDS
        }
        self.params["logistic_k"] = _join_cells(
            [s.behaviour_globals.logistic_k for s in self.states], self.n_cells
        )
        economic = np.array([s.economic_baseline for s in self.states])
        self.economic = np.repeat(economic, self.n_cells) if economic.any() else None
        self.network = _join_networks([s.network for s in self.states], self.offsets)
        self.degree = np.diff(self.network.indptr)
        n_types = len(tables.afts)
        self.class_counts = np.array([np.bincount(g.aft_id, minlength=n_types) for g in grids])
        self.neighbour_counts = _join(
            [_class_counts(s.network, s.grid.aft_id, n_types) for s in self.states]
        )
        intensity = tables.intensity_table
        self.at_or_above = intensity[None, :] >= intensity[:, None]
        self.at_or_below = intensity[None, :] <= intensity[:, None]
        self.demand = np.array([(s.demand.d_mat, s.demand.d_nm) for s in self.states])
        self.supply = np.zeros((len(self.states), 2))
        self.stale = np.ones(len(self.states), dtype=bool)
        self.live = np.arange(len(self.states))

    def refresh_supply(self, runs: np.ndarray) -> None:
        """Recompute the supply of the given runs where a commit made it stale."""
        for b in runs[self.stale[runs]]:
            self.supply[b] = _refresh_supply(self.states[b])
        self.stale[runs] = False

    def refresh_attitude(self) -> None:
        """Re-join the attitudes after a schedule changed some of them."""
        attitudes = [s.grid.profiles.attitude for s in self.states]
        self.params["attitude"] = _join_cells(attitudes, self.n_cells)

    def commit(self, cells: np.ndarray, old: np.ndarray, new: np.ndarray) -> None:
        """Switch cells from their old to their new class, all at once."""
        self.aft_id[cells] = new
        nb, lens = _neighbours(self.network, cells)
        n_types = self.neighbour_counts.shape[1]
        keys = nb * n_types
        changes = np.concatenate([keys + np.repeat(old, lens), keys + np.repeat(new, lens)])
        signs = np.repeat(np.array([-1, 1], dtype=np.int32), keys.size)
        np.add.at(self.neighbour_counts.reshape(-1), changes, signs)
        runs = np.searchsorted(self.offsets, cells, side="right") - 1
        np.add.at(self.class_counts, (runs, old), -1)
        np.add.at(self.class_counts, (runs, new), 1)
        self.stale[runs] = True


def _refresh_supply(state: SimulationState) -> tuple[float, float]:
    grid = state.grid
    s_mat = float(state.s_prod_table[grid.aft_id] @ grid.c_prod)
    s_nm = float(state.s_nat_table[grid.aft_id] @ grid.c_nat)
    state.demand.s_mat = s_mat
    state.demand.s_nm = s_nm
    return s_mat, s_nm


def tick(state: SimulationState | Lockstep) -> TickReport:
    """Advance one run, or every live run of a batch, by one tick (in place).

    All evaluations read the start-of-tick snapshot; winning transitions are
    committed together at the end, so outcomes do not depend on the order in
    which drawn cells are processed. Runs in a batch never interact: each
    draws from its own generator, prices against its own supply and counts
    only its own neighbours, so it evolves exactly as it would alone.
    """
    batch = state if isinstance(state, Lockstep) else Lockstep([state])
    live = batch.live
    batch.refresh_supply(live)
    picks = []
    for b, supply in zip(live.tolist(), batch.supply[live].tolist()):
        run = batch.states[b]
        run.demand.s_mat, run.demand.s_nm = supply
        n, k = int(batch.n_cells[b]), int(batch.draws[b])
        if k > 0:
            # A tuple size draws the same cells as k, through a faster path.
            picks.append(run.rng.choice(n, size=(k,), replace=False))
        run.tick += 1
    draws = batch.draws[live]
    sel = np.concatenate([np.empty(0, np.int64), *picks])
    sel = np.sort(sel + np.repeat(batch.offsets[live], draws))
    if sel.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return TickReport(sel, empty, empty, empty)

    tables = batch.states[0]
    n_types = len(tables.afts)
    benefit = np.repeat(unit_benefit(batch.demand[live], batch.supply[live]), draws, axis=0)
    inc = batch.aft_id[sel]
    utilities = (
        benefit[:, 0] * tables.s_prod_table[:, None] * batch.c_prod[sel]
        + benefit[:, 1] * tables.s_nat_table[:, None] * batch.c_nat[sel]
    )
    u_inc = utilities[inc, np.arange(sel.size)]

    # Rows are candidate types, columns the drawn cells.
    counts = batch.neighbour_counts[sel].T
    deg = batch.degree[sel]
    with np.errstate(invalid="ignore"):
        p_ge = (batch.at_or_above @ counts) / deg
        p_le = (batch.at_or_below @ counts) / deg

    params = {name: v[sel] if v.ndim else v for name, v in batch.params.items()}
    intensity = tables.intensity_table
    delta = intensity[:, None] - intensity[inc]
    intensifying = delta > 0
    p = np.where(intensifying, p_ge, p_le)
    cm = np.where(intensifying, params["cm_int"], params["cm_ext"])
    a_eff = -np.sign(delta) * params["attitude"]
    jump = np.abs(delta)
    x = _influence_score(
        params["norm_weight"], params["inertia_coeff"], clip_social(p - cm), a_eff, jump
    )
    git = _giving_in(params["git_upper"], params["logistic_k"], x)
    if batch.economic is not None:
        git = np.where(batch.economic[sel], 0.0, git)
    surplus = utilities - u_inc
    admissible = (np.arange(n_types)[:, None] != inc) & (surplus > git)
    score = np.where(admissible, surplus - git, -np.inf)

    # The largest score wins; ties go to the smaller jump, then the lower id.
    best = score.max(axis=0)
    tied_jump = np.where(score == best, jump, np.inf)
    best_id = np.argmax(tied_jump == tied_jump.min(axis=0), axis=0)
    changed = best > -np.inf
    report = TickReport(sel, sel[changed], inc[changed], best_id[changed])
    batch.commit(report.cells, report.old_aft, report.new_aft)
    return report


def apply_attitude_schedule(
    state: SimulationState,
    schedule: AttitudeSchedule,
    per_cell_offsets: np.ndarray | None = None,
) -> SimulationState:
    """Set attitudes to the scheduled mean at the current tick plus offsets.

    The sum is clamped to [-1, 1] cell by cell.
    """
    offsets = per_cell_offsets if per_cell_offsets is not None else state.attitude_offsets
    if offsets is None:
        offsets = 0.0
    mean = schedule.mean_at(state.tick)
    state.grid.profiles.attitude = np.clip(mean + offsets, -1.0, 1.0)
    return state


@dataclass(frozen=True)
class StopRule:
    """Run to stability: stop once every share moved less than epsilon
    across a trailing window, or at max_ticks regardless.

    The check spans the window+1 most recent rows, so a run that never moves
    stops exactly at tick == window.
    """

    max_ticks: int = 2000
    window: int = 50
    epsilon: float = 0.002

    def __post_init__(self):
        if self.window < 1 or self.max_ticks < self.window:
            raise ConfigurationError("need max_ticks >= window >= 1")
        if self.epsilon <= 0:
            raise ConfigurationError("epsilon must be positive")

    @property
    def last_tick(self) -> int:
        return self.max_ticks


def _window_settled(values: list[float], window: int, epsilon: float) -> bool:
    tail = values[-(window + 1) :]
    return max(tail) - min(tail) < epsilon


def run_lockstep(
    states: Sequence[SimulationState],
    rules: Sequence[StopRule | AttitudeSchedule],
) -> list[Trajectory]:
    """Run each state to its own end, all in one batch; returns their trajectories.

    ``rules[b]`` is run b's StopRule, or the AttitudeSchedule it follows for
    the schedule's full span, re-applying attitudes every tick. A run that
    has ended stops being drawn. Every run's trajectory and final state are
    exactly those it gets when run on its own.
    """
    if len(rules) != len(states):
        raise ConfigurationError("need one stopping rule per run")
    schedules = {b: r for b, r in enumerate(rules) if isinstance(r, AttitudeSchedule)}
    for b, schedule in schedules.items():
        apply_attitude_schedule(states[b], schedule)
    batch = Lockstep(states)
    attitude = [float(np.mean(s.grid.profiles.attitude)) for s in states]
    rows: list[list[tuple]] = [[] for _ in states]
    shares: list[tuple[list[float], ...]] = [([], [], []) for _ in states]

    def record(runs: np.ndarray) -> None:
        # The supply recorded after a tick is the next tick's pre-tick supply.
        batch.refresh_supply(runs)
        fractions = (batch.class_counts[runs, :3] / batch.n_cells[runs, None]).tolist()
        for b, share, supply in zip(runs.tolist(), fractions, batch.supply[runs].tolist()):
            state = states[b]
            scheduled = ()
            if b in schedules:
                attitude[b] = float(np.mean(state.grid.profiles.attitude))
                scheduled = (schedules[b].mean_at(state.tick),)
            rows[b].append((state.tick, *share, *supply, attitude[b], *scheduled))
            for col, value in zip(shares[b], share):
                col.append(value)

    def ended(b: int) -> bool:
        rule, now = rules[b], states[b].tick
        if now >= rule.last_tick:
            return True
        return (
            b not in schedules
            and now >= rule.window
            and all(_window_settled(col, rule.window, rule.epsilon) for col in shares[b])
        )

    runs = np.arange(len(states))
    record(runs)
    live = [b for b in runs.tolist() if states[b].tick < rules[b].last_tick]
    while live:
        batch.live = np.array(live)
        tick(batch)
        stepped = [b for b in live if b in schedules]
        for b in stepped:
            apply_attitude_schedule(states[b], schedules[b])
        if stepped:
            batch.refresh_attitude()
        record(batch.live)
        live = [b for b in live if not ended(b)]
    return [Trajectory.from_rows(rows[b]) for b in runs.tolist()]


def run_until_stable(
    state: SimulationState,
    max_ticks: int = 2000,
    window: int = 50,
    epsilon: float = 0.002,
) -> tuple[SimulationState, Trajectory]:
    """Tick until every share moved less than epsilon across a trailing window.

    The check spans the window+1 most recent rows, so a run that never moves
    stops exactly at tick == window. Stops at max_ticks regardless.
    """
    (trajectory,) = run_lockstep([state], [StopRule(max_ticks, window, epsilon)])
    return state, trajectory


def run_schedule(
    state: SimulationState,
    schedule: AttitudeSchedule,
) -> tuple[SimulationState, Trajectory]:
    """Run for the schedule's full span, re-applying attitudes every tick."""
    (trajectory,) = run_lockstep([state], [schedule])
    return state, trajectory

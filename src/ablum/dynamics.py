"""Simulation engine: demand-driven competition gated by giving-in thresholds.

Each tick prices against the landscape's current supply, draws a random
subset of cells, and lets the non-incumbent management types compete for
each drawn cell against a start-of-tick snapshot. A competitor wins only
if its utility surplus over the incumbent strictly exceeds the manager's
giving-in threshold; among admissible competitors the largest
surplus-over-threshold wins, with ties broken towards the smaller intensity
jump, then the lower type id. A threshold is never negative, so only the
(type, drawn cell) pairs with a positive surplus can switch, and a tick
evaluates thresholds for those pairs alone.

One engine serves one run and many: a Lockstep batch advances independent
runs together, one vectorised tick for all, and a single run is a batch of
one. Each run's results are the same either way, bit for bit.

Every run keeps its own generator, and its cells are exactly those one
``rng.choice(n, size=(k,), replace=False)`` call per tick would draw. Inside
`run_lockstep` a run draws up to DRAW_AHEAD ticks of selections with one
``rng.integers`` call, and the batch resolves them into numpy's picks all at
once; at the end each generator is rewound past the ticks its run did not
take, so every output and every final generator state is unchanged. Grids
above 10,000 cells, where numpy shuffles a tail of arange(n) instead, still
call ``rng.choice`` once per tick: `_floyd` could resolve those draws too,
but more slowly than the calls (see `_choice_draws`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .behaviour import BehaviourGlobals, BehaviouralProfile, _giving_in, _influence_score, clip_social
from .errors import ConfigurationError
from .landscape import DEFAULT_AFTS, INTENSITY, S_NAT, S_PROD, AgentFunctionalType, Cell, LandscapeGrid
from .metrics import Trajectory
from .network import Network

# Fraction of cells reconsidering their management each tick.
UPDATE_FRACTION = 0.05

# Ticks of cell selections a run in `run_lockstep` draws at once.
DRAW_AHEAD = 16

_N_TYPES = len(DEFAULT_AFTS)
# Flat [c, i, t]: whether a neighbour of class c conforms to a switch from
# type i to type t: at or above t's intensity if t is more intense than i,
# else at or below it.
_CONFORMING = np.where(
    INTENSITY[None, None, :] > INTENSITY[None, :, None],
    INTENSITY[:, None, None] >= INTENSITY[None, None, :],
    INTENSITY[:, None, None] <= INTENSITY[None, None, :],
).reshape(-1)


@dataclass
class DemandState:
    """Exogenous demands and the most recent supply totals."""

    d_mat: float
    d_nm: float
    s_mat: float = 0.0
    s_nm: float = 0.0

    def __post_init__(self):
        if not (self.d_mat > 0 and self.d_nm > 0):
            raise ConfigurationError("demands must be positive")


def unit_benefit(demand, supply):
    """Marginal value of one supply unit: relative shortfall, floored at 0.

    Takes scalars or arrays, elementwise.
    """
    demand = np.asarray(demand, dtype=np.float64)
    if not np.all(demand > 0):
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
        if not all(float(t).is_integer() for t in ticks):
            raise ConfigurationError("schedule ticks must be integers")
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
    network: Network
    behaviour_globals: BehaviourGlobals
    demand: DemandState
    rng: np.random.Generator
    tick: int = 0
    attitude_offsets: float | np.ndarray = 0.0

    def __post_init__(self):
        if self.grid.profiles is None:
            raise ConfigurationError("grid needs behavioural profiles attached")
        if self.network.n_cells != self.grid.n_cells:
            raise ConfigurationError("network size does not match the grid")


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


def _share(owners: list, name: str, n_cells: int) -> np.ndarray:
    """Every owner's per-cell ``name`` (a scalar is broadcast), joined along
    the batch cells; each owner's ``name`` becomes its view of the result."""
    joined = np.concatenate([np.broadcast_to(getattr(o, name), n_cells) for o in owners])
    for o, part in zip(owners, np.split(joined, len(owners))):
        setattr(o, name, part)
    return joined


def _per_run(values: list[float]) -> np.ndarray:
    """A parameter every run holds as a scalar: a 0-d array when all are
    equal, else one value per run."""
    if len({float(v) for v in values}) == 1:
        return np.asarray(values[0], dtype=np.float64)
    return np.array(values, dtype=np.float64)


def _gather(indices: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The runs ``indices[starts[k]:ends[k]]``, concatenated, and k for each
    entry."""
    lens = ends - starts
    at = np.repeat(np.arange(lens.size), lens)
    positions = np.arange(at.size)
    positions += (starts - np.cumsum(lens) + lens)[at]
    return indices[positions], at


def _floyd(draws: np.ndarray, n: int) -> np.ndarray:
    """The picks Floyd's algorithm makes from its draws, one row per call:
    ``draws[:, t]`` lies on [0, n - k + t], and pick t is that draw unless
    it is already taken, then n - k + t. A draw is taken iff it repeats an
    earlier draw, or is the top value n - k + s of an earlier pick s whose
    own draw was taken."""
    m, k = draws.shape
    # Sorting (row, value, position) keys puts each repeat right after the
    # draw it repeats.
    shift = (k - 1).bit_length()
    keys = np.sort((((draws + n * np.arange(m)[:, None]) << shift) | np.arange(k)).reshape(-1))
    row_value = keys >> shift
    repeats = keys[1:][row_value[1:] == row_value[:-1]]
    taken = np.zeros((m, k), dtype=bool)
    taken[(repeats >> shift) // n, repeats & ((1 << shift) - 1)] = True
    earlier = draws - (n - k)
    rows, cols = np.nonzero((earlier >= 0) & (earlier < np.arange(k)))
    earlier = earlier[rows, cols]
    while True:
        grow = taken[rows, earlier] & ~taken[rows, cols]
        if not grow.any():
            return np.where(taken, np.arange(n - k, n), draws)
        taken[rows[grow], cols[grow]] = True


def _choice_draws(rngs: list[np.random.Generator], n: int, k: int, ticks: int) -> np.ndarray:
    """(len(rngs), ticks, k): the cells ``ticks`` calls of ``rng.choice(n,
    size=(k,), replace=False)`` pick from each generator, in no set order
    within a tick. Each generator ends where those calls leave it.

    numpy uses Floyd's algorithm unless n > 10,000 and k > n // 50: one draw
    on [0, j] for each j from n - k to n - 1, then a shuffle of the picks that
    draws on [0, i] for i from k - 1 down to 1. One ``rng.integers`` call with
    those bounds makes the same draws, so a generator draws all its ticks at
    once and `_floyd` resolves every generator's picks together. Otherwise
    numpy shuffles a tail of arange(n) with draws on [0, j], j from n - 1
    down to n - k, and picks the set `_floyd` picks from those draws
    reversed; each tick still takes one call, which is faster (README).
    """
    if not k:
        return np.empty((len(rngs), ticks, 0), dtype=np.int64)
    if n > 10_000 and k > n // 50:
        picks = [rng.choice(n, size=(k,), replace=False) for rng in rngs for _ in range(ticks)]
        return np.array(picks, dtype=np.int64).reshape(len(rngs), ticks, k)
    highs = np.tile(np.r_[n - k + 1 : n + 1, k:1:-1], ticks)
    draws = np.array([rng.integers(0, highs) for rng in rngs]).reshape(-1, 2 * k - 1)
    return _floyd(draws[:, :k], n).reshape(len(rngs), ticks, k)


class Lockstep:
    """B independent runs of one grid shape, one `tick` for all of them.

    Every run has ``n_cells`` cells and draws ``draws`` of them a tick; run
    b's cell i is batch cell ``offsets[b] + i``, or ``b * n_cells + i``.
    Land use, capitals, attitude offsets and decision parameters
    (``params``) are joined along that index, so a tick decides for every
    run in one set of array operations. A parameter is held per cell when
    it varies within any run, and attitude always is; a parameter that is
    one number per run is held per run. Each run's ``grid.aft_id``,
    ``grid.c_prod``, ``grid.c_nat``, ``attitude_offsets`` and per-cell
    profile fields become views of the joined arrays, in a batch of one run
    as of many, so a commit or a schedule updates every run in place and no
    per-cell array is held twice. Commits also keep
    ``class_counts`` (each run's cells per class), ``neighbour_counts`` (each
    cell's neighbours per class) and ``s_prod``, ``s_nat`` (each cell's
    sensitivities under its land use) current.

    Networks are never copied per run: the batch keeps each distinct lattice
    value once (``lattices``; run b uses ``lattices[lattice_of[b]]``). The
    lattices of one grid differ only in radius, so every neighbour comes from
    one gather through the widest one's stencil (``widest``), cut to each
    run's radius (``radius``). The batch joins only the runs'
    teleconnections, as directed batch-cell pairs sorted by source
    (``tele_src``, ``tele_dst``).

    Runs keep their own generator, demand and supply. A tick draws only the
    runs in ``live`` (ascending). ``supply[b]`` is run b's (material,
    non-material) supply, priced when the batch is built and again by every
    commit that changes the run's land use, all such runs in one stacked
    matmul per service.

    ``picks[b, t]`` holds run b's cells for the t-th tick since the last
    refill, which draws every live run at once: one tick, or, when
    ``last_tick`` is set and the live runs share one tick, up to DRAW_AHEAD
    ticks but never past ``last_tick``. Then ``refills[b]`` keeps run b's
    generator state before its latest refill, the tick it was at and the
    ticks drawn, so `rewind` can take back the draws of ticks the run did
    not take.
    """

    def __init__(self, states: Sequence[SimulationState], last_tick: int | None = None):
        if not states:
            raise ConfigurationError("a batch needs at least one run")
        self.states = list(states)
        grids = [s.grid for s in self.states]
        nets = [s.network for s in self.states]
        if len({(g.width, g.height) for g in grids}) > 1:
            raise ConfigurationError("runs in a batch must share one grid shape")
        n = self.n_cells = grids[0].n_cells
        self.offsets = n * np.arange(len(grids) + 1)
        self.draws = selection_count(n)
        self.aft_id, self.c_prod, self.c_nat = (
            _share(grids, name, n) for name in ("aft_id", "c_prod", "c_nat")
        )
        self.s_prod, self.s_nat = S_PROD[self.aft_id], S_NAT[self.aft_id]
        self.attitude_offsets = _share(self.states, "attitude_offsets", n)
        profiles = [g.profiles for g in grids]
        self.params = {
            f.name: _share(profiles, f.name, n)
            if f.name == "attitude" or any(np.ndim(getattr(p, f.name)) for p in profiles)
            else _per_run([getattr(p, f.name) for p in profiles])
            for f in fields(BehaviouralProfile)
        }
        self.params["logistic_k"] = _per_run([s.behaviour_globals.logistic_k for s in self.states])

        self.lattices = list(dict.fromkeys(net.lattice for net in nets))
        self.lattice_of = np.array([self.lattices.index(net.lattice) for net in nets])
        lattice_degrees = [lattice.degrees() for lattice in self.lattices]
        self.degree = np.concatenate([lattice_degrees[g] for g in self.lattice_of])
        # The lattices differ only in radius: the widest one's stencil, cut
        # to each run's radius, gives every run's neighbours.
        radii = np.array([lattice.radius for lattice in self.lattices])
        self.widest = self.lattices[radii.argmax()]
        self.radius = radii[self.lattice_of]
        self.neighbour_counts = np.concatenate(
            [net.lattice.class_counts(g.aft_id, _N_TYPES) for net, g in zip(nets, grids)]
        )
        # Both directions of every teleconnection, as batch cells sorted by source.
        lo, hi = np.concatenate([net.tele + o for net, o in zip(nets, self.offsets)]).T
        src, dst = np.concatenate([lo, hi]), np.concatenate([hi, lo])
        order = np.argsort(src, kind="stable")
        self.tele_src, self.tele_dst = src[order], dst[order]
        np.add.at(self.degree, src, 1)
        np.add.at(self.neighbour_counts.reshape(-1), src * _N_TYPES + self.aft_id[dst], 1)
        self.class_counts = np.array([np.bincount(g.aft_id, minlength=_N_TYPES) for g in grids])
        self.demand = np.array([(s.demand.d_mat, s.demand.d_nm) for s in self.states])
        self.supply = np.empty((len(self.states), 2))
        self.live = np.arange(len(self.states))
        self.refresh_supply(self.live)
        self.last_tick = last_tick
        self.picks = np.empty((len(self.states), 0, 0), dtype=np.int64)
        self.next_pick = 0
        self.refills: dict[int, tuple[dict, int, int]] = {}

    def select(self) -> np.ndarray:
        """The batch cells every live run reconsiders this tick, ascending."""
        if self.next_pick == self.picks.shape[1]:
            self._refill(self.live)
        self.next_pick += 1
        return self.picks[self.live, self.next_pick - 1].reshape(-1)

    def _refill(self, live: np.ndarray) -> None:
        ticks = 1
        rngs = [self.states[b].rng for b in live.tolist()]
        if self.last_tick is not None:
            ticks = min(DRAW_AHEAD, self.last_tick - self.states[live[0]].tick)
            for b, rng in zip(live.tolist(), rngs):
                self.refills[b] = (rng.bit_generator.state, self.states[b].tick, ticks)
        picks = np.sort(_choice_draws(rngs, self.n_cells, self.draws, ticks), axis=2)
        self.picks = np.empty((len(self.states), ticks, self.draws), dtype=np.int64)
        self.picks[live] = picks + self.offsets[live, None, None]
        self.next_pick = 0

    def rewind(self) -> None:
        """Leave each run's generator as one ``rng.choice`` call per tick it
        took would: restore the state before its latest refill and redraw
        only the ticks it took since."""
        redraw: dict[int, list[np.random.Generator]] = {}
        for b, (saved, first_tick, ticks) in self.refills.items():
            taken = self.states[b].tick - first_tick
            if taken < ticks:
                rng = self.states[b].rng
                rng.bit_generator.state = saved
                redraw.setdefault(taken, []).append(rng)
        for taken, rngs in redraw.items():
            _choice_draws(rngs, self.n_cells, self.draws, taken)

    def refresh_supply(self, runs: np.ndarray) -> None:
        """Price the supply of the given runs (ascending), into ``supply`` and
        into each run's demand state.

        One stacked matmul per service takes every run's dot product of its
        cells' sensitivities and capitals. numpy hands each (1, n) @ (n, 1)
        row to the BLAS dot that `metrics.total_supply`'s ``@`` calls, so the
        totals are the same bits."""
        if not runs.size:
            return
        # Views of the runs from the first given to the last copy nothing;
        # the runs between are priced too, and dropped.
        lo, hi = self.offsets[runs[0]], self.offsets[runs[-1] + 1]
        shape = (-1, 1, self.n_cells)
        services = [(self.s_prod, self.c_prod), (self.s_nat, self.c_nat)]
        for column, (sensitivity, capital) in enumerate(services):
            rows = sensitivity[lo:hi].reshape(shape)
            cols = capital[lo:hi].reshape(shape).transpose(0, 2, 1)
            self.supply[runs, column] = np.matmul(rows, cols).reshape(-1)[runs - runs[0]]
        for b, (s_mat, s_nm) in zip(runs.tolist(), self.supply[runs].tolist()):
            demand = self.states[b].demand
            demand.s_mat, demand.s_nm = s_mat, s_nm

    def neighbours(self, cells: np.ndarray, runs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Neighbours of the given batch cells of the given runs, concatenated,
        and for each neighbour the position in ``cells`` of the cell it
        neighbours."""
        rows = cells - self.offsets[runs]
        nb, at = self.widest.gather(rows, self.radius[runs])
        nb += (cells - rows)[at]  # back to batch cells
        if self.tele_src.size:
            bounds = np.searchsorted(self.tele_src, cells), np.searchsorted(self.tele_src, cells, "right")
            tele_nb, tele_at = _gather(self.tele_dst, *bounds)
            nb, at = np.concatenate([nb, tele_nb]), np.concatenate([at, tele_at])
        return nb, at

    def commit(self, cells: np.ndarray, old: np.ndarray, new: np.ndarray) -> None:
        """Switch cells from their old to their new class, all at once."""
        self.aft_id[cells] = new
        self.s_prod[cells], self.s_nat[cells] = S_PROD[new], S_NAT[new]
        runs = cells // self.n_cells
        nb, at = self.neighbours(cells, runs)
        nb *= _N_TYPES
        # int32 steps, matching the counts, keep ufunc.at on its fast path.
        np.add.at(self.neighbour_counts.reshape(-1), nb + old[at], np.int32(-1))
        np.add.at(self.neighbour_counts.reshape(-1), nb + new[at], np.int32(1))
        np.add.at(self.class_counts, (runs, old), -1)
        np.add.at(self.class_counts, (runs, new), 1)
        self.refresh_supply(np.unique(runs))


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
    sel = batch.select()
    for b in live.tolist():
        batch.states[b].tick += 1
    if sel.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return TickReport(sel, empty, empty, empty)

    benefit = np.repeat(unit_benefit(batch.demand[live], batch.supply[live]), batch.draws, axis=0)
    inc = batch.aft_id[sel]
    # Rows are candidate types, columns the drawn cells.
    utilities = (
        benefit[:, 0] * S_PROD[:, None] * batch.c_prod[sel]
        + benefit[:, 1] * S_NAT[:, None] * batch.c_nat[sel]
    )
    surplus = utilities - utilities[inc, np.arange(sel.size)]

    # A threshold is never negative and the incumbent's surplus is 0, so only
    # pairs (type t, drawn cell j) with a positive surplus can switch; the
    # thresholds are evaluated for those pairs alone.
    pairs = np.flatnonzero(surplus > 0)
    t, j = np.divmod(pairs, sel.size)
    surplus = surplus.reshape(-1)[pairs]
    cells, old = sel[j], inc[j]
    # Per-run values have one entry per run, per-cell values one per batch
    # cell; a batch never has more runs than cells, and if as many, the two
    # indexings agree.
    run_of = live[j // batch.draws]
    params = {
        name: v[run_of if v.size == len(batch.states) else cells] if v.ndim else v
        for name, v in batch.params.items()
    }
    delta = INTENSITY[t] - INTENSITY[old]
    intensifying = delta > 0
    # Each pair's neighbours of every class (rows), kept where the class
    # conforms: an integer sum, so p is exact.
    classes = np.arange(_N_TYPES)[:, None]
    conforming = (
        batch.neighbour_counts.reshape(-1)[cells * _N_TYPES + classes]
        * _CONFORMING[(classes * _N_TYPES + old) * _N_TYPES + t]
    ).sum(axis=0)
    with np.errstate(invalid="ignore"):
        p = conforming / batch.degree[cells]
    cm = np.where(intensifying, params["cm_int"], params["cm_ext"])
    a_eff = -np.sign(delta) * params["attitude"]
    jump = np.abs(delta)
    x = _influence_score(
        params["norm_weight"], params["inertia_coeff"], clip_social(p - cm), a_eff, jump
    )
    git = _giving_in(params["git_upper"], params["logistic_k"], x)
    admissible = np.flatnonzero(surplus > git)

    # The largest score wins; ties go to the smaller jump, then the lower id.
    # git - surplus is the score negated, exactly.
    t, j = t[admissible], j[admissible]
    order = np.lexsort((t, jump[admissible], git[admissible] - surplus[admissible], j))
    t, j = t[order], j[order]
    first = j != np.concatenate(([-1], j[:-1]))
    report = TickReport(sel, sel[j[first]], inc[j[first]], t[first])
    batch.commit(report.cells, report.old_aft, report.new_aft)
    return report


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
        if not self.epsilon > 0:
            raise ConfigurationError("epsilon must be positive")

    @property
    def last_tick(self) -> int:
        return self.max_ticks


def run_lockstep(
    states: Sequence[SimulationState],
    rule: StopRule | AttitudeSchedule,
) -> list[Trajectory]:
    """Run every state under one rule, all in one batch; returns their trajectories.

    ``rule`` is the StopRule each run stops by, or the AttitudeSchedule every
    run follows for the schedule's full span: at the start and after every
    tick, one in-place clip of the scheduled mean plus the batch's attitude
    offsets rewrites every run's attitudes, and one row-wise mean gives
    every run's mean attitude. The runs must share a grid shape and a
    starting tick. A run that has ended stops being drawn. Every run's
    trajectory and final state, its generator's included, are exactly those
    it gets when run on its own: runs draw their selections up to DRAW_AHEAD
    ticks ahead, and the batch rewinds their generators before it returns.

    Each step records one block of rows, one per live run; the trajectories
    are cut from the blocks at the end. Run b keeps the shares of its latest
    ``window + 1`` steps in ``recent[b]``, step s in column s % (window + 1),
    so one max-minus-min over those columns decides settling for every live
    run at once. Every column starts at step 0's shares, which belong to the
    trailing window for as long as fewer steps have been taken. The live
    runs' rows are read through an index made once per change of the live
    set: a slice, which gathers nothing, while they are one contiguous range,
    as a single run always is.
    """
    if len({s.tick for s in states}) > 1:
        raise ConfigurationError("runs in a batch must start on the same tick")
    scheduled = isinstance(rule, AttitudeSchedule)
    batch = Lockstep(states, last_tick=rule.last_tick)
    attitude = batch.params["attitude"]
    first_tick = states[0].tick
    window = 0 if scheduled else rule.window
    # Steps at which the runs reach the last tick, and may settle: at tick
    # window, and never under a schedule.
    last_step = rule.last_tick - first_tick
    settle_step = math.inf if scheduled else window - first_tick
    recent = np.empty((len(states), 3, window + 1))
    # Columns mean_attitude and scheduled_attitude (NaN without a schedule).
    # Each row of the attitude reshaped is one run's cells, and its mean is
    # that run's np.mean, bit for bit.
    attitudes = np.full((len(states), 2), np.nan)
    attitudes[:, 0] = attitude.reshape(len(states), -1).mean(axis=1)
    blocks: list[tuple[np.ndarray, np.ndarray]] = []

    def rows_of(runs: np.ndarray) -> slice | np.ndarray:
        contiguous = runs.size and runs[-1] - runs[0] + 1 == runs.size
        return slice(runs[0], runs[-1] + 1) if contiguous else runs

    def record(runs: np.ndarray, rows: slice | np.ndarray, step: int) -> None:
        shares = batch.class_counts[rows] / batch.n_cells
        recent[rows, :, step % (window + 1)] = shares
        if scheduled:
            mean = rule.mean_at(first_tick + step)
            np.clip(mean + batch.attitude_offsets, -1.0, 1.0, out=attitude)
            attitudes[rows, 0] = attitude.reshape(len(states), -1)[rows].mean(axis=1)
            attitudes[rows, 1] = mean
        blocks.append((runs, np.concatenate([shares, batch.supply[rows], attitudes[rows]], axis=1)))

    live = np.arange(len(states))
    rows = rows_of(live)
    record(live, rows, 0)
    recent[...] = recent[:, :, :1]
    step = 0
    while step < last_step and live.size:
        batch.live = live
        tick(batch)
        step += 1
        record(live, rows, step)
        if settle_step <= step:
            shares = recent[rows]
            moving = ((shares.max(axis=2) - shares.min(axis=2)) >= rule.epsilon).any(axis=1)
            if not moving.all():
                live = live[moving]
                rows = rows_of(live)
    batch.rewind()

    runs = np.concatenate([r for r, _ in blocks])
    order = np.argsort(runs, kind="stable")
    ticks = (first_tick + np.repeat(np.arange(len(blocks)), [r.size for r, _ in blocks]))[order]
    values = np.concatenate([rows.T for _, rows in blocks], axis=1)[:, order]
    ends = np.cumsum(np.bincount(runs, minlength=len(states)))
    return [
        Trajectory(ticks[lo:hi], *values[:6, lo:hi], scheduled_attitude=values[6, lo:hi] if scheduled else None)
        for lo, hi in zip(ends - np.diff(ends, prepend=0), ends)
    ]


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
    (trajectory,) = run_lockstep([state], StopRule(max_ticks, window, epsilon))
    return state, trajectory


def run_schedule(
    state: SimulationState,
    schedule: AttitudeSchedule,
) -> tuple[SimulationState, Trajectory]:
    """Run for the schedule's full span, re-applying attitudes every tick."""
    (trajectory,) = run_lockstep([state], schedule)
    return state, trajectory

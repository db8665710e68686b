"""Each fast path of the batch tick against the slow path it replaced, bit for bit.

- The threshold kernel evaluates thresholds only for (type, cell) pairs with
  a positive surplus; `dense_tick`, the kernel it replaced, evaluates them
  for all three types of every drawn cell.
- A batch prices supply with one stacked matmul per service over
  sensitivity columns it keeps current; `metrics.total_supply` prices one
  grid from its land use.
- A batch gathers neighbours through the widest lattice's stencil, cut to
  each run's radius; each lattice gathers its own.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ablum import (
    BehaviourGlobals,
    BehaviouralProfile,
    DemandState,
    ExperimentConfig,
    LandscapeGrid,
    SimulationState,
    build_lattice,
    build_state,
    dynamics,
    tick,
    total_supply,
)
from ablum.behaviour import _giving_in, _influence_score, clip_social
from ablum.dynamics import AttitudeSchedule, Lockstep, StopRule, TickReport, run_lockstep, unit_benefit
from ablum.landscape import INTENSITY, S_NAT, S_PROD

# Row i, column j: whether type j's intensity is at or above (below) type i's.
AT_OR_ABOVE = INTENSITY[None, :] >= INTENSITY[:, None]
AT_OR_BELOW = INTENSITY[None, :] <= INTENSITY[:, None]


def dense_scores(batch: Lockstep, sel: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every type's score on the given batch cells (rows types, columns
    cells), -inf where the type may not switch in, and each type's jump:
    the giving-in threshold of all three types of every cell."""
    run_of = sel // batch.n_cells
    benefit = unit_benefit(batch.demand[run_of], batch.supply[run_of])
    inc = batch.aft_id[sel]
    utilities = (
        benefit[:, 0] * S_PROD[:, None] * batch.c_prod[sel]
        + benefit[:, 1] * S_NAT[:, None] * batch.c_nat[sel]
    )
    u_inc = utilities[inc, np.arange(sel.size)]

    counts = batch.neighbour_counts[sel].T
    deg = batch.degree[sel]
    with np.errstate(invalid="ignore"):
        p_ge = (AT_OR_ABOVE @ counts) / deg
        p_le = (AT_OR_BELOW @ counts) / deg

    params = {
        name: v[run_of if v.size == len(batch.states) else sel] if v.ndim else v
        for name, v in batch.params.items()
    }
    delta = INTENSITY[:, None] - INTENSITY[inc]
    intensifying = delta > 0
    p = np.where(intensifying, p_ge, p_le)
    cm = np.where(intensifying, params["cm_int"], params["cm_ext"])
    a_eff = -np.sign(delta) * params["attitude"]
    jump = np.abs(delta)
    x = _influence_score(
        params["norm_weight"], params["inertia_coeff"], clip_social(p - cm), a_eff, jump
    )
    git = _giving_in(params["git_upper"], params["logistic_k"], x)
    surplus = utilities - u_inc
    admissible = (np.arange(3)[:, None] != inc) & (surplus > git)
    return np.where(admissible, surplus - git, -np.inf), jump


def dense_tick(batch: Lockstep) -> TickReport:
    """One tick of the batch through `dense_scores`: the largest score wins,
    ties go to the smaller jump, then the lower type id."""
    sel = batch.select()
    for b in batch.live.tolist():
        batch.states[b].tick += 1
    score, jump = dense_scores(batch, sel)
    best = score.max(axis=0, initial=-np.inf)
    tied_jump = np.where(score == best, jump, np.inf)
    best_id = np.argmax(tied_jump == tied_jump.min(axis=0, initial=np.inf), axis=0)
    changed = best > -np.inf
    report = TickReport(sel, sel[changed], batch.aft_id[sel][changed], best_id[changed])
    batch.commit(report.cells, report.old_aft, report.new_aft)
    return report


def reports_of(kernel, states, rule):
    """Every TickReport of a lockstep run whose ticks go through ``kernel``,
    and the run's trajectories."""
    reports = []

    def recorded(batch):
        reports.append(kernel(batch))
        return reports[-1]

    with mock.patch.object(dynamics, "tick", recorded):
        trajectories = run_lockstep(states, rule)
    return reports, trajectories


def batch_configs(side, seed, demand, scheduled):
    """Runs of one grid that differ in radius, teleconnections, per-cell
    spreads and logistic steepness, with an economic-baseline run unless the
    batch follows a schedule."""
    base = dict(
        grid_width=side, grid_height=side + 1, demand_mat=demand * side * side,
        demand_nm=demand * side * side, seed=seed, max_ticks=30, window=5,
    )
    if scheduled:
        base["schedule"] = ((0, -0.6), (12, 0.6))
    configs = [
        ExperimentConfig(**base, moore_radius=1),
        ExperimentConfig(
            **base, moore_radius=2, n_tele=6, attitude_sigma=0.3, norm_weight_sigma=0.1,
            cm_int_sigma=0.1, cm_ext_sigma=0.1, inertia_lambda=0.2, inertia_sigma=0.1,
        ),
        ExperimentConfig(**base, moore_radius=3, n_tele=4, git_upper_sigma=0.1, logistic_k=5.0),
        ExperimentConfig(**base, moore_radius=2, cm_int=0.1, logistic_k=20.0),
    ]
    if not scheduled:
        configs.append(ExperimentConfig(**base, moore_radius=1, n_tele=3, economic_baseline=True))
    return configs


# `tie_state`'s c_prod, which gives medium a surplus of 0.067 and high
# twice that, and its inertia.
CP = 0.3833
INERTIA = 0.74


def tie_state(width, height, git_upper):
    """All-conservation grid of c_prod CP and c_nat 0.5 whose material
    demand is unmet and half its non-material demand met, so the material
    benefit is 1 and the non-material one 0.5. With pure attitude -1 and
    inertia INERTIA, both switches beat their thresholds for git_upper near
    0.99."""
    n = width * height
    profiles = BehaviouralProfile(
        attitude=np.full(n, -1.0), inertia_coeff=INERTIA, norm_weight=0.0, git_upper=git_upper
    )
    grid = LandscapeGrid(
        width, height, np.full(n, CP), np.full(n, 0.5), np.zeros(n, dtype=np.int64),
        profiles=profiles,
    )
    return SimulationState(
        grid=grid,
        network=build_lattice(width, height, 1),
        behaviour_globals=BehaviourGlobals(10.0),
        demand=DemandState(1.0, float(n)),
        rng=np.random.default_rng(0),
    )


class TestThresholdKernel:
    @given(
        side=st.integers(6, 10),
        seed=st.integers(0, 10_000),
        demand=st.sampled_from([0.3, 0.5, 0.8]),
        scheduled=st.booleans(),
        picks=st.lists(st.integers(0, 4), min_size=1, max_size=5, unique=True),
    )
    @settings(max_examples=25, deadline=None)
    def test_tick_equals_the_dense_kernel(self, side, seed, demand, scheduled, picks):
        configs = batch_configs(side, seed, demand, scheduled)
        configs = [configs[i % len(configs)] for i in picks]
        rule = AttitudeSchedule(configs[0].schedule) if scheduled else StopRule(30, 5, 0.002)
        results = []
        for kernel in (tick, dense_tick):
            states = [build_state(cfg, (seed, p, 0)) for p, cfg in enumerate(configs)]
            results.append((*reports_of(kernel, states, rule), states))
        (fast, fast_traj, fast_states), (dense, dense_traj, dense_states) = results
        assert len(fast) == len(dense) > 0
        for a, b in zip(fast, dense):
            for name in ("selected", "cells", "old_aft", "new_aft"):
                x, y = getattr(a, name), getattr(b, name)
                assert np.array_equal(x, y) and x.dtype == y.dtype, name
        for a, b in zip(fast_traj, dense_traj):
            assert np.array_equal(a.s_mat, b.s_mat) and np.array_equal(a.share_mi, b.share_mi)
        for a, b in zip(fast_states, dense_states):
            assert np.array_equal(a.grid.aft_id, b.grid.aft_id)

    def test_a_score_tie_goes_to_the_smaller_jump(self):
        # Every cell is conservation with the same capitals, so switching to
        # medium (jump 0.5) and to high (jump 1) have the same surplus and
        # threshold everywhere; git_upper sets how the two scores compare.
        # Search 1,600 git_upper values, one per cell, around the one that
        # ties the scores in exact arithmetic. There the scores are about
        # 0.065, at the bottom of their binade, and git_upper near 0.99 at
        # the top of its, so one step of git_upper moves the scores' gap by
        # about half a unit in the last place and some step ties them.
        s1, s2 = 0.5 * CP + 0.125 - 0.25, CP - 0.25
        c1, c2 = (1 / (1 + np.exp(10 * (1 - INERTIA * jump))) for jump in (0.5, 1.0))
        u0 = (s2 - s1) / (c2 - c1)
        grid_upper = u0 + (np.arange(1600) - 800) * np.spacing(u0)
        search = Lockstep([tie_state(40, 40, grid_upper)])
        score, _ = dense_scores(search, np.arange(1600))
        assert np.isfinite(score[1:]).all()
        (tied,) = np.nonzero(score[1] == score[2])
        assert tied.size
        state = tie_state(20, 20, float(grid_upper[tied[0]]))
        twin = tie_state(20, 20, float(grid_upper[tied[0]]))
        dense = dense_tick(Lockstep([twin]))
        report = tick(state)
        assert report.cells.size == report.selected.size == 20
        assert report.new_aft.tolist() == [1] * 20
        for name in ("selected", "cells", "old_aft", "new_aft"):
            assert np.array_equal(getattr(report, name), getattr(dense, name))


def economic_batch(side, runs):
    cfg = ExperimentConfig(grid_width=side, grid_height=side, economic_baseline=True)
    return Lockstep([build_state(cfg, (3, k, 0)) for k in range(runs)])


class TestBatchedSupply:
    def assert_supply_is_total_supply(self, batch):
        for b, state in enumerate(batch.states):
            assert tuple(batch.supply[b].tolist()) == total_supply(state.grid)
            assert (state.demand.s_mat, state.demand.s_nm) == total_supply(state.grid)

    def test_25x25(self):
        batch = economic_batch(25, 6)
        for live in ([0, 1, 2, 3, 4, 5], [1, 4], [0, 2, 3], [5]):
            batch.live = np.array(live)
            tick(batch)
            self.assert_supply_is_total_supply(batch)

    def test_101x101_on_the_blas_path(self):
        # above 10,000 elements OpenBLAS may split a dot product over threads
        batch = economic_batch(101, 3)
        for live in ([0, 1, 2], [0, 2], [1]):
            batch.live = np.array(live)
            report = tick(batch)
            assert report.cells.size
            self.assert_supply_is_total_supply(batch)

    def test_capitals_are_views_of_the_batch(self):
        batch = economic_batch(9, 3)
        for b, state in enumerate(batch.states):
            lo, hi = batch.offsets[b], batch.offsets[b + 1]
            for name in ("aft_id", "c_prod", "c_nat"):
                assert np.shares_memory(getattr(state.grid, name), getattr(batch, name)[lo:hi])


class TestWideGather:
    def test_neighbours_equal_each_lattice_gather(self):
        base = dict(grid_width=13, grid_height=11, seed=4)
        configs = [
            ExperimentConfig(**base, moore_radius=r, n_tele=t)
            for r, t in ((1, 0), (5, 9), (3, 0), (2, 4), (5, 0))
        ]
        states = [build_state(cfg, (4, k, 0)) for k, cfg in enumerate(configs)]
        batch = Lockstep(states)
        assert batch.widest.radius == 5
        cells = np.arange(batch.offsets[-1])
        runs = cells // batch.n_cells
        nb, at = batch.neighbours(cells, runs)
        assert nb.size == 2 * sum(s.network.num_edges for s in states)
        for b, state in enumerate(states):
            lo = batch.offsets[b]
            mine = (at >= lo) & (at < lo + batch.n_cells)
            pairs = np.stack([at[mine] - lo, nb[mine] - lo])
            own_nb, own_at = state.network.lattice.gather(np.arange(batch.n_cells))
            i, j = state.network.tele.T
            want = np.concatenate(
                [np.stack([own_at, own_nb]), np.stack([i, j]), np.stack([j, i])], axis=1
            )
            assert np.array_equal(
                pairs[:, np.lexsort(pairs[::-1])], want[:, np.lexsort(want[::-1])]
            )

    def test_cut_stencil_equals_the_smaller_lattice(self):
        wide = build_lattice(9, 8, 4)
        cells = np.arange(72)
        for r in range(1, 5):
            nb, at = wide.gather(cells, np.full(72, r))
            own_nb, own_at = build_lattice(9, 8, r).gather(cells)
            assert np.array_equal(nb, own_nb) and np.array_equal(at, own_at)

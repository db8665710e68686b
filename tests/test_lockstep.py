"""Lockstep batches: every run of a batch is exactly the run alone.

A batch runs under one stop rule. One batch joins runs of different grids,
radii, teleconnections and profile spreads and an economic-baseline run under
one StopRule; another joins scheduled runs on different grids under one
AttitudeSchedule. Each run must reproduce, bit for bit, what run_until_stable
or run_schedule gives it on its own. Campaigns cut their batches where the
stop rule changes.
"""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ablum import (
    DEFAULT_AFTS,
    ConfigurationError,
    DemandState,
    ExperimentConfig,
    LandscapeGrid,
    SweepParam,
    SweepSpec,
    apply_values,
    build_lattice,
    build_state,
    evaluate_design,
    evaluate_transition,
    intensity_shares,
    mesh_connectivity,
    run_replicates,
    run_schedule,
    run_single,
    run_sweep,
    run_until_stable,
    saltelli_sample,
    selection_count,
    share_trajectory_summary,
    tick,
    total_supply,
    utility,
)
from ablum import experiments
from ablum.dynamics import (
    DRAW_AHEAD,
    AttitudeSchedule,
    Lockstep,
    StopRule,
    apply_attitude_schedule,
    run_lockstep,
)
from ablum.metrics import Trajectory
from ablum.sensitivity import ParameterDim, ParameterSpace

BASE = dict(
    grid_width=12, grid_height=12, demand_mat=60.0, demand_nm=60.0,
    max_ticks=400, window=20, seed=5,
)


def mixed_configs():
    """Runs that differ in everything but their StopRule."""
    return [
        ExperimentConfig(**BASE, moore_radius=1),
        ExperimentConfig(
            **BASE, moore_radius=2, n_tele=15, attitude_sigma=0.3, norm_weight_sigma=0.1,
            cm_int_sigma=0.1, cm_ext_sigma=0.1, inertia_lambda=0.2, inertia_sigma=0.1,
        ),
        ExperimentConfig(**BASE, moore_radius=3, n_tele=5, economic_baseline=True),
        ExperimentConfig(**{**BASE, "grid_width": 10, "grid_height": 13}, moore_radius=4, n_tele=8),
        ExperimentConfig(**BASE, moore_radius=5, n_tele=30, git_upper_sigma=0.1, logistic_k=5.0),
        ExperimentConfig(**BASE, moore_radius=2, cm_int=0.1),
        ExperimentConfig(**BASE, moore_radius=1, n_tele=8),
    ]


def scheduled_configs():
    """Runs on different grids that follow one AttitudeSchedule."""
    ramp = ((0, -0.6), (60, 0.6))
    return [
        ExperimentConfig(**{**BASE, "grid_width": 10, "grid_height": 13}, moore_radius=4, schedule=ramp),
        ExperimentConfig(**BASE, moore_radius=1, n_tele=8, attitude_sigma=0.3, schedule=ramp),
        ExperimentConfig(**{**BASE, "grid_width": 9, "grid_height": 9}, moore_radius=2, schedule=ramp),
    ]


def build_batch(configs, first_point=0):
    return [build_state(cfg, (cfg.seed, first_point + p, 0)) for p, cfg in enumerate(configs)]


def run_alone(config, key):
    state = build_state(config, key)
    if config.schedule is not None:
        return run_schedule(state, AttitudeSchedule(config.schedule))
    return run_until_stable(state, config.max_ticks, config.window, config.epsilon)


def lockstep_by_lists(states, rule):
    """run_lockstep's bookkeeping as per-run Python lists: one row tuple per
    run and tick, and settling decided run by run on the share lists."""
    scheduled = isinstance(rule, AttitudeSchedule)
    if scheduled:
        for state in states:
            apply_attitude_schedule(state, rule)
    batch = Lockstep(states)
    attitude = [float(np.mean(s.grid.profiles.attitude)) for s in states]
    rows = [[] for _ in states]
    shares = [([], [], []) for _ in states]

    def record(runs):
        batch.refresh_supply(runs)
        fractions = (batch.class_counts[runs, :3] / batch.n_cells[runs, None]).tolist()
        for b, share, supply in zip(runs.tolist(), fractions, batch.supply[runs].tolist()):
            state = states[b]
            extra = ()
            if scheduled:
                attitude[b] = float(np.mean(state.grid.profiles.attitude))
                extra = (rule.mean_at(state.tick),)
            rows[b].append((state.tick, *share, *supply, attitude[b], *extra))
            for col, value in zip(shares[b], share):
                col.append(value)

    def settled(values):
        tail = values[-(rule.window + 1) :]
        return max(tail) - min(tail) < rule.epsilon

    def ended(b):
        now = states[b].tick
        if now >= rule.last_tick:
            return True
        return not scheduled and now >= rule.window and all(settled(col) for col in shares[b])

    runs = np.arange(len(states))
    record(runs)
    live = [b for b in runs.tolist() if states[b].tick < rule.last_tick]
    while live:
        batch.live = np.array(live)
        tick(batch)
        if scheduled:
            for b in live:
                apply_attitude_schedule(states[b], rule)
            batch.refresh_attitude()
        record(batch.live)
        live = [b for b in live if not ended(b)]
    return [Trajectory.from_rows(rows[b]) for b in runs.tolist()]


def scalar_decisions(state, old_aft, selected):
    """Winning type per selected cell from the scalar API on the snapshot."""
    grid = LandscapeGrid(
        state.grid.width, state.grid.height, state.grid.c_prod, state.grid.c_nat,
        old_aft, profiles=state.grid.profiles,
    )
    demand = DemandState(state.demand.d_mat, state.demand.d_nm, *total_supply(grid))
    decisions = {}
    for i in selected.tolist():
        cell = grid.cell(i)
        incumbent = DEFAULT_AFTS[old_aft[i]]
        best = None
        for cand in DEFAULT_AFTS:
            if cand.id == incumbent.id:
                continue
            git = 0.0 if state.economic_baseline else evaluate_transition(
                grid, state.network, i, cand, state.behaviour_globals
            )
            surplus = utility(cand, cell, demand) - utility(incumbent, cell, demand)
            if surplus > git:
                key = (-(surplus - git), abs(cand.intensity - incumbent.intensity), cand.id)
                best = min(best, (key, cand.id)) if best else (key, cand.id)
        if best is not None:
            decisions[i] = best[1]
    return decisions


def assert_trajectories_equal(a, b):
    for name in ("tick", "share_c", "share_mi", "share_hi", "s_mat", "s_nm", "mean_attitude"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
        assert getattr(a, name).dtype == getattr(b, name).dtype, name
    if b.scheduled_attitude is None:
        assert a.scheduled_attitude is None
    else:
        assert np.array_equal(a.scheduled_attitude, b.scheduled_attitude)


def assert_batch_equals_runs_alone(configs):
    keys = [(cfg.seed, point, 0) for point, cfg in enumerate(configs)]
    states = [build_state(cfg, key) for cfg, key in zip(configs, keys)]
    trajectories = run_lockstep(states, experiments._stop_rule(configs[0]))
    for cfg, key, state, traj in zip(configs, keys, states, trajectories):
        alone, ref = run_alone(cfg, key)
        assert_trajectories_equal(traj, ref)
        assert np.array_equal(state.grid.aft_id, alone.grid.aft_id)
        assert share_trajectory_summary(
            traj, mesh_connectivity(state.grid)
        ) == share_trajectory_summary(ref, mesh_connectivity(alone.grid))
        assert state.tick == alone.tick
        assert state.rng.bit_generator.state == alone.rng.bit_generator.state
        assert (state.demand.s_mat, state.demand.s_nm) == (alone.demand.s_mat, alone.demand.s_nm)
        # the batch's running counts and cached supply match the final map
        assert (traj.s_mat[-1], traj.s_nm[-1]) == total_supply(state.grid)
        shares = intensity_shares(state.grid)
        assert (traj.share_c[-1], traj.share_mi[-1], traj.share_hi[-1]) == (
            shares[0], shares[1], shares[2],
        )
    return [int(traj.tick[-1]) for traj in trajectories]


class TestMixedBatch:
    def test_each_run_equals_the_run_alone(self):
        configs = mixed_configs()
        ends = assert_batch_equals_runs_alone(configs)
        # the batch really mixes ending times: settled runs at different
        # ticks, and the economic baseline capped at max_ticks
        settled = [e for e in ends if e < BASE["max_ticks"]]
        assert len(set(settled)) >= 3
        assert ends[2] == BASE["max_ticks"]

    def test_scheduled_runs_equal_the_runs_alone(self):
        assert assert_batch_equals_runs_alone(scheduled_configs()) == [60, 60, 60]

    def test_trajectories_equal_the_list_bookkeeping(self):
        # the array blocks and the batch-wide settling check give every run
        # the rows, columns and dtypes of the per-run list loop they replace
        for configs in (mixed_configs(), scheduled_configs()):
            rule = experiments._stop_rule(configs[0])
            got = run_lockstep(build_batch(configs), rule)
            want = lockstep_by_lists(build_batch(configs), rule)
            for a, b in zip(got, want):
                assert_trajectories_equal(a, b)
                if b.scheduled_attitude is not None:
                    assert a.scheduled_attitude.dtype == b.scheduled_attitude.dtype

    @pytest.mark.parametrize(
        "rule, start",
        [
            # nothing may move by epsilon 1, so every run settles at its window
            (StopRule(50, 7, 1.0), 0),
            # one cell of 64 is exactly epsilon, which some windows move by
            (StopRule(200, 8, 1 / 64), 0),
            # runs that start at tick 12 may settle before window + 1 steps
            (StopRule(200, 20, 0.05), 12),
        ],
    )
    def test_settling_edges_equal_the_list_bookkeeping(self, rule, start):
        configs = [
            replace(cfg, max_ticks=rule.max_ticks, window=rule.window, epsilon=rule.epsilon)
            for cfg in (
                ExperimentConfig(grid_width=8, grid_height=8, demand_mat=30.0, demand_nm=30.0, seed=3),
                ExperimentConfig(grid_width=9, grid_height=9, seed=2),
                mixed_configs()[1],
            )
        ]

        def batch():
            states = build_batch(configs, first_point=9)
            for state in states:
                state.tick = start
            return states

        got, want = run_lockstep(batch(), rule), lockstep_by_lists(batch(), rule)
        for a, b in zip(got, want):
            assert_trajectories_equal(a, b)
            assert a.tick[0] == start
        if rule.epsilon == 1.0:
            assert [int(t.tick[-1]) for t in got] == [rule.window] * len(configs)
        if rule.epsilon == 1 / 64:
            shares = np.array([got[0].share_c, got[0].share_mi, got[0].share_hi])
            windows = np.lib.stride_tricks.sliding_window_view(shares, rule.window + 1, axis=1)
            assert (np.ptp(windows, axis=2) == rule.epsilon).any()
        if start:
            assert min(t.n_rows for t in got) <= rule.window

    def test_batched_ticks_match_the_scalar_api(self):
        # every decision of several consecutive batched ticks, re-derived
        # cell by cell through the scalar decision functions
        configs = [mixed_configs()[i] for i in (1, 2, 4)]
        states = [build_state(cfg, (cfg.seed, p, 0)) for p, cfg in enumerate(configs)]
        batch = Lockstep(states)
        for _ in range(40):
            snapshots = [s.grid.aft_id.copy() for s in states]
            report = tick(batch)
            got = {int(c): int(a) for c, a in zip(report.cells, report.new_aft)}
            expected = {}
            for b, (state, old) in enumerate(zip(states, snapshots)):
                offset, end = int(batch.offsets[b]), int(batch.offsets[b + 1])
                sel = report.selected
                mine = sel[(sel >= offset) & (sel < end)] - offset
                for i, new in scalar_decisions(state, old, mine).items():
                    expected[i + offset] = new
            assert got == expected

    def test_tick_reports_batch_cells(self):
        configs = mixed_configs()[:3]
        states = [build_state(cfg, (cfg.seed, p, 0)) for p, cfg in enumerate(configs)]
        batch = Lockstep(states)
        report = tick(batch)
        assert report.selected.size == sum(selection_count(s.grid.n_cells) for s in states)
        assert np.all(np.diff(report.selected) > 0)
        assert np.isin(report.cells, report.selected).all()
        assert np.all(report.old_aft != report.new_aft)
        assert np.array_equal(batch.aft_id[report.cells], report.new_aft)
        assert all(s.tick == 1 for s in states)

    def test_finished_runs_are_not_drawn(self):
        configs = mixed_configs()[:2]
        states = [build_state(cfg, (cfg.seed, p, 0)) for p, cfg in enumerate(configs)]
        batch = Lockstep(states)
        batch.live = np.array([1])
        before = states[0].grid.aft_id.copy()
        report = tick(batch)
        assert report.selected.min() >= batch.offsets[1]
        assert (states[0].tick, states[1].tick) == (0, 1)
        assert np.array_equal(states[0].grid.aft_id, before)

    def test_neighbour_counts_stay_current(self):
        cfg = mixed_configs()[1]
        state = build_state(cfg, (cfg.seed, 0, 0))
        batch = Lockstep([state])
        for _ in range(15):
            tick(batch)
        fresh = Lockstep([state])
        assert np.array_equal(batch.neighbour_counts, fresh.neighbour_counts)

    def test_runs_start_on_the_same_tick(self):
        states = build_batch(mixed_configs()[:2])
        states[1].tick = 3
        with pytest.raises(ConfigurationError, match="same tick"):
            run_lockstep(states, StopRule(50, 10, 0.01))


def choice_replay(config, key, ticks):
    """A fresh generator of the run with this seed key, after one
    ``rng.choice`` call per tick as the engine once drew its cells."""
    rng = np.random.default_rng(experiments.seed_streams(key).sim)
    n = config.grid_width * config.grid_height
    for _ in range(ticks):
        rng.choice(n, size=(selection_count(n),), replace=False)
    return rng


def ticks_and_rewound_generators(configs, rule, start=0):
    """Run the configs in one batch from ``start``; assert every generator
    equals its choice replay and return the ticks each run took."""
    keys = [(cfg.seed, 40 + p, 0) for p, cfg in enumerate(configs)]
    states = [build_state(cfg, key) for cfg, key in zip(configs, keys)]
    for state in states:
        state.tick = start
    run_lockstep(states, rule)
    for cfg, key, state in zip(configs, keys, states):
        replay = choice_replay(cfg, key, state.tick - start)
        assert state.rng.bit_generator.state == replay.bit_generator.state
    return [state.tick - start for state in states]


class TestDrawAhead:
    """run_lockstep draws each run's selections up to DRAW_AHEAD ticks ahead
    and rewinds the generators at the end: each ends exactly where one
    rng.choice call per tick the run took leaves a fresh one."""

    def test_mixed_batch(self):
        tiny = ExperimentConfig(**{**BASE, "grid_width": 3, "grid_height": 3})
        full = ExperimentConfig(**{**BASE, "grid_width": 101, "grid_height": 101})
        configs = [*mixed_configs(), tiny, full]
        # the 3x3 run draws no cells; the 101x101 run takes numpy's shuffle branch
        assert selection_count(9) == 0 and selection_count(101 * 101) > 10_201 // 50
        taken = ticks_and_rewound_generators(configs, experiments._stop_rule(configs[0]))
        assert taken[2] == BASE["max_ticks"]  # the economic baseline is capped
        assert sum(t % DRAW_AHEAD != 0 for t in taken) >= 3  # runs that end mid-refill
        assert taken[-1] % DRAW_AHEAD != 0

    def test_scheduled_batch(self):
        ramp = ((0, 0.0), (37, 0.5))
        tiny = ExperimentConfig(**{**BASE, "grid_width": 3, "grid_height": 3}, schedule=ramp)
        configs = [replace(cfg, schedule=ramp) for cfg in scheduled_configs()] + [tiny]
        assert ticks_and_rewound_generators(configs, AttitudeSchedule(ramp)) == [37] * 4

    def test_batch_starting_at_tick_12(self):
        configs = mixed_configs()[:4]
        taken = ticks_and_rewound_generators(configs, StopRule(90, 20, 0.01), start=12)
        assert max(taken) == 90 - 12
        assert any(t % DRAW_AHEAD for t in taken)

    @given(
        sides=st.lists(st.tuples(st.integers(3, 12), st.integers(3, 12)), min_size=1, max_size=4),
        window=st.integers(1, 40),
        extra=st.integers(0, 40),
        epsilon=st.sampled_from([0.005, 0.02, 0.1, 1.0]),
        start=st.integers(0, 20),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=25, deadline=None)
    def test_random_batches(self, sides, window, extra, epsilon, start, seed):
        configs = [
            ExperimentConfig(grid_width=w, grid_height=h, demand_mat=5.0 * w * h, demand_nm=5.0 * w * h,
                             seed=seed)
            for w, h in sides
        ]
        ticks_and_rewound_generators(configs, StopRule(window + extra, window, epsilon), start)


class TestCampaignBatches:
    def test_batches_respect_the_cell_budget(self):
        small = ExperimentConfig(grid_width=25, grid_height=25)
        large = ExperimentConfig()
        per_batch = experiments.CELL_BUDGET // 625
        batches = experiments._batches([(small, k) for k in range(2 * per_batch + 1)])
        assert [len(b) for b in batches] == [per_batch, per_batch, 1]
        side = math.isqrt(experiments.CELL_BUDGET // 2) + 1
        large = ExperimentConfig(grid_width=side, grid_height=side)
        assert [len(b) for b in experiments._batches([(large, 0), (large, 1)])] == [1, 1]

    def test_batched_replicates_equal_single_runs(self):
        cfg = mixed_configs()[4]
        cfg.replications = 4
        for result in run_replicates(cfg):
            single = run_single(cfg, result.rep)
            assert_trajectories_equal(result.trajectory, single.trajectory)
            assert np.array_equal(result.state.grid.aft_id, single.state.grid.aft_id)
            assert result.summary == single.summary

    def test_threads_split_batches_not_results(self, monkeypatch):
        cfg = mixed_configs()[1]
        cfg.replications = 3
        serial = run_replicates(cfg)
        monkeypatch.setattr(experiments, "CELL_BUDGET", 200)  # one run per batch
        parallel = run_replicates(cfg, threads=2)
        for a, b in zip(serial, parallel):
            assert_trajectories_equal(a.trajectory, b.trajectory)
            assert np.array_equal(a.state.grid.aft_id, b.state.grid.aft_id)

    def test_batches_cut_where_the_stop_rule_changes(self):
        short = ExperimentConfig(grid_width=25, grid_height=25, max_ticks=100, window=10)
        longer = replace(short, max_ticks=200)
        ramp = replace(short, schedule=((0, 0.0), (50, 0.5)))

        def rules(batches):
            return [[experiments._stop_rule(cfg) for cfg, _ in batch] for batch in batches]

        kinds = [short] * 3 + [longer] * 2 + [ramp] * 2 + [short]
        batches = experiments._batches([(cfg, k) for k, cfg in enumerate(kinds)])
        assert [len(b) for b in batches] == [3, 2, 2, 1]
        assert all(len(set(map(repr, r))) == 1 for r in rules(batches))
        assert [k for b in batches for _, k in b] == list(range(len(kinds)))
        # the cell budget still cuts runs under one rule
        per_batch = experiments.CELL_BUDGET // 625
        jobs = [(short, k) for k in range(per_batch + 2)] + [(longer, k) for k in range(3)]
        assert [len(b) for b in experiments._batches(jobs)] == [per_batch, 2, 3]
        # and so does each worker's share: 8 runs over 2 workers is 4 a batch
        jobs = [(short, k) for k in range(3)] + [(longer, k) for k in range(5)]
        assert [len(b) for b in experiments._batches(jobs, threads=2)] == [3, 4, 1]

    def test_threads_get_a_batch_each(self):
        # a campaign that fits one batch is still split over the workers
        small = ExperimentConfig(grid_width=25, grid_height=25)
        jobs = [(small, k) for k in range(10)]
        assert [len(b) for b in experiments._batches(jobs)] == [10]
        assert [len(b) for b in experiments._batches(jobs, threads=2)] == [5, 5]
        assert [len(b) for b in experiments._batches(jobs, threads=3)] == [3, 3, 3, 1]
        assert [len(b) for b in experiments._batches(jobs, threads=20)] == [1] * 10
        cfg = mixed_configs()[1]
        cfg.replications = 4
        serial = run_replicates(cfg)
        parallel = run_replicates(cfg, threads=2)
        for a, b in zip(serial, parallel):
            assert_trajectories_equal(a.trajectory, b.trajectory)
            assert np.array_equal(a.state.grid.aft_id, b.state.grid.aft_id)

    def test_lattice_set_up_is_linear_in_cells(self):
        # The lattice is its shape: the radius-5 101x101 lattice, its degrees
        # and its class counts take O(cells) memory, where the stored neighbour
        # lists it replaced (1.16 million int64 ids) peaked at 15.3 MB.
        aft_id = np.random.default_rng(0).integers(3, size=101 * 101)
        tracemalloc.start()
        try:
            lattice = build_lattice(101, 101, 5)
            lattice.degrees()
            lattice.class_counts(aft_id, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 128 * lattice.n_cells

    def test_a_batch_tick_builds_no_csr(self):
        # 64 runs hold one lattice value between them, and a tick reads it
        # through its stencil
        cfg = ExperimentConfig(grid_width=25, grid_height=25, moore_radius=5, n_tele=150)
        states = [build_state(cfg, (cfg.seed, k, 0)) for k in range(64)]
        batch = Lockstep(states)
        report = tick(batch)
        assert report.cells.size and batch.lattices == [build_lattice(25, 25, 5)]

    def test_pool_gets_no_more_workers_than_batches(self, monkeypatch):
        # 64 threads on a 2-batch campaign ask a pool for 2 workers, and a
        # 1-batch campaign starts no pool; the stub pool starts no process
        pools = []

        class StubPool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        cfg = replace(mixed_configs()[1], replications=2)
        serial = run_replicates(cfg)
        monkeypatch.setattr(experiments, "ProcessPoolExecutor", StubPool)
        parallel = run_replicates(cfg, threads=64)
        assert pools == [2]
        for a, b in zip(serial, parallel):
            assert_trajectories_equal(a.trajectory, b.trajectory)
        run_replicates(replace(cfg, replications=1), threads=64)
        assert pools == [2]

    def test_design_rows_average_their_replicates(self):
        space = ParameterSpace(
            (ParameterDim("attitude_mean", -0.5, 0.5), ParameterDim("moore_radius", 1, 3, kind="integer"))
        )
        base = ExperimentConfig(
            grid_width=9, grid_height=9, demand_mat=30.0, demand_nm=30.0,
            max_ticks=60, window=10, seed=4,
        )
        design = saltelli_sample(space, 2, seed=4)
        for replicates in (2, 3):
            outputs = evaluate_design(design, base, replicates=replicates)
            for r in range(design.n_rows):
                cfg = experiments.map_sample_to_config(list(design.matrix[r]), space, base)
                acc = np.zeros(5)
                for rep in range(replicates):
                    _, traj = run_alone(cfg, (base.seed, design.base_index(r), rep))
                    acc += [traj.share_c[-1], traj.share_mi[-1], traj.share_hi[-1], traj.s_mat[-1], traj.s_nm[-1]]
                assert np.array_equal(outputs[r], acc / replicates)

    def test_design_rows_with_their_own_window_equal_the_rows_alone(self):
        # a window dimension gives rows different stop rules, so the design
        # is cut into batches wherever the rounded window changes
        space = ParameterSpace(
            (ParameterDim("attitude_mean", -0.5, 0.5), ParameterDim("window", 5, 15, kind="integer"))
        )
        base = ExperimentConfig(
            grid_width=9, grid_height=9, demand_mat=30.0, demand_nm=30.0,
            max_ticks=60, window=10, seed=7,
        )
        design = saltelli_sample(space, 4, seed=7)
        configs = [experiments.map_sample_to_config(list(row), space, base) for row in design.matrix]
        assert len({cfg.window for cfg in configs}) >= 3
        outputs = evaluate_design(design, base)
        for r, cfg in enumerate(configs):
            _, traj = run_alone(cfg, (base.seed, design.base_index(r), 0))
            row = [traj.share_c[-1], traj.share_mi[-1], traj.share_hi[-1], traj.s_mat[-1], traj.s_nm[-1]]
            assert np.array_equal(outputs[r], row)

    def test_sweep_points_share_a_lattice_yet_match(self):
        cfg = mixed_configs()[0]
        point = {"attitude_mean": 0.3}
        sweep = SweepSpec(params=(SweepParam("attitude_mean", 0.1, 0.3, 2),), replications=2)
        _, rows = run_sweep(cfg, sweep)
        _, traj = run_alone(apply_values(cfg, point), (cfg.seed, 1, 1))
        assert rows[3]["attitude_mean"] == 0.3 and rows[3]["rep"] == 1
        assert rows[3]["s_mat"] == traj.s_mat[-1]
        assert rows[3]["stabilised_at"] == int(traj.tick[-1])

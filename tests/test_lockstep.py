"""Lockstep batches: every run of a mixed batch is exactly the run alone.

A batch joins runs of different grids, radii, teleconnections, profile
spreads, stopping rules, an economic-baseline run and a scheduled run; each
must reproduce, bit for bit, what run_until_stable or run_schedule gives it
on its own.
"""

import numpy as np
import pytest

from ablum import (
    DEFAULT_AFTS,
    ConfigurationError,
    DemandState,
    ExperimentConfig,
    LandscapeGrid,
    SweepParam,
    SweepSpec,
    apply_values,
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
from ablum.dynamics import AttitudeSchedule, Lockstep, run_lockstep
from ablum.sensitivity import ParameterDim, ParameterSpace


def mixed_configs():
    base = dict(
        grid_width=12, grid_height=12, demand_mat=60.0, demand_nm=60.0,
        max_ticks=400, window=20, seed=5,
    )
    return [
        ExperimentConfig(**base, moore_radius=1),
        ExperimentConfig(
            **base, moore_radius=2, n_tele=15, attitude_sigma=0.3, norm_weight_sigma=0.1,
            cm_int_sigma=0.1, cm_ext_sigma=0.1, inertia_lambda=0.2, inertia_sigma=0.1,
        ),
        ExperimentConfig(**base, moore_radius=3, n_tele=5, economic_baseline=True),
        ExperimentConfig(
            **{**base, "grid_width": 10, "grid_height": 13},
            moore_radius=4, schedule=((0, -0.6), (60, 0.6)),
        ),
        ExperimentConfig(**base, moore_radius=5, n_tele=30, git_upper_sigma=0.1, logistic_k=5.0),
        ExperimentConfig(**{**base, "max_ticks": 25}, moore_radius=2, cm_int=0.1),
        ExperimentConfig(**{**base, "window": 35, "epsilon": 0.01}, moore_radius=1, n_tele=8),
    ]


def run_alone(config, key):
    state = build_state(config, key)
    if config.schedule is not None:
        return run_schedule(state, AttitudeSchedule(config.schedule))
    return run_until_stable(state, config.max_ticks, config.window, config.epsilon)


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


class TestMixedBatch:
    def test_each_run_equals_the_run_alone(self):
        configs = mixed_configs()
        keys = [(cfg.seed, point, 0) for point, cfg in enumerate(configs)]
        states = [build_state(cfg, key) for cfg, key in zip(configs, keys)]
        trajectories = run_lockstep(states, [experiments._stop_rule(cfg) for cfg in configs])

        ends = []
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
            ends.append(int(traj.tick[-1]))

        # the batch really mixes ending times: settled runs at different
        # ticks, one capped at max_ticks, the schedule at its last tick
        settled = [e for cfg, e in zip(configs, ends) if cfg.schedule is None and e < cfg.max_ticks]
        assert len(set(settled)) >= 3
        assert ends[5] == configs[5].max_ticks
        assert ends[3] == 60

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

    def test_one_rule_per_run(self):
        state = build_state(mixed_configs()[0])
        with pytest.raises(ConfigurationError):
            run_lockstep([state], [])


class TestCampaignBatches:
    def test_batches_respect_the_cell_budget(self):
        small = ExperimentConfig(grid_width=25, grid_height=25)
        large = ExperimentConfig()
        per_batch = experiments.CELL_BUDGET // 625
        batches = experiments._batches([(small, k) for k in range(2 * per_batch + 1)])
        assert [len(b) for b in batches] == [per_batch, per_batch, 1]
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

    def test_design_rows_average_their_replicates(self):
        space = ParameterSpace(
            (ParameterDim("attitude_mean", -0.5, 0.5), ParameterDim("moore_radius", 1, 3, kind="integer"))
        )
        base = ExperimentConfig(
            grid_width=9, grid_height=9, demand_mat=30.0, demand_nm=30.0,
            max_ticks=60, window=10, seed=4,
        )
        design = saltelli_sample(space, 2, seed=4)
        outputs = evaluate_design(design, base, replicates=2)
        for r in range(design.n_rows):
            cfg = experiments.map_sample_to_config(list(design.matrix[r]), space, base)
            acc = np.zeros(5)
            for rep in range(2):
                _, traj = run_alone(cfg, (base.seed, design.base_index(r), rep))
                acc += [traj.share_c[-1], traj.share_mi[-1], traj.share_hi[-1], traj.s_mat[-1], traj.s_nm[-1]]
            assert np.array_equal(outputs[r], acc / 2)

    def test_sweep_points_share_a_lattice_yet_match(self):
        cfg = mixed_configs()[0]
        point = {"attitude_mean": 0.3}
        sweep = SweepSpec(params=(SweepParam("attitude_mean", 0.1, 0.3, 2),), replications=2)
        _, rows = run_sweep(cfg, sweep)
        _, traj = run_alone(apply_values(cfg, point), (cfg.seed, 1, 1))
        assert rows[3]["attitude_mean"] == 0.3 and rows[3]["rep"] == 1
        assert rows[3]["s_mat"] == traj.s_mat[-1]
        assert rows[3]["stabilised_at"] == int(traj.tick[-1])

"""Run harness: seeding discipline, sweep layout, schedules, and campaigns.

Most tests use a 9x9 grid with a short stopping window so full runs stay in
the millisecond range.
"""

from dataclasses import replace

import numpy as np
import pytest

from ablum import (
    OUTPUT_METRICS,
    ConfigurationError,
    DegenerateVarianceError,
    ExperimentConfig,
    ParameterDim,
    ParameterSpace,
    SweepParam,
    SweepSpec,
    apply_values,
    build_state,
    evaluate_design,
    recompute_metrics,
    run_replicates,
    run_single,
    run_sobol,
    run_sweep,
    saltelli_sample,
    sweep_points,
)
from ablum import experiments


def small_config(**overrides):
    base = dict(grid_width=9, grid_height=9, max_ticks=40, window=5, epsilon=0.002, seed=3)
    base.update(overrides)
    return ExperimentConfig(**base)


def assert_trajectories_equal(a, b):
    assert np.array_equal(a.tick, b.tick)
    assert np.array_equal(a.share_c, b.share_c)
    assert np.array_equal(a.share_mi, b.share_mi)
    assert np.array_equal(a.share_hi, b.share_hi)
    assert np.array_equal(a.s_mat, b.s_mat)
    assert np.array_equal(a.s_nm, b.s_nm)
    assert np.array_equal(a.mean_attitude, b.mean_attitude)


class TestBuildState:
    def test_deterministic(self):
        cfg = small_config()
        a = build_state(cfg)
        b = build_state(cfg)
        assert np.array_equal(a.grid.c_prod, b.grid.c_prod)
        assert np.array_equal(a.grid.aft_id, b.grid.aft_id)
        assert np.array_equal(a.grid.profiles.attitude, b.grid.profiles.attitude)
        assert a.network.lattice == b.network.lattice
        assert np.array_equal(a.network.tele, b.network.tele)

    def test_sigma_toggle_does_not_shift_other_draws(self):
        # every profile field consumes the stream even at sigma zero
        plain = build_state(small_config())
        spread = build_state(small_config(norm_weight_sigma=0.1))
        assert np.array_equal(plain.grid.profiles.attitude, spread.grid.profiles.attitude)
        assert np.array_equal(
            np.atleast_1d(plain.grid.profiles.cm_int),
            np.atleast_1d(spread.grid.profiles.cm_int),
        )
        assert isinstance(plain.grid.profiles.norm_weight, float)
        assert isinstance(spread.grid.profiles.norm_weight, np.ndarray)

    def test_scalar_fields_stay_scalar(self):
        state = build_state(small_config())
        p = state.grid.profiles
        assert isinstance(p.attitude, np.ndarray)  # sigma defaults to 0.15
        for field in (p.inertia_coeff, p.norm_weight, p.cm_int, p.cm_ext, p.git_upper):
            assert isinstance(field, float)


class TestRunSingle:
    def test_reruns_are_identical(self):
        cfg = small_config()
        a = run_single(cfg)
        b = run_single(cfg)
        assert_trajectories_equal(a.trajectory, b.trajectory)
        assert a.summary == b.summary
        assert np.array_equal(a.state.grid.aft_id, b.state.grid.aft_id)

    def test_run_id(self):
        assert run_single(small_config(), rep=2).run_id == "run_s3_r2"

    def test_seed_changes_outcome(self):
        a = run_single(small_config(seed=1))
        b = run_single(small_config(seed=2))
        assert not np.array_equal(a.state.grid.aft_id, b.state.grid.aft_id)

    def test_summary_matches_trajectory_tail(self):
        res = run_single(small_config())
        t = res.trajectory
        assert res.summary.final_share_c == t.share_c[-1]
        assert res.summary.s_mat == t.s_mat[-1]
        assert res.summary.stabilised_at == t.tick[-1]


class TestReplicates:
    def test_adding_replicates_keeps_earlier_ones(self):
        one = run_replicates(small_config(replications=1))
        three = run_replicates(small_config(replications=3))
        assert len(one) == 1 and len(three) == 3
        assert_trajectories_equal(one[0].trajectory, three[0].trajectory)
        assert three[0].summary == one[0].summary

    def test_replicates_differ(self):
        a, b, c = run_replicates(small_config(replications=3))
        assert (a.rep, b.rep, c.rep) == (0, 1, 2)
        assert not np.array_equal(a.state.grid.aft_id, b.state.grid.aft_id)


class TestSweep:
    def test_point_grid_order(self):
        sweep = SweepSpec(
            params=(SweepParam("attitude_mean", -1.0, 1.0, 2), SweepParam("cm", 0.0, 1.0, 3))
        )
        pts = sweep_points(sweep)
        assert pts == [
            {"attitude_mean": -1.0, "cm": 0.0},
            {"attitude_mean": -1.0, "cm": 0.5},
            {"attitude_mean": -1.0, "cm": 1.0},
            {"attitude_mean": 1.0, "cm": 0.0},
            {"attitude_mean": 1.0, "cm": 0.5},
            {"attitude_mean": 1.0, "cm": 1.0},
        ]

    def test_one_parameter_points_are_floats(self):
        pts = sweep_points(SweepSpec(params=(SweepParam("n_tele", 0, 10, 3),)))
        assert pts == [{"n_tele": 0.0}, {"n_tele": 5.0}, {"n_tele": 10.0}]
        assert all(type(p["n_tele"]) is float for p in pts)

    def test_row_count_5x5x3(self):
        cfg = small_config(epsilon=1.0)
        sweep = SweepSpec(
            params=(
                SweepParam("attitude_mean", -0.8, 0.8, 5),
                SweepParam("norm_weight_w", 0.0, 1.0, 5),
            ),
            replications=3,
        )
        names, rows = run_sweep(cfg, sweep)
        assert names == ["attitude_mean", "norm_weight_w"]
        assert len(rows) == 75
        # reps are nested inside points, points in grid order
        assert [r["rep"] for r in rows[:4]] == [0, 1, 2, 0]
        assert rows[0]["attitude_mean"] == -0.8
        assert rows[3]["norm_weight_w"] == 0.25
        assert all(r["seed"] == cfg.seed for r in rows)

    def test_first_point_equals_run_single(self):
        cfg = small_config()
        sweep = SweepSpec(params=(SweepParam("attitude_mean", 0.2, 0.4, 2),))
        _, rows = run_sweep(cfg, sweep)
        single = run_single(apply_values(cfg, {"attitude_mean": 0.2}))
        row = rows[0]
        assert row["final_share_c"] == single.summary.final_share_c
        assert row["final_share_mi"] == single.summary.final_share_mi
        assert row["final_share_hi"] == single.summary.final_share_hi
        assert row["s_mat"] == single.summary.s_mat
        assert row["s_nm"] == single.summary.s_nm
        assert row["mesh"] == single.summary.mesh
        assert row["stabilised_at"] == single.summary.stabilised_at

    def test_cm_alias_echoed(self):
        cfg = small_config(epsilon=1.0)
        sweep = SweepSpec(params=(SweepParam("cm", 0.2, 0.6, 2),))
        names, rows = run_sweep(cfg, sweep)
        assert names == ["cm"]
        assert rows[0]["cm"] == 0.2
        assert rows[-1]["cm"] == 0.6

    def test_threads_do_not_change_results(self):
        cfg = small_config(epsilon=1.0)
        sweep = SweepSpec(params=(SweepParam("attitude_mean", -0.5, 0.5, 2),))
        _, serial = run_sweep(cfg, sweep, threads=1)
        _, parallel = run_sweep(cfg, sweep, threads=2)
        assert serial == parallel

    def test_missing_sweep_rejected(self):
        with pytest.raises(ConfigurationError):
            run_sweep(small_config())

    def test_config_sweep_section_used(self):
        cfg = small_config(
            epsilon=1.0,
            sweep=SweepSpec(params=(SweepParam("cm", 0.3, 0.7, 2),), replications=2),
        )
        names, rows = run_sweep(cfg)
        assert names == ["cm"]
        assert len(rows) == 4


class TestSchedules:
    def test_flat_schedule_equals_plain_run(self):
        m = 0.1
        scheduled = run_single(
            small_config(attitude_mean=m, schedule=((0, m), (15, m)))
        )
        plain = run_single(small_config(attitude_mean=m, max_ticks=15, window=15))
        assert_trajectories_equal(scheduled.trajectory, plain.trajectory)
        assert plain.trajectory.scheduled_attitude is None
        assert np.all(scheduled.trajectory.scheduled_attitude == m)

    def test_reversed_schedule_mirrors_attitude_column(self):
        fwd = run_single(small_config(schedule=((0, -0.6), (10, 0.0), (20, 0.6))))
        rev = run_single(small_config(schedule=((0, 0.6), (10, 0.0), (20, -0.6))))
        assert np.allclose(
            rev.trajectory.scheduled_attitude, fwd.trajectory.scheduled_attitude[::-1]
        )

    def test_hysteresis_runs_full_ramp(self):
        res = run_single(small_config(schedule=((0, -0.5), (12, 0.5), (24, -0.5))))
        assert res.trajectory.n_rows == 25
        assert res.trajectory.scheduled_attitude[0] == -0.5
        assert res.trajectory.scheduled_attitude[12] == 0.5
        assert res.trajectory.scheduled_attitude[-1] == -0.5


class TestDesignEvaluation:
    def _space(self):
        return ParameterSpace(
            (
                ParameterDim("attitude_mean", -1.0, 1.0),
                ParameterDim("norm_weight_w", 0.0, 1.0),
            )
        )

    def test_output_shape_and_determinism(self):
        cfg = small_config(epsilon=1.0)
        design = saltelli_sample(self._space(), 4, seed=cfg.seed)
        a = evaluate_design(design, cfg)
        b = evaluate_design(design, cfg)
        assert a.shape == (design.n_rows, len(OUTPUT_METRICS))
        assert np.array_equal(a, b)

    def test_threads_do_not_change_outputs(self):
        cfg = small_config(epsilon=1.0)
        design = saltelli_sample(self._space(), 2, seed=cfg.seed)
        assert np.array_equal(
            evaluate_design(design, cfg, threads=1), evaluate_design(design, cfg, threads=2)
        )

    def test_run_sobol_campaign(self):
        cfg = small_config(epsilon=1.0)
        design, outputs, indices = run_sobol(cfg, n_base=4, space=self._space())
        assert design.n_rows == 4 * 4
        assert outputs.shape == (16, 5)
        assert set(indices) == set(OUTPUT_METRICS)
        assert indices["share_c"].names == ("attitude_mean", "norm_weight_w")

    def test_degenerate_metric_named(self, monkeypatch):
        # every output varies except s_nm, the last metric
        def outputs(design, base_config, replicates=1, threads=1):
            out = np.tile(np.arange(design.n_rows, dtype=float)[:, None], (1, 5))
            out[:, OUTPUT_METRICS.index("s_nm")] = 7.0
            return out

        monkeypatch.setattr("ablum.experiments.evaluate_design", outputs)
        with pytest.raises(
            DegenerateVarianceError,
            match=r"^s_nm: outputs have no variance; indices are undefined$",
        ):
            run_sobol(small_config(), n_base=4, space=self._space())

    def test_replicate_averaging(self):
        cfg = small_config(epsilon=1.0)
        design = saltelli_sample(self._space(), 2, seed=cfg.seed)
        one = evaluate_design(design, cfg, replicates=1)
        two = evaluate_design(design, cfg, replicates=2)
        assert one.shape == two.shape
        assert not np.array_equal(one, two)


class TestRecomputeMetrics:
    def test_matches_run_outputs(self):
        cfg = small_config()
        res = run_single(cfg)
        summary = recompute_metrics(cfg, cfg.grid_width, cfg.grid_height, res.state.grid.aft_id)
        assert summary == replace(res.summary, stabilised_at=-1)

    def test_dimension_mismatch_rejected(self):
        cfg = small_config()
        with pytest.raises(ConfigurationError):
            recompute_metrics(cfg, 5, 5, np.zeros(25, dtype=np.int64))

    def test_replicate_capitals_come_from_one_helper(self):
        # a noisy replicate's map is priced with its own capitals
        cfg = small_config(noise_amp=0.1, replications=2)
        res = run_replicates(cfg)[1]
        c_prod, c_nat = experiments.run_capitals(cfg, experiments.seed_streams((cfg.seed, 0, 1)))
        assert np.array_equal(c_prod, res.state.grid.c_prod)
        assert np.array_equal(c_nat, res.state.grid.c_nat)
        summary = recompute_metrics(cfg, 9, 9, res.state.grid.aft_id, rep=1)
        assert summary == replace(res.summary, stabilised_at=-1)

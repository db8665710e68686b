"""Simulation loop: utilities, the 5% competition step, stopping rule,
and attitude schedules.

The vectorised tick is replayed decision-by-decision through the scalar
behaviour API, so the engine is always checked against an independent route.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ablum import (
    DEFAULT_AFTS,
    AttitudeSchedule,
    BehaviourGlobals,
    BehaviouralProfile,
    ConfigurationError,
    DemandState,
    ExperimentConfig,
    LandscapeGrid,
    SimulationState,
    build_lattice,
    build_state,
    dynamics,
    evaluate_transition,
    run_schedule,
    run_until_stable,
    selection_count,
    tick,
    total_supply,
    unit_benefit,
    utility,
)
from ablum.dynamics import DRAW_AHEAD, Lockstep, StopRule, _choice_draws, _floyd, run_lockstep


def make_state(
    width=7,
    height=7,
    seed=0,
    d_mat=18.0,
    d_nm=18.0,
    attitude=0.0,
    norm_weight=0.5,
    inertia=0.0,
    cm=0.5,
    git_upper=1.0,
    logistic_k=10.0,
    economic_baseline=False,
    capital_seed=5,
):
    n = width * height
    rng = np.random.default_rng(capital_seed)
    c_prod = rng.uniform(0.0, 1.0, n)
    c_nat = 1.0 - c_prod
    aft_id = np.random.default_rng(capital_seed + 1).integers(0, 3, n)
    profiles = BehaviouralProfile(
        attitude=np.full(n, float(attitude)),
        inertia_coeff=inertia,
        norm_weight=norm_weight,
        cm_int=cm,
        cm_ext=cm,
        git_upper=0.0 if economic_baseline else git_upper,
    )
    grid = LandscapeGrid(width, height, c_prod, c_nat, aft_id, profiles=profiles)
    return SimulationState(
        grid=grid,
        network=build_lattice(width, height, 1),
        behaviour_globals=BehaviourGlobals(logistic_k),
        demand=DemandState(d_mat, d_nm),
        rng=np.random.default_rng(seed),
    )


class TestUnitBenefit:
    def test_partial_scarcity(self):
        assert unit_benefit(4000.0, 3000.0) == pytest.approx(0.25, abs=1e-9)

    def test_saturated(self):
        assert unit_benefit(4000.0, 4000.0) == 0.0
        assert unit_benefit(4000.0, 9000.0) == 0.0

    def test_full_scarcity(self):
        assert unit_benefit(4000.0, 0.0) == pytest.approx(1.0, abs=1e-9)

    def test_zero_demand_rejected(self):
        with pytest.raises(ConfigurationError):
            unit_benefit(0.0, 10.0)

    @pytest.mark.parametrize("demand", [np.nan, np.array([4000.0, np.nan])])
    def test_nan_demand_rejected(self, demand):
        with pytest.raises(ConfigurationError, match="demand must be positive"):
            unit_benefit(demand, 10.0)

    @pytest.mark.parametrize("demands", [(np.nan, 1.0), (1.0, np.nan), (0.0, 1.0), (1.0, -2.0)])
    def test_demand_state_rejects_non_positive_or_nan(self, demands):
        with pytest.raises(ConfigurationError, match="demands must be positive"):
            DemandState(*demands)

    @given(st.floats(1e-6, 1e6), st.floats(0.0, 1e6))
    def test_range(self, d, s):
        assert 0.0 <= unit_benefit(d, s) <= 1.0


class TestUtility:
    def demand_with_benefits(self, b_mat, b_nm):
        # demand 1 with supply (1 - b) gives unit benefit exactly b
        return DemandState(1.0, 1.0, s_mat=1.0 - b_mat, s_nm=1.0 - b_nm)

    def test_high_intensity_example(self):
        state = make_state()
        cell = state.grid.cell(0)
        cell.c_prod, cell.c_nat = 0.8, 0.3
        got = utility(DEFAULT_AFTS[2], cell, self.demand_with_benefits(0.25, 0.5))
        assert got == pytest.approx(0.20, abs=1e-9)

    def test_medium_intensity_example(self):
        state = make_state()
        cell = state.grid.cell(0)
        cell.c_prod, cell.c_nat = 0.8, 0.3
        got = utility(DEFAULT_AFTS[1], cell, self.demand_with_benefits(0.25, 0.5))
        assert got == pytest.approx(0.175, abs=1e-9)

    def test_saturated_services_zero_everywhere(self):
        state = make_state()
        demand = self.demand_with_benefits(0.0, 0.0)
        for aft in DEFAULT_AFTS:
            assert utility(aft, state.grid.cell(3), demand) == 0.0

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.integers(0, 2))
    def test_bounded_unit_interval(self, cp, cn, aft_idx):
        cell = make_state().grid.cell(0)
        cell.c_prod, cell.c_nat = cp, cn
        got = utility(DEFAULT_AFTS[aft_idx], cell, self.demand_with_benefits(1.0, 1.0))
        assert 0.0 <= got <= 1.0


class TestSelectionCount:
    def test_full_grid(self):
        assert selection_count(101 * 101) == 510

    def test_desk_grid(self):
        assert selection_count(25 * 25) == 31

    def test_rounds_to_nearest(self):
        assert selection_count(9) == 0  # 0.45 rounds down
        assert selection_count(10) == 1  # 0.5 rounds up
        assert selection_count(30) == 2  # 1.5 rounds up


class CountingGenerator:
    """A generator that records which of its methods are called."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.calls = []

    def __getattr__(self, name):
        self.calls.append(name)
        return getattr(self.rng, name)


@st.composite
def tail_shuffle_sizes(draw):
    """(n, k) for which ``rng.choice(n, size=(k,), replace=False)`` shuffles
    the tail of arange(n): n above 10,000 and k above n // 50."""
    n = draw(st.integers(10_001, 50_000))
    return n, draw(st.integers(n // 50 + 1, n // 10))


class TestSelectionDraws:
    """Runs draw their cells ahead by making the draws ``rng.choice(n,
    size=(k,), replace=False)`` makes one tick at a time. These tests pin how
    numpy makes them, so a numpy release that changes it fails here."""

    @pytest.mark.parametrize(
        "n, k",
        [(9, 0), (2, 1), (100, 100), (144, 7), (625, 31), (10000, 500),
         (10100, 505), (10201, 510), (10201, 10201)],
    )
    def test_buffered_draws_equal_choice_calls(self, n, k):
        ticks = 3 if n > 10_000 else DRAW_AHEAD
        for seed in range(4):
            buffered, stepped = np.random.default_rng(seed), np.random.default_rng(seed)
            (got,) = _choice_draws([buffered], n, k, ticks)
            want = [np.sort(stepped.choice(n, size=(k,), replace=False)) for _ in range(ticks)]
            shifted = (
                f"numpy {np.__version__} draws rng.choice({n}, size=({k},), replace=False) "
                f"differently from dynamics._choice_draws (seed {seed}): every run's cell "
                "selections would shift"
            )
            assert got.shape == (ticks, k), shifted
            assert np.array_equal(np.sort(got, axis=1), want), shifted
            assert buffered.bit_generator.state == stepped.bit_generator.state, shifted

    @settings(max_examples=30, deadline=None)
    @given(tail_shuffle_sizes(), st.integers(0, 2**32 - 1))
    @example((40_000, 3999), 1)  # _floyd takes one of these picks after a two-step chase
    def test_tail_shuffle_picks_what_floyd_picks_from_reversed_draws(self, size, seed):
        # above 10,000 cells numpy shuffles the tail of arange(n); the draws
        # it makes, reversed, are Floyd's, and so are the cells it picks
        n, k = size
        shuffled, drawn = np.random.default_rng(seed), np.random.default_rng(seed)
        picks = shuffled.choice(n, size=(k,), replace=False)
        draws = drawn.integers(0, np.arange(n, n - k, -1))[::-1]
        assert np.array_equal(np.sort(_floyd(draws[None], n)[0]), np.sort(picks))
        assert shuffled.bit_generator.state == drawn.bit_generator.state

    def test_generators_are_resolved_together(self):
        rngs = [np.random.default_rng(seed) for seed in range(5)]
        got = _choice_draws(rngs, 625, 31, 7)
        for seed, picks in enumerate(got):
            alone = _choice_draws([np.random.default_rng(seed)], 625, 31, 7)[0]
            assert np.array_equal(np.sort(picks, axis=1), np.sort(alone, axis=1))

    def test_floyd_ends_at_100_by_100(self):
        # numpy shuffles instead of using Floyd's algorithm above 10,000
        # cells, so a 100x100 grid draws ahead and a 101x100 grid calls choice
        floyd, shuffle = CountingGenerator(0), CountingGenerator(0)
        _choice_draws([floyd], 100 * 100, selection_count(100 * 100), DRAW_AHEAD)
        _choice_draws([shuffle], 101 * 100, selection_count(101 * 100), DRAW_AHEAD)
        assert floyd.calls == ["integers"]
        assert shuffle.calls == ["choice"] * DRAW_AHEAD

    def test_each_tick_draws_one_choice_call(self):
        # a bare tick draws the cells of one rng.choice call on a fresh generator
        state = make_state(width=25, height=25, seed=4)
        ref = np.random.default_rng(4)
        for _ in range(20):
            report = tick(state)
            assert np.array_equal(report.selected, np.sort(ref.choice(625, size=(31,), replace=False)))
        assert state.rng.bit_generator.state == ref.bit_generator.state


class TestAttitudeSchedule:
    def test_midpoint_interpolation(self):
        s = AttitudeSchedule(((0, -0.5), (100, 0.5)))
        assert s.mean_at(50) == pytest.approx(0.0, abs=1e-12)

    def test_ends_held(self):
        s = AttitudeSchedule(((10, -0.5), (20, 0.5)))
        assert s.mean_at(0) == -0.5
        assert s.mean_at(99) == 0.5

    def test_non_increasing_ticks_rejected(self):
        with pytest.raises(ConfigurationError):
            AttitudeSchedule(((0, 0.0), (0, 0.5)))

    def test_out_of_range_mean_rejected(self):
        with pytest.raises(ConfigurationError):
            AttitudeSchedule(((0, -1.5), (10, 0.0)))

    def test_apply_constant_zero(self):
        state = make_state(attitude=0.7)
        run_schedule(state, AttitudeSchedule(((0, 0.0), (10, 0.0))))
        assert np.all(state.grid.profiles.attitude == 0.0)

    def test_apply_clamps_with_offsets(self):
        state = make_state()
        state.attitude_offsets = np.full(state.grid.n_cells, 0.9)
        run_schedule(state, AttitudeSchedule(((0, 0.5), (10, 0.5))))
        assert np.all(state.grid.profiles.attitude == 1.0)

    def test_symmetric_ramp_mirrors(self):
        s = AttitudeSchedule(((0, -1.0), (100, 1.0), (200, -1.0)))
        for t in range(0, 101, 10):
            assert s.mean_at(t) == pytest.approx(s.mean_at(200 - t), abs=1e-12)


def snapshot_replay(state):
    """Run one tick, then re-derive every decision through the scalar API."""
    n = state.grid.n_cells
    old_aft = state.grid.aft_id.copy()
    report = tick(state)

    snap_grid = LandscapeGrid(
        state.grid.width,
        state.grid.height,
        state.grid.c_prod,
        state.grid.c_nat,
        old_aft,
        profiles=state.grid.profiles,
    )
    s_mat = sum(
        DEFAULT_AFTS[old_aft[i]].s_prod * state.grid.c_prod[i] for i in range(n)
    )
    s_nm = sum(DEFAULT_AFTS[old_aft[i]].s_nat * state.grid.c_nat[i] for i in range(n))
    demand = DemandState(state.demand.d_mat, state.demand.d_nm, s_mat, s_nm)

    expected = {}
    for i in report.selected:
        incumbent = DEFAULT_AFTS[old_aft[i]]
        cell = snap_grid.cell(int(i))
        u_inc = utility(incumbent, cell, demand)
        best = None
        for cand in DEFAULT_AFTS:
            if cand.id == incumbent.id:
                continue
            git = evaluate_transition(snap_grid, state.network, int(i), cand, state.behaviour_globals)
            surplus = utility(cand, cell, demand) - u_inc
            if surplus <= git:
                continue
            score = surplus - git
            jump = abs(cand.intensity - incumbent.intensity)
            key = (-score, jump, cand.id)
            if best is None or key < best[0]:
                best = (key, cand.id)
        if best is not None:
            expected[int(i)] = best[1]
    return report, expected


def changed_runs(batch, report):
    """The runs of a batch whose land use the tick's report changed."""
    return np.unique(np.searchsorted(batch.offsets, report.cells, "right") - 1)


class TestTick:
    def test_supply_bookkeeping(self):
        # without thresholds the first tick changes both runs' land use
        states = [
            make_state(seed=0, economic_baseline=True),
            make_state(seed=1, capital_seed=9, economic_baseline=True),
        ]
        batch = Lockstep(states)
        report = tick(batch)
        assert changed_runs(batch, report).tolist() == [0, 1]
        for b, state in enumerate(states):
            expected = total_supply(state.grid)
            assert tuple(batch.supply[b].tolist()) == expected
            assert (state.demand.s_mat, state.demand.s_nm) == expected
            grid = state.grid
            ref_mat = sum(
                DEFAULT_AFTS[grid.aft_id[i]].s_prod * grid.c_prod[i] for i in range(grid.n_cells)
            )
            assert expected[0] == pytest.approx(ref_mat, abs=1e-9)

    def test_bare_tick_leaves_demand_current(self):
        config = ExperimentConfig(
            grid_width=25, grid_height=25, demand_mat=300, demand_nm=300, economic_baseline=True
        )
        state = build_state(config, (0, 0, 0))
        assert tick(state).cells.size == 18
        assert (state.demand.s_mat, state.demand.s_nm) == total_supply(state.grid)

    def test_lockstep_prices_each_run_once_per_changing_tick(self, monkeypatch):
        # one price per run at build, then one per run and tick that changed
        # the run's land use, as the reports of the ticks show
        states = [make_state(seed=s, capital_seed=5 + s, economic_baseline=s % 2 == 0) for s in range(4)]
        changing = []
        priced = []
        refresh_supply = Lockstep.refresh_supply

        def counted_tick(batch):
            report = tick(batch)
            changing.append(changed_runs(batch, report).size)
            return report

        def counted_refresh(batch, runs):
            priced.extend(runs.tolist())
            refresh_supply(batch, runs)

        monkeypatch.setattr(dynamics, "tick", counted_tick)
        monkeypatch.setattr(Lockstep, "refresh_supply", counted_refresh)
        run_lockstep(states, StopRule(max_ticks=40, window=5))
        assert sum(changing) > len(changing) > 0
        assert len(priced) == len(states) + sum(changing)

    def test_fixed_point_when_saturated(self):
        # oversupplied demands give zero benefit, so no surplus ever
        # beats the giving-in threshold
        state = make_state(d_mat=1e-9, d_nm=1e-9)
        before = state.grid.aft_id.copy()
        report = tick(state)
        assert report.cells.size == 0
        assert np.array_equal(state.grid.aft_id, before)
        assert state.tick == 1

    def test_economic_baseline_allows_free_competition(self):
        calm = make_state(git_upper=1.0, attitude=-0.0, norm_weight=1.0, cm=0.8)
        free = make_state(git_upper=1.0, attitude=-0.0, norm_weight=1.0, cm=0.8,
                          economic_baseline=True)
        for _ in range(30):
            tick(calm)
            tick(free)
        # with high conformity demands all-but-freeze the grid; the baseline moves
        assert not np.array_equal(calm.grid.aft_id, free.grid.aft_id)

    def test_selection_is_without_replacement(self):
        state = make_state(width=10, height=10)
        report = tick(state)
        assert report.selected.size == selection_count(100)
        assert np.unique(report.selected).size == report.selected.size

    def test_reproducible(self):
        a = make_state(seed=12)
        b = make_state(seed=12)
        for _ in range(20):
            tick(a)
            tick(b)
        assert np.array_equal(a.grid.aft_id, b.grid.aft_id)

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_engine_matches_scalar_replay(self, seed):
        state = make_state(seed=seed, capital_seed=seed + 77, d_mat=20.0, d_nm=20.0)
        report, expected = snapshot_replay(state)
        got = {int(c): int(a) for c, a in zip(report.cells, report.new_aft)}
        assert got == expected

    @given(st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_engine_matches_scalar_replay_with_inertia(self, seed):
        state = make_state(
            seed=seed, capital_seed=seed + 3, inertia=0.4, attitude=0.3, d_mat=14.0, d_nm=22.0
        )
        report, expected = snapshot_replay(state)
        got = {int(c): int(a) for c, a in zip(report.cells, report.new_aft)}
        assert got == expected

    def test_strict_threshold_replay_guarantee(self):
        # every committed change must have beaten its threshold strictly
        state = make_state(seed=5, d_mat=20.0, d_nm=20.0)
        for _ in range(5):
            report, expected = snapshot_replay(state)
            for c, new in zip(report.cells, report.new_aft):
                assert expected[int(c)] == int(new)


class TestRunUntilStable:
    def test_fixed_point_stops_at_window(self):
        state = make_state(d_mat=1e-9, d_nm=1e-9)
        state2, traj = run_until_stable(state, max_ticks=200, window=50, epsilon=0.002)
        assert traj.tick[-1] == 50
        assert traj.n_rows == 51

    def test_vacuous_epsilon_stops_at_window(self):
        state = make_state()
        _, traj = run_until_stable(state, max_ticks=200, window=20, epsilon=1.0)
        assert traj.tick[-1] == 20

    def test_row_count_is_final_tick_plus_one(self):
        state = make_state(seed=3)
        _, traj = run_until_stable(state, max_ticks=120, window=10, epsilon=0.01)
        assert traj.n_rows == traj.tick[-1] + 1

    def test_respects_max_ticks(self):
        # One-sided scarcity with a near-zero threshold drives every cell
        # towards high intensity; at 2 selections per tick the ~2/3 of cells
        # that start elsewhere cannot all flip within 15 ticks, so the share
        # trajectory is still moving when the cap is hit.
        state = make_state(seed=3, d_mat=30.0, d_nm=1e-9, git_upper=1e-6)
        _, traj = run_until_stable(state, max_ticks=15, window=10, epsilon=1e-9)
        assert traj.tick[-1] == 15

    def test_bad_window_rejected(self):
        with pytest.raises(ConfigurationError):
            run_until_stable(make_state(), max_ticks=10, window=20, epsilon=0.1)

    @pytest.mark.parametrize("epsilon", [0.0, np.nan])
    def test_non_positive_or_nan_epsilon_rejected(self, epsilon):
        with pytest.raises(ConfigurationError, match="epsilon must be positive"):
            StopRule(epsilon=epsilon)

    def test_trajectory_matches_final_state(self):
        state = make_state(seed=9)
        state, traj = run_until_stable(state, max_ticks=100, window=10, epsilon=0.01)
        shares = np.bincount(state.grid.aft_id, minlength=3) / state.grid.n_cells
        assert traj.share_c[-1] == pytest.approx(shares[0], abs=1e-12)
        assert traj.share_hi[-1] == pytest.approx(shares[2], abs=1e-12)


class TestRunSchedule:
    def test_records_scheduled_column(self):
        state = make_state()
        schedule = AttitudeSchedule(((0, -0.5), (30, 0.5)))
        _, traj = run_schedule(state, schedule)
        assert traj.n_rows == 31
        assert traj.scheduled_attitude[0] == pytest.approx(-0.5)
        assert traj.scheduled_attitude[-1] == pytest.approx(0.5)

    def test_flat_schedule_tracks_mean(self):
        state = make_state(attitude=0.2)
        _, traj = run_schedule(state, AttitudeSchedule(((0, 0.2), (25, 0.2))))
        assert np.allclose(traj.scheduled_attitude, 0.2)
        assert np.allclose(traj.mean_attitude, 0.2)

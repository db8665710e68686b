"""Grid, capital fields, land-use seeding, and per-cell production."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ablum import (
    CONSERVATION,
    DEFAULT_AFTS,
    HIGH_INTENSITY,
    MEDIUM_INTENSITY,
    AgentFunctionalType,
    ConfigurationError,
    LandscapeGrid,
    default_peaks,
    generate_capitals,
    init_land_use,
    total_supply,
)
from ablum.landscape import validate_aft_table


class TestAftTable:
    def test_canonical_ids(self):
        assert [a.id for a in DEFAULT_AFTS] == [0, 1, 2]
        assert CONSERVATION.intensity < MEDIUM_INTENSITY.intensity < HIGH_INTENSITY.intensity

    def test_sensitivities_sum_to_one(self):
        for aft in DEFAULT_AFTS:
            assert aft.s_prod + aft.s_nat == pytest.approx(1.0, abs=1e-9)

    def test_table_values(self):
        assert (CONSERVATION.intensity, CONSERVATION.s_prod, CONSERVATION.s_nat) == (0.0, 0.0, 1.0)
        assert (MEDIUM_INTENSITY.intensity, MEDIUM_INTENSITY.s_prod) == (0.5, 0.5)
        assert (HIGH_INTENSITY.intensity, HIGH_INTENSITY.s_prod, HIGH_INTENSITY.s_nat) == (
            1.0,
            1.0,
            0.0,
        )

    def test_unordered_intensities_rejected(self):
        bad = (
            AgentFunctionalType(0, "a", 0.5, 0.5, 0.5),
            AgentFunctionalType(1, "b", 0.5, 0.5, 0.5),
        )
        with pytest.raises(ConfigurationError):
            validate_aft_table(bad)


class TestGenerateCapitals:
    def test_peak_centre(self):
        c_prod, c_nat = generate_capitals(41, 41, [(20.0, 20.0, 5.0)], 0.0, 1)
        centre = 20 * 41 + 20
        assert c_nat[centre] == pytest.approx(1.0, abs=1e-9)
        assert c_prod[centre] == pytest.approx(0.0, abs=1e-9)

    def test_one_sigma_distance(self):
        c_prod, c_nat = generate_capitals(41, 41, [(20.0, 20.0, 5.0)], 0.0, 1)
        at_sigma = 20 * 41 + 25  # (25, 20), distance 5 = sigma
        assert c_nat[at_sigma] == pytest.approx(0.6065306597126334, abs=1e-9)

    def test_default_field_asymmetry(self):
        # productive capital is more widely available than natural capital
        c_prod, c_nat = generate_capitals(101, 101, default_peaks(101, 101), 0.0, 0)
        assert c_nat.mean() + c_prod.mean() == pytest.approx(1.0, abs=1e-9)
        assert c_nat.mean() < c_prod.mean()

    def test_default_peaks_positions(self):
        assert default_peaks(101, 101) == ((30.0, 50.0, 12.0), (70.0, 50.0, 12.0))

    def test_deterministic(self):
        a = generate_capitals(31, 31, default_peaks(31, 31), 0.1, 42)
        b = generate_capitals(31, 31, default_peaks(31, 31), 0.1, 42)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_noise_changes_with_seed(self):
        a = generate_capitals(31, 31, default_peaks(31, 31), 0.1, 1)
        b = generate_capitals(31, 31, default_peaks(31, 31), 0.1, 2)
        assert not np.array_equal(a[1], b[1])

    def test_bad_dims_rejected(self):
        with pytest.raises(ConfigurationError):
            generate_capitals(2, 31, [(1.0, 1.0, 1.0)], 0.0, 0)

    def test_bad_sigma_rejected(self):
        with pytest.raises(ConfigurationError):
            generate_capitals(31, 31, [(10.0, 10.0, 0.0)], 0.0, 0)

    def test_bad_noise_rejected(self):
        with pytest.raises(ConfigurationError):
            generate_capitals(31, 31, [(10.0, 10.0, 3.0)], 0.5, 0)

    @given(st.integers(0, 2**31), st.floats(0.0, 0.2))
    @settings(max_examples=25, deadline=None)
    def test_fields_always_in_unit_range(self, seed, noise):
        c_prod, c_nat = generate_capitals(15, 11, default_peaks(15, 11), noise, seed)
        for field in (c_prod, c_nat):
            assert field.min() >= 0.0 and field.max() <= 1.0

    def test_complement_without_noise(self):
        c_prod, c_nat = generate_capitals(31, 31, default_peaks(31, 31), 0.0, 0)
        assert np.allclose(c_prod + c_nat, 1.0, atol=1e-12)


class TestInitLandUse:
    def test_degenerate_all_conservation(self):
        ids = init_land_use(100, (1.0, 0.0, 0.0), 0)
        assert np.all(ids == 0)

    def test_zero_probability_class_absent(self):
        ids = init_land_use(400, (0.5, 0.0, 0.5), 3)
        assert np.count_nonzero(ids == 1) == 0

    def test_realized_shares_concentrate(self):
        # binomial concentration: on 101x101 each share lands within 0.02
        # of 1/3 for essentially every seed
        n = 101 * 101
        hits = 0
        for seed in range(100):
            ids = init_land_use(n, (1 / 3, 1 / 3, 1 / 3), seed)
            shares = np.bincount(ids, minlength=3) / n
            if np.all(np.abs(shares - 1 / 3) < 0.02):
                hits += 1
        assert hits >= 99

    def test_bad_shares_rejected(self):
        with pytest.raises(ConfigurationError):
            init_land_use(10, (0.5, 0.2, 0.2), 0)

    def test_deterministic(self):
        assert np.array_equal(
            init_land_use(500, (0.2, 0.3, 0.5), 9), init_land_use(500, (0.2, 0.3, 0.5), 9)
        )


def production(aft, c_prod, c_nat):
    """Production of one cell under aft: the service supply of a one-cell landscape."""
    grid = LandscapeGrid(1, 1, np.array([c_prod]), np.array([c_nat]), np.array([aft.id]))
    return total_supply(grid)


class TestProduction:
    def test_high_intensity_example(self):
        assert production(HIGH_INTENSITY, 0.8, 0.3) == pytest.approx((0.8, 0.0), abs=1e-9)

    def test_conservation_zero_capital(self):
        assert production(CONSERVATION, 0.7, 0.0) == pytest.approx((0.0, 0.0), abs=1e-9)

    def test_medium_intensity_example(self):
        got = production(MEDIUM_INTENSITY, 0.6, 0.3)
        assert got == pytest.approx((0.30, 0.15), abs=1e-9)

    @given(
        st.sampled_from(DEFAULT_AFTS),
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0),
    )
    def test_linear_in_capitals(self, aft, cp, cn, t):
        full = production(aft, cp, cn)
        scaled = production(aft, t * cp, t * cn)
        assert scaled[0] == pytest.approx(t * full[0], abs=1e-9)
        assert scaled[1] == pytest.approx(t * full[1], abs=1e-9)

    @given(st.sampled_from(DEFAULT_AFTS), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_total_bounded_by_capital(self, aft, cp, cn):
        p_mat, p_nm = production(aft, cp, cn)
        assert p_mat + p_nm <= max(cp, cn) + 1e-12


class TestLandscapeGrid:
    def test_cell_count_and_views(self):
        c_prod, c_nat = generate_capitals(5, 4, [(2.0, 2.0, 1.0)], 0.0, 0)
        grid = LandscapeGrid(5, 4, c_prod, c_nat, np.zeros(20, dtype=np.int64))
        assert grid.n_cells == 20
        c = grid.cell(7)
        assert (c.x, c.y) == (2, 1)  # row-major index 7 on width 5

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ConfigurationError):
            LandscapeGrid(3, 3, np.zeros(8), np.zeros(9), np.zeros(9, dtype=np.int64))

    def test_out_of_range_capital_rejected(self):
        with pytest.raises(ConfigurationError):
            LandscapeGrid(3, 3, np.full(9, 1.5), np.zeros(9), np.zeros(9, dtype=np.int64))

    def test_unknown_aft_id_rejected(self):
        with pytest.raises(ConfigurationError):
            LandscapeGrid(3, 3, np.zeros(9), np.zeros(9), np.full(9, 7, dtype=np.int64))

"""Saltelli designs, Sobol index estimators, and the sample-to-config bridge.

The estimator tests use the Ishigami function because every variance
component has a closed form; the oracle values below are derived from those
forms and frozen, so the estimator is checked against an independent route.
The numpy Sobol' sampler behind the designs is checked bit for bit against
scipy.stats.qmc.Sobol, which the package itself never imports.
"""

import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import qmc

from ablum import (
    ConfigurationError,
    DegenerateVarianceError,
    ExperimentConfig,
    ParameterDim,
    ParameterSpace,
    SobolIndices,
    apply_values,
    default_parameter_space,
    map_sample_to_config,
    round_half_up,
    saltelli_sample,
    sobol_indices,
)
from ablum.sensitivity import _scrambled_sobol

# Ishigami function f = sin x1 + a sin^2 x2 + b x3^4 sin x1 on U(-pi, pi)^3
# with a=7, b=0.1.  Closed-form variance decomposition:
#   V1   = (1 + b pi^4 / 5)^2 / 2
#   V2   = a^2 / 8
#   V13  = b^2 pi^8 * 8 / 225
#   V    = V1 + V2 + V13          (all other terms vanish)
#   S1   = (V1/V, V2/V, 0)        ST = ((V1+V13)/V, V2/V, V13/V)
ISHIGAMI_A = 7.0
ISHIGAMI_B = 0.1
ISHIGAMI_V = 13.844587940719254
ISHIGAMI_S1 = (0.31390519114781146, 0.4424111447900409, 0.0)
ISHIGAMI_ST = (0.5575888552099592, 0.4424111447900409, 0.24368366406214773)


def ishigami(rows):
    x1, x2, x3 = rows[:, 0], rows[:, 1], rows[:, 2]
    return np.sin(x1) + ISHIGAMI_A * np.sin(x2) ** 2 + ISHIGAMI_B * x3**4 * np.sin(x1)


def ishigami_space():
    return ParameterSpace(
        (
            ParameterDim("x1", -math.pi, math.pi),
            ParameterDim("x2", -math.pi, math.pi),
            ParameterDim("x3", -math.pi, math.pi),
        )
    )


def _estimates_1d(f_a, f_b, f_ab, f_ba):
    variance = np.var(np.concatenate([f_a, f_b]))
    if variance <= 0 or not math.isfinite(variance):
        raise DegenerateVarianceError("outputs have no variance; indices are undefined")
    d = f_ab.shape[1]
    s1 = np.array([np.mean(f_b * (f_ab[:, i] - f_a)) for i in range(d)]) / variance
    st = np.array([0.5 * np.mean((f_a - f_ab[:, i]) ** 2) for i in range(d)]) / variance
    s2 = None
    if f_ba is not None:
        s2 = np.full((d, d), np.nan)
        for i in range(d):
            for j in range(i + 1, d):
                v_ij = np.mean(f_ba[:, i] * f_ab[:, j] - f_a * f_b) / variance
                s2[i, j] = v_ij - s1[i] - s1[j]
    return s1, st, s2


def sobol_by_resample(design, outputs, n_boot=100, seed=0):
    """Reference estimator: one resample at a time, each index from 1-D
    np.mean/np.var calls."""
    outputs = np.asarray(outputs, dtype=np.float64)
    centred = outputs - outputs.mean()
    f_a, f_b, f_ab, f_ba = design.blocks(centred)
    s1, st, s2 = _estimates_1d(f_a, f_b, f_ab, f_ba)

    d = design.space.d
    n = design.n_base
    rng = np.random.default_rng(seed)
    boot_s1 = np.empty((n_boot, d))
    boot_st = np.empty((n_boot, d))
    boot_s2 = np.empty((n_boot, d, d)) if s2 is not None else None
    for b in range(n_boot):
        r = rng.integers(0, n, n)
        try:
            bs1, bst, bs2 = _estimates_1d(
                f_a[r], f_b[r], f_ab[r], None if f_ba is None else f_ba[r]
            )
        except DegenerateVarianceError:
            bs1 = np.full(d, np.nan)
            bst = np.full(d, np.nan)
            bs2 = np.full((d, d), np.nan) if s2 is not None else None
        boot_s1[b] = bs1
        boot_st[b] = bst
        if boot_s2 is not None:
            boot_s2[b] = bs2
    z = 1.96
    s2_conf = None
    if boot_s2 is not None:
        s2_conf = np.full((d, d), np.nan)
        iu = np.triu_indices(d, k=1)
        s2_conf[iu] = z * np.nanstd(boot_s2[:, iu[0], iu[1]], axis=0)
    return SobolIndices(
        names=design.space.names,
        s1=s1,
        s1_conf=z * np.nanstd(boot_s1, axis=0),
        st=st,
        st_conf=z * np.nanstd(boot_st, axis=0),
        s2=s2,
        s2_conf=s2_conf,
    )


class TestIshigamiOracle:
    def test_frozen_values_match_closed_forms(self):
        a, b = ISHIGAMI_A, ISHIGAMI_B
        v1 = (1.0 + b * math.pi**4 / 5.0) ** 2 / 2.0
        v2 = a**2 / 8.0
        v13 = b**2 * math.pi**8 * 8.0 / 225.0
        v = v1 + v2 + v13
        assert v == pytest.approx(ISHIGAMI_V, abs=1e-12)
        assert v1 / v == pytest.approx(ISHIGAMI_S1[0], abs=1e-12)
        assert v2 / v == pytest.approx(ISHIGAMI_S1[1], abs=1e-12)
        assert (v1 + v13) / v == pytest.approx(ISHIGAMI_ST[0], abs=1e-12)
        assert v2 / v == pytest.approx(ISHIGAMI_ST[1], abs=1e-12)
        assert v13 / v == pytest.approx(ISHIGAMI_ST[2], abs=1e-12)

    def test_monte_carlo_variance_agrees(self):
        rng = np.random.default_rng(0)
        rows = rng.uniform(-math.pi, math.pi, (200_000, 3))
        assert np.var(ishigami(rows)) == pytest.approx(ISHIGAMI_V, rel=0.02)


class TestParameterSpace:
    def test_dim_validation(self):
        with pytest.raises(ConfigurationError):
            ParameterDim("a", 1.0, 1.0)
        with pytest.raises(ConfigurationError):
            ParameterDim("a", 2.0, 1.0)
        with pytest.raises(ConfigurationError):
            ParameterDim("a", 0.0, 1.0, kind="categorical")

    def test_space_validation(self):
        with pytest.raises(ConfigurationError):
            ParameterSpace(())
        dim = ParameterDim("a", 0.0, 1.0)
        with pytest.raises(ConfigurationError):
            ParameterSpace((dim, dim))

    def test_default_space(self):
        space = default_parameter_space()
        assert space.d == 9
        assert space.names == (
            "attitude_mean",
            "norm_weight_w",
            "inertia_lambda",
            "cm_int",
            "cm_ext",
            "demand_mat",
            "demand_nm",
            "moore_radius",
            "n_tele",
        )
        by_name = {d.name: d for d in space.dims}
        assert (by_name["attitude_mean"].lower, by_name["attitude_mean"].upper) == (-1.0, 1.0)
        assert (by_name["norm_weight_w"].lower, by_name["norm_weight_w"].upper) == (0.0, 1.0)
        assert (by_name["inertia_lambda"].lower, by_name["inertia_lambda"].upper) == (0.0, 0.5)
        assert (by_name["cm_int"].lower, by_name["cm_int"].upper) == (0.1, 0.8)
        assert (by_name["cm_ext"].lower, by_name["cm_ext"].upper) == (0.1, 0.8)
        assert (by_name["demand_mat"].lower, by_name["demand_mat"].upper) == (3000.0, 5000.0)
        assert (by_name["demand_nm"].lower, by_name["demand_nm"].upper) == (3000.0, 5000.0)
        assert (by_name["moore_radius"].lower, by_name["moore_radius"].upper) == (1, 5)
        assert (by_name["n_tele"].lower, by_name["n_tele"].upper) == (0, 2500)
        assert by_name["moore_radius"].kind == "integer"
        assert by_name["n_tele"].kind == "integer"
        assert by_name["attitude_mean"].kind == "continuous"


class TestSaltelliSample:
    def test_row_count_without_second_order(self):
        space = ParameterSpace((ParameterDim("a", 0, 1), ParameterDim("b", 0, 1)))
        design = saltelli_sample(space, n_base=8, seed=1, second_order=False)
        assert design.n_rows == 32
        assert design.matrix.shape == (32, 2)

    def test_row_count_with_second_order(self):
        design = saltelli_sample(default_parameter_space(), 256, seed=1, second_order=True)
        assert design.n_rows == 256 * 20
        assert design.matrix.shape == (5120, 9)

    def test_all_coordinates_in_bounds(self):
        space = default_parameter_space()
        design = saltelli_sample(space, 64, seed=3, second_order=True)
        lower = np.array([d.lower for d in space.dims])
        upper = np.array([d.upper for d in space.dims])
        assert np.all(design.matrix >= lower)
        assert np.all(design.matrix <= upper)

    def test_deterministic_per_seed(self):
        space = ishigami_space()
        d1 = saltelli_sample(space, 32, seed=7, second_order=True)
        d2 = saltelli_sample(space, 32, seed=7, second_order=True)
        d3 = saltelli_sample(space, 32, seed=8, second_order=True)
        assert np.array_equal(d1.matrix, d2.matrix)
        assert not np.array_equal(d1.matrix, d3.matrix)

    def test_bad_n_base_rejected(self):
        with pytest.raises(ConfigurationError):
            saltelli_sample(ishigami_space(), 0, seed=0)

    def test_block_layout(self):
        # Each AB_i block is A with column i replaced from B; BA_i the reverse.
        space = ishigami_space()
        design = saltelli_sample(space, 16, seed=2, second_order=True)
        n, d = 16, 3
        a = design.matrix[:n]
        b = design.matrix[-n:]
        for i in range(d):
            ab = design.matrix[n * (1 + i) : n * (2 + i)]
            expected = a.copy()
            expected[:, i] = b[:, i]
            assert np.array_equal(ab, expected)
            ba = design.matrix[n * (1 + d + i) : n * (2 + d + i)]
            expected = b.copy()
            expected[:, i] = a[:, i]
            assert np.array_equal(ba, expected)

    def test_blocks_split_outputs_by_position(self):
        design = saltelli_sample(ishigami_space(), 8, seed=0, second_order=True)
        outputs = np.arange(design.n_rows, dtype=float)
        f_a, f_b, f_ab, f_ba = design.blocks(outputs)
        assert np.array_equal(f_a, np.arange(8.0))
        assert np.array_equal(f_b, outputs[-8:])
        for i in range(3):
            assert np.array_equal(f_ab[:, i], outputs[8 * (1 + i) : 8 * (2 + i)])
            assert np.array_equal(f_ba[:, i], outputs[8 * (4 + i) : 8 * (5 + i)])
        with pytest.raises(ConfigurationError):
            design.blocks(outputs[:-1])

    def test_base_index_wraps_by_block(self):
        design = saltelli_sample(ishigami_space(), 8, seed=0, second_order=False)
        assert design.base_index(0) == 0
        assert design.base_index(8) == 0
        assert design.base_index(13) == 5
        assert design.base_index(design.n_rows - 1) == 7


def copy_seed(seq):
    """A fresh SeedSequence equal to seq, for an oracle that spawns from it."""
    return np.random.SeedSequence(
        seq.entropy, spawn_key=seq.spawn_key, n_children_spawned=seq.n_children_spawned
    )


def space_of(d):
    return ParameterSpace(tuple(ParameterDim(f"x{i}", 0.0, 1.0) for i in range(d)))


class TestSobolSampler:
    SEEDS = (
        0,
        3,
        np.random.SeedSequence(11, spawn_key=(3,)),
        np.random.SeedSequence(5, spawn_key=(1, 2), n_children_spawned=2),
    )

    @pytest.mark.parametrize("dims", range(1, 33))
    def test_bits_equal_scipy(self, dims):
        for n in (1, 2, 3, 8, 1024):
            for seed in self.SEEDS:
                seq = np.random.SeedSequence(seed) if isinstance(seed, int) else seed
                oracle_seed = seed if isinstance(seed, int) else copy_seed(seed)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", UserWarning)
                    sobol = qmc.Sobol(d=dims, scramble=True, seed=np.random.default_rng(oracle_seed))
                    expected = sobol.random(n)
                got = _scrambled_sobol(dims, n, seq)
                assert got.tobytes() == expected.tobytes(), (dims, n, seed)

    def test_seed_sequence_is_not_spawned_from(self):
        seq = np.random.SeedSequence(5)
        first = saltelli_sample(ishigami_space(), 8, seed=seq)
        second = saltelli_sample(ishigami_space(), 8, seed=seq)
        assert seq.n_children_spawned == 0
        assert np.array_equal(first.matrix, second.matrix)
        assert np.array_equal(first.matrix, saltelli_sample(ishigami_space(), 8, seed=5).matrix)

    def test_sixteen_parameters_at_most(self):
        assert saltelli_sample(space_of(16), 2).matrix.shape == (2 * 18, 16)
        with pytest.raises(ConfigurationError, match="^a Saltelli design takes at most 16 parameters, got 17$"):
            saltelli_sample(space_of(17), 2)

    def test_non_power_of_two_warns(self):
        with pytest.warns(UserWarning, match="balance properties of Sobol' points"):
            saltelli_sample(ishigami_space(), 6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            saltelli_sample(ishigami_space(), 8)

    def test_non_integral_n_base_rejected(self):
        with pytest.raises(ConfigurationError, match=r"^n_base must be an integer, got 8\.0$"):
            saltelli_sample(ishigami_space(), 8.0)

    def test_more_points_than_the_sequence_rejected(self):
        with pytest.raises(ConfigurationError, match=r"^n_base must be between 1 and 2\*\*30$"):
            saltelli_sample(ishigami_space(), 2**30 + 1)


class TestSobolIndices:
    def test_ishigami_first_order(self):
        design = saltelli_sample(ishigami_space(), 1024, seed=0, second_order=True)
        idx = sobol_indices(design, ishigami(design.matrix))
        assert idx.s1 == pytest.approx(ISHIGAMI_S1, abs=0.05)

    def test_ishigami_total_effect(self):
        design = saltelli_sample(ishigami_space(), 1024, seed=0, second_order=True)
        idx = sobol_indices(design, ishigami(design.matrix))
        assert idx.st == pytest.approx(ISHIGAMI_ST, abs=0.05)

    def test_ishigami_interaction_pair(self):
        # The only non-zero interaction is x1 x x3, with S2 = ST3 exactly.
        design = saltelli_sample(ishigami_space(), 1024, seed=0, second_order=True)
        idx = sobol_indices(design, ishigami(design.matrix))
        assert idx.s2[0, 2] == pytest.approx(ISHIGAMI_ST[2], abs=0.1)
        assert idx.s2[0, 1] == pytest.approx(0.0, abs=0.05)
        assert idx.s2[1, 2] == pytest.approx(0.0, abs=0.05)

    def test_first_order_never_exceeds_total(self):
        design = saltelli_sample(ishigami_space(), 1024, seed=4, second_order=False)
        idx = sobol_indices(design, ishigami(design.matrix))
        assert np.all(idx.s1 <= idx.st + 0.02)

    def test_additive_function_has_no_interactions(self):
        space = ParameterSpace(tuple(ParameterDim(f"x{i}", 0.0, 1.0) for i in range(3)))
        design = saltelli_sample(space, 512, seed=1, second_order=True)
        idx = sobol_indices(design, design.matrix.sum(axis=1))
        upper = np.triu_indices(3, k=1)
        assert np.all(np.abs(idx.s2[upper]) < 0.03)
        assert idx.s1.sum() == pytest.approx(1.0, abs=0.05)
        assert idx.s1 == pytest.approx(idx.st, abs=0.05)

    def test_confidence_half_widths(self):
        design = saltelli_sample(ishigami_space(), 256, seed=0, second_order=True)
        idx = sobol_indices(design, ishigami(design.matrix), seed=5)
        for conf in (idx.s1_conf, idx.st_conf):
            assert np.all(np.isfinite(conf))
            assert np.all(conf > 0)
        pairs = np.triu_indices(3, k=1)
        assert np.all(np.isfinite(idx.s2_conf[pairs]))

    def test_no_second_order_blocks_no_s2(self):
        design = saltelli_sample(ishigami_space(), 64, seed=0, second_order=False)
        idx = sobol_indices(design, ishigami(design.matrix))
        assert idx.s2 is None
        assert idx.s2_conf is None

    def test_constant_outputs_rejected(self):
        design = saltelli_sample(ishigami_space(), 16, seed=0)
        with pytest.raises(DegenerateVarianceError):
            sobol_indices(design, np.full(design.n_rows, 3.5))

    def test_deterministic(self):
        design = saltelli_sample(ishigami_space(), 128, seed=0, second_order=True)
        outputs = ishigami(design.matrix)
        a = sobol_indices(design, outputs, seed=2)
        b = sobol_indices(design, outputs, seed=2)
        assert np.array_equal(a.s1, b.s1)
        assert np.array_equal(a.st_conf, b.st_conf)

    def test_to_dict_layout(self):
        design = saltelli_sample(ishigami_space(), 64, seed=0, second_order=True)
        out = sobol_indices(design, ishigami(design.matrix)).to_dict()
        assert set(out) == {"S1", "ST", "S2", "conf"}
        assert set(out["S1"]) == {"x1", "x2", "x3"}
        assert set(out["S2"]) == {"x1|x2", "x1|x3", "x2|x3"}
        assert set(out["conf"]) == {"S1", "ST", "S2"}


class TestBootstrapEqualsPerResample:
    @staticmethod
    def assert_same_json(design, outputs, seed):
        got = json.dumps(sobol_indices(design, outputs, seed=seed).to_dict())
        assert got == json.dumps(sobol_by_resample(design, outputs, seed=seed).to_dict())

    @pytest.mark.parametrize("second_order", [False, True])
    @pytest.mark.parametrize("n_base", [1, 2, 8, 64, 1024])
    def test_ishigami(self, n_base, second_order):
        design = saltelli_sample(ishigami_space(), n_base, seed=n_base, second_order=second_order)
        self.assert_same_json(design, ishigami(design.matrix), seed=n_base)

    @pytest.mark.parametrize("second_order", [False, True])
    def test_default_space(self, second_order):
        design = saltelli_sample(default_parameter_space(), 8, seed=0, second_order=second_order)
        x = design.matrix
        outputs = x[:, 0] * x[:, 5] + np.round(x[:, 7]) + x[:, 8] / 1000
        self.assert_same_json(design, outputs, seed=0)

    @pytest.mark.parametrize("second_order", [False, True])
    def test_zero_variance_resamples(self, second_order):
        # base sample 0 is 0 in every block and sample 1 alternates +-1, so the
        # mean is exactly 0 and a resample of sample 0 alone has no variance
        space = ParameterSpace((ParameterDim("x1", 0, 1), ParameterDim("x2", 0, 1)))
        design = saltelli_sample(space, 2, seed=0, second_order=second_order)
        outputs = np.zeros(design.n_rows)
        outputs[1::2] = (-1.0) ** np.arange(design.n_rows // 2)
        resamples = np.random.default_rng(4).integers(0, 2, (100, 2))
        assert (resamples == 0).all(axis=1).any()
        self.assert_same_json(design, outputs, seed=4)
        assert np.all(np.isfinite(sobol_indices(design, outputs, seed=4).s1_conf))


class TestRoundHalfUp:
    def test_halves_round_up(self):
        assert round_half_up(2.5) == 3
        assert round_half_up(3.5) == 4
        assert round_half_up(-0.5) == 0

    def test_non_halves_round_to_nearest(self):
        assert round_half_up(2.4) == 2
        assert round_half_up(2.6) == 3
        assert round_half_up(1250.4) == 1250


class TestMapSampleToConfig:
    def test_lower_bounds_row(self):
        space = default_parameter_space()
        row = [d.lower for d in space.dims]
        cfg = map_sample_to_config(row, space, ExperimentConfig())
        assert cfg.attitude_mean == -1.0
        assert cfg.norm_weight_w == 0.0
        assert cfg.inertia_lambda == 0.0
        assert cfg.cm_int == 0.1
        assert cfg.cm_ext == 0.1
        assert cfg.demand_mat == 3000.0
        assert cfg.demand_nm == 3000.0
        assert cfg.moore_radius == 1
        assert cfg.n_tele == 0

    def test_integer_dims_rounded_half_up(self):
        space = default_parameter_space()
        row = [0.0, 0.5, 0.2, 0.4, 0.4, 4000.0, 4000.0, 2.5, 1250.5]
        cfg = map_sample_to_config(row, space, ExperimentConfig())
        assert cfg.moore_radius == 3
        assert isinstance(cfg.moore_radius, int)
        assert cfg.n_tele == 1251

    def test_threshold_ceiling_honoured(self):
        # a configured giving-in ceiling is kept, and a space may vary it
        base = replace(ExperimentConfig(), git_upper_L=0.65)
        space = default_parameter_space()
        row = [d.lower for d in space.dims]
        cfg = map_sample_to_config(row, space, base)
        assert cfg.git_upper_L == 0.65
        space = ParameterSpace((ParameterDim("git_upper_L", 0.1, 0.9),))
        assert map_sample_to_config([0.3], space, base).git_upper_L == 0.3

    def test_rows_go_through_apply_values(self):
        # the cm alias sets both keys, and a key no sweep may set is refused
        # with the sweep's message
        space = ParameterSpace((ParameterDim("cm", 0.1, 0.8), ParameterDim("n_tele", 0, 10, kind="integer")))
        cfg = map_sample_to_config([0.25, 2.5], space, ExperimentConfig())
        assert cfg == apply_values(ExperimentConfig(), {"cm": 0.25, "n_tele": 3})
        for name in ("window", "grid_width", "phase_of_moon"):
            space = ParameterSpace((ParameterDim(name, 5, 15, kind="integer"),))
            with pytest.raises(ConfigurationError, match=f"^cannot vary '{name}'; sweepable: "):
                map_sample_to_config([10], space, ExperimentConfig())

    def test_other_base_fields_kept(self):
        base = replace(ExperimentConfig(), grid_width=25, grid_height=25, seed=99)
        space = default_parameter_space()
        row = [d.lower for d in space.dims]
        cfg = map_sample_to_config(row, space, base)
        assert cfg.grid_width == 25
        assert cfg.seed == 99

    def test_out_of_bounds_rejected(self):
        space = default_parameter_space()
        row = [d.lower for d in space.dims]
        row[0] = 1.5
        with pytest.raises(ConfigurationError):
            map_sample_to_config(row, space, ExperimentConfig())

    def test_wrong_length_rejected(self):
        with pytest.raises(ConfigurationError):
            map_sample_to_config([0.0, 0.0], default_parameter_space(), ExperimentConfig())

    def test_non_config_base_rejected(self):
        space = default_parameter_space()
        row = [d.lower for d in space.dims]
        with pytest.raises(ConfigurationError):
            map_sample_to_config(row, space, {"attitude_mean": 0.0})

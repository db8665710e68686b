"""Config file grammar, validation messages, and lossless round-trips."""

import hashlib
import math
from pathlib import Path

import numpy as np
import pytest

from ablum import (
    AttitudeSchedule,
    ConfigurationError,
    ExperimentConfig,
    SobolSettings,
    SweepParam,
    SweepSpec,
    apply_values,
    default_peaks,
    load_config,
    loads_config,
    round_half_up,
    serialize_config,
)
from ablum.config import NUMERIC_KEYS

PRESET_DIR = Path(__file__).resolve().parents[1] / "presets"

MID_INTENSITY_PRESET = """
[behaviour]
inertia_lambda = 0
cm_int = 0.5
cm_ext = 0.5
git_upper_L = 0.65
logistic_k = 10

[demand]
demand_mat = 3500
demand_nm = 3500

[network]
moore_radius = 1
n_tele = 0
"""

CUSTOMISED = """
[grid]
width = 25
height = 31

[capitals]
peaks = 10.5,12.25,4.125; 20,20,6
noise_amp = 0.05

[behaviour]
attitude_mean = -0.3
attitude_sigma = 0.2
norm_weight_w = 0.75
inertia_lambda = 0.1
cm_int = 0.35
cm_ext = 0.65
git_upper_L = 0.65
logistic_k = 5
economic_baseline = true

[demand]
demand_mat = 3210.5
demand_nm = 4999

[network]
moore_radius = 2
n_tele = 40

[init]
share_c = 0.2
share_mi = 0.3
share_hi = 0.5

[schedule]
breakpoints = 0,-0.6; 150,0.6; 300,-0.6

[stopping]
max_ticks = 400
window = 25
epsilon = 0.001

[run]
seed = 11
replications = 2

[sweep]
params = attitude_mean, -0.8, 0.8, 7; cm, 0.1, 0.9, 5
replications = 3

[sobol]
n_base = 64
second_order = true
replicates = 2
"""


class TestDefaults:
    def test_minimal_file_gets_all_defaults(self):
        cfg = loads_config("[run]\nseed = 3\n")
        assert cfg.seed == 3
        assert (cfg.grid_width, cfg.grid_height) == (101, 101)
        assert cfg.logistic_k == 10.0
        assert cfg.window == 50
        assert cfg.epsilon == 0.002
        assert cfg.max_ticks == 2000
        assert cfg.attitude_mean == 0.0
        assert cfg.attitude_sigma == 0.15
        assert cfg.norm_weight_w == 0.5
        assert (cfg.cm_int, cfg.cm_ext) == (0.5, 0.5)
        assert cfg.git_upper_L == 1.0
        assert (cfg.demand_mat, cfg.demand_nm) == (4000.0, 4000.0)
        assert (cfg.moore_radius, cfg.n_tele) == (1, 0)
        assert cfg.shares == (1 / 3, 1 / 3, 1 / 3)
        assert cfg.peaks == default_peaks(101, 101)
        assert cfg.schedule is None
        assert cfg.sweep is None
        assert cfg.sobol is None
        assert cfg.economic_baseline is False
        assert cfg.replications == 1

    def test_empty_file_is_the_default_config(self):
        assert loads_config("") == ExperimentConfig()


class TestValidation:
    def test_out_of_range_weight_names_key_and_range(self):
        with pytest.raises(ConfigurationError) as err:
            loads_config("[behaviour]\nnorm_weight_w = 1.5\n")
        assert "norm_weight_w" in str(err.value)
        assert "[0, 1]" in str(err.value)

    def test_out_of_range_values_rejected(self):
        bad = [
            "[behaviour]\nattitude_mean = -1.2\n",
            "[behaviour]\nlogistic_k = 0\n",
            "[behaviour]\nattitude_sigma = -0.1\n",
            "[stopping]\nepsilon = 0\n",
            "[stopping]\nmax_ticks = 10\nwindow = 20\n",
            "[grid]\nwidth = 2\n",
            "[network]\nmoore_radius = 0\n",
            "[network]\nmoore_radius = 101\n",
            "[demand]\ndemand_mat = -5\n",
            "[capitals]\nnoise_amp = 0.5\n",
            "[run]\nseed = -1\n",
        ]
        for text in bad:
            with pytest.raises(ConfigurationError):
                loads_config(text)

    def test_shares_must_be_a_distribution(self):
        with pytest.raises(ConfigurationError):
            loads_config("[init]\nshare_c = 0.5\nshare_mi = 0.2\nshare_hi = 0.2\n")
        with pytest.raises(ConfigurationError):
            loads_config("[init]\nshare_c = -0.2\nshare_mi = 0.6\nshare_hi = 0.6\n")

    def test_schedule_breakpoints_validated(self):
        with pytest.raises(ConfigurationError):
            loads_config("[schedule]\nbreakpoints = 100,0.5; 100,0.8\n")
        with pytest.raises(ConfigurationError):
            loads_config("[schedule]\nbreakpoints = 0,1.5\n")

    def test_schedule_messages(self):
        for text, message in (
            ("-5,0.2; 20,0.3", "schedule ticks must be non-negative"),
            ("10,0.2; 10,0.3", "schedule ticks must be strictly increasing"),
            ("10.7,0.2; 20,0.3", "invalid literal for int() with base 10: '10.7'"),
        ):
            with pytest.raises(ConfigurationError) as err:
                loads_config(f"[schedule]\nbreakpoints = {text}\n")
            assert str(err.value) == f"config key 'breakpoints': {message}"

    def test_non_integer_ticks_rejected(self):
        with pytest.raises(ConfigurationError) as err:
            ExperimentConfig(schedule=((10.7, 0.2), (20, 0.3)))
        assert str(err.value) == "config key 'breakpoints': schedule ticks must be integers"
        with pytest.raises(ConfigurationError, match="must be integers"):
            AttitudeSchedule(((0, 0.0), (10.5, 0.5)))
        assert ExperimentConfig(schedule=((0, 0.0), (10.0, 0.5))).schedule == ((0, 0.0), (10, 0.5))

    @pytest.mark.parametrize(
        "values",
        [
            {"grid_width": 9.5, "grid_height": 9},
            {"seed": 1.5},
            {"n_tele": 2.7},
            {"max_ticks": 20.5, "window": 5},
        ],
    )
    def test_non_integral_integer_keys_rejected(self, values):
        name, value = next(iter(values.items()))
        with pytest.raises(ConfigurationError) as err:
            ExperimentConfig(**values)
        assert str(err.value) == f"config key {name!r} = {value!r} is not an integer"

    def test_integral_floats_of_integer_keys_become_ints(self):
        cfg = ExperimentConfig(grid_width=9.0, grid_height=9, seed=1.0, n_tele=3.0, max_ticks=20.0, window=5)
        for name, value in (("grid_width", 9), ("seed", 1), ("n_tele", 3), ("max_ticks", 20)):
            assert type(getattr(cfg, name)) is int
            assert getattr(cfg, name) == value

    def test_non_finite_values_in_files_rejected(self):
        for text, message in (
            ("[demand]\ndemand_mat = inf\n", "config key 'demand_mat' = inf is not a finite number"),
            ("[init]\nshare_c = nan\n", "config key 'share_c' = nan is not a finite number"),
            ("[behaviour]\nlogistic_k = inf\n", "config key 'logistic_k' = inf is not a finite number"),
            ("[capitals]\npeaks = 10,10,inf\n", "config key 'peaks': values must be finite numbers"),
            ("[capitals]\npeaks = nan,10,3\n", "config key 'peaks': values must be finite numbers"),
        ):
            with pytest.raises(ConfigurationError) as err:
                loads_config(text)
            assert str(err.value) == message

    def test_non_finite_values_constructed_rejected(self):
        with pytest.raises(ConfigurationError) as err:
            ExperimentConfig(share_c=float("nan"))
        assert str(err.value) == "config key 'share_c' = nan is not a finite number"
        with pytest.raises(ConfigurationError) as err:
            ExperimentConfig(peaks=((10.0, 10.0, float("inf")),))
        assert str(err.value) == "config key 'peaks': values must be finite numbers"
        with pytest.raises(ConfigurationError) as err:
            ExperimentConfig(n_tele=float("inf"))
        assert str(err.value) == "config key 'n_tele' = inf is not a finite number"

    def test_non_finite_values_applied_rejected(self):
        with pytest.raises(ConfigurationError) as err:
            apply_values(ExperimentConfig(), {"demand_mat": float("inf")})
        assert str(err.value) == "config key 'demand_mat' = inf is not a finite number"
        with pytest.raises(ConfigurationError) as err:
            apply_values(ExperimentConfig(), {"cm": float("nan")})
        assert str(err.value) == "config key 'cm_int' = nan is not a finite number"
        with pytest.raises(ConfigurationError) as err:
            apply_values(ExperimentConfig(), {"moore_radius": float("nan")})
        assert str(err.value) == "config key 'moore_radius' = nan is not a finite number"


class TestGrammar:
    def test_preset_values_echo(self):
        cfg = loads_config(MID_INTENSITY_PRESET)
        assert cfg.inertia_lambda == 0.0
        assert (cfg.cm_int, cfg.cm_ext) == (0.5, 0.5)
        assert cfg.git_upper_L == 0.65
        assert cfg.logistic_k == 10.0
        assert (cfg.demand_mat, cfg.demand_nm) == (3500.0, 3500.0)
        assert (cfg.moore_radius, cfg.n_tele) == (1, 0)

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigurationError) as err:
            loads_config("[budget]\nlimit = 4\n")
        assert "budget" in str(err.value)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError) as err:
            loads_config("[behaviour]\npersuasion = 0.4\n")
        assert "persuasion" in str(err.value)

    def test_keys_are_case_sensitive(self):
        assert loads_config("[behaviour]\ngit_upper_L = 0.3\n").git_upper_L == 0.3
        with pytest.raises(ConfigurationError):
            loads_config("[behaviour]\ngit_upper_l = 0.3\n")

    def test_non_ini_text_rejected(self):
        with pytest.raises(ConfigurationError):
            loads_config("seed: 3\n  nested: true\n")
        with pytest.raises(ConfigurationError):
            loads_config("[run\nseed = 3\n")

    def test_non_numeric_value_rejected(self):
        with pytest.raises(ConfigurationError):
            loads_config("[run]\nseed = often\n")

    def test_peaks_grammar(self):
        cfg = loads_config("[capitals]\npeaks = 30,50,12; 70,50,12\n")
        assert cfg.peaks == ((30.0, 50.0, 12.0), (70.0, 50.0, 12.0))
        for text in (
            "[capitals]\npeaks = 30,50\n",
            "[capitals]\npeaks = ;\n",
            "[capitals]\npeaks = 30,50,twelve\n",
        ):
            with pytest.raises(ConfigurationError):
                loads_config(text)

    def test_schedule_grammar(self):
        cfg = loads_config("[schedule]\nbreakpoints = 0,-0.8; 300,0.8\n")
        assert cfg.schedule == ((0, -0.8), (300, 0.8))

    def test_boolean_grammar(self):
        for text, expected in (("true", True), ("Yes", True), ("1", True), ("off", False)):
            cfg = loads_config(f"[behaviour]\neconomic_baseline = {text}\n")
            assert cfg.economic_baseline is expected
        with pytest.raises(ConfigurationError):
            loads_config("[behaviour]\neconomic_baseline = maybe\n")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_config(tmp_path / "absent.cfg")


class TestSweepParsing:
    def test_two_param_sweep(self):
        cfg = loads_config(
            "[sweep]\nparams = attitude_mean, -1, 1, 5; norm_weight_w, 0, 1, 3\nreplications = 4\n"
        )
        assert cfg.sweep == SweepSpec(
            params=(
                SweepParam("attitude_mean", -1.0, 1.0, 5),
                SweepParam("norm_weight_w", 0.0, 1.0, 3),
            ),
            replications=4,
        )

    def test_values_are_even_grids(self):
        param = SweepParam("cm", 0.1, 0.9, 5)
        assert np.allclose(param.values(), [0.1, 0.3, 0.5, 0.7, 0.9])

    def test_param_validation(self):
        with pytest.raises(ConfigurationError):
            SweepParam("phase_of_moon", 0.0, 1.0, 3)
        with pytest.raises(ConfigurationError):
            SweepParam("cm", 0.0, 1.0, 1)
        with pytest.raises(ConfigurationError):
            SweepParam("cm", 1.0, 0.0, 3)

    def test_spec_validation(self):
        p = SweepParam("cm", 0.0, 1.0, 3)
        with pytest.raises(ConfigurationError):
            SweepSpec(params=())
        with pytest.raises(ConfigurationError):
            SweepSpec(params=(p, p, p))
        with pytest.raises(ConfigurationError):
            SweepSpec(params=(p,), replications=0)

    def test_grammar_errors(self):
        with pytest.raises(ConfigurationError):
            loads_config("[sweep]\nparams = attitude_mean, -1, 1\n")
        with pytest.raises(ConfigurationError):
            loads_config("[sweep]\nreplications = 2\n")
        with pytest.raises(ConfigurationError):
            loads_config("[sweep]\nparams = cm, 0, 1, 3\nextra = 1\n")

    def test_unparseable_values_name_the_key(self):
        for text, message in (
            ("params = cm, 0, x, 3", "config key 'params': could not convert string to float: 'x'"),
            ("params = cm, 0, 1, 2.5", "config key 'params': invalid literal for int() with base 10: '2.5'"),
            ("params = moore_radius, 1, inf, 3", "sweep moore_radius: bounds must be finite"),
            (
                "params = cm, 0, 1, 3\nreplications = two",
                "config key 'replications': invalid literal for int() with base 10: 'two'",
            ),
        ):
            with pytest.raises(ConfigurationError) as err:
                loads_config(f"[sweep]\n{text}\n")
            assert str(err.value) == message

    def test_unknown_parameter_lists_sweepable_keys(self):
        with pytest.raises(ConfigurationError) as err:
            SweepParam("phase_of_moon", 0.0, 1.0, 3)
        assert str(err.value) == (
            "cannot vary 'phase_of_moon'; sweepable: attitude_mean, "
            "norm_weight_w, inertia_lambda, cm_int, cm_ext, git_upper_L, logistic_k, "
            "demand_mat, demand_nm, moore_radius, n_tele, cm"
        )


class TestSobolParsing:
    def test_defaults(self):
        cfg = loads_config("[sobol]\n")
        assert cfg.sobol == SobolSettings(n_base=128, second_order=False, replicates=1)

    def test_explicit_values(self):
        cfg = loads_config("[sobol]\nn_base = 256\nsecond_order = true\nreplicates = 3\n")
        assert cfg.sobol == SobolSettings(n_base=256, second_order=True, replicates=3)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            loads_config("[sobol]\nn_base = 0\n")
        with pytest.raises(ConfigurationError):
            loads_config("[sobol]\nbootstraps = 10\n")
        with pytest.raises(ConfigurationError):
            SobolSettings(replicates=0)

    def test_unparseable_values_name_the_key(self):
        for text, message in (
            ("n_base = lots", "config key 'n_base': invalid literal for int() with base 10: 'lots'"),
            ("replicates = two", "config key 'replicates': invalid literal for int() with base 10: 'two'"),
            ("second_order = perhaps", "config key 'second_order': expected a boolean, got 'perhaps'"),
        ):
            with pytest.raises(ConfigurationError) as err:
                loads_config(f"[sobol]\n{text}\n")
            assert str(err.value) == message


class TestSectionIntegers:
    """Sweep and Sobol counts follow ExperimentConfig's integer rule when
    constructed directly, not only when parsed from a file."""

    PARAM = SweepParam("cm", 0.0, 1.0, 3)
    CASES = {
        "steps": lambda v: SweepParam("n_tele", 0, 10, v),
        "replications": lambda v: SweepSpec(params=(TestSectionIntegers.PARAM,), replications=v),
        "n_base": lambda v: SobolSettings(n_base=v),
        "replicates": lambda v: SobolSettings(replicates=v),
    }

    @pytest.mark.parametrize(
        "name, value", [("steps", 2.5), ("replications", 1.5), ("n_base", 8.5), ("replicates", 2.25)]
    )
    def test_non_integral_counts_rejected(self, name, value):
        with pytest.raises(ConfigurationError) as err:
            self.CASES[name](value)
        assert str(err.value) == f"config key {name!r} = {value!r} is not an integer"

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_non_finite_counts_rejected(self, name):
        with pytest.raises(ConfigurationError) as err:
            self.CASES[name](math.inf)
        assert str(err.value) == f"config key {name!r} = inf is not a finite number"

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_integral_floats_become_ints(self, name):
        value = getattr(self.CASES[name](3.0), name)
        assert type(value) is int and value == 3

    def test_integral_float_steps_give_a_grid(self):
        assert SweepParam("n_tele", 0, 10, 3.0).values().tolist() == [0.0, 5.0, 10.0]


class TestApplyValues:
    def test_cm_alias_sets_both(self):
        cfg = apply_values(ExperimentConfig(), {"cm": 0.7})
        assert (cfg.cm_int, cfg.cm_ext) == (0.7, 0.7)

    def test_integer_keys_rounded(self):
        cfg = apply_values(ExperimentConfig(), {"moore_radius": 2.5, "n_tele": 10.2})
        assert cfg.moore_radius == 3
        assert cfg.n_tele == 10

    def test_integer_keys_rounded_half_up(self):
        assert apply_values(ExperimentConfig(), {"n_tele": 2.7}).n_tele == 3
        assert apply_values(ExperimentConfig(), {"n_tele": -0.5}).n_tele == 0
        # -0.7 rounds to -1, as a design row's integer dimension does, so it
        # fails the range check instead of truncating to 0
        assert round_half_up(-0.7) == -1
        with pytest.raises(ConfigurationError, match="'n_tele' = -1 is out of range"):
            apply_values(ExperimentConfig(), {"n_tele": -0.7})

    def test_floats_applied(self):
        cfg = apply_values(ExperimentConfig(), {"attitude_mean": -0.25, "git_upper_L": 0.4})
        assert cfg.attitude_mean == -0.25
        assert cfg.git_upper_L == 0.4

    def test_unknown_name_rejected(self):
        # a known key that is not sweepable, and an unknown name, get the
        # message SweepParam gives, listing the sweepable keys and cm
        for name in ("window", "phase_of_moon"):
            with pytest.raises(ConfigurationError) as applied:
                apply_values(ExperimentConfig(), {name: 5})
            with pytest.raises(ConfigurationError) as swept:
                SweepParam(name, 0.0, 1.0, 3)
            assert str(applied.value) == str(swept.value)
            assert str(applied.value) == (
                f"cannot vary {name!r}; sweepable: {', '.join(NUMERIC_KEYS)}, cm"
            )


class TestRoundTrip:
    def test_default_config(self):
        cfg = ExperimentConfig()
        assert loads_config(serialize_config(cfg)) == cfg

    def test_fully_customised_config(self):
        cfg = loads_config(CUSTOMISED)
        # values that stress float formatting survive exactly
        assert loads_config(serialize_config(cfg)) == cfg

    def test_awkward_floats_survive(self):
        cfg = ExperimentConfig(epsilon=0.1 + 0.2, demand_nm=1e-3 + 3000)
        assert loads_config(serialize_config(cfg)) == cfg

    def test_file_round_trip(self, tmp_path):
        cfg = ExperimentConfig(seed=7, attitude_mean=0.1, schedule=((0, -1.0), (10, 1.0)))
        (tmp_path / "a.cfg").write_text(serialize_config(cfg))
        assert load_config(tmp_path / "a.cfg") == cfg


class TestSerializedBytes:
    """SHA-256 of serialize_config's text for every preset, the default config
    and the fully customised one: the serializer's output is pinned byte for
    byte, including section and key order and float formatting."""

    DIGESTS = {
        "attitude_ramp": "75ffc27efc4d883c9c27d4671d48649278e5c500f9d74c35f31621ee33d13444",
        "connectivity": "645d685cfc8fc073b13d60eb18e5ee76742b0de489b7fe3dab7e2c2df513d504",
        "critical_mass": "75e6e38e9430a94cc993938ce4dd4ff35955ba4b9725918c855ad44026301b60",
        "initial_shares": "df7fd5ecf4ca18aeeb9e1af9118334d5c963801e1ecbcc6b81cba001ff12f417",
        "network_maps": "9e64ec0645a1c9eaeb6958b1daa3e14d27f84abbbaed9b1fadc48c35fc960746",
        "pressure_heatmap": "9d9088c1a06442b46073bbb45d563269dee033c4777a6928216b7912be7de626",
        "regime_map": "de8268ab25a787a3d09381118b7aa0b3745730d860eae17aaf7f5b4e1e19590d",
        "default": "02761bb125c26212fcadafe17c6c1d6552616cdf33e765f5e5a2f5cc685dc200",
        "customised": "0879ff33ea520df57715b7f3ae43443cb9c49f776892bf8fec6e4488dad05a68",
    }

    @staticmethod
    def digest(config):
        return hashlib.sha256(serialize_config(config).encode()).hexdigest()

    def test_presets(self):
        presets = sorted(PRESET_DIR.glob("*.cfg"))
        assert [p.stem for p in presets] == sorted(set(self.DIGESTS) - {"default", "customised"})
        for preset in presets:
            assert self.digest(load_config(preset)) == self.DIGESTS[preset.stem], preset.name

    def test_default_config(self):
        assert self.digest(ExperimentConfig()) == self.DIGESTS["default"]

    def test_customised_config(self):
        assert self.digest(loads_config(CUSTOMISED)) == self.DIGESTS["customised"]

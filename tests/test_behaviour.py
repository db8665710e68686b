"""Decision-layer oracles: attitude effect, norm pressure, influence score,
and the logistic giving-in threshold."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ablum import (
    DEFAULT_AFTS,
    BehaviourGlobals,
    BehaviouralProfile,
    ConfigurationError,
    InvalidTransitionError,
    LandscapeGrid,
    attitude_effect,
    clip_social,
    evaluate_transition,
    giving_in_threshold,
    influence_score,
    social_influence,
)
from ablum.network import build_lattice

unit = st.floats(0.0, 1.0, allow_nan=False)
signed_unit = st.floats(-1.0, 1.0, allow_nan=False)


def profile(**kw):
    base = dict(
        attitude=0.0, inertia_coeff=0.0, norm_weight=0.5, cm_int=0.5, cm_ext=0.5, git_upper=1.0
    )
    base.update(kw)
    return BehaviouralProfile(**base)


_PROFILE_RANGES = {
    "attitude": (-1.0, 1.0),
    "inertia_coeff": (0.0, 1.0),
    "norm_weight": (0.0, 1.0),
    "cm_int": (0.0, 1.0),
    "cm_ext": (0.0, 1.0),
    "git_upper": (0.0, 1.0),
}


class TestProfileRanges:
    @pytest.mark.parametrize("name", _PROFILE_RANGES)
    @pytest.mark.parametrize("side", ["below", "above", "nan"])
    @pytest.mark.parametrize("shape", ["scalar", "array"])
    def test_out_of_range_rejected(self, name, side, shape):
        lo, hi = _PROFILE_RANGES[name]
        bad = {"below": lo - 0.1, "above": hi + 0.1, "nan": np.nan}[side]
        value = bad if shape == "scalar" else np.array([0.5 * (lo + hi), bad])
        with pytest.raises(ConfigurationError) as info:
            profile(**{name: value})
        assert str(info.value) == f"{name} must lie in [{lo}, {hi}]"

    @pytest.mark.parametrize("name", _PROFILE_RANGES)
    def test_bounds_accepted(self, name):
        lo, hi = _PROFILE_RANGES[name]
        profile(**{name: lo})
        profile(**{name: np.array([lo, hi])})


class TestAttitudeEffect:
    def test_extensification_keeps_sign(self):
        assert attitude_effect(0.6, 1.0, 0.5) == pytest.approx(0.6, abs=1e-9)

    def test_intensification_flips_sign(self):
        assert attitude_effect(0.6, 0.5, 1.0) == pytest.approx(-0.6, abs=1e-9)

    def test_neutral_attitude(self):
        assert attitude_effect(0.0, 0.0, 1.0) == 0.0

    def test_self_transition_rejected(self):
        with pytest.raises(InvalidTransitionError):
            attitude_effect(0.3, 0.5, 0.5)

    @given(signed_unit, unit, unit)
    def test_antisymmetry(self, a, i1, i2):
        if i1 == i2:
            return
        assert attitude_effect(a, i1, i2) == -attitude_effect(a, i2, i1)


class TestSocialInfluence:
    def test_above_threshold(self):
        assert social_influence(0.75, 0.5) == pytest.approx(0.25, abs=1e-9)

    def test_at_threshold(self):
        assert social_influence(0.5, 0.5) == 0.0

    def test_no_conformity(self):
        assert social_influence(0.0, 0.8) == pytest.approx(-0.8, abs=1e-9)

    @given(unit, unit)
    def test_bounded(self, f, cm):
        assert -1.0 <= social_influence(f, cm) <= 1.0


class TestClipSocial:
    def test_doubling_within_bounds(self):
        assert clip_social(0.25) == pytest.approx(0.5, abs=1e-9)

    def test_upper_clip(self):
        assert clip_social(0.75) == 1.0

    def test_lower_clip(self):
        assert clip_social(-0.6) == -1.0

    @given(st.floats(-1.0, 1.0))
    def test_range(self, s):
        assert -1.0 <= clip_social(s) <= 1.0


class TestInfluenceScore:
    def test_hand_example(self):
        p = profile(norm_weight=0.5, inertia_coeff=0.2)
        # 0.5*0.5 + 0.5*0.6 - 0.2*0.5 = 0.45
        assert influence_score(p, 0.5, 0.6, 0.0, 0.5) == pytest.approx(0.45, abs=1e-9)

    def test_pure_norm_upper_bound(self):
        p = profile(norm_weight=1.0, inertia_coeff=0.0)
        assert influence_score(p, 1.0, 0.0, 0.0, 1.0) == pytest.approx(1.0, abs=1e-9)

    def test_lower_bound_under_encoding(self):
        p = profile(norm_weight=0.0, inertia_coeff=1.0)
        assert influence_score(p, 0.0, -1.0, 0.0, 1.0) == pytest.approx(-2.0, abs=1e-9)

    @given(signed_unit, signed_unit, unit, unit, unit)
    def test_monotonic_in_social_term(self, s1, s2, w, lam, di):
        p = profile(norm_weight=w, inertia_coeff=lam)
        lo, hi = sorted((s1, s2))
        assert influence_score(p, lo, 0.0, 0.0, di) <= influence_score(p, hi, 0.0, 0.0, di) + 1e-12

    @given(signed_unit, signed_unit, unit, unit, unit)
    def test_monotonic_in_attitude_term(self, a1, a2, w, lam, di):
        p = profile(norm_weight=w, inertia_coeff=lam)
        lo, hi = sorted((a1, a2))
        assert influence_score(p, 0.0, lo, 0.0, di) <= influence_score(p, 0.0, hi, 0.0, di) + 1e-12

    @given(unit, unit, unit)
    def test_inertia_never_helps(self, w, lam, di):
        light = profile(norm_weight=w, inertia_coeff=0.0)
        heavy = profile(norm_weight=w, inertia_coeff=lam)
        assert influence_score(heavy, 0.3, 0.3, 0.0, di) <= influence_score(light, 0.3, 0.3, 0.0, di) + 1e-12


class TestGivingInThreshold:
    def test_midpoint(self):
        assert giving_in_threshold(profile(), BehaviourGlobals(10.0), 0.0) == pytest.approx(
            0.5, abs=1e-9
        )

    def test_scaled_ceiling(self):
        p = profile(git_upper=0.65)
        got = giving_in_threshold(p, BehaviourGlobals(10.0), 0.2)
        assert got == pytest.approx(0.0774818993143764, abs=1e-9)

    def test_strong_support(self):
        got = giving_in_threshold(profile(), BehaviourGlobals(10.0), 0.45)
        assert got == pytest.approx(0.01098694263059318, abs=1e-9)

    def test_strictly_decreasing(self):
        g = BehaviourGlobals(10.0)
        xs = np.linspace(-2.0, 1.0, 31)
        gits = [giving_in_threshold(profile(), g, x) for x in xs]
        assert all(b < a for a, b in zip(gits, gits[1:]))

    @given(st.floats(-2.0, 1.0), st.floats(-2.0, 1.0))
    def test_never_increasing(self, x1, x2):
        lo, hi = sorted((x1, x2))
        g = BehaviourGlobals(10.0)
        assert giving_in_threshold(profile(), g, hi) <= giving_in_threshold(profile(), g, lo)

    @given(st.floats(0.01, 1.0), st.floats(-2.0, 1.0))
    def test_open_bounds(self, upper, x):
        got = giving_in_threshold(profile(git_upper=upper), BehaviourGlobals(10.0), x)
        assert 0.0 < got < upper

    def test_extreme_arguments_do_not_overflow(self):
        # the exp argument is clamped, so even k*x = +-200 stays finite;
        # at the negative extreme 1 + e^-60 rounds to 1.0 in float64
        g = BehaviourGlobals(100.0)
        assert giving_in_threshold(profile(), g, 1.0) > 0.0
        assert math.isfinite(giving_in_threshold(profile(), g, -2.0))
        assert giving_in_threshold(profile(), g, -2.0) <= 1.0

    @pytest.mark.parametrize("k", [0.0, -1.0, np.nan])
    def test_non_positive_or_nan_steepness_rejected(self, k):
        with pytest.raises(ConfigurationError, match="logistic_k must be positive"):
            BehaviourGlobals(k)

    def test_inertia_ordering(self):
        # with lambda > 0, a double jump faces a strictly higher threshold
        p = profile(norm_weight=0.5, inertia_coeff=0.3)
        g = BehaviourGlobals(10.0)
        x_half = influence_score(p, 0.2, 0.1, 0.0, 0.5)
        x_full = influence_score(p, 0.2, 0.1, 0.0, 1.0)
        assert giving_in_threshold(p, g, x_full) > giving_in_threshold(p, g, x_half)


def grid_with(aft_ids, width=3, height=3, **profile_kw):
    n = width * height
    return LandscapeGrid(
        width,
        height,
        np.full(n, 0.5),
        np.full(n, 0.5),
        np.asarray(aft_ids, dtype=np.int64),
        profiles=profile(**profile_kw),
    )


class TestEvaluateTransition:
    def test_full_support_composition(self):
        # centre cell HI, all 8 neighbours already at MI; HI -> MI with
        # aligned attitude, no inertia: x = 0.5*1 + 0.5*1 = 1
        ids = [1, 1, 1, 1, 2, 1, 1, 1, 1]
        grid = grid_with(ids, attitude=1.0, norm_weight=0.5, inertia_coeff=0.0)
        net = build_lattice(3, 3, 1)
        got = evaluate_transition(grid, net, 4, DEFAULT_AFTS[1], BehaviourGlobals(10.0))
        assert got == pytest.approx(4.5397868702434395e-05, abs=1e-9)

    def test_pure_attitude_ignores_neighbours(self):
        g = BehaviourGlobals(10.0)
        a = grid_with([0, 0, 0, 0, 2, 0, 0, 0, 0], norm_weight=0.0, attitude=0.4)
        b = grid_with([2, 2, 2, 2, 2, 2, 2, 2, 2], norm_weight=0.0, attitude=0.4)
        net = build_lattice(3, 3, 1)
        got_a = evaluate_transition(a, net, 4, DEFAULT_AFTS[0], g)
        got_b = evaluate_transition(b, net, 4, DEFAULT_AFTS[0], g)
        assert got_a == pytest.approx(got_b, abs=1e-12)

    def test_no_inertia_makes_jump_size_irrelevant(self):
        g = BehaviourGlobals(10.0)
        net = build_lattice(3, 3, 1)
        # neighbours all conservation; candidate fractions match for both
        # jumps because every neighbour is at or below either target
        grid = grid_with([0] * 9, inertia_coeff=0.0, attitude=0.0)
        grid.aft_id[4] = 2
        down_half = evaluate_transition(grid, net, 4, DEFAULT_AFTS[1], g)
        down_full = evaluate_transition(grid, net, 4, DEFAULT_AFTS[0], g)
        assert down_half == pytest.approx(down_full, abs=1e-12)

    def test_self_transition_rejected(self):
        grid = grid_with([1] * 9)
        net = build_lattice(3, 3, 1)
        with pytest.raises(InvalidTransitionError):
            evaluate_transition(grid, net, 4, DEFAULT_AFTS[1], BehaviourGlobals(10.0))

    @given(
        st.integers(0, 2),
        st.integers(0, 2),
        signed_unit,
        unit,
        unit,
        st.lists(st.integers(0, 2), min_size=8, max_size=8),
    )
    def test_mirror_symmetry(self, inc, cand, attitude, cm_int, cm_ext, neigh):
        # negating attitudes, swapping critical masses, and reflecting all
        # intensities leaves the threshold unchanged
        if inc == cand:
            return
        g = BehaviourGlobals(10.0)
        net = build_lattice(3, 3, 1)
        ids = neigh[:4] + [inc] + neigh[4:]
        fwd = grid_with(ids, attitude=attitude, cm_int=cm_int, cm_ext=cm_ext)
        mir = grid_with(
            [2 - i for i in ids], attitude=-attitude, cm_int=cm_ext, cm_ext=cm_int
        )
        got_f = evaluate_transition(fwd, net, 4, DEFAULT_AFTS[cand], g)
        got_m = evaluate_transition(mir, net, 4, DEFAULT_AFTS[2 - cand], g)
        assert got_f == pytest.approx(got_m, abs=1e-12)

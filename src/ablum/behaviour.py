"""Decision layer: how a cell's manager reacts to a competing management type.

A competitor displaces the incumbent only if its utility surplus exceeds the
manager's giving-in threshold. The threshold is a logistic function of an
influence score that combines the manager's attitude towards the change, the
descriptive social norm in the neighbourhood (conforming fraction relative to
a critical mass), and inertia against large intensity jumps.

All formula functions accept scalars or numpy arrays interchangeably; the
simulation engine calls them with per-cell arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ConfigurationError, InvalidTransitionError
from .landscape import DEFAULT_AFTS, INTENSITY, AgentFunctionalType, LandscapeGrid
from .network import Network, neighbour_intensity_fraction

# Exponent clamp keeps the logistic finite for any influence score.
_EXP_CLAMP = 60.0

INTENSIFY = "at_or_above"
EXTENSIFY = "at_or_below"


def _ranged(default: float, lo: float, hi: float):
    """Profile field whose scalar or every cell value must lie in [lo, hi]."""
    return field(default=default, metadata={"range": (lo, hi)})


@dataclass
class BehaviouralProfile:
    """Per-manager decision parameters; fields may be scalars or cell arrays.

    attitude: predisposition towards extensification (+) vs intensification (-).
    inertia_coeff: reluctance to make large intensity jumps.
    norm_weight: weight of the social-norm term against the attitude term.
    cm_int / cm_ext: critical neighbourhood fractions for the two directions.
    git_upper: upper bound of the giving-in threshold.
    """

    attitude: float | np.ndarray = _ranged(0.0, -1.0, 1.0)
    inertia_coeff: float | np.ndarray = _ranged(0.0, 0.0, 1.0)
    norm_weight: float | np.ndarray = _ranged(0.5, 0.0, 1.0)
    cm_int: float | np.ndarray = _ranged(0.5, 0.0, 1.0)
    cm_ext: float | np.ndarray = _ranged(0.5, 0.0, 1.0)
    git_upper: float | np.ndarray = _ranged(1.0, 0.0, 1.0)

    def __post_init__(self):
        for f in fields(self):
            lo, hi = f.metadata["range"]
            value = np.asarray(getattr(self, f.name))
            if not np.all((value >= lo) & (value <= hi)):
                raise ConfigurationError(f"{f.name} must lie in [{lo}, {hi}]")

    def at(self, i: int) -> "BehaviouralProfile":
        """Scalar profile of cell i (fields broadcast if uniform)."""

        def pick(v):
            return float(v[i]) if isinstance(v, np.ndarray) else float(v)

        return BehaviouralProfile(**{f.name: pick(getattr(self, f.name)) for f in fields(self)})


@dataclass(frozen=True)
class BehaviourGlobals:
    """Parameters shared by every manager."""

    logistic_k: float = 10.0

    def __post_init__(self):
        if not self.logistic_k > 0:
            raise ConfigurationError("logistic_k must be positive")


def attitude_effect(attitude, i_current, i_candidate):
    """Signed attitude contribution for a change between intensity levels.

    Extensification (candidate below incumbent) keeps the attitude's sign;
    intensification flips it, so pro-environment attitudes resist it.
    """
    if np.any(np.asarray(i_current) == np.asarray(i_candidate)):
        raise InvalidTransitionError("candidate intensity equals current intensity")
    return -np.sign(np.asarray(i_candidate) - np.asarray(i_current)) * attitude


def social_influence(fraction, cm):
    """Conforming-neighbour fraction relative to the critical mass."""
    return np.asarray(fraction) - cm


def clip_social(s):
    """Rescale raw social influence to [-1, 1] with saturation at +/-0.5."""
    return np.clip(2.0 * np.asarray(s), -1.0, 1.0)


def _influence_score(norm_weight, inertia_coeff, s_clipped, attitude_eff, delta_i):
    return norm_weight * s_clipped + (1.0 - norm_weight) * attitude_eff - inertia_coeff * delta_i


def influence_score(profile: BehaviouralProfile, s_clipped, attitude_eff, i_current, i_candidate):
    """Combine norm, attitude, and inertia terms into one score."""
    delta_i = np.abs(np.asarray(i_candidate) - np.asarray(i_current))
    return _influence_score(
        profile.norm_weight, profile.inertia_coeff, s_clipped, attitude_eff, delta_i
    )


def _giving_in(git_upper, logistic_k, x):
    arg = np.clip(np.asarray(logistic_k) * np.asarray(x), -_EXP_CLAMP, _EXP_CLAMP)
    return git_upper / (1.0 + np.exp(arg))


def giving_in_threshold(profile: BehaviouralProfile, globals_: BehaviourGlobals, x):
    """Logistic threshold in [0, git_upper]; high scores give in easily."""
    return _giving_in(profile.git_upper, globals_.logistic_k, x)


def evaluate_transition(
    grid: LandscapeGrid,
    net: Network,
    i: int,
    candidate: AgentFunctionalType,
    globals_: BehaviourGlobals,
) -> float:
    """Giving-in threshold of cell i against a candidate management type.

    Composes the neighbourhood fraction, social influence, attitude effect,
    and inertia into the logistic threshold. Raises InvalidTransitionError
    for a candidate at the incumbent's intensity.
    """
    if grid.profiles is None:
        raise ConfigurationError("grid has no behavioural profiles attached")
    profile = grid.profiles.at(i)
    i_current = DEFAULT_AFTS[int(grid.aft_id[i])].intensity
    i_candidate = candidate.intensity
    if i_candidate == i_current:
        raise InvalidTransitionError("candidate intensity equals current intensity")

    intensities = INTENSITY[grid.aft_id]
    if i_candidate > i_current:
        fraction = neighbour_intensity_fraction(net, intensities, i, i_candidate, INTENSIFY)
        cm = profile.cm_int
    else:
        fraction = neighbour_intensity_fraction(net, intensities, i, i_candidate, EXTENSIFY)
        cm = profile.cm_ext
    s_clipped = clip_social(social_influence(fraction, cm))
    a_eff = attitude_effect(profile.attitude, i_current, i_candidate)
    x = influence_score(profile, s_clipped, a_eff, i_current, i_candidate)
    return float(giving_in_threshold(profile, globals_, x))

"""Validation branches: each bad input fails by name with a ConfigurationError.

One case per check that no other test reaches, so a check that stops firing
or changes its message is caught.
"""

import re

import numpy as np
import pytest

from ablum import (
    DEFAULT_AFTS,
    AgentFunctionalType,
    AttitudeSchedule,
    BehaviouralProfile,
    BehaviourGlobals,
    ConfigurationError,
    DemandState,
    ExperimentConfig,
    LandscapeGrid,
    SimulationState,
    add_teleconnections,
    build_lattice,
    evaluate_transition,
    generate_capitals,
    init_land_use,
    mesh_connectivity,
    neighbour_intensity_fraction,
)
from ablum.dynamics import Lockstep


def grid(width=3, height=3, profiles=None):
    n = width * height
    return LandscapeGrid(width, height, np.zeros(n), np.zeros(n), np.zeros(n, dtype=np.int64), profiles=profiles)


def state(landscape, network):
    return SimulationState(landscape, network, BehaviourGlobals(), DemandState(1.0, 1.0), np.random.default_rng(0))


CASES = {
    "evaluate_transition without profiles": (
        lambda: evaluate_transition(grid(), build_lattice(3, 3, 1), 0, DEFAULT_AFTS[1], BehaviourGlobals()),
        "grid has no behavioural profiles attached",
    ),
    "config peak sigma": (
        lambda: ExperimentConfig(peaks=((1.0, 1.0, 0.0),)),
        "config key 'peaks': sigma must be positive",
    ),
    "empty schedule": (lambda: AttitudeSchedule(()), "schedule needs at least one breakpoint"),
    "state without profiles": (
        lambda: state(grid(), build_lattice(3, 3, 1)),
        "grid needs behavioural profiles attached",
    ),
    "state network of another size": (
        lambda: state(grid(profiles=BehaviouralProfile()), build_lattice(4, 4, 1)),
        "network size does not match the grid",
    ),
    "empty batch": (lambda: Lockstep([]), "a batch needs at least one run"),
    "type intensity": (
        lambda: AgentFunctionalType(3, "x", 1.5, 0.5, 0.5),
        "intensity must lie in [0, 1], got 1.5",
    ),
    "negative sensitivity": (
        lambda: AgentFunctionalType(3, "x", 0.5, -0.5, 1.5),
        "capital sensitivities must be non-negative",
    ),
    "sensitivity sum": (
        lambda: AgentFunctionalType(3, "x", 0.5, 0.5, 0.6),
        "capital sensitivities must sum to 1",
    ),
    "grid dimensions": (lambda: grid(0, 3), "grid dimensions must be positive"),
    "no capital peaks": (lambda: generate_capitals(5, 5, []), "at least one capital peak is required"),
    "share count": (lambda: init_land_use(10, (0.5, 0.5)), "expected 3 initial shares"),
    "negative share": (lambda: init_land_use(10, (1.5, -0.5, 0.0)), "initial shares must be non-negative"),
    "mesh connectivity": (lambda: mesh_connectivity(grid(), 6), "connectivity must be 4 or 8"),
    "lattice dimensions": (lambda: build_lattice(0, 3, 1), "grid dimensions must be positive"),
    "negative n_tele": (lambda: add_teleconnections(build_lattice(3, 3, 1), -1), "n_tele must be >= 0"),
    "fraction mode": (
        lambda: neighbour_intensity_fraction(build_lattice(3, 3, 1), np.zeros(9), 0, 0.5, "sideways"),
        "unknown fraction mode 'sideways'",
    ),
}


@pytest.mark.parametrize("call, message", CASES.values(), ids=CASES.keys())
def test_bad_input_fails_by_name(call, message):
    with pytest.raises(ConfigurationError, match=re.escape(message)):
        call()

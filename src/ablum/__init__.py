"""Agent-based land-use model with a socio-psychological decision layer.

Land users on a capital landscape choose among functional types by comparing
utility gains against a giving-in threshold that blends social norms,
attitude, and inertia. The package covers landscape generation, the social
network, the simulation engine, landscape metrics, variance-based
sensitivity analysis, and a CSV-emitting CLI.
"""

from .behaviour import (
    BehaviourGlobals,
    BehaviouralProfile,
    attitude_effect,
    clip_social,
    evaluate_transition,
    giving_in_threshold,
    influence_score,
    social_influence,
)
from .config import (
    ExperimentConfig,
    SweepParam,
    SweepSpec,
    apply_values,
    load_config,
    loads_config,
    round_half_up,
    serialize_config,
)
from .dynamics import (
    AttitudeSchedule,
    DemandState,
    SimulationState,
    run_schedule,
    run_until_stable,
    selection_count,
    tick,
    unit_benefit,
    utility,
)
from .errors import (
    ConfigurationError,
    DegenerateVarianceError,
    InvalidTransitionError,
    UndefinedFractionError,
)
from .fileio import (
    fmt,
    read_map_csv,
    write_capitals_csv,
    write_design_csv,
    write_indices_json,
    write_map_csv,
    write_metrics_csv,
    write_outputs_csv,
    write_sweep_csv,
    write_trajectory_csv,
)
from .experiments import (
    build_state,
    evaluate_design,
    recompute_metrics,
    run_replicates,
    run_single,
    run_sobol,
    run_sweep,
    sweep_points,
)
from .landscape import (
    CONSERVATION,
    DEFAULT_AFTS,
    HIGH_INTENSITY,
    INTENSITY,
    MEDIUM_INTENSITY,
    S_NAT,
    S_PROD,
    AgentFunctionalType,
    Cell,
    LandscapeGrid,
    default_peaks,
    generate_capitals,
    init_land_use,
)
from .metrics import (
    OUTPUT_METRICS,
    RunSummary,
    Trajectory,
    intensity_shares,
    mesh_connectivity,
    patch_decomposition,
    share_trajectory_summary,
    total_supply,
)
from .network import (
    MooreLattice,
    TeleconnectedNetwork,
    add_teleconnections,
    build_lattice,
    neighbour_intensity_fraction,
)
from .sensitivity import (
    ParameterDim,
    ParameterSpace,
    SobolIndices,
    default_parameter_space,
    map_sample_to_config,
    saltelli_sample,
    sobol_indices,
)

__version__ = "0.1.0"

"""Two-layer Markov models for highway crash prediction and active safety.

The package estimates lane-change and speed-change Markov chains from
trajectory data, predicts pairwise crash probabilities from them, selects
active-safety actions (adaptive cruise control or lane-departure/steering
assist), and replays desk-scale two-vehicle scenarios deterministically.
"""

from .estimation import (
    ObservationMatrix,
    Trajectory,
    VehicleModel,
    build_vehicle_model,
    ingest_trajectories,
    load_model,
    model_from_dict,
    model_to_dict,
)
from .markov import (
    PassageMatrix,
    ProbabilityVector,
    StochasticMatrix,
    fundamental_matrix,
    is_regular,
    limiting_matrix,
    matrix_power,
    matrix_power_real,
    mean_first_passage,
    probability_vector,
    propagate,
    stationary_distribution,
    unit_vector,
    validate_stochastic,
)
from .prediction import (
    CrashAssessment,
    EncounterInput,
    LaneAction,
    SafetyAction,
    Thresholds,
    assess,
    assessment_to_dict,
    flow2_crash_probabilities,
    flow3_select_actions,
)
from .sensing import (
    SPEED_OF_LIGHT,
    hypotenuse_from_tof,
    longitudinal_distance,
    probable_crash_time,
)
from .simulator import (
    AccParams,
    CarConfig,
    ScenarioConfig,
    SimReport,
    SimState,
    Timeline,
    acc_command,
    force_same_lane,
    load_scenario,
    report_to_dict,
    run,
    step,
)

"""Distributed zeroth-order primal-dual consensus optimization simulator.

Agents on an undirected connected graph cooperatively minimize a sum of
nonconvex nonsmooth local objectives using only noisy function evaluations.
The package provides the graph operators, the two-point gradient estimator,
benchmark objectives, centralized and message-passing engines, a random
gradient-free baseline, convergence diagnostics, and a reproducible
experiment harness with a CLI.
"""
from .baseline import RGFParams, apply_mixing, build_mixing, mixing_coupling, rgf_step, run_rgf
from .engine import (
    AlgoParams,
    Checkpoint,
    RunResult,
    dual_step,
    primal_step,
    run_centralized,
    run_distributed,
    substream,
)
from .graph import (
    NetworkMatrices,
    Topology,
    build_matrices,
    check_connected,
    generate_graph,
)
from .harness import (
    ConfigError,
    ExperimentConfig,
    ExperimentResult,
    load_config,
    replica_a_config,
    replica_b_config,
    run_experiment,
    sweep,
    validate_config,
)
from .metrics import (
    AnalysisConstants,
    MetricRecord,
    ParamConditionReport,
    RateFitResult,
    constraint_violation,
    derive_constants,
    potential,
    potential_lower_bound,
    rate_fit,
    stationarity_gap,
    validate_params,
)
from .objectives import (
    Box,
    ClassificationData,
    LocalObjective,
    StackedObjective,
    estimate_lipschitz,
    logistic_regression_objective,
    quadratic_objective,
    random_quadratic,
    read_classification_csv,
    synthesize_classification_data,
    toy_objective,
    write_classification_csv,
)
from .szo import (
    NoiseModel,
    SmoothingParams,
    SZOracle,
    estimate_gradient,
    estimator_norm_diagnostic,
    measure_gradient_and_value,
    smoothed_gradient_mc,
    smoothed_gradient_reference,
    smoothed_value,
)

__version__ = "0.1.0"

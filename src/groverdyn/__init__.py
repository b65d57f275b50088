"""Exact Grover-search dynamics from arbitrary initial states.

Simulation of the Grover iteration on a state vector, the closed-form
solution of its dynamics (amplitude means, success probability, optimal
measurement times), classification of fixed points and cycles, and the
Groverian entanglement measure computed by product-state overlap
maximization.
"""

from ._kernels import available_backends, backend_name
from .analytic import (
    AnalyticParams,
    analytic_amplitude_means,
    analytic_amplitudes,
    analytic_success,
    averaged_success,
    compute_params,
    optimal_iterations,
)
from .core import (
    MarkedSet,
    MomentSummary,
    QuantumState,
    inner_product,
    load_state,
    moments,
    save_state,
)
from .dynamics import StateClass, StateKind, build_fixed_point, classify, detect_cycle
from .groverian import (
    GroverianResult,
    ProductState,
    apply_local_unitaries,
    grid_search_oracle,
    optimize_product,
    product_overlap,
)
from .harness import (
    ComparisonReport,
    ConfigurationError,
    ExperimentConfig,
    SweepSummary,
    build_state,
    compare_run,
    resolve_state,
    sweep_marked_sets,
)
from .simulator import (
    Trajectory,
    TrajectoryStep,
    evolve,
    grover_iterate,
    success_probability,
)

__version__ = "0.1.0"

__all__ = [
    "AnalyticParams",
    "ComparisonReport",
    "ConfigurationError",
    "ExperimentConfig",
    "GroverianResult",
    "MarkedSet",
    "MomentSummary",
    "ProductState",
    "QuantumState",
    "StateClass",
    "StateKind",
    "SweepSummary",
    "Trajectory",
    "TrajectoryStep",
    "analytic_amplitude_means",
    "analytic_amplitudes",
    "analytic_success",
    "apply_local_unitaries",
    "available_backends",
    "averaged_success",
    "backend_name",
    "build_fixed_point",
    "build_state",
    "classify",
    "compare_run",
    "compute_params",
    "detect_cycle",
    "evolve",
    "grid_search_oracle",
    "grover_iterate",
    "inner_product",
    "load_state",
    "moments",
    "optimal_iterations",
    "optimize_product",
    "product_overlap",
    "resolve_state",
    "save_state",
    "success_probability",
    "sweep_marked_sets",
]

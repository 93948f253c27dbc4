"""Spectral solvers and phase diagnostics for dispersive propagation through
highly oscillatory potentials."""

from .harness import (
    CellFailure,
    ErrorRecord,
    RateFit,
    SweepConfig,
    SweepResult,
    compare_methods,
    convergence_sweep,
    error_normalizer,
    error_x,
    fit_rate,
    regularity_normalizer,
    regularity_sweep,
    splitting_threshold,
)
from .integrators import (
    NumericalBlowupError,
    PrecomputedStep,
    SolveConfig,
    SolveResult,
    StepperKind,
    free_solution,
    lri_filter_rescaled,
    precompute,
    solve,
    step,
)
from .model import (
    DegenerateReductionError,
    DispersiveModel,
    PhaseBoundReport,
    RateExponent,
    ReducedModel,
    eval_p,
    eval_phase,
    eval_phase_factored,
    eval_q,
    expected_error_exponent,
    expected_regularity_exponent,
    reduce_moment,
    search_lower_bound_constant,
    verify_phase_lower_bound,
)
from .presets import PRESETS, Preset, get_preset
from .spectral import (
    Grid,
    InitialDataSpec,
    MeshResolutionError,
    MeshResolutionWarning,
    PotentialSpec,
    SpectralField,
    free_propagator_symbol,
    phi1,
    sample_initial,
    sample_potential,
    x_norm,
)

__version__ = "0.1.0"

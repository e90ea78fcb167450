"""Stimulated photon-pair emission in a multi-pass resonator.

Truncated Fock-space simulation of two-mode-squeezing buildup over repeated
pump passes, the closed-form pair statistics it should reproduce, tilted-plate
phase control, polarization fringe analysis, and two-qubit state tomography.
"""

from .errors import (
    FitError,
    ReconstructionError,
    SchemaError,
    StimpairsError,
    TruncationError,
)
from .fock import (
    FockSpace,
    FockVector,
    build_generator,
    disentangled_state,
    entangled_state,
    evolve_vacuum,
    project_entangled,
    suggest_cutoff,
)
from .phase_plate import PlateGeometry, phase_through_plate, relative_phase, wrap_phase
from .polarization import (
    ArmSetting,
    FitResult,
    FringeScan,
    MeasurementSetting,
    analyzer_projector,
    bell_state,
    coincidence_probability,
    dephasing_noise,
    fit_fringe,
    pair_rate,
    simulate_polarization_fringe,
    simulate_stimulation_fringe,
    state_density,
    visibility,
)
from .resonator import (
    ResonatorConfig,
    amplitude_sum,
    double_pass_ratio,
    multiphoton_contamination,
    optimal_u,
    pair_probability_approx,
    pair_probability_exact,
    pair_probability_vs_u,
    sweep_rows,
)
from .tomography import (
    ReconstructionResult,
    TomographyRecord,
    fidelity,
    log_likelihood,
    project_physical,
    reconstruct_linear,
    reconstruct_mle,
    simulate_tomography,
    standard_settings,
)
from .verify import ALL_CHECKS, CheckResult, run_checks

__version__ = "0.1.0"

__all__ = [
    "ALL_CHECKS",
    "ArmSetting",
    "CheckResult",
    "FitError",
    "FitResult",
    "FockSpace",
    "FockVector",
    "FringeScan",
    "MeasurementSetting",
    "PlateGeometry",
    "ReconstructionError",
    "ReconstructionResult",
    "ResonatorConfig",
    "SchemaError",
    "StimpairsError",
    "TomographyRecord",
    "TruncationError",
    "amplitude_sum",
    "analyzer_projector",
    "bell_state",
    "build_generator",
    "coincidence_probability",
    "dephasing_noise",
    "disentangled_state",
    "double_pass_ratio",
    "entangled_state",
    "evolve_vacuum",
    "fidelity",
    "fit_fringe",
    "log_likelihood",
    "multiphoton_contamination",
    "optimal_u",
    "pair_probability_approx",
    "pair_probability_exact",
    "pair_probability_vs_u",
    "pair_rate",
    "phase_through_plate",
    "project_entangled",
    "project_physical",
    "reconstruct_linear",
    "reconstruct_mle",
    "relative_phase",
    "run_checks",
    "simulate_polarization_fringe",
    "simulate_stimulation_fringe",
    "simulate_tomography",
    "standard_settings",
    "state_density",
    "suggest_cutoff",
    "sweep_rows",
    "visibility",
    "wrap_phase",
    "__version__",
]

"""Stimulated photon-pair emission in a multi-pass resonator.

Truncated Fock-space simulation of two-mode-squeezing buildup over repeated
pump passes, the closed-form pair statistics it should reproduce, tilted-plate
phase control, polarization fringe analysis, and two-qubit state tomography.

The namespace is lazy: importing the package loads no submodule, and the
first use of a name below imports the submodule that defines it (PEP 562).
"""

# Each submodule and the public names it defines.
_EXPORTS = {
    "errors": ("FitError", "ReconstructionError", "SchemaError", "StimpairsError", "TruncationError"),
    "fock": (
        "FockSpace",
        "FockVector",
        "build_generator",
        "disentangled_state",
        "entangled_state",
        "evolve_vacuum",
        "project_entangled",
        "suggest_cutoff",
    ),
    "phase_plate": ("PlateGeometry", "phase_through_plate", "relative_phase", "wrap_phase"),
    "polarization": (
        "ArmSetting",
        "FitResult",
        "FringeScan",
        "MeasurementSetting",
        "analyzer_projector",
        "bell_state",
        "coincidence_probability",
        "dephasing_noise",
        "fit_fringe",
        "simulate_polarization_fringe",
        "simulate_stimulation_fringe",
        "state_density",
        "visibility",
    ),
    "rates": ("pair_rate",),
    "resonator": (
        "ResonatorConfig",
        "amplitude_sum",
        "double_pass_ratio",
        "multiphoton_contamination",
        "optimal_u",
        "pair_probability_approx",
        "pair_probability_exact",
        "pair_probability_vs_u",
        "sweep_rows",
    ),
    "tomography": (
        "ReconstructionResult",
        "TomographyRecord",
        "fidelity",
        "log_likelihood",
        "project_physical",
        "reconstruct_linear",
        "reconstruct_mle",
        "simulate_tomography",
        "standard_settings",
    ),
    "verify": ("ALL_CHECKS", "CheckResult", "run_checks"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name: str):
    """A public name or submodule, imported on first use and then bound here.

    The import goes through __import__, the import statement's own path, so
    that python -X importtime lists the submodule (importlib.import_module
    would not).
    """
    if name in _EXPORTS:  # importing a submodule binds it here
        __import__(f"{__name__}.{name}")
        return globals()[name]
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = __import__(f"{__name__}.{_MODULE_OF[name]}", fromlist=[name])
    value = globals()[name] = getattr(module, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *__all__})

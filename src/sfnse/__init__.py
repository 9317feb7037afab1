"""Pseudospectral solver laboratory for the 1-D stochastic fractional
nonlinear Schrodinger equation with multiplicative Stratonovich noise."""

from .config import RunConfig, parse_config, write_default_config
from .diagnostics import (
    DiagnosticsRecord,
    energy,
    l2_error,
    mass,
    record_diagnostics,
    symplectic_defect,
)
from .dynamics import (
    ModelParams,
    Observer,
    SchemeParams,
    evolve,
    midpoint_step,
    splitting_step,
)
from .experiments import (
    ConvergenceReport,
    EnsembleReport,
    run_convergence_study,
    run_energy_ensemble,
    run_evolution,
    run_mass_table,
    sech_carrier_initial,
)
from .noise import (
    NoiseModel,
    WienerPath,
    build_noise_model,
    coarsen_path,
    increment_field,
    sample_wiener_path,
)
from .output import read_snapshot, write_csv, write_snapshot
from .spectral import (
    ComplexField,
    GridSpec,
    apply_frac_laplacian,
    build_grid,
    operator_symbols,
    transform,
)

__all__ = [
    "ComplexField",
    "ConvergenceReport",
    "DiagnosticsRecord",
    "EnsembleReport",
    "GridSpec",
    "ModelParams",
    "NoiseModel",
    "Observer",
    "RunConfig",
    "SchemeParams",
    "WienerPath",
    "apply_frac_laplacian",
    "build_grid",
    "build_noise_model",
    "coarsen_path",
    "energy",
    "evolve",
    "increment_field",
    "l2_error",
    "mass",
    "midpoint_step",
    "operator_symbols",
    "parse_config",
    "read_snapshot",
    "record_diagnostics",
    "run_convergence_study",
    "run_energy_ensemble",
    "run_evolution",
    "run_mass_table",
    "sample_wiener_path",
    "sech_carrier_initial",
    "splitting_step",
    "symplectic_defect",
    "transform",
    "write_csv",
    "write_default_config",
    "write_snapshot",
]

__version__ = "0.1.0"

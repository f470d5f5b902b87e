"""Pathwise transport-noise solver on periodic boxes.

Solves the linear advection equation driven by an additive rough path
(Brownian by default) through its shifted-frame representation: an
auxiliary random PDE is advanced on a periodic grid and the solution is
recovered by translating the frame along the path. The package also
ships the analysis siblings of that solver: weak-form residual audits,
Wong-Zakai path-approximation studies, renormalization (Gronwall
envelope) checks, drift integrability diagnostics, and a small CLI for
reproducible runs.
"""

from .drifts import (DriftField, HypothesisReport, check_hypotheses,
                     constant_drift, drift_from_spec, eval_drift, linear_drift,
                     power_drift, shear_drift, stream_function_drift,
                     time_modulated_drift, write_hypothesis_csv, zero_drift)
from .errors import (BlowUpError, ConfigError, DriftEvaluationError,
                     FieldValidationError, KernelResolutionError,
                     MeshMismatchError, PathRangeError, StochTransportError,
                     SupportMarginWarning)
from .experiments import (CommandResult, ConvergenceTable, ExperimentConfig,
                          cmd_hypotheses, cmd_solve, cmd_uniqueness_crosscheck,
                          cmd_verify_weak, cmd_wong_zakai, estimate_order)
from .fields import (ScalarField, SpatialGrid, interpolate, lp_norm,
                     read_field_csv, shift_field, write_field_csv)
from .paths import (SamplePath, eval_path, piecewise_linear_approx,
                    read_path_csv, sample_brownian, sup_distance,
                    write_path_csv, zero_path)
from .profiles import (Profile, bump, double_bump, profile_from_spec,
                       sample_profile, sinusoid, step)
from .spde import (RenormalizationReport, SpdeSolution, exact_solution,
                   renormalize_check, smoothed_truncated_power, solve_spde,
                   solve_spde_batch)
from .transport import (cfl_number, characteristics_solve, composed_drift,
                        mollified_drift, path_table, semi_lagrangian_step,
                        upwind_fv_step)
from .weakform import (TestFunction, WeakResidualReport, WeakResidualSeries,
                       make_test_functions, weak_residual, write_weak_report_csv)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "StochTransportError", "FieldValidationError", "DriftEvaluationError",
    "MeshMismatchError", "PathRangeError", "ConfigError",
    "KernelResolutionError", "BlowUpError", "SupportMarginWarning",
    # fields
    "SpatialGrid", "ScalarField", "lp_norm", "interpolate", "shift_field",
    "write_field_csv", "read_field_csv",
    # profiles
    "Profile", "bump", "double_bump", "step", "sinusoid",
    "profile_from_spec", "sample_profile",
    # drifts
    "DriftField", "HypothesisReport", "zero_drift", "constant_drift",
    "linear_drift", "stream_function_drift", "shear_drift", "power_drift",
    "time_modulated_drift", "drift_from_spec", "eval_drift", "check_hypotheses",
    "write_hypothesis_csv",
    # paths
    "SamplePath", "sample_brownian", "zero_path", "piecewise_linear_approx",
    "eval_path", "sup_distance", "write_path_csv", "read_path_csv",
    # transport
    "composed_drift", "path_table", "mollified_drift", "semi_lagrangian_step",
    "upwind_fv_step", "characteristics_solve", "cfl_number",
    # spde
    "SpdeSolution", "solve_spde", "solve_spde_batch", "exact_solution",
    "smoothed_truncated_power", "RenormalizationReport", "renormalize_check",
    # weak form
    "TestFunction", "make_test_functions", "WeakResidualSeries",
    "WeakResidualReport", "weak_residual", "write_weak_report_csv",
    # experiments
    "ExperimentConfig", "CommandResult", "ConvergenceTable", "estimate_order",
    "cmd_solve", "cmd_verify_weak", "cmd_uniqueness_crosscheck",
    "cmd_wong_zakai", "cmd_hypotheses",
]

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

from .artifacts import read_field_csv, read_path_csv, write_field_csv, write_path_csv
from .drifts import (DriftField, HypothesisReport, check_hypotheses,
                     constant_drift, drift_from_spec, eval_drift, linear_drift,
                     power_drift, shear_drift, stream_function_drift,
                     time_modulated_drift, write_hypothesis_csv, zero_drift)
from .errors import (BlowUpError, ConfigError, DriftEvaluationError,
                     FieldValidationError, MeshMismatchError, PathRangeError,
                     StochTransportError, SupportMarginWarning)
from .experiments import (CommandResult, ExperimentConfig,
                          cmd_hypotheses, cmd_solve, cmd_uniqueness_crosscheck,
                          cmd_verify_weak, cmd_wong_zakai, estimate_order)
from .fields import ScalarField, SpatialGrid, interpolate, lp_norm, shift_field
from .paths import (SamplePath, eval_path, piecewise_linear_approx, sample_brownian,
                    sup_distance, zero_path)
from .profiles import (Profile, bump, double_bump, profile_from_spec,
                       sample_profile, step)
from .spde import (RenormalizationReport, SpdeSolution, exact_solution,
                   renormalize_check, smoothed_truncated_power, solve_spde)
from .weakform import (TestFunction, WeakResidualReport, WeakResidualSeries,
                       make_test_functions, weak_residual, write_weak_report_csv)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "StochTransportError", "FieldValidationError", "DriftEvaluationError",
    "MeshMismatchError", "PathRangeError", "ConfigError",
    "BlowUpError", "SupportMarginWarning",
    # fields
    "SpatialGrid", "ScalarField", "lp_norm", "interpolate", "shift_field",
    # profiles
    "Profile", "bump", "double_bump", "step",
    "profile_from_spec", "sample_profile",
    # drifts
    "DriftField", "HypothesisReport", "zero_drift", "constant_drift",
    "linear_drift", "stream_function_drift", "shear_drift", "power_drift",
    "time_modulated_drift", "drift_from_spec", "eval_drift", "check_hypotheses",
    "write_hypothesis_csv",
    # paths
    "SamplePath", "sample_brownian", "zero_path", "piecewise_linear_approx",
    "eval_path", "sup_distance",
    # artifacts
    "write_field_csv", "read_field_csv", "write_path_csv", "read_path_csv",
    # spde
    "SpdeSolution", "solve_spde", "exact_solution",
    "smoothed_truncated_power", "RenormalizationReport", "renormalize_check",
    # weak form
    "TestFunction", "make_test_functions", "WeakResidualSeries",
    "WeakResidualReport", "weak_residual", "write_weak_report_csv",
    # experiments
    "ExperimentConfig", "CommandResult", "estimate_order",
    "cmd_solve", "cmd_verify_weak", "cmd_uniqueness_crosscheck",
    "cmd_wong_zakai", "cmd_hypotheses",
]

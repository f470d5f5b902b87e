"""Run orchestration: configs, artifact layout, and the study commands.

A run is fully described by a JSON config with a fixed key set; every
artifact (field snapshots, path knots, norm series, reports, manifest)
is a plain CSV with deterministic formatting, so identical configs and
seeds reproduce identical bytes. Commands return a ``CommandResult``
whose exit code follows the convention: 0 all checks passed, 1 a
tolerance check failed, 2 bad configuration, 3 runtime or numeric
failure (the CLI maps exceptions to 2 and 3).
"""

from __future__ import annotations

import glob
import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .artifacts import read_csv, write_csv
from .drifts import (DriftField, check_hypotheses, drift_from_spec, eval_drift,
                     write_hypothesis_csv)
from .errors import ConfigError, FieldValidationError
from .fields import ScalarField, SpatialGrid, lp_norm, read_field_csv, write_field_csv
from .paths import (SamplePath, piecewise_linear_approx, read_path_csv,
                    sample_brownian, write_path_csv)
from .profiles import Profile, profile_from_spec, sample_profile
from .spde import (SNAPSHOT_INTERVALS, SpdeSolution, _step_list, exact_solution, solve_spde,
                   solve_spde_batch)
from .transport import (_CFL_LIMIT, SCHEMES, _check_mollify_radius, _margin_band,
                        _step_count, _support_hits_margin, cfl_number)
from .weakform import make_test_functions, weak_residual, write_weak_report_csv

__all__ = [
    "ExperimentConfig",
    "CommandResult",
    "ConvergenceTable",
    "estimate_order",
    "cmd_solve",
    "cmd_verify_weak",
    "cmd_uniqueness_crosscheck",
    "cmd_wong_zakai",
    "cmd_hypotheses",
    "DEFAULT_WEAK_TOL",
    "TOLERANCE_VERSION",
]

#: Bump when any documented tolerance below changes.
TOLERANCE_VERSION = "1"

#: Normalized weak-residual threshold for the verify-weak command.
DEFAULT_WEAK_TOL = 0.05

#: Wong-Zakai: the finest-level error must stay below this fraction of |u0|_p.
WZ_FINAL_TOL = 0.05

_REQUIRED_KEYS = ("d", "L", "N", "T", "dt", "scheme", "p", "seed", "drift", "u0")
_OPTIONAL_KEYS = ("phi_count", "wz_levels", "mollify_eps", "out_dir")

_DEFAULT_WZ_LEVELS = (4, 8, 16, 32, 64, 128, 256)


def _integer(key: str, value) -> int:
    """An integral JSON number, not a bool, as an int."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{key} must be an integer, got {value!r}")
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return int(value)


def _real(key: str, value) -> float:
    """A finite JSON number, not a bool, as a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{key} must be a number, got {value!r}")
    out = float(value)
    if not math.isfinite(out):
        raise ValueError(f"{key} must be finite, got {value!r}")
    return out


def _string(key: str, value) -> str:
    """A JSON string."""
    if not isinstance(value, str):
        raise TypeError(f"{key} must be a string, got {value!r}")
    return value


def _object(key: str, value) -> dict:
    """A JSON object, as a copy."""
    if not isinstance(value, dict):
        raise TypeError(f"{key} must be an object, got {value!r}")
    return dict(value)


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated run parameters; see the JSON key set in the class docs.

    Keys: d, L, N, T, dt, scheme, p, seed, drift, u0, and the optional
    phi_count, wz_levels, mollify_eps, out_dir. Anything else is an error.
    """

    d: int
    half_width: float
    n: int
    horizon: float
    dt: float
    scheme: str
    p: float
    seed: int
    drift_spec: dict
    u0_spec: dict
    phi_count: int = 10
    wz_levels: tuple = _DEFAULT_WZ_LEVELS
    mollify_eps: float | None = None
    out_dir: str = "runs"

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError(f"config must be a JSON object, got {type(raw).__name__}")
        unknown = set(raw) - set(_REQUIRED_KEYS) - set(_OPTIONAL_KEYS)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        missing = [k for k in _REQUIRED_KEYS if k not in raw]
        if missing:
            raise ConfigError(f"missing config keys: {missing}")
        try:
            levels = raw.get("wz_levels", _DEFAULT_WZ_LEVELS)
            if not isinstance(levels, (list, tuple)):
                raise TypeError(f"wz_levels must be a list, got {levels!r}")
            cfg = cls(
                d=_integer("d", raw["d"]),
                half_width=_real("L", raw["L"]),
                n=_integer("N", raw["N"]),
                horizon=_real("T", raw["T"]),
                dt=_real("dt", raw["dt"]),
                scheme=_string("scheme", raw["scheme"]),
                p=_real("p", raw["p"]),
                seed=_integer("seed", raw["seed"]),
                drift_spec=_object("drift", raw["drift"]),
                u0_spec=_object("u0", raw["u0"]),
                phi_count=_integer("phi_count", raw.get("phi_count", 10)),
                wz_levels=tuple(_integer("wz_levels entry", v) for v in levels),
                mollify_eps=(None if raw.get("mollify_eps") is None
                             else _real("mollify_eps", raw["mollify_eps"])),
                out_dir=_string("out_dir", raw.get("out_dir", "runs")),
            )
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"malformed config value: {exc}") from exc
        cfg.validate()
        return cfg

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
        return cls.from_dict(raw)

    def validate(self) -> None:
        if self.scheme not in SCHEMES:
            raise ConfigError(f"unknown scheme {self.scheme!r}")
        if not (self.horizon > 0 and self.dt > 0):
            raise ConfigError("T and dt must be positive")
        self.n_steps()  # dt must divide T
        if self.p < 1.0:
            raise ConfigError(f"p must satisfy p >= 1, got {self.p}")
        if self.phi_count < 1:
            raise ConfigError("phi_count must be positive")
        if not self.wz_levels:
            raise ConfigError("wz_levels needs at least one level")
        if any(lvl < 1 for lvl in self.wz_levels):
            raise ConfigError("wong-zakai levels must be positive")
        # The verdict reads the errors as a refining ladder.
        if any(a >= b for a, b in zip(self.wz_levels, self.wz_levels[1:])):
            raise ConfigError(f"wz_levels must strictly increase, got {list(self.wz_levels)}")
        # The grid, drift and initial data meet their builders here, once,
        # so a value they reject is a config error and not a failure mid-run.
        try:
            grid = self.grid()
            b = self.drift()
            u0 = sample_profile(grid, self.profile())
            eval_drift(b, 0.0, grid.nodes())
        except KeyError as exc:
            raise ConfigError(f"malformed config value: missing key {exc}") from exc
        except (FieldValidationError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed config value: {exc}") from exc
        if self.mollify_eps is not None:
            if self.mollify_eps < 0:
                raise ConfigError("mollify_eps must be nonnegative")
            _check_mollify_radius(self.mollify_eps, grid.h)
        # Support-margin precheck on the initial data itself (dynamic
        # encroachment during the run surfaces as a solver warning).
        if _support_hits_margin(u0.values, _margin_band(grid), float(np.max(np.abs(u0.values)))):
            raise ConfigError("initial data does not clear the 10% wrap-around margin")
        if self.scheme == "upwind_fv":
            # Drift-only CFL estimate on box samples; the solver re-checks
            # with the path-composed velocity before marching.
            coarse = SpatialGrid(self.d, self.half_width, min(self.n, 64))
            cfl = cfl_number(partial(eval_drift, b), coarse, self.dt,
                             np.linspace(0.0, self.horizon, 5)) * coarse.h / grid.h
            if cfl > _CFL_LIMIT:
                raise ConfigError(
                    f"upwind CFL precheck fails: dt*|b|/h = {cfl:.3f} > {_CFL_LIMIT}")

    # -- builders ----------------------------------------------------------

    def grid(self) -> SpatialGrid:
        return SpatialGrid(d=self.d, half_width=self.half_width, n=self.n)

    @property
    def q(self) -> float:
        """The conjugate exponent p/(p - 1); +inf when p == 1."""
        return math.inf if self.p == 1.0 else self.p / (self.p - 1.0)

    def n_steps(self) -> int:
        return _step_count(self.dt, self.horizon)

    def drift(self) -> DriftField:
        return drift_from_spec(self.d, self.half_width, self.drift_spec, self.horizon)

    def profile(self) -> Profile:
        return profile_from_spec(self.d, self.half_width, self.u0_spec)

    def u0(self) -> ScalarField:
        return sample_profile(self.grid(), self.profile())

    def path(self, seed: int | None = None, path_file=None) -> SamplePath:
        if path_file is not None:
            path = read_path_csv(path_file)
            if path.d != self.d:
                raise ConfigError(
                    f"replayed path has dimension {path.d}, config asks for {self.d}")
            if abs(path.horizon - self.horizon) > 1.0e-9 * self.horizon:
                raise ConfigError(
                    f"replayed path horizon {path.horizon} != T={self.horizon}")
            if path.n_steps != self.n_steps():
                raise ConfigError(
                    f"replayed path has {path.n_steps} steps, config implies "
                    f"{self.n_steps()}")
            return path
        return sample_brownian(seed if seed is not None else self.seed,
                               self.horizon, self.n_steps(), self.d)

    def canonical_dict(self) -> dict:
        """Config as a plain dict; excludes out_dir so hashes ignore placement."""
        return {
            "d": self.d, "L": self.half_width, "N": self.n, "T": self.horizon,
            "dt": self.dt, "scheme": self.scheme, "p": self.p, "seed": self.seed,
            "drift": self.drift_spec, "u0": self.u0_spec,
            "phi_count": self.phi_count, "wz_levels": list(self.wz_levels),
            "mollify_eps": self.mollify_eps,
        }

    def config_hash(self) -> str:
        blob = json.dumps(self.canonical_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


@dataclass
class CommandResult:
    """Exit code plus the human-readable lines a command produced."""

    exit_code: int
    lines: list = field(default_factory=list)

    def add(self, line: str) -> None:
        self.lines.append(line)


def estimate_order(errors) -> list:
    """Pairwise empirical orders log2(e_prev / e_cur) along a refinement ladder.

    Zero errors are admitted only as an exactly-zero tail: the first zero
    terminates the ladder and its order is reported as ``math.inf``
    (printed as "exact"). Negative entries, or zeros followed by nonzero
    errors, are configuration errors.
    """
    errs = [float(e) for e in errors]
    if len(errs) < 2:
        raise ConfigError("need at least two ladder entries to estimate an order")
    if any(e < 0 for e in errs):
        raise ConfigError("ladder errors must be nonnegative")
    if 0.0 in errs:
        first = errs.index(0.0)
        if any(e != 0.0 for e in errs[first:]):
            raise ConfigError("a zero error may only start an exactly-zero tail")
        errs = errs[: first + 1]
        if len(errs) < 2:
            raise ConfigError("ladder starts at zero; no order to estimate")
    orders = []
    for prev, cur in zip(errs, errs[1:]):
        orders.append(math.inf if cur == 0.0 else math.log2(prev / cur))
    return orders


@dataclass(frozen=True)
class ConvergenceTable:
    """Errors along a refinement ladder with their empirical orders."""

    levels: tuple
    errors: tuple

    def __post_init__(self):
        if len(self.levels) != len(self.errors):
            raise ConfigError("levels and errors differ in length")
        if any(e < 0 for e in self.errors):
            raise ConfigError("ladder errors must be nonnegative")

    def to_csv(self, path) -> None:
        rows = []
        prev = None
        for i, (lvl, err) in enumerate(zip(self.levels, self.errors)):
            err = float(err)
            if i == 0 or prev == 0.0:
                tag = ""
            elif err == 0.0:
                tag = "exact"
            else:
                tag = math.log2(prev / err)
            rows.append((lvl, err, tag))
            prev = err
        write_csv(path, ("level", "error", "empirical_order"), rows)


# ---------------------------------------------------------------------------
# artifact helpers


_MANIFEST_COLUMNS = ("seed", "scheme", "N", "dt", "p", "drift_id", "path_kind",
                     "n_level", "config_hash", "tolerance_version")


def _manifest_row(cfg: ExperimentConfig, path: SamplePath, n_level: int | None) -> dict:
    """One manifest row of a solve driven by ``path``: the seed and kind are
    the path's own, and a path without a seed gets an empty seed cell."""
    return {
        "seed": "" if path.seed is None else path.seed,
        "scheme": cfg.scheme,
        "N": cfg.n,
        "dt": cfg.dt,
        "p": cfg.p,
        "drift_id": cfg.drift_spec.get("id", "?"),
        "path_kind": path.kind,
        "n_level": "" if n_level is None else n_level,
        "config_hash": cfg.config_hash(),
        "tolerance_version": TOLERANCE_VERSION,
    }


def _write_manifest(rows, path) -> None:
    write_csv(path, _MANIFEST_COLUMNS,
              [tuple(row[c] for c in _MANIFEST_COLUMNS) for row in rows])


def _read_manifest(path) -> list:
    """Rows of a manifest as dicts of strings, keyed by column."""
    _, columns, rows = read_csv(path)
    return [dict(zip(columns, row)) for row in rows]


def _ensure_dir(out_dir) -> str:
    os.makedirs(out_dir, exist_ok=True)
    return out_dir


def _resolve(cfg: ExperimentConfig, out_dir, seed) -> tuple[str, int]:
    return (out_dir if out_dir is not None else cfg.out_dir,
            seed if seed is not None else cfg.seed)


def _support_lines(command: str, where: str, sol: SpdeSolution) -> list:
    """One line when the solve's support touched the wrap-around margin, else none."""
    if not sol.support_violations:
        return []
    return [f"{command}: support touched the wrap-around margin{where} at steps "
            f"{_step_list(sol.support_violations)}"]


# ---------------------------------------------------------------------------
# commands


def cmd_solve(cfg: ExperimentConfig, out_dir=None, seed=None,
              path_file=None) -> CommandResult:
    """Solve one configured run and dump snapshots, path, norms and manifest."""
    out_dir, seed = _resolve(cfg, out_dir, seed)
    _ensure_dir(out_dir)
    path = cfg.path(seed, path_file)
    u0 = cfg.u0()
    sol = solve_spde(cfg.drift(), path, u0, scheme=cfg.scheme, mollify_epsilon=cfg.mollify_eps)
    for m, (u, v) in enumerate(zip(sol.fields, sol.aux_fields)):
        write_field_csv(u, os.path.join(out_dir, f"u_t{m:04d}.csv"))
        write_field_csv(v, os.path.join(out_dir, f"v_t{m:04d}.csv"))
    write_path_csv(path, os.path.join(out_dir, "path.csv"))
    norms = [(m, t, lp_norm(u, cfg.p))
             for m, (t, u) in enumerate(zip(sol.times.tolist(), sol.fields))]
    write_csv(os.path.join(out_dir, "norms.csv"), ("m", "t", "lp_norm"), norms)
    _write_manifest([_manifest_row(cfg, path, None)],
                    os.path.join(out_dir, "manifest.csv"))
    result = CommandResult(0)
    result.add(f"solve: wrote {len(sol.fields)} snapshots to {out_dir}")
    result.lines.extend(_support_lines("solve", "", sol))
    return result


def _load_run(cfg: ExperimentConfig, out_dir) -> SpdeSolution:
    """The snapshots ``cmd_solve`` wrote under ``out_dir``: exactly u_t0000.csv
    to u_t0016.csv, written under this config, and the path.csv that drove
    them, which must match the config as a ``--path-file`` replay must. A
    snapshot that does not read back as a field is a ``ConfigError``."""
    names = [f"u_t{m:04d}.csv" for m in range(SNAPSHOT_INTERVALS + 1)]
    found = {os.path.basename(f) for f in glob.glob(os.path.join(out_dir, "u_t*.csv"))}
    if not found:
        raise ConfigError(f"no run artifacts under {out_dir} "
                          f"(expected {names[0]} to {names[-1]})")
    missing = [name for name in names if name not in found]
    extra = sorted(found - set(names))
    if missing or extra:
        raise ConfigError(
            f"{'missing' if missing else 'unexpected'} snapshot files under {out_dir}: "
            f"{', '.join(missing or extra)}; solve writes exactly {names[0]} to {names[-1]}")
    manifest = os.path.join(out_dir, "manifest.csv")
    if not os.path.isfile(manifest):
        raise ConfigError(f"no manifest.csv under {out_dir}; cannot match the artifacts "
                          f"to config_hash={cfg.config_hash()}")
    current = (cfg.config_hash(), TOLERANCE_VERSION)
    for row in _read_manifest(manifest) or [{}]:
        written = (row.get("config_hash"), row.get("tolerance_version"))
        if written != current:
            raise ConfigError(
                f"artifacts under {out_dir} were written with config_hash={written[0]} "
                f"tolerance_version={written[1]}; this config has "
                f"config_hash={current[0]} tolerance_version={current[1]}")
    path_file = os.path.join(out_dir, "path.csv")
    if not os.path.isfile(path_file):
        raise ConfigError(f"no path.csv under {out_dir}; solve writes it with the snapshots")
    path = cfg.path(path_file=path_file)
    fields = []
    for name in names:
        try:
            fields.append(read_field_csv(os.path.join(out_dir, name)))
        except (FieldValidationError, OSError, ValueError) as exc:
            raise ConfigError(f"unreadable snapshot {name}: {exc}") from None
    times = np.linspace(0.0, path.horizon, SNAPSHOT_INTERVALS + 1)
    return SpdeSolution(grid=fields[0].grid, times=times, fields=tuple(fields), path=path)


def cmd_verify_weak(cfg: ExperimentConfig, out_dir=None, seed=None) -> CommandResult:
    """Audit dumped run artifacts against the weak identity."""
    out_dir, seed = _resolve(cfg, out_dir, seed)
    sol = _load_run(cfg, out_dir)
    phis = make_test_functions(sol.grid, cfg.phi_count, seed)
    report = weak_residual(sol, cfg.drift(), cfg.p, phis)
    write_weak_report_csv(report, os.path.join(out_dir, "weak_report.csv"))
    worst = report.max_normalized
    ok = worst <= DEFAULT_WEAK_TOL
    result = CommandResult(0 if ok else 1)
    result.add(
        f"{'PASS' if ok else 'FAIL'} verify-weak: max normalized residual "
        f"{worst:.6g} {'<=' if ok else '>'} {DEFAULT_WEAK_TOL}"
    )
    return result


def cmd_uniqueness_crosscheck(cfg: ExperimentConfig, out_dir=None, seed=None,
                              path_file=None) -> CommandResult:
    """Compare the two schemes on one path across a spatial refinement ladder."""
    out_dir, seed = _resolve(cfg, out_dir, seed)
    _ensure_dir(out_dir)
    ladder = [cfg.n // 8, cfg.n // 4, cfg.n // 2, cfg.n]
    if ladder[0] < 8:
        raise ConfigError(f"N={cfg.n} leaves no room for an N/8 ladder")
    path = cfg.path(seed, path_file)
    b = cfg.drift()
    profile = cfg.profile()
    window = [(-cfg.half_width, cfg.half_width)] * cfg.d
    exploratory = not check_hypotheses(b, cfg.q, window, cfg.horizon).all_ok

    errors = []
    oracle_sums = []
    rows = []
    notes = []
    for n_level in ladder:
        grid = SpatialGrid(cfg.d, cfg.half_width, n_level)
        u0 = sample_profile(grid, profile)
        sols = [solve_spde(b, path, u0, scheme=scheme, mollify_epsilon=cfg.mollify_eps)
                for scheme in SCHEMES]
        for scheme, sol in zip(SCHEMES, sols):
            notes += _support_lines("uniqueness", f" in the N={n_level} {scheme} solve", sol)
        errors.append(max(lp_norm(ua - ub, cfg.p)
                          for ua, ub in zip(*(sol.fields for sol in sols))))
        if b.constant_value is not None:
            oracle_sums.append(sum(
                max(lp_norm(u - exact_solution(b, path, profile, t, grid), cfg.p)
                    for t, u in zip(sol.times, sol.fields))
                for sol in sols
            ))
        rows.append(_manifest_row(cfg, path, n_level))

    table = ConvergenceTable(tuple(ladder), tuple(errors))
    table.to_csv(os.path.join(out_dir, "crosscheck.csv"))
    _write_manifest(rows, os.path.join(out_dir, "manifest.csv"))

    tail = errors[-3:]
    ok = all(a > b_ or a == b_ == 0.0 for a, b_ in zip(tail, tail[1:]))
    result = CommandResult(0 if ok else 1)
    verdict = "PASS" if ok else "FAIL"
    result.add(
        f"{verdict} uniqueness: scheme discrepancy "
        + " -> ".join(f"{e:.4g}" for e in errors)
        + (" [exploratory: drift hypotheses not satisfied]" if exploratory else "")
    )
    if oracle_sums:
        result.add(
            f"uniqueness: final discrepancy {errors[-1]:.4g} vs oracle-error sum "
            f"{oracle_sums[-1]:.4g}"
        )
    result.lines.extend(notes)
    return result


def cmd_wong_zakai(cfg: ExperimentConfig, out_dir=None, seed=None,
                   n_seeds: int = 1, path_file=None) -> CommandResult:
    """Drive the run with BV interpolants of the path at dyadic knot counts."""
    out_dir, seed = _resolve(cfg, out_dir, seed)
    _ensure_dir(out_dir)
    if n_seeds < 1:
        raise ConfigError("--seeds must be positive")
    if path_file is not None and n_seeds != 1:
        raise ConfigError("--path-file replays a single path; use --seeds 1")
    levels = list(cfg.wz_levels)
    steps = cfg.n_steps()
    for lvl in levels:
        if steps % lvl != 0:
            raise ConfigError(
                f"wong-zakai level {lvl} does not divide {steps} path steps")
    b = cfg.drift()
    u0 = cfg.u0()
    u0_norm = lp_norm(u0, cfg.p)

    worst = np.zeros(len(levels))
    rows = []
    notes = []
    for s in range(seed, seed + n_seeds):
        path = cfg.path(s, path_file)
        # The reference and every level march together, as one batch.
        ref, *sols = solve_spde_batch(
            b, [path] + [piecewise_linear_approx(path, lvl) for lvl in levels], u0,
            scheme=cfg.scheme, mollify_epsilon=cfg.mollify_eps)
        notes += _support_lines(
            "wong-zakai", f" in the seed {s} reference {cfg.scheme} solve", ref)
        for i, (lvl, sol) in enumerate(zip(levels, sols)):
            notes += _support_lines(
                "wong-zakai", f" in the seed {s} level {lvl} {cfg.scheme} solve", sol)
            err = max(lp_norm(ua - ub, cfg.p)
                      for ua, ub in zip(sol.fields, ref.fields))
            worst[i] = max(worst[i], err)
            rows.append(_manifest_row(cfg, sol.path, lvl))

    table = ConvergenceTable(tuple(levels), tuple(worst))
    table.to_csv(os.path.join(out_dir, "wong_zakai.csv"))
    _write_manifest(rows, os.path.join(out_dir, "manifest.csv"))

    tail = worst[-min(4, len(levels)):]
    monotone = all(a >= b_ for a, b_ in zip(tail, tail[1:]))
    small = worst[-1] <= WZ_FINAL_TOL * u0_norm
    ok = monotone and small
    result = CommandResult(0 if ok else 1)
    result.add(
        f"{'PASS' if ok else 'FAIL'} wong-zakai: errors "
        + " -> ".join(f"{e:.4g}" for e in worst)
        + f" (final vs {WZ_FINAL_TOL} * |u0|_p = {WZ_FINAL_TOL * u0_norm:.4g})"
    )
    result.lines.extend(notes)
    return result


def cmd_hypotheses(cfg: ExperimentConfig, out_dir=None) -> CommandResult:
    """Run the drift integrability checks for the configured exponent."""
    out_dir, _ = _resolve(cfg, out_dir, None)
    _ensure_dir(out_dir)
    b = cfg.drift()
    window = [(-cfg.half_width, cfg.half_width)] * cfg.d
    report = check_hypotheses(b, cfg.q, window, cfg.horizon)
    write_hypothesis_csv(report, os.path.join(out_dir, "hypotheses.csv"))
    result = CommandResult(0 if report.all_ok else 1)
    verdict = "PASS" if report.all_ok else "FAIL"
    result.add(
        f"{verdict} hypotheses[{b.id}]: div_bound={report.div_bound:.6g} "
        f"(ok={report.div_ok}) lq={report.lq_evidence:.6g} (ok={report.lq_loc_ok}) "
        f"w1q={report.w1q_evidence:.6g} (ok={report.w1q_loc_ok}) "
        f"growth={report.growth_evidence:.6g} (ok={report.growth_ok})"
    )
    return result

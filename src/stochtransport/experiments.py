"""Run orchestration: configs and the study commands.

A run is fully described by a JSON config with a fixed key set; every
artifact is a plain CSV written by ``artifacts``, which owns the files of
a ``solve`` run, with deterministic formatting, so identical configs and
seeds reproduce identical bytes. Commands return a ``CommandResult``
whose exit code follows the convention: 0 all checks passed, 1 a
tolerance check failed, 2 bad configuration, 3 runtime or numeric
failure (the CLI maps exceptions to 2 and 3).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .artifacts import read_path_csv, read_run, write_csv, write_manifest, write_run
from .drifts import (DriftField, check_hypotheses, drift_from_spec, eval_drift,
                     write_hypothesis_csv)
from .errors import ConfigError, DriftEvaluationError, FieldValidationError
from .fields import ScalarField, SpatialGrid, lp_norm
from .paths import SamplePath, piecewise_linear_approx, sample_brownian
from .profiles import Profile, profile_from_spec, sample_profile
from .schema import CONFIG, SCHEMES, check_keys
from .spde import SNAPSHOT_INTERVALS, SpdeSolution, _step_list, exact_solution, solve_spde
from .transport import (_CFL_LIMIT, _MAX_TABLE_NODES, _check_mollify_radius,
                        _margin_band, _support_hits_margin, cfl_number)
from .weakform import make_test_functions, weak_residual, write_weak_report_csv

__all__ = [
    "ExperimentConfig",
    "CommandResult",
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

#: The most steps T / dt a run may take: its path alone holds K + 1 knots.
MAX_STEPS = 2**24

#: The widest box half-width L a run may take. The mollifier and the bump
#: square lengths of the box (a radius up to L), which overflow near 1e154.
MAX_HALF_WIDTH = 1e150


def _check_seed(name: str, seed: int) -> None:
    """A seed keys ``numpy.random.Philox``, which takes keys 0 <= key < 2**128 only."""
    if seed < 0:
        raise ConfigError(f"{name} must be nonnegative, got {seed}")
    if seed >= 2**128:
        raise ConfigError(f"{name} must be below 2**128, got {seed}")


#: The field each key of ``schema.CONFIG`` sets, and how its JSON value converts;
#: a key the config leaves out keeps the field's default.
_FIELDS = {
    "d": ("d", int), "L": ("half_width", float), "N": ("n", int), "T": ("horizon", float),
    "dt": ("dt", float), "scheme": ("scheme", str), "p": ("p", float), "seed": ("seed", int),
    "drift": ("drift_spec", dict), "u0": ("u0_spec", dict), "phi_count": ("phi_count", int),
    "wz_levels": ("wz_levels", lambda v: tuple(map(int, v))),
    "mollify_eps": ("mollify_eps", lambda v: None if v is None else float(v)),
    "out_dir": ("out_dir", str),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated run parameters. The keys of the JSON config, and the kind
    of each, are ``schema.CONFIG``; ``validate`` checks the rules that tie
    them together."""

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
    wz_levels: tuple = (4, 8, 16, 32, 64, 128, 256)
    mollify_eps: float | None = None
    out_dir: str = "runs"

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError(f"config must be a JSON object, got {type(raw).__name__}")
        check_keys(raw, CONFIG)
        cfg = cls(**{name: convert(raw[key]) for key, (name, convert) in _FIELDS.items()
                     if key in raw})
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
        if not (self.horizon > 0 and self.dt > 0):
            raise ConfigError("T and dt must be positive")
        if self.half_width > MAX_HALF_WIDTH:
            raise ConfigError(f"L={self.half_width!r} exceeds {MAX_HALF_WIDTH:g}: the mollifier "
                              "squares its radius, and the squares of such a box overflow")
        # A grid holds at most as many nodes as a mollifier table; checked before one is made.
        if self.d in (1, 2) and self.n > _MAX_TABLE_NODES ** (1.0 / self.d):
            raise ConfigError(f"N={self.n!r} exceeds {round(_MAX_TABLE_NODES ** (1.0 / self.d))} "
                              f"in {self.d}D: a grid holds at most N**d = "
                              f"2**{math.log2(_MAX_TABLE_NODES):g} nodes")
        self.n_steps()  # dt must divide T
        _check_seed("seed", self.seed)
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
        except (DriftEvaluationError, FieldValidationError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed config value: {exc}") from exc
        # Zero initial data is a valid run when asked for, by a zero amplitude;
        # with any other amplitude the profile missed every node, or overflowed.
        stated = self.u0_spec.get("amplitudes", [self.u0_spec.get("amplitude", 1.0)])
        if not np.any(u0.values) and np.any(np.asarray(stated, dtype=float) != 0.0):
            raise ConfigError("u0 samples to zero at every grid node, though its amplitude "
                              f"is {stated!r}")
        # The run writes |u|_p of every snapshot, and the weak audit divides by it.
        fault = "the L^p norm of u0 at p={!r} is {!r}: a nonzero u0 needs a finite positive norm"
        try:
            norm = lp_norm(u0, self.p) if np.any(u0.values) else 1.0
        except FieldValidationError:  # its p-th powers overflow
            raise ConfigError(fault.format(self.p, math.inf)) from None
        if not norm > 0.0:  # they underflow
            raise ConfigError(fault.format(self.p, norm))
        if self.mollify_eps is not None:
            _check_mollify_radius(self.mollify_eps, grid)
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
        """Number of steps of size dt in [0, T]; dt must divide the horizon
        into at most ``MAX_STEPS`` steps."""
        ratio = self.horizon / self.dt
        if not ratio < MAX_STEPS + 0.5:  # an infinite ratio fails too
            raise ConfigError(f"T/dt = {ratio!r} steps; a run takes at most 2**24 = "
                              f"{MAX_STEPS} steps")
        n_steps = int(round(ratio))
        if n_steps < 1 or abs(n_steps * self.dt - self.horizon) > 1.0e-9 * self.horizon:
            raise ConfigError(f"dt={self.dt} does not divide the horizon {self.horizon}")
        return n_steps

    def drift(self) -> DriftField:
        return drift_from_spec(self.d, self.half_width, self.drift_spec, self.horizon, n=self.n)

    def profile(self) -> Profile:
        return profile_from_spec(self.d, self.u0_spec)

    def u0(self) -> ScalarField:
        return sample_profile(self.grid(), self.profile())

    def path(self, seed: int | None = None, path_file=None) -> SamplePath:
        if path_file is not None:
            return self._replayed(read_path_csv(path_file))
        return sample_brownian(seed if seed is not None else self.seed,
                               self.horizon, self.n_steps(), self.d)

    def _replayed(self, path: SamplePath) -> SamplePath:
        """``path``, read from a file, if its d, T and K are this config's."""
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

    def canonical_dict(self) -> dict:
        """Config as a plain dict; excludes out_dir so hashes ignore placement."""
        return {key: getattr(self, name) for key, (name, _) in _FIELDS.items()
                if key != "out_dir"}

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
    return [_order(prev, cur) for prev, cur in zip(errs, errs[1:])]


def _order(prev: float, cur: float) -> float:
    """The empirical order log2(prev / cur) of one refinement step, and
    ``math.inf`` when ``cur`` is 0: the level is exact. A ratio that
    overflows or underflows is taken as log2(prev) - log2(cur)."""
    if cur == 0.0:
        return math.inf
    ratio = prev / cur
    if ratio == 0.0 or ratio == math.inf:
        return math.log2(prev) - math.log2(cur)
    return math.log2(ratio)


def _write_ladder(path, levels, errors) -> None:
    """Write each level of a refinement ladder with its error and its order
    against the level before (:func:`_order`), "exact" at a zero error. The
    first level, and a level after a zero error, have no order: a blank."""
    errs = [float(e) for e in errors]
    tags = [""] + ["" if prev == 0.0 else _order(prev, cur)
                   for prev, cur in zip(errs, errs[1:])]
    write_csv(path, ("level", "error", "empirical_order"),
              [(lvl, err, "exact" if tag == math.inf else tag)
               for lvl, err, tag in zip(levels, errs, tags)])


# ---------------------------------------------------------------------------
# command helpers


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


def _ensure_dir(out_dir) -> None:
    """Make the artifact directory. A command calls it after its checks, so a
    rejected command leaves none behind; a ``ConfigError`` raised after it,
    inside a solve, is cleaned up by ``cli.main``, which removes what it
    made while still empty. An ``out_dir`` that names a file or cannot be
    made is a ``ConfigError``."""
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make the artifact directory {out_dir}: {exc}") from None


def _resolve(cfg: ExperimentConfig, out_dir, seed) -> tuple[str, int]:
    if seed is None:
        seed = cfg.seed
    else:
        _check_seed("--seed", seed)
    return (out_dir if out_dir is not None else cfg.out_dir), seed


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
    path = cfg.path(seed, path_file)
    _ensure_dir(out_dir)
    u0 = cfg.u0()
    (sol,) = solve_spde(cfg.drift(), [path], u0, scheme=cfg.scheme,
                        mollify_epsilon=cfg.mollify_eps)
    # a norm that overflows is a runtime error, raised before any file is written
    norms = [lp_norm(u, cfg.p) for u in sol.fields]
    write_run(out_dir, sol, norms, _manifest_row(cfg, path, None))
    result = CommandResult(0)
    result.add(f"solve: wrote {len(sol.fields)} snapshots to {out_dir}")
    result.lines.extend(_support_lines("solve", "", sol))
    return result


def cmd_verify_weak(cfg: ExperimentConfig, out_dir=None, seed=None) -> CommandResult:
    """Audit dumped run artifacts against the weak identity."""
    out_dir, seed = _resolve(cfg, out_dir, seed)
    sol = SpdeSolution(*read_run(out_dir, cfg.grid(), SNAPSHOT_INTERVALS + 1,
                                 (cfg.config_hash(), TOLERANCE_VERSION), cfg._replayed))
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
    ladder = [cfg.n // 8, cfg.n // 4, cfg.n // 2, cfg.n]
    if ladder[0] < 8:
        raise ConfigError(f"N={cfg.n} leaves no room for an N/8 ladder")
    # Each level must halve the spacing of the one before, as the orders read it.
    if cfg.n % 8 != 0:
        raise ConfigError(f"N={cfg.n} is not a multiple of 8, so its N/8 ladder "
                          "does not halve the spacing at each level")
    path = cfg.path(seed, path_file)
    _ensure_dir(out_dir)
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
        sols = [solve_spde(b, [path], u0, scheme=scheme, mollify_epsilon=cfg.mollify_eps)[0]
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

    _write_ladder(os.path.join(out_dir, "crosscheck.csv"), ladder, errors)
    write_manifest(out_dir, rows)

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
    if n_seeds < 1:
        raise ConfigError("--seeds must be positive")
    _check_seed(f"the last seed of --seeds {n_seeds}", seed + n_seeds - 1)
    if path_file is not None and n_seeds != 1:
        raise ConfigError("--path-file replays a single path; use --seeds 1")
    levels = list(cfg.wz_levels)
    steps = cfg.n_steps()
    for lvl in levels:
        if steps % lvl != 0:
            raise ConfigError(
                f"wong-zakai level {lvl} does not divide {steps} path steps")
    replay = None if path_file is None else cfg.path(path_file=path_file)
    _ensure_dir(out_dir)
    b = cfg.drift()
    u0 = cfg.u0()
    u0_norm = lp_norm(u0, cfg.p)

    worst = np.zeros(len(levels))
    rows = []
    notes = []
    for s in range(seed, seed + n_seeds):
        path = cfg.path(s) if replay is None else replay
        # The reference and every level march together, as one batch.
        ref, *sols = solve_spde(
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

    _write_ladder(os.path.join(out_dir, "wong_zakai.csv"), levels, worst)
    write_manifest(out_dir, rows)

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

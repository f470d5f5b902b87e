"""Pathwise solutions of the stochastic transport equation.

For a frozen realization of the driving path, the stochastic problem

    du + b(t, x) . grad u dt + grad u . dW = 0,    u(0) = u0,

with b(t, x) = gain(t) * fn(x) (``drifts.DriftField``), is solved through
u(t, x) = v(t, x - W(t)), where v solves the deterministic transport
problem with the path-shifted drift b(t, x + W(t)) (``transport``).
``solve_spde`` is the one solve entry point and the one march, for every
driving path: a Brownian draw, the zero path, and the bounded-variation
interpolants of the Wong-Zakai study. It steps a batch of P paths on one
grid, drift and initial field together, with a leading path axis on
every array. The march:

- The paths are evaluated once per batch, at every RK4 stage time and
  every snapshot time, into one table of shifts
  (``transport._path_table``), and a rough drift is tabulated once per
  batch (``transport.mollified_drift``).
- The steps run in blocks of B = min(K / 16, max(1, 4096 // Q)) on a
  grid of Q nodes (``_block_steps``). Once the path is frozen, the
  characteristics of v do not depend on v, so a block reads the velocity
  of all its steps at once, plans the cubic reads of all its feet at
  once, and then steps only the values
  (``transport._semi_lagrangian_block``, ``transport._upwind_block``).
- One workspace per solve (``fields._Workspace``), dropped when the
  solve returns, holds every scratch array of a step and the values of
  the block, so the heap does not grow and shrink at each step.
- After each block the stacked values are checked: that they are finite
  (``BlowUpError`` names the first failing step and its path) and, path
  by path, that they clear the wrap-around margin.
- At each snapshot, which a block may straddle, the values of every path
  are shifted back by W(t) at once, in the workspace (``fields._shifted``),
  and only then become ``ScalarField`` objects.

Renormalization checks integrate beta(u) of the snapshots against the
Gronwall envelope of the divergence bound of ``drifts.check_hypotheses``;
the integral over the periodic box is the same for u(t) as for its
translate v(t), so a rebuilt solution is audited as the solver's own.
A solution's files are written, and read back for a rebuilt solution, by
the run store (``artifacts.write_run``, ``artifacts.read_run``).
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .drifts import EVIDENCE_CEILING, DriftField, check_hypotheses
from .errors import BlowUpError, ConfigError, MeshMismatchError, SupportMarginWarning
from .fields import ScalarField, SpatialGrid, _shifted, _Workspace
from .paths import SamplePath, eval_path
from .profiles import Profile
from .schema import SCHEMES
from .transport import (_CFL_LIMIT, _check_mollify_radius, _margin_band,
                        _semi_lagrangian_block, _stage_times, _support_hits_margin,
                        _composed_drift, _path_table, _table_rows, _upwind_block,
                        cfl_number, mollified_drift)

__all__ = [
    "SpdeSolution",
    "RenormalizationReport",
    "smoothed_truncated_power",
    "solve_spde",
    "exact_solution",
    "renormalize_check",
]

#: Snapshot intervals of every solve: its snapshots sit at
#: linspace(0, T, SNAPSHOT_INTERVALS + 1), and K must be a multiple of it.
SNAPSHOT_INTERVALS = 16


@dataclass(frozen=True)
class SpdeSolution:
    """Snapshots of the stochastic solution u, tied to their driving path.

    ``fields`` holds u at ``times``, the read-only
    ``linspace(0, T, len(fields))`` on the horizon T of ``path``; ``grid``
    is the grid of the snapshots and ``dt`` the marching step T / K of the
    path's K steps. At least two snapshots are needed, and their intervals
    must divide K, so that every snapshot sits on the path mesh; anything
    else raises ``MeshMismatchError``. The solver fills the other fields,
    which a solution rebuilt from dumped artifacts leaves at their defaults:
    ``aux_fields``, the advected field v at the same times, where the
    solver's ``fields[0]`` and ``aux_fields[0]`` are both the initial
    condition object itself;
    ``mollify_epsilon``, the radius the drift was smoothed with (None: not
    smoothed); ``support_violations``, the marching steps after which v
    reached the wrap-around margin (``transport._support_hits_margin``).
    """

    fields: tuple
    path: SamplePath
    aux_fields: tuple = ()
    mollify_epsilon: float | None = None
    support_violations: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "fields", tuple(self.fields))
        intervals = len(self.fields) - 1
        if intervals < 1 or self.path.n_steps % intervals != 0:
            raise MeshMismatchError(
                f"{len(self.fields)} snapshots do not sit on the mesh of a path of "
                f"{self.path.n_steps} steps: need at least two, with intervals dividing it")

    @property
    def grid(self) -> SpatialGrid:
        return self.fields[0].grid

    @functools.cached_property
    def times(self) -> np.ndarray:
        times = np.linspace(0.0, self.path.horizon, len(self.fields))
        times.setflags(write=False)
        return times

    @property
    def dt(self) -> float:
        return self.path.horizon / self.path.n_steps


def _block_steps(n_steps: int, n_nodes: int) -> int:
    """Steps per march block: at most 4096 node-steps of every path, and
    never more than a snapshot interval, so a block's arrays stay small."""
    return min(n_steps // SNAPSHOT_INTERVALS, max(1, 4096 // n_nodes))


def _step_list(steps, shown: int = 5) -> str:
    """The first ``shown`` marching steps as a list, ending in "..." when some are cut."""
    items = [str(s) for s in steps[:shown]] + (["..."] if len(steps) > shown else [])
    return f"[{', '.join(items)}]"


def solve_spde(
    b: DriftField,
    paths,
    u0: ScalarField,
    scheme: str = "semi_lagrangian",
    mollify_epsilon: float | None = None,
) -> tuple[SpdeSolution, ...]:
    """Solve the transport SPDE along each path of a batch, in one march
    (the ``spde`` module docstring gives the march).

    One path is a batch of one: ``(sol,) = solve_spde(b, [path], u0)``.
    The paths set the clock: the march runs to T = ``paths[0].horizon``
    in K = ``paths[0].n_steps`` steps of dt = T / K, and every path of the
    batch must have the same T and K. K must be a multiple of
    ``SNAPSHOT_INTERVALS``; the snapshots are taken at
    ``linspace(0, T, SNAPSHOT_INTERVALS + 1)``, and the first equals u0
    exactly. Each solution equals the path's solve alone, bit for bit, and
    a piecewise-linear interpolant on the full fine mesh reproduces its
    Brownian path's solve bit for bit.

    Parameters
    ----------
    b, paths, u0
        Drift field, a non-empty sequence of frozen driving paths
        (``SamplePath``: Brownian, zero or bounded-variation), and the
        initial data they share.
    scheme : {"semi_lagrangian", "upwind_fv"}
        The upwind scheme additionally requires dt * sup|b| / h <= 0.9,
        estimated on the grid nodes at the snapshot times, for every path.
    mollify_epsilon
        None applies the default policy: drifts whose ``smooth`` flag is
        unset are convolved with a bump of radius 2h before stepping.
        Zero disables smoothing; a positive value forces that radius and
        must lie between h and the box half-width L.

    A step after which a path's v reaches the wrap-around margin is
    recorded in that solution's ``support_violations``; each path with
    such a step ends in a ``SupportMarginWarning``.

    Returns
    -------
    tuple of SpdeSolution
        One solution per path, in the order of ``paths``.

    Raises
    ------
    ConfigError
        A ``paths`` element that is not a ``SamplePath`` (a bare path
        included), paths of differing horizon or step count, a step count
        that is not a multiple of ``SNAPSHOT_INTERVALS``, a dimension
        mismatch, an empty batch, CFL violation, unknown scheme, a forced
        mollifier radius below h or above the box half-width L.
    BlowUpError
        Non-finite values after a marching step, naming the step and the
        path, or a drift query beyond the mollifier table.
    """
    grid = u0.grid
    if isinstance(paths, SamplePath):
        raise ConfigError("solve_spde takes a sequence of paths: pass [path] for one")
    paths = tuple(paths)
    if not paths:
        raise ConfigError("a batch needs at least one path")
    if scheme not in SCHEMES:
        raise ConfigError(f"unknown scheme {scheme!r}; choose from {SCHEMES}")
    for p, path in enumerate(paths):
        if not isinstance(path, SamplePath):
            raise ConfigError(f"path {p} of the batch is a {type(path).__name__}, "
                              "not a SamplePath")
        if b.d != grid.d or path.d != grid.d:
            raise ConfigError(
                f"dimension mismatch: grid d={grid.d}, drift d={b.d}, path d={path.d}"
            )
        if (path.horizon, path.n_steps) != (paths[0].horizon, paths[0].n_steps):
            raise ConfigError(
                f"the paths of a batch share one clock: horizon {path.horizon} in "
                f"{path.n_steps} steps against {paths[0].horizon} in {paths[0].n_steps}")
    horizon, n_steps = paths[0].horizon, paths[0].n_steps
    if n_steps % SNAPSHOT_INTERVALS != 0:
        raise ConfigError(f"{n_steps} steps cannot be grouped into {SNAPSHOT_INTERVALS} "
                          "equal snapshot intervals")
    dt = horizon / n_steps
    stride = n_steps // SNAPSHOT_INTERVALS

    eps: float | None
    if mollify_epsilon is None:
        eps = None if b.smooth else 2.0 * grid.h
    elif mollify_epsilon == 0.0:
        eps = None
    else:
        eps = float(mollify_epsilon)
        _check_mollify_radius(eps, grid)
    times = np.linspace(0.0, horizon, SNAPSHOT_INTERVALS + 1)
    # Every time the march reads the paths: the RK4 stage times of each step
    # (upwind reads the last of them, the step's start) and the snapshot times.
    table = _path_table(paths, np.concatenate(_stage_times(np.arange(n_steps) * dt, dt)
                                              + (times,)))
    keys, shifts = table
    b_eff = b
    if eps is not None:
        # Drift queries stay within the box shifted by the path, plus one
        # RK4 stage displacement dt*|b|; the doubling covers speeds between
        # the probe times and beyond the box. The largest reach of the batch
        # is tabulated. The probe gets a workspace of its own, dropped before
        # the march sizes its slots.
        excursion = np.array([np.max(np.abs(path.values)) for path in paths])
        stage = cfl_number(_composed_drift(b, table, _Workspace(), grid), grid, dt, times) * grid.h
        b_eff = mollified_drift(b, eps, float(np.max(grid.half_width + excursion + 2.0 * stage)))

    ws = _Workspace()
    velocity = _composed_drift(b_eff, table, ws, grid)
    if scheme == "upwind_fv":
        cfl = float(np.max(cfl_number(velocity, grid, dt, times)))
        if cfl > _CFL_LIMIT:
            raise ConfigError(
                f"CFL number {cfl:.3f} exceeds {_CFL_LIMIT} for the upwind scheme"
            )

    advance = (functools.partial(_semi_lagrangian_block, ws=ws) if scheme == "semi_lagrangian"
               else _upwind_block)
    block = _block_steps(n_steps, grid.size)
    band = _margin_band(grid)
    v0_sup = float(np.max(np.abs(u0.values)))
    batch = range(len(paths))
    # W(0) = 0, so both frames start at u0 itself.
    fields, aux = [[u0] for _ in batch], [[u0] for _ in batch]
    snap_rows = _table_rows(keys, times)
    violations: list[list[int]] = [[] for _ in batch]
    vals = np.stack([u0.values] * len(paths))
    for start in range(0, n_steps, block):
        steps = np.arange(start, min(start + block, n_steps))
        # The checks below report what overflows here, so numpy need not warn.
        with np.errstate(over="ignore", invalid="ignore"):
            stack = advance(grid, vals, velocity, steps * dt, dt)
        finite = np.isfinite(stack).reshape(len(steps), len(paths), -1).all(axis=2)
        if not finite.all():
            i, p = np.argwhere(~finite)[0].tolist()
            raise BlowUpError(f"non-finite field at step {start + i + 1} of path {p}",
                              step=start + i + 1)
        for i, p in np.argwhere(_support_hits_margin(stack, band, v0_sup)).tolist():
            violations[p].append(start + i + 1)
        for i, step in enumerate(steps.tolist()):
            if (step + 1) % stride == 0:
                row = snap_rows[len(fields[0])]
                for p, u in enumerate(_shifted(grid, stack[i], shifts[row], ws)):
                    aux[p].append(ScalarField(grid, stack[i, p]))
                    fields[p].append(ScalarField(grid, u))
        vals = stack[-1]

    for p in batch:
        if violations[p]:
            where = f" in path {p}" if len(paths) > 1 else ""
            warnings.warn(f"solution support entered the wrap-around margin{where} at steps "
                          f"{_step_list(violations[p])}", SupportMarginWarning, stacklevel=2)
    return tuple(
        SpdeSolution(tuple(fields[p]), paths[p], aux_fields=tuple(aux[p]),
                     mollify_epsilon=eps, support_violations=tuple(violations[p]))
        for p in batch)


def exact_solution(b: DriftField, path: SamplePath, u0_profile: Profile, t: float,
                   grid: SpatialGrid) -> ScalarField:
    """Closed-form solution for zero or constant drift: u(t, x) = u0(x - c t - W(t)).

    Sampled analytically on the grid nodes; other drifts have no closed
    form here and raise ``ConfigError``.
    """
    if b.constant_value is None:
        raise ConfigError(f"no closed-form solution for drift {b.id!r}")
    delta = b.constant_value * float(t) + eval_path(path, float(t))
    return ScalarField.from_function(grid, lambda pts: u0_profile.fn(pts - delta))


# ---------------------------------------------------------------------------
# renormalization


def smoothed_truncated_power(M: float, p: float) -> Callable[[np.ndarray], np.ndarray]:
    """C^1 regularization beta of s -> (min(|s|, M))^p with blend width 1e-3 * M.

    Returns beta as a plain vectorized function of s. The raw truncated
    power has a derivative kink at |s| = M (and at the origin when
    p = 1); both are replaced by linear-derivative ramps over a band of
    width delta = 1e-3 * M, which keeps |beta'| below p * M^(p-1) while
    changing values only within O(delta * M^(p-1)).
    """
    if not (M > 0):
        raise ConfigError(f"truncation level must be positive, got {M}")
    if not (1.0 <= p < math.inf):
        raise ConfigError(f"power must satisfy 1 <= p < inf, got {p}")
    delta = 1.0e-3 * M
    if p == 1.0:
        def g(r):
            out = np.empty(r.shape)
            ramp = r < delta
            mid = (r >= delta) & (r < M - delta)
            blend = (r >= M - delta) & (r < M + delta)
            out[ramp] = r[ramp] ** 2 / (2.0 * delta)
            out[mid] = r[mid] - delta / 2.0
            rb = r[blend]
            out[blend] = M - delta / 2.0 - (M + delta - rb) ** 2 / (4.0 * delta)
            out[r >= M + delta] = M - delta / 2.0
            return out
    else:
        slope = p * (M - delta) ** (p - 1.0)
        cap = (M - delta) ** p + slope * delta

        def g(r):
            out = np.empty(r.shape)
            power = r < M - delta
            blend = (r >= M - delta) & (r < M + delta)
            out[power] = r[power] ** p
            rb = r[blend]
            out[blend] = (M - delta) ** p + slope * (
                4.0 * delta * delta - (M + delta - rb) ** 2
            ) / (4.0 * delta)
            out[r >= M + delta] = cap
            return out

    def beta(s):
        return g(np.abs(np.asarray(s, dtype=float)))

    return beta


@dataclass(frozen=True)
class RenormalizationReport:
    """Growth audit of I(t) = integral of beta(u(t)) against its envelope."""

    status: str  # "passed" | "failed" | "inconclusive"
    div_bound: float
    slack: float
    times: np.ndarray
    integrals: np.ndarray
    envelope: np.ndarray

    @property
    def passed(self) -> bool:
        return self.status == "passed"


def renormalize_check(
    sol: SpdeSolution,
    beta: Callable[[np.ndarray], np.ndarray],
    b: DriftField,
) -> RenormalizationReport:
    """Check I(t) = int beta(u(t, x)) dx against I(0) * exp((C + slack) t).

    ``beta`` is any vectorized function, such as the one
    :func:`smoothed_truncated_power` returns, applied to the snapshots
    ``sol.fields``, so a solution rebuilt from artifacts is audited too.
    C is the ``div_bound`` of ``drifts.check_hypotheses`` on the box; the
    slack is 0.1 * C plus a resolution term that vanishes under
    refinement. When C is not finite or exceeds
    ``drifts.EVIDENCE_CEILING`` the verdict is "inconclusive", with a NaN
    slack, rather than a failure.
    """
    grid = sol.grid
    horizon = float(sol.times[-1])
    window = [(-grid.half_width, grid.half_width)] * grid.d
    C = check_hypotheses(b, math.inf, window, horizon).div_bound
    if not math.isfinite(C) or C > EVIDENCE_CEILING:
        return RenormalizationReport(
            "inconclusive", C, math.nan, sol.times, np.array([]), np.array([])
        )
    spacing = float(sol.times[1] - sol.times[0])
    if spacing * C >= 0.1:
        raise ConfigError(
            f"snapshot spacing {spacing} too coarse for div bound {C}: need spacing*C < 0.1"
        )
    slack = 0.1 * C + (grid.h / grid.half_width + sol.dt / horizon) / horizon
    integrals = np.array(
        [float(np.sum(beta(f.values))) * grid.cell_volume for f in sol.fields]
    )
    envelope = integrals[0] * np.exp((C + slack) * sol.times)
    ok = bool(np.all(integrals <= envelope * (1.0 + 1.0e-12)))
    return RenormalizationReport(
        "passed" if ok else "failed", C, slack, sol.times, integrals, envelope
    )

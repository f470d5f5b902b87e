"""Pathwise solutions of the stochastic transport equation.

For a frozen realization of the driving path, the stochastic problem

    du + b(t, x) . grad u dt + grad u . dW = 0,    u(0) = u0,

is solved in one pass: ``solve_spde_batch`` marches the deterministic
advection problem for v with the path-shifted drift b(t, x + W(t)),
using the steppers of ``transport``, and translates each snapshot back:
u(t, x) = v(t, x - W(t)). It is the one march loop, and it serves every
driving path: a Brownian draw, the zero path, and the bounded-variation
interpolants that the Wong-Zakai approximation study feeds in. It takes
a batch of P paths on one grid, drift and initial field and steps them
together, with a leading path axis on every array; ``solve_spde`` is its
one-path case. The paths set the clock: a batch marches to their common
horizon T in their common K steps of T / K. Each path's result is the
same, bit for bit, whether it is solved alone or in any batch.

The paths are evaluated once per batch, at every RK4 stage time and
every snapshot time (``transport.path_table``), and a rough drift is
tabulated once per batch (``transport.mollified_drift``). The march then
runs on raw nodal arrays: after each step it checks that the values are
finite (``BlowUpError`` names the step and the path) and, path by path,
that they clear the wrap-around margin, and it builds a ``ScalarField``
only at the snapshots.

Renormalization checks integrate beta(v) of the unshifted field v, for
any vectorized beta, and compare its growth against the Gronwall envelope
driven by the divergence bound of ``drifts.check_hypotheses``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import transport
from .drifts import EVIDENCE_CEILING, DriftField, check_hypotheses
from .errors import BlowUpError, ConfigError, SupportMarginWarning
from .fields import ScalarField, SpatialGrid, shift_field
from .paths import SamplePath, eval_path
from .profiles import Profile
from .transport import (_CFL_LIMIT, SCHEMES, _check_mollify_radius, _margin_band,
                        _stage_times, _support_hits_margin, cfl_number,
                        composed_drift, mollified_drift, path_table)

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

    The solver also fills the remaining fields; a solution rebuilt from
    dumped artifacts leaves them at their defaults. ``aux_fields`` holds
    the advected field v at the same times, with ``aux_fields[0]`` the
    initial condition object itself. ``dt`` is the marching step and
    ``mollify_epsilon`` the radius the drift was smoothed with (None:
    not smoothed). ``support_violations`` lists the marching steps after
    which v carried a value above 1e-9 times sup|u0| in the wrap-around
    margin: the nodes within 10% of the half width of the box edge.
    """

    grid: SpatialGrid
    times: np.ndarray
    fields: tuple
    path: SamplePath
    aux_fields: tuple = ()
    dt: float | None = None
    mollify_epsilon: float | None = None
    support_violations: tuple = ()

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        times.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "fields", tuple(self.fields))
        if len(self.fields) != self.times.size:
            raise ConfigError(
                f"{len(self.fields)} snapshots for {self.times.size} snapshot times"
            )


def _step_list(steps, shown: int = 5) -> str:
    """The first ``shown`` marching steps as a list, ending in "..." when some are cut."""
    items = [str(s) for s in steps[:shown]] + (["..."] if len(steps) > shown else [])
    return f"[{', '.join(items)}]"


def solve_spde(
    b: DriftField,
    path: SamplePath,
    u0: ScalarField,
    scheme: str = "semi_lagrangian",
    mollify_epsilon: float | None = None,
) -> SpdeSolution:
    """Solve the transport SPDE along one Brownian, zero or bounded-variation path.

    The one-path case of :func:`solve_spde_batch`, which documents the
    parameters, the clock, the mollifier policy and the errors.
    """
    return _march(b, (path,), u0, scheme, mollify_epsilon)[0]


def solve_spde_batch(
    b: DriftField,
    paths,
    u0: ScalarField,
    scheme: str = "semi_lagrangian",
    mollify_epsilon: float | None = None,
) -> tuple[SpdeSolution, ...]:
    """Solve the transport SPDE along each path of a batch, in one march.

    The paths set the clock: the march runs to T = ``paths[0].horizon``
    in K = ``paths[0].n_steps`` steps of dt = T / K, and every path of the
    batch must have the same T and K. K must be a multiple of
    ``SNAPSHOT_INTERVALS``; the snapshots are taken at
    ``linspace(0, T, SNAPSHOT_INTERVALS + 1)``.

    Marches v for every path at once, values of shape (P, *grid.shape),
    with the path-shifted drift, and translates each snapshot by its path
    position: u(s, x) = v(s, x - W(s)). The first snapshot equals u0
    exactly since every path starts at the origin. A piecewise-linear
    interpolant on the full fine mesh has the knot values of its path bit
    for bit, so it reproduces the Brownian run bit for bit. Every value a
    path reads does not depend on the other paths of the batch, so each
    solution equals the path's solve alone, bit for bit.

    Parameters
    ----------
    b, paths, u0
        Drift field, a non-empty sequence of frozen driving paths, and the
        initial data they share.
    scheme : {"semi_lagrangian", "upwind_fv"}
        The upwind scheme additionally requires dt * sup|b| / h <= 0.9,
        estimated on the grid nodes at the snapshot times, for every path.
    mollify_epsilon
        None applies the default policy: drifts whose ``smooth`` flag is
        unset are convolved with a bump of radius 2h before stepping.
        Zero disables smoothing; a positive value forces that radius and
        must be at least h. The smoothed drift is tabulated once per batch by
        :func:`transport.mollified_drift`, with the largest reach of the
        batch; time-dependent drifts must be separable.

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
        Paths of differing horizon or step count, a step count that is not
        a multiple of ``SNAPSHOT_INTERVALS``, a dimension mismatch, an empty
        batch, CFL violation, unknown scheme, a sub-grid mollifier radius,
        a non-separable time-dependent drift to smooth.
    BlowUpError
        Non-finite values after a marching step, naming the step and the
        path, or a drift query beyond the mollifier table.
    """
    return _march(b, tuple(paths), u0, scheme, mollify_epsilon)


def _march(b, paths, u0, scheme, mollify_epsilon):
    """The march of both entry points; it warns at the frame that called either."""
    grid = u0.grid
    if not paths:
        raise ConfigError("a batch needs at least one path")
    if scheme not in SCHEMES:
        raise ConfigError(f"unknown scheme {scheme!r}; choose from {SCHEMES}")
    horizon, n_steps = paths[0].horizon, paths[0].n_steps
    for path in paths:
        if b.d != grid.d or path.d != grid.d:
            raise ConfigError(
                f"dimension mismatch: grid d={grid.d}, drift d={b.d}, path d={path.d}"
            )
        if (path.horizon, path.n_steps) != (horizon, n_steps):
            raise ConfigError(
                f"the paths of a batch share one clock: horizon {path.horizon} in "
                f"{path.n_steps} steps against {horizon} in {n_steps}")
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
        _check_mollify_radius(eps, grid.h)
    times = np.linspace(0.0, horizon, SNAPSHOT_INTERVALS + 1)
    # Every time the march reads the paths: the RK4 stage times of each step
    # (upwind reads the last of them, the step's start) and the snapshot times.
    table = path_table(paths, np.concatenate(_stage_times(np.arange(n_steps) * dt, dt)
                                             + (times,)))
    rows, shifts = table
    b_eff = b
    if eps is not None:
        # Drift queries stay within the box shifted by the path, plus one
        # RK4 stage displacement dt*|b|; the doubling covers speeds between
        # the probe times and beyond the box. One table serves the batch,
        # so it covers the largest of the paths' reaches.
        excursion = np.array([np.max(np.abs(path.values)) for path in paths])
        stage = cfl_number(composed_drift(b, table), grid, dt, times) * grid.h
        b_eff = mollified_drift(b, eps, float(np.max(grid.half_width + excursion + 2.0 * stage)))

    velocity = composed_drift(b_eff, table)
    if scheme == "upwind_fv":
        cfl = float(np.max(cfl_number(velocity, grid, dt, times)))
        if cfl > _CFL_LIMIT:
            raise ConfigError(
                f"CFL number {cfl:.3f} exceeds {_CFL_LIMIT} for the upwind scheme"
            )

    # Looked up per solve, not bound at import, so a replaced module
    # attribute (a profiler's wrapper) is the one that runs.
    advance = (transport.semi_lagrangian_step if scheme == "semi_lagrangian"
               else transport.upwind_fv_step)
    band = _margin_band(grid)
    v0_sup = float(np.max(np.abs(u0.values)))
    batch = range(len(paths))
    aux = [[u0] for _ in batch]
    fields = [[shift_field(u0, shifts[rows[0.0], p])] for p in batch]
    violations: list[list[int]] = [[] for _ in batch]
    vals = np.stack([u0.values] * len(paths))
    for step in range(n_steps):
        vals = advance(grid, vals, velocity, step * dt, dt)
        if not np.isfinite(vals).all():
            p = int(np.argmin(np.isfinite(vals).reshape(len(paths), -1).all(axis=1)))
            raise BlowUpError(f"non-finite field at step {step + 1} of path {p}",
                              step=step + 1)
        hits = _support_hits_margin(vals, band, v0_sup)
        if hits.any():
            for p in np.flatnonzero(hits):
                violations[p].append(step + 1)
        if (step + 1) % stride == 0:
            row = rows[float(times[len(fields[0])])]
            for p in batch:
                v = ScalarField(grid, vals[p])
                aux[p].append(v)
                fields[p].append(shift_field(v, shifts[row, p]))

    for p in batch:
        if violations[p]:
            where = f" in path {p}" if len(paths) > 1 else ""
            warnings.warn(f"solution support entered the wrap-around margin{where} at steps "
                          f"{_step_list(violations[p])}", SupportMarginWarning, stacklevel=3)
    return tuple(
        SpdeSolution(grid, times, tuple(fields[p]), paths[p], aux_fields=tuple(aux[p]), dt=dt,
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
    """Growth audit of I(t) = integral of beta(v(t)) against its envelope."""

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
    """Check I(t) = int beta(v(t, x)) dx against I(0) * exp((C + slack) t).

    ``beta`` is any vectorized function, such as the one
    :func:`smoothed_truncated_power` returns, applied to the solver's
    unshifted snapshots ``sol.aux_fields``. C is the ``div_bound`` of
    ``drifts.check_hypotheses`` on the box; the slack is 0.1 * C plus a
    resolution term that vanishes under refinement. When C is not finite
    or exceeds ``drifts.EVIDENCE_CEILING`` the verdict is "inconclusive",
    with a NaN slack, rather than a failure.
    """
    if not sol.aux_fields:
        raise ConfigError("solution carries no transport snapshots to renormalize")
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
        [float(np.sum(beta(f.values))) * grid.cell_volume for f in sol.aux_fields]
    )
    envelope = integrals[0] * np.exp((C + slack) * sol.times)
    ok = bool(np.all(integrals <= envelope * (1.0 + 1.0e-12)))
    return RenormalizationReport(
        "passed" if ok else "failed", C, slack, sol.times, integrals, envelope
    )

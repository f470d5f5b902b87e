"""Deterministic transport stepping with a path-shifted drift.

The auxiliary problem behind the pathwise representation is the linear
advection equation

    dv/dt + b(t, x + W(t)) . grad v = 0,    v(0) = u0,

on a periodic box, where W is a frozen realization of the driving path.
``spde.solve_spde`` marches it with the two steppers here: semi-Lagrangian
(RK4 backtracking of characteristic feet plus clamped cubic
interpolation) and first-order upwind finite volume in advective form.
Both step raw nodal arrays, (grid, values) -> new values, with no field
object per step. An RK4 characteristics integrator doubles as the
convergence oracle for both.

Since the path is frozen, every time a march will query is known before
it starts: ``_stage_times`` gives the three RK4 stage times of a step,
``path_table`` evaluates W at all of them in one vectorized
``eval_path`` call, and ``composed_drift`` reads its shift W(t) from that
table. A query at a time the table lacks is an error, not a fallback.

Rough drifts are smoothed in space before stepping: the solver replaces
b by its convolution with a bump kernel of radius 2h, computed once per
solve by ``mollified_drift`` on one lattice that covers the box, the
path excursion and the RK4 stage displacements, with the grid kernel of
``fields.MollifierSpec``; every velocity call is then a table lookup. A
time-modulated drift g(t) * b(x) is tabulated through b and scaled by
g(t) per call.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np
from scipy import ndimage

from .drifts import DriftField, eval_drift
from .errors import BlowUpError, ConfigError, KernelResolutionError
from .fields import MollifierSpec, ScalarField, SpatialGrid, _cubic_read, interpolate
from .paths import SamplePath, eval_path

__all__ = [
    "semi_lagrangian_step",
    "upwind_fv_step",
    "characteristics_solve",
    "mollified_drift",
    "composed_drift",
    "path_table",
    "cfl_number",
]

SCHEMES = ("semi_lagrangian", "upwind_fv")

#: Fraction of the half width treated as the wrap-around danger zone.
SUPPORT_MARGIN_FRACTION = 0.1

#: Values below this multiple of the initial sup norm count as numerically zero
#: for support monitoring.
_SUPPORT_VALUE_RTOL = 1.0e-9

_CFL_LIMIT = 0.9


def _stage_times(t: float, dt: float) -> tuple[float, float, float]:
    """The times one RK4 step from t + dt back to t reads the velocity at."""
    return (t + dt, t + 0.5 * dt, t)


def path_table(path: SamplePath, times) -> dict:
    """W at each of ``times``, from one vectorized ``eval_path`` call, keyed by the time.

    The keys are the times as floats, so a marcher that recomputes a
    query time by the same expression (``_stage_times``) finds its row.
    """
    keys = [float(t) for t in times]
    return dict(zip(keys, eval_path(path, np.array(keys))))


def composed_drift(b: DriftField, shifts: dict) -> Callable[[float, np.ndarray], np.ndarray]:
    """The shifted velocity (t, x) -> b(t, x + W(t)) used by the marchers.

    ``shifts`` is the ``path_table`` of every time the caller will query:
    the path is evaluated once per solve, before the march, and each call
    reads its shift from that table. A time not in the table raises
    ``KeyError``; the path is never evaluated per call.
    """

    def velocity(t, points):
        try:
            shift = shifts[t]
        except KeyError:
            raise KeyError(f"no path shift tabulated for t={t!r}") from None
        return eval_drift(b, t, np.asarray(points, dtype=float) + shift)

    return velocity


# ---------------------------------------------------------------------------
# drift mollification


#: Lattice steps per mollifier radius. The 1D table is read by linear
#: interpolation (np.interp) and needs the finer lattice; the 2D table is
#: read by cubic interpolation, which resolves the kernel on a coarser
#: lattice and keeps the n**2 table small.
_STEPS_PER_RADIUS = {1: 64, 2: 8}


def mollified_drift(b: DriftField, epsilon: float, reach: float) -> DriftField:
    """Smooth a drift in space by convolution with the radius-epsilon bump.

    The drift's autonomous factor is sampled once on a lattice of spacing
    epsilon/64 (1D) or epsilon/8 (2D) that covers the cube |x_i| <= reach
    plus the kernel radius and the interpolation stencil, and convolved
    there with ``MollifierSpec(epsilon, d).grid_kernel``. Each call is then
    a lookup: linear interpolation in 1D, cubic ``interpolate`` in 2D; a
    query beyond the reach raises ``BlowUpError``. A time-modulated field
    g(t) * b(x) (see ``DriftField.factors``) is tabulated through b and
    scaled by g(t) per call, since mollifying commutes with the gain; any
    other time-dependent field is rejected with ``ConfigError``. The
    Jacobian rule is the central difference of the tables.
    """
    if not (epsilon > 0 and math.isfinite(epsilon)):
        raise ConfigError(f"mollification radius must be positive, got {epsilon}")
    if not (reach > 0 and math.isfinite(reach)):
        raise ConfigError(f"mollifier table reach must be positive, got {reach}")
    gain, base = b.factors or (None, b)
    if base.time_dependent:
        raise ConfigError(
            f"cannot mollify {b.id!r}: a time-dependent drift must be separable, g(t) * b(x)"
        )
    d = b.d
    delta = epsilon / _STEPS_PER_RADIUS[d]
    n = int(math.ceil(2.0 * (reach + epsilon + 3.0 * delta) / delta))
    lattice = SpatialGrid(d, 0.5 * n * delta, n)
    samples = eval_drift(base, 0.0, lattice.nodes()).reshape(lattice.shape + (d,))
    kernel = MollifierSpec(epsilon, d).grid_kernel(lattice.h)
    smooth = [ndimage.convolve(samples[..., a], kernel, mode="nearest") for a in range(d)]
    axis = lattice.axis()
    tables = [ScalarField(lattice, c) for c in smooth]
    # Differentiating the tables never evaluates the base Jacobian, which
    # may be singular on a lattice node (|x|^(alpha-1) at x = 0).
    jac_tables = [[ScalarField(lattice, np.gradient(c, lattice.h, axis=a)) for a in range(d)]
                  for c in smooth]

    def read(table, t, points):
        pts = np.asarray(points, dtype=float)
        if np.abs(pts).max(initial=0.0) > reach:
            raise BlowUpError(f"mollified drift queried at |x_i| > {reach}, beyond its table")
        out = np.interp(pts[..., 0], axis, table.values) if d == 1 else interpolate(table, pts)
        return out if gain is None else gain(t) * out

    def fn(t, points):
        if d == 1:
            return read(tables[0], t, points)[..., None]
        return np.stack([read(table, t, points) for table in tables], axis=-1)

    def jacobian(t, points):
        return np.stack([np.stack([read(table, t, points) for table in row], axis=-1)
                         for row in jac_tables], axis=-2)

    return DriftField(
        f"{b.id}~eps", d, fn, jacobian,
        regularity_tags=(b.regularity_tags | {"smooth", "mollified"}),
        time_dependent=b.time_dependent,
        params={**b.params, "mollify_epsilon": float(epsilon)},
    )


# ---------------------------------------------------------------------------
# stepping


def _rk4_feet(velocity, points, t: float, dt: float) -> np.ndarray:
    """One backward RK4 step of the characteristic ODE from t+dt down to t."""
    t_end, t_mid, t_start = _stage_times(t, dt)
    k1 = velocity(t_end, points)
    k2 = velocity(t_mid, points - 0.5 * dt * k1)
    k3 = velocity(t_mid, points - 0.5 * dt * k2)
    k4 = velocity(t_start, points - dt * k3)
    return points - (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def semi_lagrangian_step(grid: SpatialGrid, vals: np.ndarray, velocity, t: float,
                         dt: float) -> np.ndarray:
    """Advance the nodal values one step: backtrack feet with RK4, read off by
    clamped cubic interpolation.

    Clamping the cubic stencil enforces a discrete maximum principle.
    Returns a new array of shape ``grid.shape``.
    """
    feet = _rk4_feet(velocity, grid.nodes(), t, dt)
    return _cubic_read(grid, vals, feet, clamp=True).reshape(grid.shape)


def upwind_fv_step(grid: SpatialGrid, vals: np.ndarray, velocity, t: float,
                   dt: float) -> np.ndarray:
    """One first-order upwind step of the advective form on the nodal values,
    split by axis sign. Returns a new array of shape ``grid.shape``."""
    vel = velocity(t, grid.nodes()).reshape(grid.shape + (grid.d,))
    new = vals.copy()
    h = grid.h
    for axis in range(grid.d):
        c = vel[..., axis]
        back = (vals - np.roll(vals, 1, axis=axis)) / h
        fwd = (np.roll(vals, -1, axis=axis) - vals) / h
        new -= dt * (np.maximum(c, 0.0) * back + np.minimum(c, 0.0) * fwd)
    return new


def characteristics_solve(
    b: DriftField,
    path: SamplePath,
    x0,
    t0: float,
    t1: float,
    max_step: float = 1.0e-2,
    blowup_radius: float = math.inf,
) -> np.ndarray:
    """Trace characteristics dX/ds = b(s, X + W(s)) from t0 to t1 with RK4.

    ``x0`` may be a single point (d,) or a batch (..., d); the returned
    array matches its shape. Positions exceeding ``blowup_radius`` raise
    ``BlowUpError``. Works in either time direction: each substep is the
    semi-Lagrangian RK4 step run with the opposite sign.
    """
    span = t1 - t0
    if span == 0.0:
        return np.array(x0, dtype=float)
    n_sub = max(1, int(math.ceil(abs(span) / max_step)))
    dt = span / n_sub
    starts = [t0 + i * dt + dt for i in range(n_sub)]
    velocity = composed_drift(
        b, path_table(path, [s for t in starts for s in _stage_times(t, -dt)]))
    x = np.array(x0, dtype=float)
    for i, t in enumerate(starts):
        x = _rk4_feet(velocity, x, t, -dt)
        if not np.all(np.isfinite(x)) or np.max(np.abs(x)) > blowup_radius:
            raise BlowUpError(f"characteristic left the trusted region at substep {i}", step=i)
    return x


def cfl_number(velocity, grid: SpatialGrid, dt: float, times) -> float:
    """Largest dt * |velocity|_1 / h over the grid nodes at the sampled times."""
    nodes = grid.nodes()
    vmax = 0.0
    for t in np.atleast_1d(times):
        vel = velocity(float(t), nodes)
        vmax = max(vmax, float(np.max(np.sum(np.abs(vel), axis=-1))))
    return dt * vmax / grid.h


def _margin_band(grid: SpatialGrid) -> np.ndarray:
    """Mask of the wrap-around margin: nodes within 10% of the half width
    (at least one cell) of the box edge along some axis."""
    width = max(1, int(math.ceil(SUPPORT_MARGIN_FRACTION * grid.half_width / grid.h)))
    index = np.arange(grid.n)
    edge = (index < width) | (index >= grid.n - width)
    return np.logical_or.reduce(np.meshgrid(*[edge] * grid.d, indexing="ij"))


def _support_hits_margin(vals: np.ndarray, band: np.ndarray, v0_sup: float) -> bool:
    """Whether the nodal values exceed 1e-9 * v0_sup anywhere in the margin ``band``."""
    tol = _SUPPORT_VALUE_RTOL * max(v0_sup, 1.0e-300)
    return bool(np.any(np.abs(vals[band]) > tol))


def _step_count(dt: float, horizon: float) -> int:
    """Number of steps of size dt in [0, horizon]; dt must divide the horizon."""
    n_steps = int(round(horizon / dt))
    if n_steps < 1 or abs(n_steps * dt - horizon) > 1.0e-9 * horizon:
        raise ConfigError(f"dt={dt} does not divide the horizon {horizon}")
    return n_steps


def _check_mollify_radius(epsilon: float, h: float) -> None:
    """A forced mollifier radius must be zero (no smoothing) or at least h."""
    if 0.0 < epsilon < h:
        raise KernelResolutionError(
            f"mollify_eps={epsilon} is below the grid spacing h={h}; "
            f"use 0 to disable smoothing or a radius of at least h"
        )

"""Deterministic transport stepping with a path-shifted drift.

The auxiliary problem behind the pathwise representation is the linear
advection equation

    dv/dt + b(t, x + W(t)) . grad v = 0,    v(0) = u0,

on a periodic box, where W is a frozen realization of the driving path.
``spde.solve_spde_batch`` marches it for a batch of P paths at once with
the two steppers here: semi-Lagrangian (RK4 backtracking of
characteristic feet plus clamped cubic interpolation) and first-order
upwind finite volume in advective form. Both step raw nodal arrays with
a leading path axis, (grid, values of shape (P, *grid.shape)) -> new
values, with no field object per step; the velocity is read at (P, Q, d)
points. An RK4 characteristics integrator doubles as the convergence
oracle for both.

Since the paths are frozen, every time a march will query is known
before it starts: ``_stage_times`` gives the three RK4 stage times of a
step, ``path_table`` evaluates every path at all of them, one vectorized
``eval_path`` call per path, into one (M, P, d) array with one time ->
row dict, and ``composed_drift`` reads its shifts W_p(t) from that
table. A query at a time the table lacks is an error, not a fallback.

Rough drifts are smoothed in space before stepping: the solver replaces
b by its convolution with a bump kernel of radius 2h, computed once per
batch by ``mollified_drift`` on a lattice anchored at the origin (nodes
delta * k for integer k) that covers the box, the largest path excursion
of the batch and the RK4 stage displacements, with the kernel
``profiles.bump`` sampled on that lattice. The tables hold drift values
only, no derivatives; every velocity call is then a table lookup, in 2D
by the 4 x 4 window read of the grid fields.
A larger reach only adds nodes, so every value a path reads is the same,
bit for bit, whether it is solved alone or in any batch. A
time-modulated drift g(t) * b(x) is tabulated through b and scaled by
g(t) per call.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .drifts import DriftField, eval_drift
from .errors import BlowUpError, ConfigError, KernelResolutionError
from .fields import SpatialGrid, _cubic_read, _window_sum
from .paths import SamplePath, eval_path
from .profiles import bump

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


def _stage_times(t, dt: float):
    """The times one RK4 step from t + dt back to t reads the velocity at.

    ``t`` may be an array of step starts; the arithmetic is the same.
    """
    return (t + dt, t + 0.5 * dt, t)


def path_table(paths, times) -> tuple[dict, np.ndarray]:
    """Every path of a batch at each of ``times``: one vectorized ``eval_path`` call per path.

    Returns ``(rows, shifts)``. ``shifts`` has shape (M, P, d), one row
    per distinct time and one column per path, and ``rows`` maps each
    time, as a float, to its row. A marcher that recomputes a query time
    by the same expression (``_stage_times``) finds its row.
    """
    keys = np.unique(np.asarray(times, dtype=float))
    rows = dict(zip(keys.tolist(), range(keys.size)))
    return rows, np.stack([eval_path(path, keys) for path in paths], axis=1)


def composed_drift(b: DriftField, table) -> Callable[[float, np.ndarray], np.ndarray]:
    """The shifted velocities (t, x) -> b(t, x + W_p(t)) of a batch of paths.

    ``table`` is the ``path_table`` of every time the caller will query:
    the paths are evaluated once per batch, before the march, and each
    call reads its shifts from that table. A time not in the table raises
    ``KeyError``; no path is evaluated per call. The points have shape
    (Q, d), shared by every path, or (P, Q, d), one row per path; the
    velocities have shape (P, Q, d).
    """
    rows, shifts = table
    shifts = shifts[:, :, None, :]  # each row broadcasts over the points

    def velocity(t, points):
        try:
            row = rows[t]
        except KeyError:
            raise KeyError(f"no path shift tabulated for t={t!r}") from None
        return eval_drift(b, t, np.asarray(points, dtype=float) + shifts[row])

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

    The drift's autonomous factor is sampled once on the lattice of nodes
    delta * k, for integers |k| <= K, with delta = epsilon/64 (1D) or
    epsilon/8 (2D) and K large enough to cover the cube |x_i| <= reach
    plus the kernel radius and the interpolation stencil, and convolved
    there with ``profiles.bump(d, 0, epsilon)`` sampled at the lattice
    offsets and scaled to unit sum (``_bump_kernel``). The lattice is
    anchored at the origin, so a larger reach only adds nodes: every
    value read within a reach is the same, bit for bit, on every table
    that covers it. Each call is then a lookup: linear interpolation in
    1D; in 2D the cubic rule of ``fields.interpolate``, whose stencil
    around node k = floor(x/delta) is one 4 x 4 window of every component
    table: the lattice holds the stencil margin, so the tables need no
    padding. A query beyond the reach raises ``BlowUpError``. A
    time-modulated field g(t) * b(x) (see ``DriftField.factors``) is
    tabulated through b and scaled by g(t) per call, since mollifying
    commutes with the gain; any other time-dependent field is rejected
    with ``ConfigError``. The tables hold values only, so the result states
    no Jacobian; it is marked ``smooth``, so a solver steps it as it is.
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
    K = int(math.ceil((reach + epsilon) / delta)) + 3
    axis = delta * np.arange(-K, K + 1)
    nodes = np.stack(np.meshgrid(*[axis] * d, indexing="ij"), axis=-1).reshape(-1, d)
    samples = eval_drift(base, 0.0, nodes).reshape((axis.size,) * d + (d,))
    kernel = _bump_kernel(d, epsilon, delta)
    smooth = [_convolve_nearest(samples[..., a], kernel) for a in range(d)]
    # 1D: one table; 2D: the component tables channel first, (2, 2K + 1, 2K + 1)
    table = smooth[0] if d == 1 else np.stack(smooth)

    def fn(t, points):
        pts = np.asarray(points, dtype=float)
        if np.abs(pts).max(initial=0.0) > reach:
            raise BlowUpError(f"mollified drift queried at |x_i| > {reach}, beyond its table")
        if d == 1:
            out = np.interp(pts[..., 0], axis, table)[..., None]
        else:
            q = pts.reshape(-1, 2) / delta
            k = np.floor(q)
            first = k.astype(np.int64) + (K - 1)  # the stencil around node k starts here
            out = _window_sum(table, (slice(None), *first.T), q - k)
            out = out.T.reshape(pts.shape[:-1] + (table.shape[0],))
        return out if gain is None else gain(t) * out

    return DriftField(f"{b.id}~eps", d, fn, smooth=True, time_dependent=b.time_dependent)


def _bump_kernel(d: int, epsilon: float, delta: float) -> np.ndarray:
    """The radius-epsilon bump at the offsets delta * k with |k_i| * delta <= epsilon,
    divided by its sum: nonnegative weights that sum to one, shape (2r + 1,) * d."""
    reach = int(math.floor(epsilon / delta))
    offs = delta * np.arange(-reach, reach + 1)
    pts = np.stack(np.meshgrid(*[offs] * d, indexing="ij"), axis=-1)
    w = bump(d, 0.0, epsilon).fn(pts)
    return w / w.sum()


def _convolve_nearest(table: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Convolve ``table`` with a symmetric ``kernel`` of odd side, the table
    extended beyond its edges by its edge values.

    The sum starts from zero and adds window * w for each nonzero tap, in C
    order. A symmetric kernel makes convolution and correlation the same
    sum. The tests hold it equal, bit for bit, to a reference "nearest"-mode
    convolution on 1D and 2D drift tables with ``_bump_kernel`` weights.
    """
    r = kernel.shape[0] // 2
    padded = np.pad(table, r, mode="edge")
    out = np.zeros(table.shape)
    for tap in np.argwhere(kernel):
        window = padded[tuple(slice(k, k + n) for k, n in zip(tap, table.shape))]
        out += window * kernel[tuple(tap)]
    return out


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
    """Advance a batch of nodal values one step: backtrack feet with RK4,
    read off by clamped cubic interpolation.

    ``vals`` has shape (P, *grid.shape) and ``velocity`` returns (P, Q, d)
    velocities at the grid nodes; each path's feet are read from its own
    values. Clamping the cubic stencil enforces a discrete maximum
    principle. Returns a new array of the shape of ``vals``.
    """
    feet = _rk4_feet(velocity, grid.nodes(), t, dt)
    return _cubic_read(grid, vals, feet, clamp=True).reshape(vals.shape)


def upwind_fv_step(grid: SpatialGrid, vals: np.ndarray, velocity, t: float,
                   dt: float) -> np.ndarray:
    """One first-order upwind step of the advective form on a batch of nodal
    values, split by axis sign.

    ``vals`` has shape (P, *grid.shape), or ``grid.shape`` for a single
    field, and ``velocity`` returns matching velocities at the grid nodes.
    Returns a new array of the shape of ``vals``.
    """
    vel = velocity(t, grid.nodes()).reshape(vals.shape + (grid.d,))
    new = vals.copy()
    h = grid.h
    for axis in range(grid.d):
        c = vel[..., axis]
        along = axis - grid.d  # the spatial axes are the trailing ones
        back = (vals - np.roll(vals, 1, axis=along)) / h
        fwd = (np.roll(vals, -1, axis=along) - vals) / h
        new -= dt * (np.maximum(c, 0.0) * back + np.minimum(c, 0.0) * fwd)
    return new


def characteristics_solve(
    b: DriftField,
    path: SamplePath,
    x0,
    t0: float,
    t1: float,
    blowup_radius: float = math.inf,
) -> np.ndarray:
    """Trace characteristics dX/ds = b(s, X + W(s)) from t0 to t1 with RK4.

    ``x0`` may be a single point (d,) or a batch (..., d); the returned
    array matches its shape. Positions exceeding ``blowup_radius`` raise
    ``BlowUpError``. Works in either time direction: each substep is the
    semi-Lagrangian RK4 step run with the opposite sign. The substeps are
    equal and at most 0.01 long.
    """
    span = t1 - t0
    if span == 0.0:
        return np.array(x0, dtype=float)
    n_sub = max(1, int(math.ceil(abs(span) / 1.0e-2)))
    dt = span / n_sub
    starts = [t0 + i * dt + dt for i in range(n_sub)]
    velocity = composed_drift(
        b, path_table([path], [s for t in starts for s in _stage_times(t, -dt)]))
    shape = np.shape(x0)
    x = np.array(x0, dtype=float).reshape(1, -1, shape[-1])  # a batch of one path
    for i, t in enumerate(starts):
        x = _rk4_feet(velocity, x, t, -dt)
        if not np.all(np.isfinite(x)) or np.max(np.abs(x)) > blowup_radius:
            raise BlowUpError(f"characteristic left the trusted region at substep {i}", step=i)
    return x.reshape(shape)


def cfl_number(velocity, grid: SpatialGrid, dt: float, times):
    """Largest dt * |velocity|_1 / h over the grid nodes at the sampled times.

    A batched velocity, of shape (P, Q, d), gives one number per path.
    """
    nodes = grid.nodes()
    vmax = 0.0
    for t in np.atleast_1d(times):
        vel = velocity(float(t), nodes)
        vmax = np.maximum(vmax, np.max(np.sum(np.abs(vel), axis=-1), axis=-1))
    return dt * vmax / grid.h


def _margin_band(grid: SpatialGrid) -> np.ndarray:
    """Mask of the wrap-around margin: nodes within 10% of the half width
    (at least one cell) of the box edge along some axis."""
    width = max(1, int(math.ceil(SUPPORT_MARGIN_FRACTION * grid.half_width / grid.h)))
    index = np.arange(grid.n)
    edge = (index < width) | (index >= grid.n - width)
    return np.logical_or.reduce(np.meshgrid(*[edge] * grid.d, indexing="ij"))


def _support_hits_margin(vals: np.ndarray, band: np.ndarray, v0_sup: float):
    """Whether the nodal values exceed 1e-9 * v0_sup anywhere in the margin ``band``:
    one bool for values of ``grid.shape``, one per path for (P, *grid.shape)."""
    tol = _SUPPORT_VALUE_RTOL * max(v0_sup, 1.0e-300)
    return np.any(np.abs(vals[..., band]) > tol, axis=-1)


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

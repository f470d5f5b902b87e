"""Deterministic transport stepping with a path-shifted drift.

The auxiliary problem of the pathwise representation is the linear
advection equation

    dv/dt + b(t, x + W(t)) . grad v = 0,    v(0) = u0,

on a periodic box, for a frozen path W; ``spde.solve_spde`` marches it,
and the ``spde`` module docstring gives the march. This module owns:

- the shifted velocity: the table of path shifts (``_path_table``, read
  by ``_table_rows``) and the velocity that reads it (``_composed_drift``,
  which also states the node read of a drift with ``on_axes``);
- the two block steppers, semi-Lagrangian (RK4 backtracking of feet and
  clamped cubic reads: ``_semi_lagrangian_block``) and first-order upwind
  finite volume in advective form (``_upwind_block``), which step raw
  nodal arrays of shape (P, *grid.shape) by the B steps that start at an
  array of times, one step being a block of one;
- the drift smoothed by a bump before stepping (``mollified_drift``), a
  table lookup in 1D by ``_lattice_interp`` and in 2D by
  ``fields._window_sum``;
- the CFL number and the wrap-around margin of the support check.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Callable

import numpy as np

from .drifts import DriftField, _drift_read, eval_drift
from .errors import BlowUpError, ConfigError
from .fields import (SpatialGrid, _cubic_plan, _cubic_reader, _cubic_weights, _window_sum,
                     _Workspace)
from .paths import eval_path
from .profiles import bump

__all__ = [
    "mollified_drift",
    "cfl_number",
]

#: Fraction of the half width treated as the wrap-around danger zone.
SUPPORT_MARGIN_FRACTION = 0.1

#: Values below this multiple of the initial sup norm count as numerically zero
#: for support monitoring.
_SUPPORT_VALUE_RTOL = 1.0e-9

_CFL_LIMIT = 0.9


def _stage_times(t, dt: float):
    """The times one RK4 step from t + dt back to t reads the velocity at;
    ``t`` may be an array of step starts."""
    return (t + dt, t + 0.5 * dt, t)


def _path_table(paths, times) -> tuple[np.ndarray, np.ndarray]:
    """Every path of a batch at each of ``times``, one vectorized ``eval_path``
    call per path: ``(keys, shifts)``.

    ``keys`` holds the distinct times, sorted, as one float64 array, and
    ``shifts`` has shape (M, P, d): row m holds every path at ``keys[m]``.
    ``_table_rows`` finds the rows of query times; a marcher that recomputes
    a query time by the same expression (``_stage_times``) finds its row.
    The keys are the array numpy's ``unique`` returns, made without it: its
    first call imports ``numpy.ma``, which costs a march milliseconds and a
    megabyte of peak memory.
    """
    keys = np.sort(np.asarray(times, dtype=float), axis=None)
    distinct = np.ones(keys.shape, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=distinct[1:])
    keys = keys[distinct]
    return keys, np.stack([eval_path(path, keys) for path in paths], axis=1)


def _table_rows(keys: np.ndarray, t):
    """The rows of ``_path_table`` keys at time ``t``, a float or a 1-D array.

    A row is found by binary search and must hold exactly the time asked
    for: a time the table lacks raises ``KeyError`` naming the first such
    time.
    """
    at = keys.searchsorted(t)
    found = keys.take(at, mode="clip") == t
    if not np.logical_and.reduce(found, axis=None):
        missing = np.ravel(t)[np.argmin(np.ravel(found))]
        raise KeyError(f"no path shift tabulated for t={float(missing)!r}")
    return at


def _composed_drift(b: DriftField, table, ws: _Workspace, grid: SpatialGrid) -> Callable:
    """The shifted velocities (t, x) -> b(t, x + W_p(t)) of a batch of paths,
    each call reading W_p(t) from ``table``, the ``_path_table`` of every
    time the caller will query; a time not in it raises ``KeyError``.

    The points have shape (Q, d), shared by every path, or (P, Q, d), one
    row per path; the velocities have shape (P, Q, d). ``t`` may also be a
    1-D array of B times, with points of shape (Q, d) or (B, P, Q, d): the
    velocities then have shape (B, P, Q, d), from one drift read. The
    shifted points go to slot x0 of the workspace ``ws``, so the points
    asked about must not live there.

    A read at the grid's own node array, the very array ``grid.nodes()``
    returns, is a node read: the points nodes + W_p(t) form the tensor grid
    of the shifted axes ``grid.axis() + W_p,a(t)``, so a drift that states
    ``on_axes`` (``drifts.DriftField``) is read there, on d arrays of n
    coordinates, with the gain and the finiteness check of ``eval_drift``;
    it equals the read at the shifted nodes bit for bit. RK4 stage 1 of a
    semi-Lagrangian step, every upwind read and every CFL probe are node
    reads. Any other drift, and any other points, take ``fn`` at the
    shifted points.
    """
    keys, shifts = table
    shifts = shifts[:, :, None, :]  # each row broadcasts over the points
    nodes, axis = grid.nodes(), grid.axis()

    def velocity(t, points):
        at = _table_rows(keys, t)
        shift = shifts[at]
        if points is nodes and b.on_axes is not None:
            axes = [axis + shift[..., a] for a in range(grid.d)]
            out = _drift_read(b, t, b.on_axes, *axes)
            return out.reshape(out.shape[:-grid.d - 1] + nodes.shape)
        points = np.asarray(points, dtype=float)
        # (Q, d) points, or one row per path, with one shift row per path and time
        out = ws.array("x0", shift.shape[:-2] + points.shape[-2:])
        # axis by axis: numpy adds a shift broadcast over the points in loops of d elements
        for a in range(grid.d):
            np.add(points[..., a], shift[..., a], out=out[..., a])
        return eval_drift(b, t, out)

    return velocity


# ---------------------------------------------------------------------------
# drift mollification


#: Lattice steps per mollifier radius. The 1D table is read by linear
#: interpolation (``_lattice_interp``) and needs the finer lattice, whose
#: spacing is rounded down to a power of two for that read; the 2D table is
#: read by cubic interpolation, which resolves the kernel on a coarser
#: lattice and keeps the n**2 table small.
_STEPS_PER_RADIUS = {1: 64, 2: 8}

#: The most nodes a mollified drift's table may hold, over all its axes.
_MAX_TABLE_NODES = 2**22


def mollified_drift(b: DriftField, epsilon: float, reach: float) -> DriftField:
    """Smooth a drift in space by convolution with the radius-epsilon bump.

    The drift's autonomous factor ``b.fn`` is sampled once on the lattice
    of nodes delta * k, for integers |k| <= K, with delta the largest
    power of two not above epsilon/64 in 1D, epsilon/8 in 2D, and K large
    enough to cover the cube |x_i| <= reach plus the kernel radius and
    the interpolation stencil, and convolved there with
    ``profiles.bump(d, 0, epsilon)`` sampled at the lattice offsets and
    scaled to unit sum (``_bump_kernel``). The lattice is anchored at the
    origin, so a larger reach only adds nodes: every value read within a
    reach is the same, bit for bit, on every table that covers it, and a
    batch's table, which covers the largest reach of its paths, reads for
    each path what the path's own table would. A call is a lookup: in 1D
    linear interpolation equal to ``np.interp`` (``_lattice_interp``), in
    2D the cubic rule of ``fields.interpolate`` on one 4 x 4 window of
    every component table (``fields._window_sum``; the lattice holds the
    stencil margin, so the tables need no padding). It writes its steps
    into a workspace made once with the table and returns a fresh array.
    Mollifying in space commutes with the gain of b(t, x) = gain(t) *
    fn(x), so the result keeps ``b.gain``. The tables hold values only, so
    it states no Jacobian; it is marked ``smooth``, so a solver steps it as
    it is.

    A query beyond the reach, or at a non-finite point, raises
    ``BlowUpError``. A radius whose square overflows or falls below the
    smallest normal float, a reach that is not positive and finite, or a
    table of more than 2**22 nodes (a reach far beyond the radius) is a
    ``ConfigError``, raised before any table is sampled.
    """
    if not (epsilon > 0 and np.finfo(float).tiny <= epsilon * epsilon < math.inf):
        raise ConfigError(f"mollification radius must be positive with a finite square, "
                          f"got {epsilon}; the square must not underflow either")
    if not (reach > 0 and math.isfinite(reach)):
        raise ConfigError(f"mollifier table reach must be positive, got {reach}")
    d = b.d
    delta, K, table = _mollified_table(b, epsilon, reach)
    ws = _Workspace()
    if d == 1:
        interp = _lattice_interp(delta, table, ws)

    def lookup(points):
        pts = np.asarray(points, dtype=float)
        # NaN fails both comparisons; an empty query passes both
        if not (np.maximum.reduce(pts, axis=None, initial=-np.inf) <= reach
                and np.minimum.reduce(pts, axis=None, initial=np.inf) >= -reach):
            raise BlowUpError(f"mollified drift queried at |x_i| > {reach} or at a "
                              "non-finite point, beyond its table")
        if d == 1:
            return interp(pts[..., 0])[..., None]
        q = pts.reshape(-1, 2) / delta
        k = np.floor(q)
        first = k.astype(np.int64) + (K - 1)  # the stencil around node k starts here
        theta = q - k
        weights = [_cubic_weights(theta[:, a], ws.array(f"w{a}", (4, len(q)))) for a in range(2)]
        out = _window_sum(table, first[:, 0] * (2 * K + 1) + first[:, 1], weights, ws,
                          np.empty((2, len(q))))
        return out.T.reshape(pts.shape[:-1] + (table.shape[0],))

    return DriftField(f"{b.id}~eps", d, lookup, smooth=True, gain=b.gain)


def _mollified_table(b: DriftField, epsilon: float, reach: float):
    """``(delta, K, table)``: the autonomous factor ``b.fn`` smoothed by the
    radius-epsilon bump on the lattice delta * k, |k_i| <= K, of
    :func:`mollified_drift`. 1D: one table, shape (2K + 1,); 2D: the
    component tables channel first, shape (2, 2K + 1, 2K + 1)."""
    d = b.d
    delta = epsilon / _STEPS_PER_RADIUS[d]
    if d == 1:  # the largest power of two not above it
        delta = math.ldexp(1.0, math.frexp(delta)[1] - 1)
    span = (reach + epsilon) / delta
    # 2K + 1 <= 2 * span + 9 nodes per axis; an infinite span fails too
    if not 2.0 * span + 9.0 <= _MAX_TABLE_NODES ** (1.0 / d):
        raise ConfigError(f"a mollified drift table reaching |x_i| <= {reach:.6g} at spacing "
                          f"{delta:.6g} needs more than 2**22 nodes; the drift or the path "
                          f"moves too far for the radius {epsilon:.6g}")
    K = int(math.ceil(span)) + 3
    axis = delta * np.arange(-K, K + 1)
    nodes = np.stack(np.meshgrid(*[axis] * d, indexing="ij"), axis=-1).reshape(-1, d)
    samples = eval_drift(replace(b, gain=None), 0.0, nodes).reshape((axis.size,) * d + (d,))
    kernel = _bump_kernel(d, epsilon, delta)
    smooth = [_convolve_nearest(samples[..., a], kernel) for a in range(d)]
    return delta, K, smooth[0] if d == 1 else np.stack(smooth)


def _lattice_interp(delta: float, table: np.ndarray,
                    ws: _Workspace) -> Callable[[np.ndarray], np.ndarray]:
    """``np.interp(x, axis, table)`` on the lattice axis = delta * arange(-K, K + 1),
    with delta = 2**e, bit for bit for every x with axis[0] <= x < axis[-1],
    except where a scaling by delta leaves the normal range.

    The interval of x is found by index, not by binary search: q = x / delta
    (a product by 2**-e), its floor k and k * delta are exact, so k is
    np.interp's interval and k * delta, the very product that makes the
    axis, its node. np.interp's value there is slope * (x - node) +
    table[node], with slope = diff(table) / delta, or the table value itself
    when x is on the node. For k != -1, f = q - k is exact by the Sterbenz
    lemma (or k = 0), and so is x - node = delta * f; for k = -1 both round,
    but x - node = delta * (q - k) in exact arithmetic, and a power-of-two
    scale commutes with rounding in the normal range, so f = fl(q - k) =
    fl(x - node) / delta. The slope is diff * 2**-e, exact too, so diff[k] *
    f is the real number slope * (x - node) and rounds to the same bits, and
    diff[k] * f + table[k] is np.interp's sum. On a node, f is 0 and diff[k]
    * f a zero, which adds nothing to a table value that is not -0.0, and
    ``_convolve_nearest``, whose sums start from +0.0, makes none. The
    exceptions: where q underflows, at |x| < 2**-1022 * delta with delta > 1
    (x = -1e-300 at L = 1e150), q and f round, and k is 0 where np.interp
    takes -1 if x < 0, so the two may differ in the last bit; so may they
    where a slope underflows or overflows. ``mollified_drift`` keeps
    delta >= 2**-517, so 1 / delta is finite.

    Each step writes into a slot of the workspace ``ws`` (q, k, j and
    value), so a call allocates only the array it returns: 9 passes, q, k,
    f, the index, its offset, two takes, a product and a sum. The caller
    keeps x in the domain: the table reads clip their indices rather than
    check them.
    """
    K = (table.size - 1) // 2
    diff = np.diff(table)
    scale = 1.0 / delta

    def interp(x):
        q, k = ws.array("q", x.shape), ws.array("k", x.shape)
        j = ws.array("j", x.shape, np.int64)
        np.multiply(x, scale, out=q)
        np.floor(q, out=k)
        q -= k  # f, in [0, 1]
        np.add(k, K, out=j, casting="unsafe")  # exact: k is integral, far below 2**53
        value = table.take(j, out=ws.array("value", x.shape), mode="clip")
        out = diff.take(j, mode="clip")
        out *= q
        out += value
        return out

    return interp


def _bump_kernel(d: int, epsilon: float, delta: float) -> np.ndarray:
    """The radius-epsilon bump at the offsets delta * k with |k_i| * delta <= epsilon,
    divided by its sum, shape (2r + 1,) * d, with each weight of at most
    DBL_EPSILON, a tap ``scipy.ndimage`` skips too, set to zero: nonnegative
    weights that sum to one within the dropped ones."""
    reach = int(math.floor(epsilon / delta))
    offs = delta * np.arange(-reach, reach + 1)
    pts = np.stack(np.meshgrid(*[offs] * d, indexing="ij"), axis=-1)
    w = bump(d, 0.0, epsilon).fn(pts)
    w = w / w.sum()
    return np.where(w > np.finfo(float).eps, w, 0.0)


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


def _rk4_feet(velocity, points, t, dt: float, ws: _Workspace) -> np.ndarray:
    """One backward RK4 step of the characteristic ODE from t+dt down to t.

    ``t`` is one step start, or a 1-D array of B of them: each stage then
    reads the velocity once at all B stage times, and the feet carry a
    leading axis of length B. The stages are summed in the order
    ((k1 + 2 k2) + 2 k3) + k4. The stage points and the running sum, then
    the feet, live in slots x1 and x2 of the workspace ``ws``. The sum
    starts from a copy of k1, and each k is read before the next velocity
    call, so a velocity may return a view of slot x0 (a drift's ``fn`` may
    return the points it is given), but not of the stage points it is
    asked about. Stage 1 reads at ``points`` themselves, a node read when
    they are the grid's nodes (``_composed_drift``).
    """
    t_end, t_mid, t_start = _stage_times(t, dt)
    k = velocity(t_end, points)
    shape = np.broadcast_shapes(np.shape(points), k.shape)
    stage, total = ws.array("x1", shape), ws.array("x2", shape)
    np.copyto(total, k)
    k = velocity(t_mid, _stage_point(points, k, 0.5 * dt, stage))
    total += np.multiply(k, 2.0, out=stage)
    k = velocity(t_mid, _stage_point(points, k, 0.5 * dt, stage))
    total += np.multiply(k, 2.0, out=stage)
    k = velocity(t_start, _stage_point(points, k, dt, stage))
    total += k
    total *= dt / 6.0
    return np.subtract(points, total, out=total)


def _stage_point(points, k: np.ndarray, reach: float, out: np.ndarray) -> np.ndarray:
    """points - reach * k, written into ``out``."""
    np.multiply(k, reach, out=out)
    return np.subtract(points, out, out=out)


def _semi_lagrangian_block(grid: SpatialGrid, vals: np.ndarray, velocity, times: np.ndarray,
                           dt: float, ws: _Workspace) -> np.ndarray:
    """Advance a batch of nodal values, shape (P, *grid.shape), by the steps
    starting at ``times``: the feet of every step are traced at once
    (``_rk4_feet``) and planned at once (``fields._cubic_plan``, one row per
    step), and one reader call (``fields._cubic_reader``) then steps the
    block, each path's feet read off its own values by cubic interpolation,
    clamped to a discrete maximum principle. Velocities without the
    leading time or path axis broadcast over it. Returns the values after
    each step, shape (len(times), *vals.shape): slot "values" of the
    workspace ``ws``, valid until its next block. The feet and plans are
    written into ``ws`` too.
    """
    feet = _rk4_feet(velocity, grid.nodes(), times, dt, ws)
    feet = np.broadcast_to(feet, (len(times), len(vals), grid.size, grid.d))
    plan = _cubic_plan(grid, feet, ws)
    out = ws.array("values", (len(times),) + vals.shape)
    _cubic_reader(grid, len(vals), grid.size, True, ws)(vals, plan, out)
    return out


def _upwind_block(grid: SpatialGrid, vals: np.ndarray, velocity, times: np.ndarray,
                  dt: float) -> np.ndarray:
    """First-order upwind steps of the advective form, split by axis sign, on
    a batch of nodal values, shape (P, *grid.shape), starting at ``times``.
    The block's nodal velocities are one node read (``_composed_drift``).
    Returns the values after each step, a new array of shape
    (len(times), *vals.shape).

    An axis's scaled neighbour differences d = (padded[1:] - padded[:-1]) / h
    are taken over a copy of the values wrap-padded by one node along it;
    back = d[:-1] and fwd = d[1:] are the floats (v - prev) / h and
    (next - v) / h. Each step writes v - dt * (c+ * back + c- * fwd) through
    ``out=``, axis by axis, every axis differenced from the values at the
    start of the step. The padded copies, the differences and their views
    are made once per block, so a step makes 8 numpy calls per axis and no
    view.
    """
    n_steps, d = len(times), grid.d
    vel = velocity(times, grid.nodes()).reshape((n_steps,) + vals.shape + (d,))
    # (steps, axes, P, *grid.shape): a step's speeds along each axis, by iteration
    vel = np.moveaxis(vel, -1, 1)
    c_plus, c_minus = np.maximum(vel, 0.0), np.minimum(vel, 0.0)
    wrap = np.arange(-1, grid.n + 1) % grid.n
    h = grid.h
    out = np.empty((n_steps,) + vals.shape)
    upwind, downwind = np.empty(vals.shape), np.empty(vals.shape)
    axes = []
    for axis in range(d):
        along = axis - d  # the spatial axes are the trailing ones
        shape = list(vals.shape)
        shape[along] += 2
        padded = np.empty(shape)
        shape[along] -= 1
        diff = np.empty(shape)
        axes.append((along, padded, _along(padded, along, slice(1, None)),
                     _along(padded, along, slice(None, -1)), diff,
                     _along(diff, along, slice(None, -1)), _along(diff, along, slice(1, None))))
    for new, speeds_plus, speeds_minus in zip(out, c_plus, c_minus):
        source = vals
        for (along, padded, hi, lo, diff, back, fwd), cp, cm in zip(
                axes, speeds_plus, speeds_minus):
            # The indices are in range by construction, and "clip" spares take a buffer.
            vals.take(wrap, axis=along, out=padded, mode="clip")
            np.divide(np.subtract(hi, lo, out=diff), h, out=diff)
            np.multiply(cp, back, out=upwind)
            np.multiply(cm, fwd, out=downwind)
            np.multiply(dt, np.add(upwind, downwind, out=upwind), out=upwind)
            np.subtract(source, upwind, out=new)
            source = new
        vals = new
    return out


def _along(array: np.ndarray, axis: int, part: slice) -> np.ndarray:
    """The view of ``array`` that takes ``part`` along ``axis`` and all of
    every other axis."""
    index = [slice(None)] * array.ndim
    index[axis] = part
    return array[tuple(index)]


def cfl_number(velocity, grid: SpatialGrid, dt: float, times):
    """Largest dt * |velocity|_1 / h over the grid nodes at the sampled times,
    each a node read (``_composed_drift``). A batched velocity, of shape
    (P, Q, d), gives one number per path.
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
    return np.logical_or.reduce(np.abs(vals[..., band]) > tol, axis=-1)


def _check_mollify_radius(epsilon: float, grid: SpatialGrid) -> None:
    """A forced mollifier radius must be zero (no smoothing) or between the
    grid spacing h and the box half-width L. A wider kernel than the box
    smooths across it, and at huge radii its lattice offsets overflow."""
    if 0.0 < epsilon < grid.h:
        raise ConfigError(
            f"mollify_eps={epsilon} is below the grid spacing h={grid.h}; "
            f"use 0 to disable smoothing or a radius of at least h"
        )
    if epsilon > grid.half_width:
        raise ConfigError(
            f"mollify_eps={epsilon} exceeds the box half-width L={grid.half_width}; "
            "a forced radius must be at most L"
        )

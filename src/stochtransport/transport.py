"""Deterministic transport stepping with a path-shifted drift.

The auxiliary problem behind the pathwise representation is the linear
advection equation

    dv/dt + b(t, x + W(t)) . grad v = 0,    v(0) = u0,

on a periodic box, where W is a frozen realization of the driving path.
``spde.solve_spde`` marches it for a batch of P paths at once with the
two block steppers here: semi-Lagrangian (RK4 backtracking of
characteristic feet plus clamped cubic interpolation) and first-order
upwind finite volume in advective form. Both step raw nodal arrays with
a leading path axis, values of shape (P, *grid.shape), by the B steps
that start at an array of times, and return the values after each step,
with no field object per step; one step is a block of one.
``_semi_lagrangian_block`` traces the feet of B steps with one velocity
read per RK4 stage, at (B, P, Q, d) points, and plans their cubic reads
at once; ``_upwind_block`` reads the nodal velocities of B steps at
once. Each then steps only the values. The semi-Lagrangian block writes
its RK4 stage points and running sum, its plans and its stepped values
into the solve's workspace (``fields._Workspace``), and
``_composed_drift`` shifts the points it is asked about into it too, so
that after the first block a step allocates no array of its own; only a
drift's ``fn`` allocates its output. A mollified drift's ``fn`` writes
its lookup's steps into a workspace of its table's and allocates only
the array it returns.

Since the paths are frozen, every time a march will query is known
before it starts: ``_stage_times`` gives the three RK4 stage times of a
step, ``_path_table`` evaluates every path at all of them, one vectorized
``eval_path`` call per path, into one (M, P, d) array whose rows follow
one sorted array of the M distinct times, and ``_composed_drift`` reads
its shifts W_p(t) from that table: ``_table_rows`` finds a time's row by
binary search and requires the row's time to equal it exactly. A query
at a time the table lacks is an error, not a fallback.

Rough drifts are smoothed in space before stepping: the solver replaces
b by its convolution with a bump kernel of radius 2h, computed once per
batch by ``mollified_drift`` on a lattice anchored at the origin (nodes
delta * k for integer k) that covers the box, the largest path excursion
of the batch and the RK4 stage displacements, with the kernel
``profiles.bump`` sampled on that lattice. The tables hold drift values
only, no derivatives; every velocity call is then a table lookup: in 1D
linear interpolation located by lattice index, not by search, in 2D the
4 x 4 window read of the grid fields, with the weights of each stencil
offset in one contiguous row.
A larger reach only adds nodes, so every value a path reads is the same,
bit for bit, whether it is solved alone or in any batch. Only the
autonomous factor fn of a drift gain(t) * fn(x) is tabulated; the
smoothed drift keeps the gain, so a read at a block's times looks the
table up once and scales it by the gain at each time.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Callable

import numpy as np

from .drifts import DriftField, eval_drift
from .errors import BlowUpError, ConfigError, KernelResolutionError
from .fields import (SpatialGrid, _cubic_plan, _cubic_reader, _cubic_weights, _window_sum,
                     _Workspace)
from .paths import eval_path
from .profiles import bump

__all__ = [
    "mollified_drift",
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


def _path_table(paths, times) -> tuple[np.ndarray, np.ndarray]:
    """Every path of a batch at each of ``times``: one vectorized ``eval_path`` call per path.

    Returns ``(keys, shifts)``. ``keys`` holds the distinct times, sorted,
    as one float64 array, and ``shifts`` has shape (M, P, d): row m holds
    every path at ``keys[m]``, one column per path. ``_table_rows`` finds
    the rows of query times; a marcher that recomputes a query time by the
    same expression (``_stage_times``) finds its row.
    """
    keys = np.unique(np.asarray(times, dtype=float))
    return keys, np.stack([eval_path(path, keys) for path in paths], axis=1)


def _table_rows(keys: np.ndarray, t):
    """The rows of ``_path_table`` keys at time ``t``, a float or a 1-D array.

    A row is found by binary search and must hold exactly the time asked
    for: a time the table lacks raises ``KeyError`` naming the first such
    time.
    """
    at = np.searchsorted(keys, t)
    found = keys[np.minimum(at, keys.size - 1)] == t
    if not np.all(found):
        missing = np.ravel(t)[np.argmin(np.ravel(found))]
        raise KeyError(f"no path shift tabulated for t={float(missing)!r}")
    return at


def _composed_drift(b: DriftField, table, ws: _Workspace) -> Callable:
    """The shifted velocities (t, x) -> b(t, x + W_p(t)) of a batch of paths.

    ``table`` is the ``_path_table`` of every time the caller will query:
    the paths are evaluated once per batch, before the march, and each
    call reads its shifts from that table. A time not in the table raises
    ``KeyError``; no path is evaluated per call. The points have shape
    (Q, d), shared by every path, or (P, Q, d), one row per path; the
    velocities have shape (P, Q, d). ``t`` may also be a 1-D array of B
    times, with points of shape (Q, d) or (B, P, Q, d): the velocities
    then have shape (B, P, Q, d), from one ``eval_drift`` call. The
    shifted points go to slot x0 of the workspace ``ws``, so the points
    asked about must not live there.
    """
    keys, shifts = table
    shifts = shifts[:, :, None, :]  # each row broadcasts over the points

    def velocity(t, points):
        at = _table_rows(keys, t)
        points = np.asarray(points, dtype=float)
        shift = shifts[at]
        shape = np.broadcast_shapes(points.shape, shift.shape)
        out = ws.array("x0", shape)
        # axis by axis: numpy adds a shift broadcast over the points in loops of d elements
        for a in range(shape[-1]):
            np.add(points[..., a], shift[..., a], out=out[..., a])
        return eval_drift(b, t, out)

    return velocity


# ---------------------------------------------------------------------------
# drift mollification


#: Lattice steps per mollifier radius. The 1D table is read by linear
#: interpolation (``_lattice_interp``) and needs the finer lattice; the 2D
#: table is read by cubic interpolation, which resolves the kernel on a
#: coarser lattice and keeps the n**2 table small.
_STEPS_PER_RADIUS = {1: 64, 2: 8}


def mollified_drift(b: DriftField, epsilon: float, reach: float) -> DriftField:
    """Smooth a drift in space by convolution with the radius-epsilon bump.

    The drift's autonomous factor ``b.fn`` is sampled once on the lattice
    of nodes delta * k, for integers |k| <= K, with delta = epsilon/64
    (1D) or epsilon/8 (2D) and K large enough to cover the cube
    |x_i| <= reach plus the kernel radius and the interpolation stencil,
    and convolved there with ``profiles.bump(d, 0, epsilon)`` sampled at
    the lattice offsets and scaled to unit sum (``_bump_kernel``). The
    lattice is anchored at the origin, so a larger reach only adds nodes:
    every value read within a reach is the same, bit for bit, on every
    table that covers it. Each call is then a lookup: in 1D linear
    interpolation, located by lattice index (``_lattice_interp``, equal
    to ``np.interp`` bit for bit); in 2D the cubic rule of
    ``fields.interpolate``, whose stencil around node k = floor(x/delta)
    is one 4 x 4 window of every component table: the lattice holds the
    stencil margin, so the tables need no padding. A query beyond the
    reach, or at a non-finite point, raises ``BlowUpError``. A lookup
    writes its steps into a workspace made once with the table and
    returns a fresh array. Mollifying in space commutes with the gain of
    b(t, x) = gain(t) * fn(x), so the result keeps ``b.gain``. The tables
    hold values only, so the result states no Jacobian; it is marked
    ``smooth``, so a solver steps it as it is.
    """
    if not (epsilon > 0 and math.isfinite(epsilon)):
        raise ConfigError(f"mollification radius must be positive, got {epsilon}")
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
        if not (pts.max(initial=-np.inf) <= reach and pts.min(initial=np.inf) >= -reach):
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
    K = int(math.ceil((reach + epsilon) / delta)) + 3
    axis = delta * np.arange(-K, K + 1)
    nodes = np.stack(np.meshgrid(*[axis] * d, indexing="ij"), axis=-1).reshape(-1, d)
    samples = eval_drift(replace(b, gain=None), 0.0, nodes).reshape((axis.size,) * d + (d,))
    kernel = _bump_kernel(d, epsilon, delta)
    smooth = [_convolve_nearest(samples[..., a], kernel) for a in range(d)]
    return delta, K, smooth[0] if d == 1 else np.stack(smooth)


def _lattice_interp(delta: float, table: np.ndarray,
                    ws: _Workspace) -> Callable[[np.ndarray], np.ndarray]:
    """``np.interp(x, axis, table)`` on the lattice axis = delta * arange(-K, K + 1),
    bit for bit, for every x with axis[0] <= x < axis[-1].

    The interval of x is found by index, k = floor(x / delta), corrected
    by one node where the division rounded across a node, instead of by
    binary search; node k sits at delta * k, the very product that makes
    the axis. Within it the value is np.interp's: slope * (x - node) +
    table[node], with slope = diff(table) / diff(axis); x on a node
    returns the table value itself. Each step writes into a slot of the
    workspace ``ws`` (k, node, mask, j and value), so a call allocates
    only the array it returns. The caller keeps x in the domain: the
    table reads clip their indices rather than check them.
    """
    K = (table.size - 1) // 2
    slopes = np.diff(table) / np.diff(delta * np.arange(-K, K + 1))

    def interp(x):
        k, node = ws.array("k", x.shape), ws.array("node", x.shape)
        mask, j = ws.array("mask", x.shape, np.bool_), ws.array("j", x.shape, np.int64)
        np.floor(np.divide(x, delta, out=k), out=k)
        # k -= delta * k > x, then k += delta * (k + 1.0) <= x
        np.subtract(k, 1.0, out=k, where=np.greater(np.multiply(k, delta, out=node), x, out=mask))
        np.multiply(np.add(k, 1.0, out=node), delta, out=node)
        np.add(k, 1.0, out=k, where=np.less_equal(node, x, out=mask))
        np.multiply(k, delta, out=node)
        np.copyto(j, k, casting="unsafe")
        j += K
        value = np.take(table, j, out=ws.array("value", x.shape), mode="clip")
        # slope * (x - node) + value, or the value itself on a node
        out = np.subtract(x, node)
        out *= np.take(slopes, j, out=k, mode="clip")
        out += value
        np.copyto(out, value, where=np.equal(node, x, out=mask))
        return out

    return interp


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
    asked about.
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
    starting at ``times``: backtrack feet with RK4, read off by clamped
    cubic interpolation.

    The feet do not depend on the values, so the block's feet are traced
    in one pass (``velocity`` takes the array of times) and planned in one
    pass (``fields._cubic_plan``); each step then only reads its values,
    each path's feet from its own values. Velocities without the leading
    time or path axis broadcast over it. Clamping the cubic stencil
    enforces a discrete maximum principle. Returns the values after each
    step, shape (len(times), *vals.shape): slot "values" of the workspace
    ``ws``, valid until its next block. The block's feet, plans and stepped
    values are all written into ``ws``.
    """
    feet = _rk4_feet(velocity, grid.nodes(), times, dt, ws)
    feet = np.broadcast_to(feet, (len(times), len(vals), grid.size, grid.d))
    out = ws.array("values", (len(times),) + vals.shape)
    plans = _cubic_plan(grid, feet, ws)
    read = _cubic_reader(grid, len(vals), grid.size, True, ws)
    for step, plan in zip(out, plans):
        read(vals, plan, step)
        vals = step
    return out


def _upwind_block(grid: SpatialGrid, vals: np.ndarray, velocity, times: np.ndarray,
                  dt: float) -> np.ndarray:
    """First-order upwind steps of the advective form, split by axis sign, on
    a batch of nodal values, shape (P, *grid.shape), starting at ``times``.

    The block's nodal velocities are read in one pass; returns the values
    after each step, a new array of shape (len(times), *vals.shape).

    A neighbour difference reads a copy of the values wrap-padded by one
    node on each side along its axis.
    """
    vel = velocity(times, grid.nodes()).reshape((len(times),) + vals.shape + (grid.d,))
    c_plus, c_minus = np.maximum(vel, 0.0), np.minimum(vel, 0.0)
    wrap = np.arange(-1, grid.n + 1) % grid.n
    h = grid.h
    out = np.empty((len(times),) + vals.shape)
    for s in range(len(times)):
        new = out[s]
        new[...] = vals
        for axis in range(grid.d):
            along = axis - grid.d  # the spatial axes are the trailing ones
            padded = np.take(vals, wrap, axis=along)
            back = (vals - _window(padded, along, 0)) / h
            fwd = (_window(padded, along, 2) - vals) / h
            new -= dt * (c_plus[s, ..., axis] * back + c_minus[s, ..., axis] * fwd)
        vals = new
    return out


def _window(padded: np.ndarray, axis: int, start: int) -> np.ndarray:
    """The n nodes of ``padded`` from ``start`` on along ``axis``: with one node
    of wrap padding, start 0 is every node's predecessor and 2 its successor."""
    index = [slice(None)] * padded.ndim
    index[axis] = slice(start, start + padded.shape[axis] - 2)
    return padded[tuple(index)]


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


def _check_mollify_radius(epsilon: float, grid: SpatialGrid) -> None:
    """A forced mollifier radius must be zero (no smoothing) or between the
    grid spacing h and the box half-width L. A wider kernel than the box
    smooths across it, and at huge radii its lattice offsets overflow."""
    if 0.0 < epsilon < grid.h:
        raise KernelResolutionError(
            f"mollify_eps={epsilon} is below the grid spacing h={grid.h}; "
            f"use 0 to disable smoothing or a radius of at least h"
        )
    if epsilon > grid.half_width:
        raise KernelResolutionError(
            f"mollify_eps={epsilon} exceeds the box half-width L={grid.half_width}; "
            "a forced radius must be at most L"
        )

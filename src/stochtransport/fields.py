"""Periodic grids, scalar fields, and the measure-theoretic toolbox.

Everything downstream (transport marching, path shifting, weak-form
quadrature) works on uniform periodic grids over the box [-L, L)^d.
This module owns the grid geometry, Lp norms by rectangle-rule
quadrature, periodic cubic interpolation and lattice-aware field
shifting; a snapshot's text is the run store's (``artifacts``). A cubic
read is a plan (``_cubic_plan``) applied by a reader (``_cubic_reader``;
1D: ``_reader_1d``, 2D: ``_window_sum``), both writing into a workspace
(``_Workspace``); ``interpolate`` and ``shift_field`` read as a block of
one step, and the march (``spde``) reads whole blocks. Smoothing is
applied to drifts only, by ``transport.mollified_drift``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy._core.umath import clip as _clip  # the ufunc np.clip calls after its checks

from .errors import FieldValidationError
from .schema import INTEGER

__all__ = [
    "SpatialGrid",
    "ScalarField",
    "lp_norm",
    "interpolate",
    "shift_field",
]

#: Relative tolerance for deciding that a shift is an exact lattice multiple.
_LATTICE_RTOL = 1.0e-12


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform periodic grid on the box [-L, L)^d.

    Parameters
    ----------
    d : int
        Spatial dimension. Operations are implemented for d in {1, 2}.
    half_width : float
        Box half width L > 0.
    n : int
        Points per axis, at least 8. The spacing is h = 2L/n and nodes
        sit at x_i = -L + i*h, so the right endpoint +L is identified
        with -L by periodicity.
    """

    d: int
    half_width: float
    n: int

    def __post_init__(self):
        if self.d not in (1, 2):
            raise FieldValidationError(f"grid dimension must be 1 or 2, got {self.d}")
        if not (self.half_width > 0 and math.isfinite(self.half_width)):
            raise FieldValidationError(f"half_width must be positive, got {self.half_width}")
        if not INTEGER.holds(self.n, self.d):
            raise FieldValidationError(f"n must be {INTEGER.want}, got {self.n!r}")
        if self.n < 8:
            raise FieldValidationError(f"need at least 8 points per axis, got {self.n}")
        object.__setattr__(self, "d", int(self.d))
        object.__setattr__(self, "n", int(self.n))

    @property
    def h(self) -> float:
        """Grid spacing 2L/n."""
        return 2.0 * self.half_width / self.n

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n,) * self.d

    @property
    def size(self) -> int:
        return self.n**self.d

    @property
    def cell_volume(self) -> float:
        return self.h**self.d

    def axis(self) -> np.ndarray:
        """Node coordinates along one axis: -L + i*h for i = 0..n-1."""
        return -self.half_width + self.h * np.arange(self.n)

    def nodes(self) -> np.ndarray:
        """All node coordinates as a read-only array of shape (n**d, d), row-major.

        Built on the first call; every later call returns the same array.
        """
        nodes = self.__dict__.get("_nodes")
        if nodes is None:
            axes = [self.axis()] * self.d
            nodes = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, self.d)
            nodes.setflags(write=False)
            object.__setattr__(self, "_nodes", nodes)
        return nodes


@dataclass(frozen=True)
class ScalarField:
    """Nodal values of a scalar function on a periodic grid.

    Values are stored with shape ``grid.shape`` and are validated to be
    finite on construction; fields are immutable value objects.
    """

    grid: SpatialGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != self.grid.shape:
            raise FieldValidationError(
                f"values shape {vals.shape} does not match grid shape {self.grid.shape}"
            )
        if not np.all(np.isfinite(vals)):
            raise FieldValidationError("field values must be finite")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_function(cls, grid: SpatialGrid, fn) -> "ScalarField":
        """Sample ``fn``, which maps (..., d) points to values, on the grid nodes.

        ``fn`` runs with numpy's floating-point warnings off: a sample that
        is not finite raises ``FieldValidationError`` counting the nodes.
        """
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            vals = np.asarray(fn(grid.nodes()), dtype=float)
        bad = np.count_nonzero(~np.isfinite(vals))
        if bad:
            raise FieldValidationError(
                f"the function samples to non-finite values at {bad} of {grid.size} grid nodes")
        return cls(grid, vals.reshape(grid.shape))

    @classmethod
    def zeros(cls, grid: SpatialGrid) -> "ScalarField":
        return cls(grid, np.zeros(grid.shape))

    def __add__(self, other: "ScalarField") -> "ScalarField":
        self._check_same_grid(other)
        return ScalarField(self.grid, self.values + other.values)

    def __sub__(self, other: "ScalarField") -> "ScalarField":
        self._check_same_grid(other)
        return ScalarField(self.grid, self.values - other.values)

    def __mul__(self, scalar: float) -> "ScalarField":
        return ScalarField(self.grid, self.values * float(scalar))

    __rmul__ = __mul__

    def _check_same_grid(self, other: "ScalarField"):
        if other.grid != self.grid:
            raise FieldValidationError("fields live on different grids")


def lp_norm(f: ScalarField, p: float) -> float:
    """Discrete Lp norm by the rectangle rule: (sum |f_i|^p h^d)^(1/p).

    The sum is exactly rounded (math.fsum), so any permutation of the
    nodal values, in particular a lattice shift, yields the identical
    float. The terms are summed largest first: fsum then keeps few
    partial sums, where in array order terms whose exponents span
    hundreds of binades keep many, and a 128 x 128 field sums several
    times faster. The values are finite, as every field's are; a norm whose
    p-th powers overflow raises ``FieldValidationError``, and one whose
    powers underflow is 0.0.
    """
    pv = float(p)
    if not (pv >= 1.0 and math.isfinite(pv)):
        raise FieldValidationError(f"exponent must satisfy 1 <= p < inf, got {pv}")
    with np.errstate(over="ignore"):  # an overflow is reported below
        terms = np.sort(np.abs(f.values) ** pv, axis=None)[::-1]
    try:
        norm = (math.fsum(terms.tolist()) * f.grid.cell_volume) ** (1.0 / pv)
    except OverflowError:  # finite powers whose sum overflows
        norm = math.inf
    if norm == math.inf:
        raise FieldValidationError(f"the L^p norm at p={pv!r} overflows: the p-th powers of "
                                   "the values exceed the float range")
    return norm


class _Workspace:
    """Scratch arrays of one march, reused from step to step.

    ``array(name, shape, dtype)`` returns the leading elements of slot
    ``name``, one flat array, as an uninitialized array of that shape. A
    slot is allocated at its first request and replaced only by a larger
    one, so after a march's first block its steps allocate none of the
    arrays below. Each view is made once per shape and kept; a view taken
    before its slot was replaced keeps the old array, so a reader is made
    after the plan it reads. Views of one slot overlap, so each phase of a
    step uses a slot only while no other phase needs what it holds. The
    slots of a semi-Lagrangian step, by the phase that writes them:

    - ``"x0"``, ``"x1"``, ``"x2"``, float scratch: the RK4 stage points in
      x1 and the running sum, then the feet, in x2 (``transport._rk4_feet``),
      the shifted points in x0 (``transport._composed_drift``); the plan's
      theta in x0, its stencil bases in x1 and its weights' products in x1
      and x2 (:func:`_cubic_plan`); a read's padded values in x0 and taps in
      x1, and its clamp bounds in x2 in 1D or its running extremes in x1, x2
      and x0 in 2D (:func:`_cubic_reader`).
    - ``"start"`` (int64), ``"w0"`` and ``"w1"``: the plan of a block, the
      starts (S, P, Q) and the weights (S, 4, P, Q) per axis.
    - ``"mask"`` (bool): the plan's scratch.
    - ``"values"``: the values after each step of a block.
    - ``"shifted"``: the snapshots read at their displaced nodes
      (:func:`_shifted`), after a block; the shift's plan and read take the
      slots above, which the next block writes afresh.

    A mollified drift's table has a workspace of its own, so a solve holds
    two: in 1D ``"q"``, ``"k"``, ``"j"`` (int64) and ``"value"``
    (``transport._lattice_interp``); in 2D ``"w0"``, ``"w1"`` and the taps
    in ``"x1"`` (:func:`_window_sum`).
    """

    def __init__(self):
        self._slots = {}
        self._views = {}

    def array(self, name: str, shape: tuple, dtype=np.float64) -> np.ndarray:
        key = (name, shape, dtype)
        view = self._views.get(key)
        if view is None:
            size = math.prod(shape)
            slot = self._slots.get(name)
            if slot is None or slot.size < size or slot.dtype != dtype:
                slot = self._slots[name] = np.empty(size, dtype)
                # views of the old array keep it alive for whoever holds them
                self._views = {k: v for k, v in self._views.items() if k[0] != name}
            view = self._views[key] = slot[:size].reshape(shape)
        return view


def _axis_locate(grid: SpatialGrid, coords: np.ndarray, base: np.ndarray,
                 theta: np.ndarray, mask: np.ndarray) -> None:
    """The stencil base node and fractional offset of query coordinates along
    each axis, written into ``base`` and ``theta``, float arrays of the shape
    of ``coords``; a base is a node index held as a float. ``mask`` is a
    bool array of that shape, for scratch.

    The offset into the period is np.mod(coords + L, 2L), bit for bit,
    taken as numpy takes it: fmod, plus 2L where fmod is negative. When
    every theta = coords + L of the call lies in [-2L, 4L), as the feet of
    a march do, fmod is one period's wrap: 2L is subtracted where theta >=
    2L, which is exact by the Sterbenz lemma (theta / 2 <= 2L <= theta),
    so it equals fmod. Any other call, far points or non-finite ones
    included, takes fmod. Only the sign of a zero offset may differ (numpy
    returns +0.0, fmod of -2L is -0.0 and the wrap makes it +0.0), which
    moves neither the fractional offset nor the node index.
    """
    L = grid.half_width
    period = 2.0 * L
    np.add(coords, L, out=theta)
    # NaN fails both comparisons; an empty call passes both
    if (np.minimum.reduce(theta, axis=None, initial=np.inf) >= -period
            and np.maximum.reduce(theta, axis=None, initial=-np.inf) < 2.0 * period):
        np.subtract(theta, period, out=theta, where=np.greater_equal(theta, period, out=mask))
    else:
        np.fmod(theta, period, out=theta)
    np.add(theta, period, out=theta, where=np.less(theta, 0.0, out=mask))
    theta /= grid.h
    np.floor(theta, out=base)
    theta -= base
    # The offset can be exactly 2L just below a period boundary: base n wraps to node 0.
    np.copyto(base, 0.0, where=np.greater_equal(base, grid.n, out=mask))


def _cubic_weights(theta: np.ndarray, out: np.ndarray, scratch=None) -> np.ndarray:
    """Lagrange weights on the 4-point stencil {-1, 0, 1, 2}, exact for cubic
    polynomials along the axis: weight i of each offset is written into
    ``out[i]``, of shape ``(4,) + theta.shape``, and ``out`` is returned.

    Two running products carry the arithmetic, in ``scratch``, a pair of
    C-contiguous arrays of the shape of ``theta``, or else in ``out[1]``
    and ``out[3]``, which they end in. The plan passes a pair, as its rows
    are strided: then each row is written once, by the last pass of its
    weight, and every other pass runs on contiguous arrays. Each weight is
    the product its comment states, bit for bit. The two weights of sign
    -t take their -t as the sign of their last factor, -0.5 or -6: a
    rounded product or quotient changes only in sign when one operand
    does. A halving is a product by 0.5, the same bits as a division by 2
    and a cheaper pass.
    """
    t = theta
    low, high = (out[1], out[3]) if scratch is None else scratch
    np.subtract(t, 2.0, out=low)
    np.add(t, 1.0, out=high)
    high *= t
    high *= low
    np.multiply(high, -0.5, out=out[2])  # -t * (t + 1) * (t - 2) / 2
    np.subtract(t, 1.0, out=high)
    high *= t
    high *= low
    np.divide(high, -6.0, out=out[0])  # -t * (t - 1) * (t - 2) / 6
    np.multiply(t, t, out=high)
    high -= 1.0
    low *= high
    np.multiply(low, 0.5, out=out[1])  # (t * t - 1) * (t - 2) / 2
    high *= t
    np.divide(high, 6.0, out=out[3])  # t * (t * t - 1) / 6
    return out


def interpolate(f: ScalarField, points):
    """Evaluate a field at arbitrary points by periodic cubic interpolation.

    The tensor-product 4-point Lagrange stencil reproduces cubic
    polynomials along grid lines and is exact at nodes.

    Parameters
    ----------
    f : ScalarField
    points : array_like
        Finite query points of shape (d,) or (..., d); wrapped into the box.
        A non-finite coordinate raises ``FieldValidationError``.

    Returns
    -------
    float or ndarray
        Scalar for a single point, else an array of shape ``points.shape[:-1]``.
    """
    grid = f.grid
    pts = np.asarray(points, dtype=float)
    single = pts.ndim == 1
    pts = np.atleast_2d(pts)
    if pts.shape[-1] != grid.d:
        raise FieldValidationError(
            f"points have dimension {pts.shape[-1]}, grid has dimension {grid.d}"
        )
    if not np.all(np.isfinite(pts)):
        raise FieldValidationError("interpolation points must be finite")
    out = _cubic_read(grid, f.values[None], pts.reshape(1, -1, grid.d), clamp=False)
    out = out.reshape(pts.shape[:-1])
    return float(out[0]) if single else out


def _cubic_read(grid: SpatialGrid, values: np.ndarray, pts: np.ndarray,
                clamp: bool) -> np.ndarray:
    """The cubic rule of :func:`interpolate` on a batch of raw nodal values.

    ``values`` has shape (P, *grid.shape) and ``pts`` (P, Q, d): row p of
    the points reads field p. Returns shape (P, Q). ``clamp`` clips each
    value to the range of its stencil, at the price of cubic exactness. It
    is a block of one step, in one fresh workspace.
    """
    ws = _Workspace()
    plan = _cubic_plan(grid, pts[None], ws)
    out = np.empty((1,) + pts.shape[:2])
    _cubic_reader(grid, *pts.shape[:2], clamp, ws)(values, plan, out)
    return out[0]


def _cubic_plan(grid: SpatialGrid, pts: np.ndarray, ws: _Workspace) -> tuple:
    """Where and with what weights the cubic rule reads points of shape (S, P, Q, d).

    The S sets of points are located (:func:`_axis_locate`) and weighed in
    one pass. Returns the plan ``(start, weights)`` for :func:`_cubic_reader`.
    ``start`` has shape (S, P, Q): row s holds the flat index, in the
    wrap-padded stack of the P fields, of the first node of each point's
    stencil in set s. ``weights`` holds one C-contiguous (S, 4, P, Q) array
    per axis, whose row s is the weights of set s, one (P, Q) row per
    stencil offset. They are written once, through a swapaxes, as the
    (4, S, P, Q) weights of :func:`_cubic_weights`, whose products run in
    slots x1 and x2, and no view is made per set; the row of a set is contiguous, so the 1D read weighs its taps in
    one multiply with no buffer. The points may live in slot x2: they are
    read before it is written. A plan depends on the points only, so a read
    of any values may reuse it. It is made of views of the workspace ``ws``,
    valid until its next plan.
    """
    n_sets, n_fields, n_pts, d = pts.shape
    theta, base = ws.array("x0", pts.shape), ws.array("x1", pts.shape)
    _axis_locate(grid, pts, base, theta, ws.array("mask", pts.shape, np.bool_))
    side = grid.n + 3  # the padded length of an axis
    # The flat index, summed in floats: every term is an integer far below 2**53.
    first = base[..., 0]
    for a in range(1, d):
        first *= side
        first += base[..., a]
    first += (np.arange(n_fields) * side**d)[:, None]
    start = ws.array("start", first.shape, np.int64)
    np.copyto(start, first, casting="unsafe")
    # base and the points are spent: slots x1 and x2 carry the weights' products
    scratch = ws.array("x1", first.shape), ws.array("x2", first.shape)
    weights = [ws.array(f"w{a}", (n_sets, 4, n_fields, n_pts)) for a in range(d)]
    for a, rows in enumerate(weights):
        _cubic_weights(theta[..., a], rows.swapaxes(0, 1), scratch)
    return start, weights


def _cubic_reader(grid: SpatialGrid, n_fields: int, n_pts: int, clamp: bool,
                  ws: _Workspace):
    """The reader of stacks of P = ``n_fields`` fields, shape (P, *grid.shape),
    by plans of :func:`_cubic_plan` for Q = ``n_pts`` points per field.
    Make it after the plan it reads: a plan may replace a slot it views.

    ``read(values, plan, out)`` steps a block: for each of the S rows of
    the plan, step s reads ``values`` when s = 0 and ``out[s - 1]`` after,
    and writes ``out[s]``. ``out`` is a C-contiguous array of shape
    (S, P, Q); a block of more than one step reads at the nodes, Q =
    grid.size, and in 2D its ``out`` has shape (S, P, *grid.shape). ``out``
    may hold ``values`` itself: each step reads its values once, into the
    padded stack, before it writes its row. Every view a step uses, of
    slots x0 to x2 of the workspace ``ws``, is bound here, once, so a step
    makes no Python call but its numpy calls and allocates nothing.

    A step wrap-pads its values, by 1 node before and 2 after on each
    spatial axis, so every stencil is a 4-node window of it per axis and no
    index needs a modulo; the P padded fields are one table, so one flat
    index locates a stencil. 1D reads by :func:`_reader_1d`. In 2D the taps
    are summed by :func:`_window_sum`, and the clamp bounds are running
    minima and maxima over the flat padded stack, not a reduction per point.
    """
    n, d, side = grid.n, grid.d, grid.n + 3
    padded = ws.array("x0", (n_fields,) + (side,) * d)
    # Padded node j of an axis is node (j - 1) mod n, so the stencil around
    # node base starts at padded index base.
    interior = padded[(slice(None),) + (slice(1, n + 1),) * d]
    wraps = []
    for axis in range(1, d + 1):
        head = (slice(None),) * axis
        wraps += [(padded[head + (0,)], padded[head + (n,)]),
                  (padded[head + (slice(n + 1, n + 3),)], padded[head + (slice(1, 3),)])]
    if d == 1:
        return _reader_1d(padded.reshape(-1), interior, wraps, (n_fields, n_pts), clamp, ws)
    stack = padded.reshape((1, -1) + padded.shape[2:])
    if clamp:
        flat = padded.reshape(-1)
        steps = (1, 2, side, 2 * side)
        # An even number of steps ends the minima in x2, so x1 takes their
        # gather; the maxima then overwrite the padded stack in x0 once their
        # first step has read it.
        lo_steps = _running_extreme(flat, steps, ws, ("x1", "x2"))
        hi_steps = _running_extreme(flat, steps, ws, ("x2", "x0"))
        lo, hi = ws.array("x1", (n_fields, n_pts)), ws.array("x2", (n_fields, n_pts))

    def read(values: np.ndarray, plan, out: np.ndarray) -> None:
        starts, weights = plan
        sums = out.reshape((len(starts), 1) + starts.shape[1:])  # one table: (S, 1, P, Q)
        for start, rows, total, step in zip(starts, zip(*weights), sums, out):
            np.copyto(interior, values)
            for wrap, node in wraps:
                np.copyto(wrap, node)
            _window_sum(stack, start, rows, ws, total)
            if clamp:
                for below, above, extremes in lo_steps:
                    np.minimum(below, above, out=extremes)
                np.take(lo_steps[-1][2], start, out=lo, mode="clip")
                for below, above, extremes in hi_steps:
                    np.maximum(below, above, out=extremes)
                np.take(hi_steps[-1][2], start, out=hi, mode="clip")
                _clip(total, lo, hi, out=total)
            values = step

    return read


def _reader_1d(flat: np.ndarray, interior: np.ndarray, wraps: list, shape: tuple,
               clamp: bool, ws: _Workspace):
    """The 1D read of :func:`_cubic_reader`, over the flat padded stack
    ``flat``, whose steps each read (P, Q) = ``shape`` points.

    A step copies its values into ``interior`` and each wrap node from its
    ``(wrap, node)`` pair of ``wraps``: the pad. It then gathers the four
    taps of every window tap-major into slot x1, tap k by one take of the
    step's starts from ``flat`` viewed k nodes on. The clamp bounds, in slot
    x2, come from the taps before they are weighted, as min(min(t0, t1),
    min(t2, t3)) and the same with max: of two zeros, np.minimum and
    np.maximum return the second, so this pairing and order fix the sign of
    a zero bound, which is what the clip returns for a zero sum between zero
    bounds. The taps are then scaled by the weight rows in one multiply and
    added as ((0 + t0) + t2) + ((0 + t1) + t3), two running sums from +0.0,
    written (t0 + t2) + (t1 + t3) and then + 0.0, so that a zero sum is
    +0.0; numpy's clip ufunc then clamps the sum. Every array of a step has
    the shape (P, Q) of its row of ``out``, so a step reshapes nothing.
    """
    taps = ws.array("x1", (4,) + shape)
    t0, t1, t2, t3 = taps
    gathers = [(flat[k:], tap) for k, tap in enumerate(taps)]
    if clamp:
        lo, hi = ws.array("x2", (2,) + shape)

    def read(values: np.ndarray, plan, out: np.ndarray) -> None:
        starts, (weights,) = plan
        for start, rows, total in zip(starts, weights, out):
            np.copyto(interior, values)
            for wrap, node in wraps:
                np.copyto(wrap, node)
            # The indices are in range by construction, and "clip" spares take a buffer.
            for source, tap in gathers:
                source.take(start, out=tap, mode="clip")
            if clamp:  # the output is scratch until the sum
                np.minimum(t0, t1, out=lo)
                np.minimum(lo, np.minimum(t2, t3, out=total), out=lo)
                np.maximum(t0, t1, out=hi)
                np.maximum(hi, np.maximum(t2, t3, out=total), out=hi)
            np.multiply(taps, rows, out=taps)
            np.add(t0, t2, out=total)
            np.add(t1, t3, out=t1)
            total += t1
            total += 0.0  # a zero sum is +0.0, as when the sum starts from +0.0
            if clamp:
                _clip(total, lo, hi, out=total)
            values = total

    return read


def _running_extreme(flat: np.ndarray, steps, ws: _Workspace, pair) -> list:
    """The operands of a running extreme (np.minimum or np.maximum) of
    ``flat`` over ``steps``: extremes of 2, then 4 nodes along the rows,
    then of 2 and 4 rows. Step i is one (below, above, out) triple whose
    ``out`` is a view of slot ``pair[i % 2]``: running into an overlapping
    view of its own input would make numpy copy. The last ``out`` holds the
    extremes of every stencil, at the flat index of its first node."""
    triples = []
    for i, step in enumerate(steps):
        out = ws.array(pair[i % 2], (flat.size - step,))
        triples.append((flat[:-step], flat[step:], out))
        flat = out
    return triples


def _window_sum(stack: np.ndarray, start: np.ndarray, weights, ws: _Workspace,
                out: np.ndarray) -> np.ndarray:
    """The cubic rule on 4 x 4-node windows of a C-contiguous stack of C 2D
    tables: point q reads, in every table, the window whose first node has
    flat index ``start[q]`` in the table, weighted by entry q of the rows
    of the ``_cubic_weights`` of each axis, one row of the shape of
    ``start`` per stencil offset. Returns ``out``, shape (C, *start.shape);
    its scratch is in ``ws``.

    The 16 taps are gathered one at a time, each a contiguous array of the
    shape of ``out`` in slot x1, scaled by the weight rows ``weights[0][i]``
    and ``weights[1][j]``, and (w0_i * tap_ij) * w1_j is added to one zeroed
    sum in row-major (i, j) order, with no stencil array.
    """
    flat = stack.reshape(len(stack), -1)
    row = stack.shape[-1]  # flat distance to the next row
    out.fill(0.0)
    tap = ws.array("x1", out.shape)
    for i in range(4):
        for j in range(4):
            # tap (i, j) of every window: each table read from i rows and j nodes on,
            # table by table, since np.take would copy a strided view of all of them
            for table, table_tap in zip(flat, tap):
                # the indices are in range by construction, and "clip" spares a buffer
                np.take(table[i * row + j:], start, out=table_tap, mode="clip")
            tap *= weights[0][i]
            tap *= weights[1][j]
            out += tap
    return out


def shift_field(f: ScalarField, delta) -> ScalarField:
    """Translate a field: returns g with g(x) = f(x - delta), periodically.

    Shifts that are exact lattice multiples of the spacing h (within a
    relative tolerance of 1e-12) are performed by index rotation, which
    is bit-exact and conserves every Lp norm; other shifts interpolate
    cubically at the displaced nodes (:func:`_shifted`, with one field).
    """
    grid = f.grid
    dvec = np.broadcast_to(np.asarray(delta, dtype=float), (grid.d,))
    if not np.all(np.isfinite(dvec)):
        raise FieldValidationError("shift displacement must be finite")
    (values,) = _shifted(grid, f.values[None], dvec[None], _Workspace())
    return ScalarField(grid, values)


def _shifted(grid: SpatialGrid, values: np.ndarray, deltas: np.ndarray,
             ws: _Workspace) -> list:
    """The rule of :func:`shift_field` on a batch: field p of ``values``,
    shape (P, *grid.shape), translated by row p of the finite ``deltas``,
    shape (P, d). Returns one array of ``grid.shape`` per field.

    Each field takes the lattice rule on its own: a shift within the
    relative tolerance of a lattice multiple rolls that field (keeping a
    -0.0), and every other field is read at its displaced nodes, all of
    them in one clamp-free plan and read of the workspace ``ws``. The read
    rows are views of its slot ``"shifted"``, valid until its next shift.
    """
    ratio = deltas / grid.h
    nearest = np.round(ratio)
    lattice = np.logical_and.reduce(
        np.abs(ratio - nearest) <= _LATTICE_RTOL * np.maximum(1.0, np.abs(ratio)), axis=-1)
    out = [None] * len(values)
    moved = np.flatnonzero(~lattice).tolist()
    if moved:
        query = grid.nodes() - deltas[moved, None, :]
        if not np.logical_and.reduce(np.isfinite(query), axis=None):
            raise FieldValidationError("interpolation points must be finite")
        plan = _cubic_plan(grid, query[None], ws)
        rows = ws.array("shifted", (1, len(moved), grid.size))
        _cubic_reader(grid, len(moved), grid.size, False, ws)(
            values if len(moved) == len(values) else values[moved], plan, rows)
        for p, row in zip(moved, rows.reshape((len(moved),) + grid.shape)):
            out[p] = row
    for p in np.flatnonzero(lattice).tolist():
        # the remainder is exact in floats, and far below 2**63 when cast
        shifts = (np.fmod(nearest[p], grid.n).astype(np.int64) % grid.n).tolist()
        out[p] = np.roll(values[p], shifts, axis=tuple(range(grid.d)))
    return out

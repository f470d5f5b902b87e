"""Periodic grids, scalar fields, and the measure-theoretic toolbox.

Everything downstream (transport marching, path shifting, weak-form
quadrature) works on uniform periodic grids over the box [-L, L)^d.
This module owns the grid geometry, Lp norms by rectangle-rule
quadrature, periodic tensor-product interpolation, lattice-aware field
shifting, and the field CSV format. A read sums each point's stencil,
one 4-node-per-axis window of a wrap-padded stack (``_window_sum``,
which also reads the 2D mollifier tables): in 1D from one gather of
every window's four nodes, summed by an einsum with (Q, 4) weights; in
2D tap by tap, 16 gathers with no (Q, 4, 4) stencil array, each scaled
by a contiguous row of (4, Q) weights. A read is a plan, the flat
index of each point's window and its weights (``_cubic_plan``), then its
application to the values (``_cubic_reader``); the march plans a block of
steps at once and applies one plan per step. Both write every array
they make into a workspace (``_Workspace``): named scratch arrays that a
solve allocates at its first block and reuses at every later step, so
the march's reads allocate nothing. ``interpolate`` and ``shift_field``
take the same code path with a fresh workspace per call; a mollified
drift's lookup writes into a workspace of its table's. A snapshot's
``index`` and coordinate cells are formatted once per grid
(``SpatialGrid._row_prefixes``), so each write formats only its values
and hands the body to ``artifacts.write_body``; the reader requires
each row to be exactly those cells and one value.
Smoothing is applied to drifts only, by ``transport.mollified_drift``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .artifacts import read_body, write_body
from .errors import FieldValidationError

__all__ = [
    "SpatialGrid",
    "ScalarField",
    "lp_norm",
    "interpolate",
    "shift_field",
    "write_field_csv",
    "read_field_csv",
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
        if self.n < 8:
            raise FieldValidationError(f"need at least 8 points per axis, got {self.n}")

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

    def _row_prefixes(self) -> tuple:
        """The leading cells ``"i,x1[,x2],"`` of every snapshot row, row-major,
        as :meth:`_iter_row_prefixes` formats them.

        Formatted on the first call; every later call returns the same tuple.
        """
        prefixes = self.__dict__.get("_prefixes")
        if prefixes is None:
            prefixes = tuple(self._iter_row_prefixes())
            object.__setattr__(self, "_prefixes", prefixes)
        return prefixes

    def _iter_row_prefixes(self):
        """The leading cells of each snapshot row, formatted one row at a time:
        the index, then each coordinate as its shortest round-trip text."""
        axis = [f"{x}," for x in self.axis().tolist()]
        coords = axis if self.d == 1 else itertools.starmap(str.__add__, itertools.product(axis, axis))
        return (f"{i},{cells}" for i, cells in enumerate(coords))


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
        """Sample ``fn`` on the grid nodes. ``fn`` maps (..., d) points to values."""
        vals = np.asarray(fn(grid.nodes()), dtype=float).reshape(grid.shape)
        return cls(grid, vals)

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
    float.
    """
    pv = float(p)
    if not (pv >= 1.0 and math.isfinite(pv)):
        raise FieldValidationError(f"exponent must satisfy 1 <= p < inf, got {pv}")
    vals = f.values
    if not np.all(np.isfinite(vals)):
        raise FieldValidationError("cannot take the norm of a non-finite field")
    total = math.fsum((np.abs(vals) ** pv).ravel()) * f.grid.cell_volume
    return total ** (1.0 / pv)


class _Workspace:
    """Scratch arrays of one march, reused from step to step.

    ``array(name, shape, dtype)`` returns the leading elements of slot
    ``name``, one flat array, as an uninitialized array of that shape. A
    slot is allocated at its first request and replaced only by a larger
    one, so after a march's first block its steps allocate none of the
    arrays below. Each view is made once per shape and kept; a view taken
    before its slot was replaced keeps the old array. Every plan, reader
    and RK4 trace takes a workspace; ``interpolate`` and ``shift_field``
    pass a fresh one per call (``_cubic_read``) and take the same code
    path. A mollified drift's table (``transport.mollified_drift``) has a
    workspace of its own for its lookups, so a solve holds two.

    Views of one slot overlap, so each phase of a step uses a slot only
    while no other phase needs what it holds. The slots, by the phase of a
    semi-Lagrangian step that writes them:

    - ``"x0"``, ``"x1"``, ``"x2"``, float scratch. The RK4 trace
      (``transport._rk4_feet``) keeps its stage points in x1 and its
      running sum, then the feet, in x2; ``transport._composed_drift`` shifts
      the points it is asked about into x0. The plan (:func:`_cubic_plan`)
      reads the feet and writes theta to x0 and the stencil bases to x1.
      A read (:func:`_cubic_reader`) pads the values into x0, gathers the
      taps into x1, and takes its running extremes in x1, x2 and x0.
    - ``"start"`` (int64), ``"w0"`` and ``"w1"``: the plans of a block,
      the weights (S, P, Q, 4) in 1D and (4, S, P, Q) per axis in 2D.
    - ``"index"`` (int64): the stencil nodes of a 1D read; ``"mask"``
      (bool): the plan's scratch.
    - ``"values"``: the values after each step of a block.

    The slots of a mollified table's workspace, by its lookup's steps: in
    1D ``"k"``, ``"node"``, ``"mask"`` (bool), ``"j"`` (int64) and
    ``"value"`` (``transport._lattice_interp``); in 2D the weights
    ``"w0"`` and ``"w1"``, and the taps in ``"x1"`` (:func:`_window_sum`).
    Each lookup returns a fresh array.
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
    taken as numpy takes it: fmod, plus 2L where fmod is negative. Only its
    sign of zero may differ (numpy returns +0.0), which moves neither the
    fractional offset nor the node index.
    """
    L = grid.half_width
    np.add(coords, L, out=theta)
    np.fmod(theta, 2.0 * L, out=theta)
    np.add(theta, 2.0 * L, out=theta, where=np.less(theta, 0.0, out=mask))
    theta /= grid.h
    np.floor(theta, out=base)
    theta -= base
    # The offset can be exactly 2L just below a period boundary: base n wraps to node 0.
    np.copyto(base, 0.0, where=np.greater_equal(base, grid.n, out=mask))


def _cubic_weights(theta: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Lagrange weights on the 4-point stencil {-1, 0, 1, 2}, exact for cubic
    polynomials along the axis: weight i of each offset is written into
    ``out[i]``, of shape ``(4,) + theta.shape``, and ``out`` is returned.

    The weights take no temporary: until their own turn, ``out[1]`` holds
    t - 2 and ``out[3]`` holds t + 1, then t - 1, then t * t - 1. Each
    weight is the same product, bit for bit, as the formula written in its
    comment. The 2D plan passes contiguous rows; the 1D plan passes
    ``np.moveaxis`` of the (..., 4) array its einsum reads.
    """
    t = theta
    w_m1, w_0, w_p1, w_p2 = out
    np.subtract(t, 2.0, out=w_0)
    np.add(t, 1.0, out=w_p2)
    np.negative(t, out=w_p1)
    w_p1 *= w_p2
    w_p1 *= w_0
    w_p1 /= 2.0  # -t * (t + 1) * (t - 2) / 2
    np.subtract(t, 1.0, out=w_p2)
    np.negative(t, out=w_m1)
    w_m1 *= w_p2
    w_m1 *= w_0
    w_m1 /= 6.0  # -t * (t - 1) * (t - 2) / 6
    np.multiply(t, t, out=w_p2)
    w_p2 -= 1.0
    w_0 *= w_p2
    w_0 /= 2.0  # (t * t - 1) * (t - 2) / 2
    w_p2 *= t
    w_p2 /= 6.0  # t * (t * t - 1) / 6
    return out


def interpolate(f: ScalarField, points):
    """Evaluate a field at arbitrary points by periodic cubic interpolation.

    The tensor-product 4-point Lagrange stencil reproduces cubic
    polynomials along grid lines and is exact at nodes.

    Parameters
    ----------
    f : ScalarField
    points : array_like
        Query points of shape (d,) or (..., d); wrapped into the box.

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
    out = _cubic_read(grid, f.values[None], pts.reshape(1, -1, grid.d), clamp=False)
    out = out.reshape(pts.shape[:-1])
    return float(out[0]) if single else out


def _cubic_read(grid: SpatialGrid, values: np.ndarray, pts: np.ndarray,
                clamp: bool) -> np.ndarray:
    """The cubic rule of :func:`interpolate` on a batch of raw nodal values.

    ``values`` has shape (P, *grid.shape) and ``pts`` (P, Q, d): row p of
    the points reads field p. Returns shape (P, Q). The P fields are read
    as one stack along the first axis, by the same arithmetic whatever P
    is. ``clamp`` clips each value to the range of its stencil: the
    semi-Lagrangian stepper's discrete maximum principle, at the price of
    cubic exactness. It is :func:`_cubic_plan` followed by a read of
    :func:`_cubic_reader`, in one fresh workspace.
    """
    ws = _Workspace()
    (plan,) = _cubic_plan(grid, pts[None], ws)
    return _cubic_reader(grid, *pts.shape[:2], clamp, ws)(values, plan)


def _cubic_plan(grid: SpatialGrid, pts: np.ndarray, ws: _Workspace) -> list:
    """Where and with what weights the cubic rule reads points of shape (S, P, Q, d).

    The S sets of points are located and weighed in one pass. Returns one
    plan per set for :func:`_cubic_reader`: the flat index, in the
    wrap-padded stack of the P fields, of the first node of each point's
    stencil, and the weights per axis in the layout :func:`_window_sum`
    reads: in 1D one (P * Q, 4) array, in 2D two (4, P * Q) arrays of
    contiguous rows. A plan depends on the
    points only, so a read of any values may reuse it. The plans are views
    of the workspace ``ws``, valid until its next plan.
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
    if d == 1:
        w = ws.array("w0", first.shape + (4,))
        _cubic_weights(theta[..., 0], np.moveaxis(w, -1, 0))
        return [(start[s].reshape(-1), [w[s].reshape(-1, 4)]) for s in range(n_sets)]
    weights = [_cubic_weights(theta[..., a], ws.array(f"w{a}", (4,) + first.shape))
               for a in range(d)]
    return [(start[s].reshape(-1), [w[:, s].reshape(4, -1) for w in weights])
            for s in range(n_sets)]


def _cubic_reader(grid: SpatialGrid, n_fields: int, n_pts: int, clamp: bool,
                  ws: _Workspace):
    """The reader of stacks of P = ``n_fields`` fields, shape (P, *grid.shape),
    by plans of :func:`_cubic_plan` for Q = ``n_pts`` points per field:
    ``read(values, plan, out=None)`` returns shape (P, Q), written into
    ``out``, a C-contiguous array, when given. ``out`` may be ``values``
    itself: the values are read once, into the padded stack, before ``out``
    is written.

    The stack is wrap-padded once per read, by 1 node before and 2 after on
    each spatial axis, so every stencil is a 4-node window of it per axis
    and no index needs a modulo. The padded stack is read as one table, the
    P fields one after another along its first axis, so one flat index
    locates a stencil. The clamp bounds are running minima and maxima
    over the flat padded stack, not a reduction per point. Every scratch
    array of a read is a view of the workspace ``ws`` taken here, once, so
    a march makes one reader per block and its reads allocate nothing.
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
    stack = padded.reshape((1, -1) + padded.shape[2:])
    if clamp:
        flat = padded.reshape(-1)
        steps = (1, 2, side, 2 * side)[: 2 * d]
        # An even number of steps ends the minima in x2, so x1 takes their
        # gather; the maxima then overwrite the padded stack in x0 once their
        # first step has read it.
        lo_steps = _running_extreme(flat, steps, ws, ("x1", "x2"))
        hi_steps = _running_extreme(flat, steps, ws, ("x2", "x0"))
        lo, hi = ws.array("x1", (n_fields * n_pts,)), ws.array("x2", (n_fields * n_pts,))

    def read(values: np.ndarray, plan, out: np.ndarray | None = None) -> np.ndarray:
        start, weights = plan
        np.copyto(interior, values)
        for wrap, source in wraps:
            np.copyto(wrap, source)
        if out is None:
            out = np.empty((n_fields, n_pts))
        total = out.reshape(1, -1)
        _window_sum(stack, start, weights, ws, total)
        if clamp:
            for below, above, extremes in lo_steps:
                np.minimum(below, above, out=extremes)
            np.take(lo_steps[-1][2], start, out=lo, mode="clip")
            for below, above, extremes in hi_steps:
                np.maximum(below, above, out=extremes)
            np.take(hi_steps[-1][2], start, out=hi, mode="clip")
            np.clip(total[0], lo, hi, out=total[0])
        return out.reshape(n_fields, -1)

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


#: The offsets of a 1D window's four nodes from its first.
_STENCIL = np.arange(4)


def _window_sum(stack: np.ndarray, start: np.ndarray, weights, ws: _Workspace,
                out: np.ndarray) -> np.ndarray:
    """The cubic rule on 4-node windows of a C-contiguous stack of C tables
    of 1D or 2D: point q reads, in every table, the window whose first node
    has flat index ``start[q]`` in the table, weighted by the ``_cubic_weights``
    of each axis: in 1D row q of one (Q, 4) array, in 2D column q of two
    (4, Q) arrays. Returns ``out``, shape (C, Q); its scratch is in ``ws``.

    1D gathers every window's four nodes into one (C, Q, 4) array and sums
    it by ``np.einsum``; its weights stay (Q, 4), since the einsum's bits
    depend on their layout. 2D gathers the 16 taps one at a time, each a
    contiguous (C, Q) array, scales it by the contiguous weight rows
    ``weights[0][i]`` and ``weights[1][j]``, and adds (w0_i * tap_ij) * w1_j
    to one zeroed sum in row-major (i, j) order: the three-operand einsum's
    sum, bit for bit, without its (C, Q, 4, 4) stencil.
    """
    flat = stack.reshape(len(stack), -1)
    # The indices are in range by construction, and "clip" spares np.take a buffer.
    if len(weights) == 1:
        index = np.add(start[:, None], _STENCIL, out=ws.array("index", (len(start), 4), np.int64))
        taps = np.take(flat, index, axis=1, out=ws.array("x1", (len(flat), len(start), 4)),
                       mode="clip")
        return np.einsum("qi,...qi->...q", weights[0], taps, out=out)
    row = stack.shape[-1]  # flat distance to the next row
    out.fill(0.0)
    tap = ws.array("x1", out.shape)
    for i in range(4):
        for j in range(4):
            # tap (i, j) of every window: each table read from i rows and j nodes on,
            # table by table, since np.take would copy a strided view of all of them
            for table, table_tap in zip(flat, tap):
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
    cubically at the displaced nodes.
    """
    grid = f.grid
    dvec = np.broadcast_to(np.asarray(delta, dtype=float), (grid.d,))
    if not np.all(np.isfinite(dvec)):
        raise FieldValidationError("shift displacement must be finite")
    ratio = dvec / grid.h
    nearest = np.round(ratio)
    if np.all(np.abs(ratio - nearest) <= _LATTICE_RTOL * np.maximum(1.0, np.abs(ratio))):
        shifts = (nearest.astype(np.int64) % grid.n).tolist()
        return ScalarField(grid, np.roll(f.values, shifts, axis=tuple(range(grid.d))))
    query = grid.nodes() - dvec[None, :]
    vals = interpolate(f, query)
    return ScalarField(grid, np.asarray(vals).reshape(grid.shape))


def _field_columns(d: int) -> list:
    """The column names of a snapshot of a d-dimensional grid."""
    return ["index"] + [f"x{a + 1}" for a in range(d)] + ["value"]


def write_field_csv(f: ScalarField, path) -> None:
    """Write a field snapshot: header comment, column names, row-major rows."""
    grid = f.grid
    header = ("grid", {"d": grid.d, "L": float(grid.half_width), "N": grid.n})
    values = map(repr, f.values.ravel().tolist())
    body = "\n".join(map(str.__add__, grid._row_prefixes(), values)) + "\n"
    write_body(path, _field_columns(grid.d), body, header)


def read_field_csv(path, grid: SpatialGrid | None = None) -> ScalarField:
    """Read a snapshot written by :func:`write_field_csv`, one row at a time.

    Every row must be the writer's own text: the index and coordinate
    cells the writer formats for the grid of the header, then one value
    cell, a finite number. ``grid``, when given, is the grid the header
    must state, and its cached row prefixes (``SpatialGrid._row_prefixes``)
    are the reference, so a caller that reads many snapshots of one grid
    passes it; without it each row's prefix is formatted as the row is
    read. A missing or malformed grid header, a header of another grid,
    other column names, a row that breaks the rule, or a row count other
    than the grid's raises :class:`FieldValidationError` naming the file,
    and the row and the cell where there is one.
    """
    header, columns, lines = read_body(path)
    if header is None or header[0] != "grid":
        raise FieldValidationError(f"{path}: missing grid header line")
    meta = header[1]
    try:
        stated = SpatialGrid(d=int(meta["d"]), half_width=float(meta["L"]), n=int(meta["N"]))
    except (KeyError, ValueError, FieldValidationError) as exc:
        raise FieldValidationError(f"{path}: bad grid header: {exc}") from None
    if grid is None:
        grid, prefixes = stated, stated._iter_row_prefixes()
    elif stated != grid:
        raise FieldValidationError(f"{path}: the header states {stated}, expected {grid}")
    else:
        prefixes = grid._row_prefixes()
    names = _field_columns(grid.d)
    if columns != names:
        raise FieldValidationError(
            f"{path}: columns {','.join(columns)!r}, expected {','.join(names)!r}")
    vals = []
    for count, (prefix, line) in enumerate(zip(prefixes, lines)):
        # The row is its prefix and one cell exactly when its last comma ends the prefix.
        head, _, cell = line.rpartition(",")
        if len(head) + 1 != len(prefix) or not line.startswith(prefix):
            raise FieldValidationError(f"{path}: {_row_fault(line, prefix, count, names)}")
        try:
            vals.append(float(cell))
        except ValueError:
            raise FieldValidationError(
                f"{path}: row {count}: value {cell!r} is not a number") from None
    n_rows = len(vals) + sum(1 for _ in lines)
    if n_rows != grid.size:
        raise FieldValidationError(f"{path}: expected {grid.size} rows, got {n_rows}")
    values = np.array(vals)
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise FieldValidationError(
            f"{path}: row {bad[0]}: value {vals[bad[0]]!r} is not finite")
    return ScalarField(grid, values.reshape(grid.shape))


def _row_fault(line: str, prefix: str, count: int, names: list) -> str:
    """Why snapshot row ``count`` is not ``prefix`` plus one value cell, naming
    the first cell at fault."""
    cells = line.split(",")
    try:
        index = int(cells[0])
    except ValueError:
        return f"row {count}: index {cells[0]!r} is not an integer"
    if index != count:
        return f"rows out of order at {count}"
    if len(cells) > len(names):
        return f"row {count}: cell {cells[len(names)]!r} follows the value cell"
    if len(cells) < len(names):
        return f"row {count}: {len(cells)} cells, expected {len(names)}: {','.join(names)}"
    for name, cell, written in zip(names, cells, prefix.split(",")):
        if cell != written:
            return f"row {count}: {name} {cell!r} is not the grid's {written!r}"
    return f"row {count}: {line!r} is not {prefix!r} and one value cell"

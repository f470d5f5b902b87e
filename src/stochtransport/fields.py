"""Periodic grids, scalar fields, and the measure-theoretic toolbox.

Everything downstream (transport marching, path shifting, weak-form
quadrature) works on uniform periodic grids over the box [-L, L)^d.
This module owns the grid geometry, Lp norms by rectangle-rule
quadrature, periodic tensor-product interpolation, lattice-aware field
shifting, and the field CSV format. A read sums each point's stencil,
one 4-node-per-axis window of a wrap-padded stack (``_window_sum``,
which also reads the 2D mollifier tables): in 1D from one strided view
of every window, in 2D tap by tap, 16 gathers with no (Q, 4, 4)
stencil array. A read is a plan, the flat
index of each point's window and its weights (``_cubic_plan``), then its
application to the values (``_cubic_apply``); the march plans a block of
steps at once and applies one plan per step. A snapshot's ``index`` and
coordinate cells are formatted once per grid (``SpatialGrid._row_prefixes``),
so each write formats only its values and hands the body to
``artifacts.write_body``.
Smoothing is applied to drifts only, by ``transport.mollified_drift``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .artifacts import read_csv, write_body
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
        """The leading cells ``"i,x1[,x2],"`` of every snapshot row, row-major.

        Formatted on the first call; every later call returns the same tuple.
        """
        prefixes = self.__dict__.get("_prefixes")
        if prefixes is None:
            cells = "%s," * (self.d + 1)
            prefixes = tuple(cells % row
                             for row in zip(range(self.size), *self.nodes().T.tolist()))
            object.__setattr__(self, "_prefixes", prefixes)
        return prefixes


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


def _axis_locate(grid: SpatialGrid, coords: np.ndarray):
    """Base index and fractional offset of query coordinates along one axis."""
    L = grid.half_width
    s = np.mod(coords + L, 2.0 * L) / grid.h
    base = np.floor(s).astype(np.int64)
    theta = s - base
    # np.mod can return exactly 2L just below a period boundary: base n wraps to node 0.
    return base % grid.n, theta


def _cubic_weights(theta: np.ndarray) -> np.ndarray:
    # Lagrange weights on the 4-point stencil {-1, 0, 1, 2}; exact for
    # cubic polynomials along the axis.
    t = theta
    w_m1 = -t * (t - 1.0) * (t - 2.0) / 6.0
    w_0 = (t * t - 1.0) * (t - 2.0) / 2.0
    w_p1 = -t * (t + 1.0) * (t - 2.0) / 2.0
    w_p2 = t * (t * t - 1.0) / 6.0
    return np.stack([w_m1, w_0, w_p1, w_p2], axis=-1)


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
    cubic exactness. It is :func:`_cubic_plan` followed by
    :func:`_cubic_apply`.
    """
    return _cubic_apply(grid, values, _cubic_plan(grid, pts[None])[0], clamp)


def _cubic_plan(grid: SpatialGrid, pts: np.ndarray) -> list:
    """Where and with what weights the cubic rule reads points of shape (S, P, Q, d).

    The S sets of points are located and weighed in one pass. Returns one
    plan per set for :func:`_cubic_apply`: the flat index, in the
    wrap-padded stack of the P fields, of the first node of each point's
    stencil, and the (P * Q, 4) weights per axis. A plan depends on the
    points only, so a read of any values may reuse it.
    """
    n_sets, n_fields, n_pts, d = pts.shape
    base, theta = _axis_locate(grid, pts.reshape(-1, d))
    base = base.reshape(n_sets, -1, d)
    side = grid.n + 3  # the padded length of an axis
    start = np.repeat(np.arange(n_fields) * side**d, n_pts)
    for a in range(d):
        start = start + base[..., a] * side ** (d - 1 - a)
    weights = [_cubic_weights(theta[:, a]).reshape(n_sets, -1, 4) for a in range(d)]
    return [(start[s], [w[s] for w in weights]) for s in range(n_sets)]


def _cubic_apply(grid: SpatialGrid, values: np.ndarray, plan, clamp: bool) -> np.ndarray:
    """Read a stack of P fields, shape (P, *grid.shape), by a plan of
    :func:`_cubic_plan`; returns shape (P, Q).

    The stack is wrap-padded once, by 1 node before and 2 after on each
    spatial axis, so every stencil is a 4-node window of it per axis and
    no index needs a modulo. The padded stack is read as one table, the
    P fields one after another along its first axis, so one flat index
    locates a stencil. The clamp bounds are running minima and maxima
    over the flat padded stack, not a reduction per point.
    """
    start, weights = plan
    # Node i sits at padded index i + 1, so the stencil around node base starts at base.
    wrap = np.arange(-1, grid.n + 2) % grid.n
    padded = values
    for axis in range(1, grid.d + 1):
        padded = np.take(padded, wrap, axis=axis)
    out = _window_sum(padded.reshape((1, -1) + padded.shape[2:]), start, weights)[0]
    if clamp:
        lo = hi = padded.reshape(-1)
        for step in (1, 2, grid.n + 3, 2 * (grid.n + 3))[: 2 * grid.d]:
            # extremes of 2, then 4 nodes along the rows, then of 2 and 4 rows
            lo, hi = np.minimum(lo[:-step], lo[step:]), np.maximum(hi[:-step], hi[step:])
        out = np.clip(out, np.take(lo, start), np.take(hi, start))
    return out.reshape(values.shape[0], -1)


def _window_sum(stack: np.ndarray, start: np.ndarray, weights) -> np.ndarray:
    """The cubic rule on 4-node windows of a C-contiguous stack of C tables
    of 1D or 2D: point q reads, in every table, the window whose first node
    has flat index ``start[q]`` in the table, weighted by row q of
    ``weights``, one (Q, 4) array of ``_cubic_weights`` per axis. Returns
    shape (C, Q).

    1D reads every window as one strided view and sums it by ``np.einsum``.
    2D gathers the 16 taps one at a time, each a contiguous (C, Q) array,
    and adds (w0_i * tap_ij) * w1_j to one zeroed sum in row-major (i, j)
    order: the three-operand einsum's sum, bit for bit, without its
    (C, Q, 4, 4) stencil.
    """
    flat = stack.reshape(len(stack), -1)
    if len(weights) == 1:
        item = flat.strides[1]
        # Every window as one strided view: window k starts at flat node k of its table.
        windows = np.ndarray((len(flat), flat.shape[1] - 3, 4), flat.dtype, flat,
                             strides=(flat.strides[0], item, item))
        return np.einsum("qi,...qi->...q", weights[0], windows[:, start])
    row = stack.shape[-1]  # flat distance to the next row
    out = np.zeros((len(flat), len(start)))
    tap = np.empty_like(out)
    for i in range(4):
        for j in range(4):
            # tap (i, j) of every window: the stack read from i rows and j nodes on;
            # the indices are in range by construction, and "clip" spares take a buffer
            np.take(flat[:, i * row + j:], start, axis=1, out=tap, mode="clip")
            tap *= weights[0][:, i]
            tap *= weights[1][:, j]
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


def write_field_csv(f: ScalarField, path) -> None:
    """Write a field snapshot: header comment, column names, row-major rows."""
    grid = f.grid
    columns = ["index"] + [f"x{a + 1}" for a in range(grid.d)] + ["value"]
    header = ("grid", {"d": grid.d, "L": float(grid.half_width), "N": grid.n})
    values = map(repr, f.values.ravel().tolist())
    body = "\n".join(map(str.__add__, grid._row_prefixes(), values)) + "\n"
    write_body(path, columns, body, header)


def read_field_csv(path) -> ScalarField:
    """Read a snapshot written by :func:`write_field_csv`.

    A missing or malformed grid header, an index that is not the row's
    integer position, a value that is not a finite number, or a row count
    other than the grid's raises :class:`FieldValidationError` naming the
    file (and the row).
    """
    header, _, rows = read_csv(path)
    if header is None or header[0] != "grid":
        raise FieldValidationError(f"{path}: missing grid header line")
    meta = header[1]
    try:
        grid = SpatialGrid(d=int(meta["d"]), half_width=float(meta["L"]), n=int(meta["N"]))
    except (KeyError, ValueError, FieldValidationError) as exc:
        raise FieldValidationError(f"{path}: bad grid header: {exc}") from None
    vals = []
    for count, row in enumerate(rows):
        try:
            index = int(row[0])
        except ValueError:
            raise FieldValidationError(
                f"{path}: row {count}: index {row[0]!r} is not an integer") from None
        if index != count:
            raise FieldValidationError(f"{path}: rows out of order at {count}")
        try:
            vals.append(float(row[-1]))
        except ValueError:
            raise FieldValidationError(
                f"{path}: row {count}: value {row[-1]!r} is not a number") from None
    if len(vals) != grid.size:
        raise FieldValidationError(f"{path}: expected {grid.size} rows, got {len(vals)}")
    values = np.array(vals)
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise FieldValidationError(
            f"{path}: row {bad[0]}: value {vals[bad[0]]!r} is not finite")
    return ScalarField(grid, values.reshape(grid.shape))

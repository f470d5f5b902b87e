"""Driving paths: K + 1 values on the uniform mesh of [0, T].

A path holds W(t_k) at t_k = k T / K and is linear in between. Brownian
paths are sampled with the counter-based Philox generator so that a seed
pins the whole trajectory bit for bit, across platforms and across
repeated calls. Piecewise-linear interpolants of a Brownian path through
coarser dyadic knots provide the bounded-variation approximations used
by the Wong-Zakai convergence study.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .artifacts import read_csv, write_csv
from .errors import ConfigError, MeshMismatchError, PathRangeError

__all__ = [
    "SamplePath",
    "sample_brownian",
    "zero_path",
    "piecewise_linear_approx",
    "eval_path",
    "sup_distance",
    "write_path_csv",
    "read_path_csv",
]

PATH_KINDS = ("brownian", "piecewise_linear_bv", "zero")

#: Relative slack when checking that an evaluation time lies in [0, T].
_TIME_RTOL = 1.0e-9


@dataclass(frozen=True)
class SamplePath:
    """A continuous path on the uniform mesh of [0, T], linear between knots.

    ``values`` holds W(t_k) with shape (K+1, d), K >= 1, and every path
    starts at the origin; ``horizon`` is T > 0. The knots are not stored:
    ``times`` is ``linspace(0, T, K + 1)``. ``kind`` is one of
    ``brownian``, ``piecewise_linear_bv`` or ``zero``.
    """

    values: np.ndarray
    horizon: float
    kind: str
    seed: int | None = None

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        horizon = float(self.horizon)
        if self.kind not in PATH_KINDS:
            raise ConfigError(f"unknown path kind {self.kind!r}")
        if values.ndim != 2 or values.shape[0] < 2:
            raise ConfigError(f"path values need shape (K + 1, d), K >= 1, not {values.shape}")
        if not (horizon > 0 and math.isfinite(horizon)):
            raise ConfigError(f"horizon must be positive and finite, got {horizon}")
        if not np.all(np.isfinite(values)):
            raise ConfigError("path knots must be finite")
        if np.any(values[0] != 0.0):
            raise ConfigError("paths start at the origin, W(0) = 0")
        if self.kind == "zero" and np.any(values != 0.0):
            raise ConfigError("a zero path must vanish at every knot")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "horizon", horizon)

    @functools.cached_property
    def times(self) -> np.ndarray:
        times = np.linspace(0.0, self.horizon, self.n_steps + 1)
        times.setflags(write=False)
        return times

    @property
    def n_steps(self) -> int:
        return self.values.shape[0] - 1

    @property
    def d(self) -> int:
        return self.values.shape[1]


def sample_brownian(seed: int, horizon: float, n_steps: int, d: int) -> SamplePath:
    """Draw a d-dimensional Brownian path on the uniform mesh t_k = k*T/K.

    Increments are independent Gaussians of variance T/K per component,
    drawn from ``numpy.random.Philox`` keyed by the seed. Philox is a
    counter-based generator with a documented algorithm, so the same
    (seed, K, d) always reproduces the same path, on any platform.
    Increments are consumed in (step, component) row-major order.
    """
    if not (horizon > 0 and math.isfinite(horizon)):
        raise ConfigError(f"horizon must be positive, got {horizon}")
    if n_steps < 1:
        raise ConfigError(f"need at least one step, got {n_steps}")
    if d < 1:
        raise ConfigError(f"path dimension must be positive, got {d}")
    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    dt = horizon / n_steps
    increments = rng.standard_normal((n_steps, d)) * math.sqrt(dt)
    values = np.vstack([np.zeros((1, d)), np.cumsum(increments, axis=0)])
    return SamplePath(values, horizon, "brownian", seed=int(seed))


def zero_path(horizon: float, n_steps: int, d: int) -> SamplePath:
    """The path that stays at the origin, on the same mesh layout as Brownian ones."""
    return SamplePath(np.zeros((n_steps + 1, d)), horizon, "zero")


def piecewise_linear_approx(path: SamplePath, n_knots: int) -> SamplePath:
    """Piecewise-linear interpolant of a path through n coarse knots.

    The coarse mesh keeps every (K/n)-th knot of the fine mesh, so n must
    divide K; values at coarse knots are copied bitwise and intermediate
    fine-mesh values are filled by linear interpolation. With n = K the
    input values are returned unchanged. The result is a continuous path
    of bounded variation, tagged ``piecewise_linear_bv``.
    """
    if path.kind not in ("brownian", "piecewise_linear_bv"):
        raise ConfigError(f"cannot coarsen a path of kind {path.kind!r}")
    K = path.n_steps
    if n_knots < 1 or K % n_knots != 0:
        raise MeshMismatchError(f"{n_knots} segments do not divide the fine mesh of {K} steps")
    stride = K // n_knots
    coarse = path.values[::stride]  # (n+1, d)
    frac = (np.arange(stride) / stride)[None, :, None]
    segments = coarse[:-1, None, :] * (1.0 - frac) + coarse[1:, None, :] * frac
    fine = np.vstack([segments.reshape(n_knots * stride, path.d), coarse[-1:]])
    fine[::stride] = coarse  # knots agree bitwise, no roundoff from the blend
    return SamplePath(fine, path.horizon, "piecewise_linear_bv", seed=path.seed)


def eval_path(path: SamplePath, t) -> np.ndarray:
    """Evaluate a path by linear interpolation; exact at knots.

    Accepts a scalar time or an array of times; returns shape (d,) or
    (len(t), d). Times outside [0, T] (beyond a relative slack of 1e-9)
    raise ``PathRangeError``.
    """
    times = np.atleast_1d(np.asarray(t, dtype=float))
    T = path.horizon
    slack = _TIME_RTOL * T
    if np.any(times < -slack) or np.any(times > T + slack):
        raise PathRangeError(f"time {times.min()}..{times.max()} outside the path "
                             f"horizon [0, {T}]")
    clipped = np.clip(times, 0.0, T)
    idx = np.searchsorted(path.times, clipped, side="right") - 1
    idx = np.clip(idx, 0, path.n_steps - 1)
    t0, t1 = path.times[idx], path.times[idx + 1]
    w = (clipped - t0) / (t1 - t0)
    exact = clipped == t0
    out = path.values[idx] * (1.0 - w[:, None]) + path.values[idx + 1] * w[:, None]
    if np.any(exact):
        out[exact] = path.values[idx[exact]]
    return out[0] if np.isscalar(t) or np.ndim(t) == 0 else out


def sup_distance(a: SamplePath, b: SamplePath) -> float:
    """Uniform distance max_t max_i |a_i(t) - b_i(t)| of two paths on one mesh.

    Both paths are linear between the knots of their common mesh, so the
    supremum over [0, T] is attained at a knot. Paths of differing
    dimension, horizon or step count raise ``MeshMismatchError``.
    """
    if (a.d, a.horizon, a.n_steps) != (b.d, b.horizon, b.n_steps):
        raise MeshMismatchError(f"paths with (d, T, K) = {(a.d, a.horizon, a.n_steps)} and "
                                f"{(b.d, b.horizon, b.n_steps)} do not share one mesh")
    return float(np.max(np.abs(a.values - b.values)))


def write_path_csv(path: SamplePath, file) -> None:
    """Write knots as rows ``k,t,W1[,W2]`` after a kind/seed header comment."""
    columns = ["k", "t"] + [f"W{a + 1}" for a in range(path.d)]
    rows = zip(range(path.times.size), path.times.tolist(), *path.values.T.tolist())
    seed = "none" if path.seed is None else path.seed
    write_csv(file, columns, rows, ("path", {"kind": path.kind, "seed": seed}))


def read_path_csv(file) -> SamplePath:
    """Read a path written by :func:`write_path_csv`.

    A file without the header comment reads as a Brownian path with no seed.
    A file that cannot be read, a header that does not parse, a seed that
    is not an integer, a row whose cell count differs from the column
    line's, a ``k`` cell that is not the row's integer position, a ``t``
    or ``W`` cell that is not a number, values that make no path, or a
    ``t`` column other than the uniform mesh ``linspace(0, t_K, K + 1)``,
    bit for bit, raises ``ConfigError`` naming the file (and the row).
    The writer prints ``t`` by ``repr``, so every file it writes reads back.
    """
    try:
        header, columns, rows = read_csv(file)
        rows = [row for row in rows if row[0] != ""]
    except (OSError, ValueError) as exc:  # no such file, a malformed header token, not UTF-8
        raise ConfigError(f"{file}: {exc}") from None
    meta = {} if header is None else header[1]
    seed = meta.get("seed", "none")
    try:
        seed = None if seed == "none" else int(seed)
    except ValueError:
        raise ConfigError(f"{file}: seed {seed!r} is not an integer") from None
    times, values = [], []
    for count, row in enumerate(rows):
        if len(row) != len(columns):
            raise ConfigError(
                f"{file}: row {count}: {len(row)} cells for {len(columns)} columns")
        try:
            k = int(row[0])
            t, *w = [float(cell) for cell in row[1:]]
        except ValueError as exc:
            raise ConfigError(f"{file}: row {count}: {exc}") from None
        if k != count:
            raise ConfigError(f"{file}: row {count}: k={k} is not the row's position")
        times.append(t)
        values.append(w)
    try:
        path = SamplePath(values, times[-1] if times else 0.0, meta.get("kind", "brownian"), seed)
    except ConfigError as exc:
        raise ConfigError(f"{file}: {exc}") from None
    off = np.flatnonzero(np.asarray(times) != path.times)
    if off.size:
        raise ConfigError(f"{file}: row {off[0]}: t={times[off[0]]!r} is off the uniform mesh "
                          f"linspace(0, {path.horizon!r}, {path.n_steps + 1})")
    return path

"""Driving paths on uniform time meshes.

Brownian paths are sampled with the counter-based Philox generator so
that a seed pins the whole trajectory bit for bit, across platforms and
across repeated calls. Piecewise-linear interpolants of a Brownian path
on coarser dyadic meshes provide the bounded-variation approximations
used by the Wong-Zakai convergence study.
"""

from __future__ import annotations

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
    """A continuous path observed on a time mesh, linear between knots.

    ``times`` is the strictly increasing mesh 0 = t_0 < ... < t_K = T and
    ``values`` holds W(t_k) with shape (K+1, d); every path starts at the
    origin. ``kind`` is one of ``brownian``, ``piecewise_linear_bv`` or
    ``zero``.
    """

    times: np.ndarray
    values: np.ndarray
    kind: str
    seed: int | None = None

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if self.kind not in PATH_KINDS:
            raise ConfigError(f"unknown path kind {self.kind!r}")
        if times.ndim != 1 or times.size < 2:
            raise ConfigError("a path needs at least two knots")
        if values.ndim != 2 or values.shape[0] != times.size:
            raise ConfigError(
                f"values shape {values.shape} does not match {times.size} knots"
            )
        if times[0] != 0.0:
            raise ConfigError("paths start at time 0")
        if not np.all(np.diff(times) > 0):
            raise ConfigError("knot times must be strictly increasing")
        if not (np.all(np.isfinite(times)) and np.all(np.isfinite(values))):
            raise ConfigError("path knots must be finite")
        if np.any(values[0] != 0.0):
            raise ConfigError("paths start at the origin, W(0) = 0")
        if self.kind == "zero" and np.any(values != 0.0):
            raise ConfigError("a zero path must vanish at every knot")
        times = times.copy()
        values = values.copy()
        times.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    @property
    def n_steps(self) -> int:
        return self.times.size - 1

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
    times = np.linspace(0.0, horizon, n_steps + 1)
    return SamplePath(times, values, "brownian", seed=int(seed))


def zero_path(horizon: float, n_steps: int, d: int) -> SamplePath:
    """The path that stays at the origin, on the same mesh layout as Brownian ones."""
    times = np.linspace(0.0, float(horizon), n_steps + 1)
    return SamplePath(times, np.zeros((n_steps + 1, d)), "zero")


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
    return SamplePath(path.times, fine, "piecewise_linear_bv", seed=path.seed)


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
        raise PathRangeError(
            f"time {times.min()}..{times.max()} outside the path horizon [0, {T}]"
        )
    clipped = np.clip(times, 0.0, T)
    idx = np.searchsorted(path.times, clipped, side="right") - 1
    idx = np.clip(idx, 0, path.n_steps - 1)
    t0 = path.times[idx]
    t1 = path.times[idx + 1]
    w = (clipped - t0) / (t1 - t0)
    exact = clipped == t0
    out = path.values[idx] * (1.0 - w[:, None]) + path.values[idx + 1] * w[:, None]
    if np.any(exact):
        out[exact] = path.values[idx[exact]]
    return out[0] if np.isscalar(t) or np.ndim(t) == 0 else out


def sup_distance(a: SamplePath, b: SamplePath) -> float:
    """Uniform distance max_t max_i |a_i(t) - b_i(t)| over the union mesh.

    Both paths are piecewise linear, so the supremum over [0, T] is
    attained at a knot of one of them.
    """
    if a.d != b.d:
        raise MeshMismatchError(f"paths have dimensions {a.d} and {b.d}")
    if abs(a.horizon - b.horizon) > _TIME_RTOL * max(a.horizon, b.horizon):
        raise MeshMismatchError(f"paths have horizons {a.horizon} and {b.horizon}")
    mesh = np.union1d(a.times, b.times)
    mesh = np.clip(mesh, 0.0, min(a.horizon, b.horizon))
    va = eval_path(a, mesh)
    vb = eval_path(b, mesh)
    return float(np.max(np.abs(va - vb)))


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
    line's, a ``k`` cell that is not the row's integer position or a ``t``
    or ``W`` cell that is not a number raises ``ConfigError`` naming the
    file (and the row).
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
    return SamplePath(np.asarray(times), np.asarray(values), meta.get("kind", "brownian"),
                      seed=seed)

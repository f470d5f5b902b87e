"""Driving paths: K + 1 values on the uniform mesh of [0, T].

A path holds W(t_k) at t_k = k T / K and is linear in between. A seed
pins a Brownian path bit for bit (``sample_brownian``), and its
piecewise-linear interpolants through coarser knots are the
bounded-variation approximations of the Wong-Zakai study. A path's text
is the run store's (``artifacts``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, MeshMismatchError, PathRangeError

__all__ = [
    "SamplePath",
    "sample_brownian",
    "zero_path",
    "piecewise_linear_approx",
    "eval_path",
    "sup_distance",
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
    (len(t), d). Times outside [0, T] (beyond a relative slack of 1e-9),
    and NaN times, raise ``PathRangeError``.
    """
    times = np.atleast_1d(np.asarray(t, dtype=float))
    T = path.horizon
    slack = _TIME_RTOL * T
    # NaN fails both comparisons
    if not (np.all(times >= -slack) and np.all(times <= T + slack)):
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

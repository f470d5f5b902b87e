"""Analytic initial-condition profiles.

Each profile is a vectorized rule on points of shape (..., d), with an
analytic gradient where one exists. Profiles double as oracles: exact
transported solutions are produced by re-sampling them at displaced
points, so the rules must be defined on all of R^d, not just the box.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError
from .fields import ScalarField, SpatialGrid

__all__ = [
    "Profile",
    "bump",
    "double_bump",
    "step",
    "sinusoid",
    "profile_from_spec",
    "sample_profile",
]


@dataclass(frozen=True)
class Profile:
    """An analytic scalar function with optional analytic gradient."""

    d: int
    fn: Callable[[np.ndarray], np.ndarray]
    gradient: Optional[Callable[[np.ndarray], np.ndarray]] = None


def _bump_parts(points, center, radius):
    x = np.asarray(points, dtype=float)
    rel = x - center
    s = np.sum(rel * rel, axis=-1) / (radius * radius)
    inside = s < 1.0
    return rel, s, inside


def bump(d: int, center=0.0, radius: float = 1.0, amplitude: float = 1.0) -> Profile:
    """Smooth bump a*exp(1/((|x-x0|/r)^2 - 1)) supported on the ball |x-x0| < r."""
    if radius <= 0:
        raise ConfigError(f"bump radius must be positive, got {radius}")
    c = np.broadcast_to(np.asarray(center, dtype=float), (d,)).copy()

    def fn(points):
        _, s, inside = _bump_parts(points, c, radius)
        out = np.zeros(s.shape)
        out[inside] = amplitude * np.exp(1.0 / (s[inside] - 1.0))
        return out

    def grad(points):
        rel, s, inside = _bump_parts(points, c, radius)
        out = np.zeros(rel.shape)
        si = s[inside] - 1.0
        scale = -2.0 * amplitude * np.exp(1.0 / si) / (si * si * radius * radius)
        out[inside] = scale[..., None] * rel[inside]
        return out

    return Profile(d, fn, grad)


def double_bump(
    d: int, centers=(-1.5, 1.5), radius: float = 1.0, amplitudes=(1.0, 0.5)
) -> Profile:
    """Superposition of two smooth bumps with a common radius."""
    b0 = bump(d, centers[0], radius, amplitudes[0])
    b1 = bump(d, centers[1], radius, amplitudes[1])

    def fn(points):
        return b0.fn(points) + b1.fn(points)

    def grad(points):
        return b0.gradient(points) + b1.gradient(points)

    return Profile(d, fn, grad)


def step(d: int, center=0.0, half_width: float = 1.0, amplitude: float = 1.0) -> Profile:
    """Indicator of the box |x - x0|_inf <= w, scaled; no gradient."""
    if half_width <= 0:
        raise ConfigError(f"step half width must be positive, got {half_width}")
    c = np.broadcast_to(np.asarray(center, dtype=float), (d,)).copy()

    def fn(points):
        x = np.asarray(points, dtype=float)
        inside = np.all(np.abs(x - c) <= half_width, axis=-1)
        return amplitude * inside.astype(float)

    return Profile(d, fn)


def sinusoid(d: int, half_width: float, mode: int = 1, amplitude: float = 1.0) -> Profile:
    """Box-periodic product sinusoid: a * prod_a sin(pi * mode * x_a / L)."""
    if mode < 1:
        raise ConfigError(f"sinusoid mode must be a positive integer, got {mode}")
    k = np.pi * mode / half_width

    def fn(points):
        x = np.asarray(points, dtype=float)
        return amplitude * np.prod(np.sin(k * x), axis=-1)

    def grad(points):
        x = np.asarray(points, dtype=float)
        sins = np.sin(k * x)
        out = np.empty(x.shape)
        for a in range(d):
            others = np.prod(np.delete(sins, a, axis=-1), axis=-1)
            out[..., a] = amplitude * k * np.cos(k * x[..., a]) * others
        return out

    return Profile(d, fn, grad)


def profile_from_spec(d: int, half_width: float, spec: dict) -> Profile:
    """Build a profile from a config dictionary like {"id": "bump", "radius": 1.0}."""
    if not isinstance(spec, dict) or "id" not in spec:
        raise ConfigError(f"initial-data spec must be a dict with an 'id', got {spec!r}")
    kind = spec["id"]
    kwargs = {k: v for k, v in spec.items() if k != "id"}
    try:
        if kind == "bump":
            return bump(d, **kwargs)
        if kind == "double_bump":
            return double_bump(d, **kwargs)
        if kind == "step":
            return step(d, **kwargs)
        if kind == "sinusoid":
            kwargs.setdefault("half_width", half_width)
            return sinusoid(d, **kwargs)
    except TypeError as exc:
        raise ConfigError(f"bad parameters for initial data {kind!r}: {exc}") from exc
    raise ConfigError(f"unknown initial-data id {kind!r}")


def sample_profile(grid: SpatialGrid, profile: Profile) -> ScalarField:
    """Sample an analytic profile on the grid nodes."""
    return ScalarField.from_function(grid, profile.fn)

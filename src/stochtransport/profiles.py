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

from .drifts import _finite_real
from .errors import ConfigError, FieldValidationError
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
    """Build a profile from a config dictionary like {"id": "bump", "radius": 1.0}.

    ``amplitude``, ``radius`` and ``half_width`` must each be one finite
    real, and ``amplitudes`` two of them. A ``center`` is one finite real
    or a list of finite reals that broadcasts to the d coordinates, and
    ``centers`` is two such centers. ``mode`` is a positive integer. Any
    other value, a bool included, is a ``ConfigError`` naming the key:
    numpy would broadcast a list through the profile, and carry NaN or inf
    into it.
    """
    if not isinstance(spec, dict) or "id" not in spec:
        raise ConfigError(f"initial-data spec must be a dict with an 'id', got {spec!r}")
    kind = spec["id"]
    kwargs = {k: v for k, v in spec.items() if k != "id"}
    for key, value in kwargs.items():
        want = _param_fault(key, value, d)
        if want is not None:
            raise ConfigError(f"bad parameters for initial data {kind!r}: {key} must be "
                              f"{want}, got {value!r}")
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


def _param_fault(key: str, value, d: int) -> str | None:
    """What the value of parameter ``key`` must be, when it is not; else None."""
    if key in ("amplitude", "radius", "half_width"):
        return None if _finite_real(value) else "a finite real number"
    if key == "amplitudes":
        return None if _is_pair(value, _finite_real) else "two finite real numbers"
    center = f"a finite real number or a list of them that broadcasts to {d} coordinates"
    if key == "center":
        return None if _is_center(value, d) else center
    if key == "centers":
        pair = _is_pair(value, lambda c: _is_center(c, d))
        return None if pair else f"two centers, each {center}"
    if key == "mode":
        # 2 or 2.0, not 1.5; _finite_real refuses a bool
        whole = _finite_real(value) and value >= 1 and float(value).is_integer()
        return None if whole else "a positive integer"
    return None


def _is_center(value, d: int) -> bool:
    """One finite real, or a list of them of length 1 or d."""
    return _finite_real(value) or (isinstance(value, (list, tuple)) and len(value) in (1, d)
                                   and all(map(_finite_real, value)))


def _is_pair(value, rule) -> bool:
    """A list of two entries that each meet ``rule``."""
    return isinstance(value, (list, tuple)) and len(value) == 2 and all(map(rule, value))


def sample_profile(grid: SpatialGrid, profile: Profile) -> ScalarField:
    """Sample an analytic profile on the grid nodes.

    The profile runs with numpy's floating-point warnings off: a sample
    that is not finite raises ``FieldValidationError``.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        values = np.asarray(profile.fn(grid.nodes()), dtype=float)
    bad = np.count_nonzero(~np.isfinite(values))
    if bad:
        raise FieldValidationError(
            f"initial data samples to non-finite values at {bad} of {grid.size} grid nodes")
    return ScalarField(grid, values.reshape(grid.shape))

"""Pathwise solutions of the stochastic transport equation.

For a frozen realization of the driving path, the stochastic problem

    du + b(t, x) . grad u dt + grad u . dW = 0,    u(0) = u0,

is solved by marching the deterministic advection problem with the
path-shifted drift b(t, x + W(t)) and translating each snapshot back:
u(t, x) = v(t, x - W(t)). One entry point serves every driving path:
a Brownian draw, the zero path, and the bounded-variation interpolants
that the Wong-Zakai approximation study feeds in.

Renormalization checks integrate a truncated power of the unshifted
field and compare its growth against the Gronwall envelope driven by
the time-integrated sup bound on div b.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .drifts import DriftField, divergence_bound
from .errors import ConfigError
from .fields import LebesgueExponent, ScalarField, SpatialGrid, lp_norm, shift_field
from .paths import SamplePath, eval_path
from .profiles import Profile
from .transport import TransportSolution, solve_transport

__all__ = [
    "SpdeSolution",
    "RenormalizationFn",
    "RenormalizationReport",
    "smoothed_truncated_power",
    "squared_renormalization",
    "solve_spde",
    "exact_solution",
    "renormalize_check",
    "time_continuity_modulus",
]


@dataclass(frozen=True)
class SpdeSolution:
    """Snapshots of the stochastic solution u, tied to their driving path.

    ``transport`` keeps the underlying advected field v when the solution
    was produced by the solver; it is None for solutions reassembled from
    dumped artifacts.
    """

    grid: SpatialGrid
    times: np.ndarray
    fields: tuple
    p: LebesgueExponent
    path: SamplePath
    scheme: str
    transport: Optional[TransportSolution] = None

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        times.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "fields", tuple(self.fields))
        if len(self.fields) != self.times.size:
            raise ConfigError(
                f"{len(self.fields)} snapshots for {self.times.size} snapshot times"
            )

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    @property
    def initial(self) -> ScalarField:
        return self.fields[0]


def solve_spde(
    b: DriftField,
    path: SamplePath,
    u0: ScalarField,
    dt: float,
    horizon: float,
    scheme: str = "semi_lagrangian",
    n_snapshots: int = 16,
    p=2.0,
    mollify_epsilon: float | None = None,
) -> SpdeSolution:
    """Solve the transport SPDE along a Brownian, zero or bounded-variation path.

    Marches v with the path-shifted drift, then translates each snapshot
    by the path position: u(s, x) = v(s, x - W(s)). The first snapshot
    equals u0 exactly since every path starts at the origin. A
    piecewise-linear interpolant on the full fine mesh has the knot
    values of its path bit for bit, so it reproduces the Brownian run
    bit for bit.
    """
    exponent = p if isinstance(p, LebesgueExponent) else LebesgueExponent(float(p))
    ts = solve_transport(
        b, path, u0, dt, horizon,
        scheme=scheme, n_snapshots=n_snapshots, mollify_epsilon=mollify_epsilon,
    )
    shifted = [shift_field(v, eval_path(path, float(s))) for s, v in zip(ts.times, ts.fields)]
    return SpdeSolution(
        grid=u0.grid,
        times=ts.times,
        fields=tuple(shifted),
        p=exponent,
        path=path,
        scheme=scheme,
        transport=ts,
    )


def exact_solution(b: DriftField, path: SamplePath, u0_profile: Profile, t: float,
                   grid: SpatialGrid) -> ScalarField:
    """Closed-form solution for zero or constant drift: u(t, x) = u0(x - c t - W(t)).

    Sampled analytically on the grid nodes; other drifts have no closed
    form here and raise ``ConfigError``.
    """
    if b.constant_value is None:
        raise ConfigError(f"no closed-form solution for drift {b.id!r}")
    delta = b.constant_value * float(t) + eval_path(path, float(t))
    return ScalarField.from_function(grid, lambda pts: u0_profile.fn(pts - delta))


# ---------------------------------------------------------------------------
# renormalization


@dataclass(frozen=True)
class RenormalizationFn:
    """A C^1 function beta with bounded derivative, for composition checks.

    ``derivative_bound`` is the declared sup of |beta'|; ``validate``
    samples a range and asserts the declaration.
    """

    id: str
    beta: Callable[[np.ndarray], np.ndarray]
    beta_prime: Callable[[np.ndarray], np.ndarray]
    derivative_bound: float
    params: dict = field(default_factory=dict)

    def validate(self, lo: float = -100.0, hi: float = 100.0, samples: int = 20001) -> None:
        s = np.linspace(lo, hi, samples)
        worst = float(np.max(np.abs(self.beta_prime(s))))
        if worst > self.derivative_bound * (1.0 + 1.0e-12):
            raise ConfigError(
                f"beta_prime reaches {worst}, above the declared bound {self.derivative_bound}"
            )


def smoothed_truncated_power(M: float, p: float, blend_fraction: float = 1.0e-3
                             ) -> RenormalizationFn:
    """C^1 regularization of s -> (min(|s|, M))^p with blend width 1e-3 * M.

    The raw truncated power has a derivative kink at |s| = M (and at the
    origin when p = 1); both are replaced by linear-derivative ramps over
    a band of width delta = blend_fraction * M, which keeps |beta'| below
    p * M^(p-1) while changing values only within O(delta * M^(p-1)).
    """
    if not (M > 0):
        raise ConfigError(f"truncation level must be positive, got {M}")
    if not (1.0 <= p < math.inf):
        raise ConfigError(f"power must satisfy 1 <= p < inf, got {p}")
    delta = blend_fraction * M
    if p == 1.0:
        def g(r):
            out = np.empty(r.shape)
            ramp = r < delta
            mid = (r >= delta) & (r < M - delta)
            blend = (r >= M - delta) & (r < M + delta)
            out[ramp] = r[ramp] ** 2 / (2.0 * delta)
            out[mid] = r[mid] - delta / 2.0
            rb = r[blend]
            out[blend] = M - delta / 2.0 - (M + delta - rb) ** 2 / (4.0 * delta)
            out[r >= M + delta] = M - delta / 2.0
            return out

        def gp(r):
            out = np.zeros(r.shape)
            ramp = r < delta
            mid = (r >= delta) & (r < M - delta)
            blend = (r >= M - delta) & (r < M + delta)
            out[ramp] = r[ramp] / delta
            out[mid] = 1.0
            out[blend] = (M + delta - r[blend]) / (2.0 * delta)
            return out

        bound = 1.0
    else:
        slope = p * (M - delta) ** (p - 1.0)
        cap = (M - delta) ** p + slope * delta

        def g(r):
            out = np.empty(r.shape)
            power = r < M - delta
            blend = (r >= M - delta) & (r < M + delta)
            out[power] = r[power] ** p
            rb = r[blend]
            out[blend] = (M - delta) ** p + slope * (
                4.0 * delta * delta - (M + delta - rb) ** 2
            ) / (4.0 * delta)
            out[r >= M + delta] = cap
            return out

        def gp(r):
            out = np.zeros(r.shape)
            power = r < M - delta
            blend = (r >= M - delta) & (r < M + delta)
            out[power] = p * r[power] ** (p - 1.0)
            out[blend] = slope * (M + delta - r[blend]) / (2.0 * delta)
            return out

        bound = slope

    def beta(s):
        s = np.asarray(s, dtype=float)
        return g(np.abs(s))

    def beta_prime(s):
        s = np.asarray(s, dtype=float)
        return np.sign(s) * gp(np.abs(s))

    return RenormalizationFn(
        "truncated_power", beta, beta_prime, bound,
        {"M": M, "p": p, "blend_fraction": blend_fraction},
    )


def squared_renormalization(sup_range: float = 100.0) -> RenormalizationFn:
    """beta(s) = s^2, with the derivative bound declared on |s| <= sup_range."""

    def beta(s):
        s = np.asarray(s, dtype=float)
        return s * s

    def beta_prime(s):
        return 2.0 * np.asarray(s, dtype=float)

    return RenormalizationFn("square", beta, beta_prime, 2.0 * sup_range,
                             {"sup_range": sup_range})


@dataclass(frozen=True)
class RenormalizationReport:
    """Growth audit of I(t) = integral of beta(v(t)) against its envelope."""

    status: str  # "passed" | "failed" | "inconclusive"
    div_bound: float
    slack: float
    times: np.ndarray
    integrals: np.ndarray
    envelope: np.ndarray

    @property
    def passed(self) -> bool:
        return self.status == "passed"


def renormalize_check(
    sol,
    beta: RenormalizationFn,
    b: DriftField,
    samples: int = 4096,
) -> RenormalizationReport:
    """Check I(t) = int beta(v(t, x)) dx against I(0) * exp((C + slack) t).

    ``sol`` may be an ``SpdeSolution`` (its unshifted transport snapshots
    are used) or a ``TransportSolution``. C is the trapezoid-in-time
    integral of the sampled sup of |div b| over the box; the slack is
    0.1 * C plus a resolution term that vanishes under refinement. When C
    is not finite the verdict is "inconclusive" rather than a failure.
    """
    ts = sol.transport if isinstance(sol, SpdeSolution) else sol
    if ts is None:
        raise ConfigError("solution carries no transport snapshots to renormalize")
    grid = ts.grid
    horizon = ts.horizon
    window = [(-grid.half_width, grid.half_width)] * grid.d
    C = divergence_bound(b, window, horizon, samples=samples)
    if not math.isfinite(C) or C > 1.0e12:
        return RenormalizationReport(
            "inconclusive", C, math.nan, ts.times, np.array([]), np.array([])
        )
    spacing = float(ts.times[1] - ts.times[0])
    if spacing * C >= 0.1:
        raise ConfigError(
            f"snapshot spacing {spacing} too coarse for div bound {C}: need spacing*C < 0.1"
        )
    slack = 0.1 * C + (grid.h / grid.half_width + ts.dt / horizon) / horizon
    integrals = np.array(
        [float(np.sum(beta.beta(f.values))) * grid.cell_volume for f in ts.fields]
    )
    envelope = integrals[0] * np.exp((C + slack) * ts.times)
    ok = bool(np.all(integrals <= envelope * (1.0 + 1.0e-12)))
    return RenormalizationReport(
        "passed" if ok else "failed", C, slack, ts.times, integrals, envelope
    )


def time_continuity_modulus(sol: SpdeSolution, p=None) -> float:
    """Largest Lp distance between adjacent snapshots of u."""
    if len(sol.fields) < 3:
        raise ConfigError("need at least three snapshots to estimate a modulus")
    exponent = sol.p if p is None else p
    gaps = [
        lp_norm(sol.fields[m + 1] - sol.fields[m], exponent)
        for m in range(len(sol.fields) - 1)
    ]
    return float(max(gaps))

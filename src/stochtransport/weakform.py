"""Weak-form residual audit of computed solutions.

A solution u of the stochastic transport problem satisfies, for every
compactly supported smooth test function phi,

    int u(t) phi - int u0 phi
        = int_0^t int (b . grad phi) u dx ds
        + int_0^t int (div b) phi u dx ds
        + sum_i int_0^t ( int D_i phi u dx ) o dW^i,

with the stochastic term read in the Fisk-Stratonovich sense. The
verifier (``weak_residual``) evaluates every term on the snapshot mesh,
with div b taken as its average over each grid cell
(``drifts._drift_reads``), sums the stochastic term against the path
increments by the rule of its ``rule`` parameter, and reports the
defect; the Ito rule, a negative control, converges on exact solutions
to the missing correction term, not to zero. The audit takes the path
from the solution itself and the normalizing exponent p from the
caller, so it reads a solver's output and a solution rebuilt from
dumped artifacts alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import cycle

import numpy as np

from .artifacts import write_csv
from .drifts import DriftField, _drift_reads
from .errors import ConfigError
from .fields import SpatialGrid, lp_norm
from .paths import eval_path
from .profiles import Profile, bump
from .spde import SpdeSolution

__all__ = [
    "TestFunction",
    "make_test_functions",
    "WeakResidualSeries",
    "WeakResidualReport",
    "weak_residual",
    "write_weak_report_csv",
]

#: Test-function supports must clear the box edge by this many grid cells.
SUPPORT_MARGIN_CELLS = 2

#: Smallest admissible bump radius, in grid cells.
MIN_RADIUS_CELLS = 8


@dataclass(frozen=True)
class TestFunction:
    """Compactly supported bump a * exp(1/((|x-x0|/r)^2 - 1)) on |x-x0| < r.

    Value and analytic gradient are those of ``profiles.bump``.
    ``sup_value`` and ``sup_gradient`` are the extrema used to normalize
    residuals, both in closed form.
    """

    center: np.ndarray
    radius: float
    amplitude: float
    _bump: Profile = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.center, dtype=float)).copy()
        c.setflags(write=False)
        object.__setattr__(self, "center", c)
        if not (self.radius > 0 and self.amplitude != 0):
            raise ConfigError("test function needs a positive radius and nonzero amplitude")
        object.__setattr__(self, "_bump", bump(c.size, c, self.radius, self.amplitude))

    @property
    def d(self) -> int:
        return self.center.size

    def value(self, points: np.ndarray) -> np.ndarray:
        return self._bump.fn(points)

    def gradient(self, points: np.ndarray) -> np.ndarray:
        return self._bump.gradient(points)

    @property
    def sup_value(self) -> float:
        return abs(self.amplitude) * math.exp(-1.0)

    @property
    def sup_gradient(self) -> float:
        # |grad phi| = 2|a| sqrt(s) e^{1/w} / (w^2 r) with s = (|x - x0|/r)^2
        # and w = s - 1; it peaks where 3w^2 + 6w + 2 = 0, at s = 1/sqrt(3).
        w = 1.0 / math.sqrt(3.0) - 1.0
        return (2.0 * abs(self.amplitude) * 3.0 ** -0.25 * math.exp(1.0 / w)
                / (w * w * self.radius))

    def validate_for(self, grid: SpatialGrid) -> None:
        """Check the support ball clears the box edge by the margin."""
        margin = SUPPORT_MARGIN_CELLS * grid.h
        if np.any(np.abs(self.center) + self.radius > grid.half_width - margin):
            raise ConfigError(
                f"test-function support (center {self.center}, radius {self.radius}) "
                f"does not fit the box with a {margin} margin"
            )


def make_test_functions(grid: SpatialGrid, count: int, seed: int) -> list[TestFunction]:
    """Draw reproducible bump test functions that fit the box with margins.

    Radii are uniform in [8h, r_max] and centers uniform in the shrunken
    box that keeps each support two cells clear of the edge; the Philox
    stream keyed by the seed makes the draw deterministic.
    """
    if count < 1:
        raise ConfigError(f"count must be positive, got {count}")
    r_min = MIN_RADIUS_CELLS * grid.h
    r_max = min(grid.half_width / 3.0, 0.8 * (grid.half_width - SUPPORT_MARGIN_CELLS * grid.h))
    if r_min >= r_max:
        raise ConfigError(
            f"box of {grid.n} cells per axis too small for bump radii in "
            f"[{r_min}, {r_max}]"
        )
    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    out = []
    for _ in range(count):
        radius = float(rng.uniform(r_min, r_max))
        reach = grid.half_width - SUPPORT_MARGIN_CELLS * grid.h - radius
        center = rng.uniform(-reach, reach, size=grid.d)
        phi = TestFunction(center, radius, 1.0)
        phi.validate_for(grid)
        out.append(phi)
    return out


@dataclass(frozen=True)
class WeakResidualSeries:
    """Residual time series for one test function, with its term breakdown."""

    phi_index: int
    times: np.ndarray
    residuals: np.ndarray
    term_initial: np.ndarray  # A(t) - A(0)
    term_drift: np.ndarray
    term_div: np.ndarray
    term_stoch: np.ndarray
    normalizer: float

    @property
    def max_abs(self) -> float:
        return float(np.max(np.abs(self.residuals)))

    @property
    def max_normalized(self) -> float:
        return self.max_abs / self.normalizer


@dataclass(frozen=True)
class WeakResidualReport:
    """Aggregate of residual series over a family of test functions."""

    series: tuple

    @property
    def max_abs(self) -> float:
        return max(s.max_abs for s in self.series)

    @property
    def max_normalized(self) -> float:
        return max(s.max_normalized for s in self.series)


def _cumulative_trapezoid(y: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Running trapezoid integral of y over t, starting at 0."""
    return np.concatenate([[0.0], np.cumsum(np.diff(t) * (y[1:] + y[:-1]) / 2.0)])


def weak_residual(
    sol: SpdeSolution,
    b: DriftField,
    p: float,
    phis,
    rule: str = "stratonovich",
) -> WeakResidualReport:
    """Defect of the weak identity on the solution snapshots.

    Parameters
    ----------
    sol : SpdeSolution
        Snapshots at ``sol.times`` on the mesh of their driving path
        ``sol.path``; ``SpdeSolution`` admits no other.
    b : DriftField
        The drift the solution claims to solve for.
    p : float
        The exponent, p >= 1, that normalizes each series by
        |u0|_p (sup phi + sup |grad phi|).
    phis : sequence of TestFunction
        The test functions, for instance from :func:`make_test_functions`.
    rule : {"stratonovich", "ito"}
        Midpoint (endpoint-average) sums match the Stratonovich reading
        of the identity, and are the trapezoid rule of the
        Riemann-Stieltjes integral when the path has bounded variation;
        the left-point Ito sums are a negative control.
    """
    if rule not in ("stratonovich", "ito"):
        raise ConfigError(f"unknown stochastic quadrature rule {rule!r}")
    path = sol.path
    phis = list(phis)
    times = sol.times
    grid = sol.grid
    for phi in phis:
        phi.validate_for(grid)
    nodes = grid.nodes()
    w = grid.cell_volume
    # The drift and its cell-averaged divergence at each snapshot time, read
    # before U is made. A drift with no gain is the same at every time: it is
    # read at the first, and the one read serves them all.
    drift, div = [], []
    at = _drift_reads(b, nodes, 0.5 * grid.h, analytic=False)
    for t in (times if b.gain is not None else times[:1]).tolist():
        value, jac = at(t)
        drift.append(value)
        div.append(np.trace(jac, axis1=-2, axis2=-1))
    del at, jac  # the difference sides and a (n, d, d) array
    U = np.stack([f.values.ravel() for f in sol.fields])  # (M+1, n)
    u0_norm = lp_norm(sol.fields[0], p)
    dB = np.diff(eval_path(path, times), axis=0)  # (M, d)

    series = []
    for j, phi in enumerate(phis):
        phi_vals = phi.value(nodes)
        phi_grad = phi.gradient(nodes)
        A = U @ phi_vals * w
        g = U @ phi_grad * w  # (M+1, d)
        flux = [np.sum(bx * phi_grad, axis=-1) for bx in drift]  # b . grad phi
        drift_rate = np.array([float((u * f).sum()) * w for u, f in zip(U, cycle(flux))])
        div_rate = np.array([float((u * dv * phi_vals).sum()) * w
                             for u, dv in zip(U, cycle(div))])
        term_drift = _cumulative_trapezoid(drift_rate, times)
        term_div = _cumulative_trapezoid(div_rate, times)
        g_step = 0.5 * (g[:-1] + g[1:]) if rule == "stratonovich" else g[:-1]
        term_stoch = np.concatenate([[0.0], np.cumsum(np.sum(g_step * dB, axis=-1))])
        term_initial = A - A[0]
        sup = phi.sup_value + phi.sup_gradient
        normalizer = u0_norm * sup
        if normalizer == 0.0:
            normalizer = sup
        series.append(WeakResidualSeries(
            phi_index=j,
            times=times,
            residuals=term_initial - term_drift - term_div - term_stoch,
            term_initial=term_initial,
            term_drift=term_drift,
            term_div=term_div,
            term_stoch=term_stoch,
            normalizer=normalizer,
        ))
    return WeakResidualReport(tuple(series))


def write_weak_report_csv(report: WeakResidualReport, path) -> None:
    """One row per (test function, snapshot time) with the term breakdown."""
    rows = []
    for s in report.series:
        n = s.times.size
        rows.extend(zip(
            [s.phi_index] * n, s.times.tolist(), s.residuals.tolist(),
            s.term_initial.tolist(), s.term_drift.tolist(), s.term_div.tolist(),
            s.term_stoch.tolist(), [s.normalizer] * n,
        ))
    write_csv(path, ("phi_index", "t", "residual", "term_initial", "term_drift",
                     "term_div", "term_stoch", "normalizer"), rows)

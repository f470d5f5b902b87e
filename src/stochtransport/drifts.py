"""Drift velocity fields and integrability diagnostics.

A drift is a vectorized rule b(t, x) on points of shape (..., d),
optionally carrying an analytic Jacobian rule. The Jacobian is the only
derivative a drift states: its divergence is the trace, and a drift
without the rule is differentiated by centered differences. The
catalog covers the regimes exercised by the solvers: constants, linear
fields, divergence-free stream-function fields, a one-dimensional
power-law field with a Sobolev-but-not-Lipschitz kink at the origin,
and time-modulated wrappers.

``check_hypotheses`` estimates, by deterministic quadrature sampling,
the quantities a well-posed transport problem needs from its drift: a
time-integrated sup bound on the divergence, local q-integrability of
b and of its gradient, and sublinear growth. Evidence values are
declared trustworthy only when they are finite and stable under
doubling of the sample count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .artifacts import write_csv
from .errors import ConfigError, DriftEvaluationError

__all__ = [
    "DriftField",
    "HypothesisReport",
    "eval_drift",
    "check_hypotheses",
    "zero_drift",
    "constant_drift",
    "linear_drift",
    "stream_function_drift",
    "shear_drift",
    "power_drift",
    "time_modulated_drift",
    "drift_from_spec",
    "write_hypothesis_csv",
]

#: Evidence above this value counts as "effectively infinite".
EVIDENCE_CEILING = 1.0e12

#: Maximum relative change of an evidence value under sample doubling.
STABILITY_RTOL = 0.05

#: Relative offset applied to sample coordinates to step off singular sets.
_JITTER_SCALE = 1.0e-9


@dataclass(frozen=True)
class DriftField:
    """A velocity field b(t, x) with an optional analytic Jacobian.

    ``fn`` and ``jacobian`` are vectorized over points of shape (..., d);
    the Jacobian returns (..., d, d) with entries d b_i / d x_j. ``smooth``
    marks fields the solver steps as they are; the others are mollified
    first (see ``spde.solve_spde_batch``). ``constant_value`` is set only
    for spatially constant fields, and unlocks closed-form transported
    solutions downstream. ``factors`` is set only for
    separable fields b(t, x) = gain(t) * base(x), as the pair
    ``(gain, base)``; the mollifier uses it to tabulate the base once.
    """

    id: str
    d: int
    fn: Callable[[float, np.ndarray], np.ndarray]
    jacobian: Optional[Callable[[float, np.ndarray], np.ndarray]] = None
    smooth: bool = False
    time_dependent: bool = False
    constant_value: Optional[np.ndarray] = None
    factors: Optional[tuple] = None


def eval_drift(b: DriftField, t: float, points: np.ndarray) -> np.ndarray:
    """Evaluate b(t, x), guarding against non-finite output."""
    out = np.asarray(b.fn(t, np.asarray(points, dtype=float)), dtype=float)
    if not np.all(np.isfinite(out)):
        raise DriftEvaluationError(f"drift {b.id!r} returned non-finite values at t={t}")
    return out


def _jacobian_of(b: DriftField, t: float, points: np.ndarray, fd_step: float):
    """The (..., d, d) Jacobian of b, whose trace is div b: analytic when
    ``b.jacobian`` is set, else centered differences of step ``fd_step``."""
    pts = np.asarray(points, dtype=float)
    if b.jacobian is not None:
        out = np.asarray(b.jacobian(t, pts), dtype=float)
        if not np.all(np.isfinite(out)):
            raise DriftEvaluationError(f"drift {b.id!r} Jacobian non-finite at t={t}")
        return out
    return _central_jacobian(b, t, pts, fd_step)


def _central_jacobian(b: DriftField, t: float, points: np.ndarray, step: float):
    """Centered differences (b(x + step e_j) - b(x - step e_j)) / (2 step) as column j.

    With ``step = h / 2`` the trace is the cell average of div b over a
    cell of side h: the net flux through its faces, finite for every
    W^{1,1} drift, singular points included.
    """
    pts = np.asarray(points, dtype=float)
    jac = np.zeros(pts.shape[:-1] + (b.d, b.d))
    for a in range(b.d):
        shift = np.zeros(b.d)
        shift[a] = step
        jac[..., :, a] = (eval_drift(b, t, pts + shift) - eval_drift(b, t, pts - shift)) / (
            2.0 * step
        )
    return jac


# ---------------------------------------------------------------------------
# catalog


def zero_drift(d: int) -> DriftField:
    """The trivial field b = 0."""
    zero = np.zeros(d)

    def fn(t, x):
        return np.zeros(np.asarray(x).shape)


    def jac(t, x):
        return np.zeros(np.asarray(x).shape[:-1] + (d, d))

    return DriftField("zero", d, fn, jac, smooth=True, constant_value=zero)


def constant_drift(c) -> DriftField:
    """Spatially constant field b(t, x) = c."""
    cvec = np.atleast_1d(np.asarray(c, dtype=float))
    d = cvec.size

    def fn(t, x):
        return np.broadcast_to(cvec, np.asarray(x).shape).copy()


    def jac(t, x):
        return np.zeros(np.asarray(x).shape[:-1] + (d, d))

    return DriftField("constant", d, fn, jac, smooth=True, constant_value=cvec)


def linear_drift(matrix) -> DriftField:
    """Linear field b(x) = A x."""
    A = np.atleast_2d(np.asarray(matrix, dtype=float))
    if A.shape[0] != A.shape[1]:
        raise ConfigError(f"linear drift matrix must be square, got shape {A.shape}")
    d = A.shape[0]

    def fn(t, x):
        return np.asarray(x) @ A.T

    def jac(t, x):
        return np.broadcast_to(A, np.asarray(x).shape[:-1] + (d, d)).copy()

    return DriftField("linear", d, fn, jac, smooth=True)


def stream_function_drift(half_width: float, amplitude: float = 1.0) -> DriftField:
    """Divergence-free 2D field from the stream function
    psi = amplitude * cos(pi x1 / L) * cos(pi x2 / L), rotated so that
    b = (-d psi/d x2, d psi/d x1)."""
    L = float(half_width)
    k = np.pi / L

    def fn(t, x):
        x = np.asarray(x, dtype=float)
        x1, x2 = x[..., 0], x[..., 1]
        out = np.empty(x.shape)
        out[..., 0] = amplitude * k * np.cos(k * x1) * np.sin(k * x2)
        out[..., 1] = -amplitude * k * np.sin(k * x1) * np.cos(k * x2)
        return out


    def jac(t, x):
        x = np.asarray(x, dtype=float)
        x1, x2 = x[..., 0], x[..., 1]
        out = np.empty(x.shape[:-1] + (2, 2))
        out[..., 0, 0] = -amplitude * k * k * np.sin(k * x1) * np.sin(k * x2)
        out[..., 0, 1] = amplitude * k * k * np.cos(k * x1) * np.cos(k * x2)
        out[..., 1, 0] = -amplitude * k * k * np.cos(k * x1) * np.cos(k * x2)
        out[..., 1, 1] = amplitude * k * k * np.sin(k * x1) * np.sin(k * x2)
        return out

    return DriftField("stream", 2, fn, jac, smooth=True)


def shear_drift(half_width: float, amplitude: float = 1.0) -> DriftField:
    """Periodic horizontal shear b(x1, x2) = (amplitude * sin(pi x2 / L), 0)."""
    L = float(half_width)
    k = np.pi / L

    def fn(t, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape)
        out[..., 0] = amplitude * np.sin(k * x[..., 1])
        return out


    def jac(t, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[:-1] + (2, 2))
        out[..., 0, 1] = amplitude * k * np.cos(k * x[..., 1])
        return out

    return DriftField("shear", 2, fn, jac, smooth=True)


def power_drift(alpha: float, scale: float = 1.0) -> DriftField:
    """One-dimensional power field b(x) = scale * sign(x) |x|^alpha.

    For 0 < alpha < 1 the derivative alpha |x|^(alpha-1) blows up at the
    origin: the field is W^{1,q}_loc exactly when (alpha - 1) q > -1.
    """
    if not (0.0 < alpha < 1.0):
        raise ConfigError(f"power drift exponent must lie in (0, 1), got {alpha}")

    def fn(t, x):
        x = np.asarray(x, dtype=float)
        return scale * np.sign(x) * np.abs(x) ** alpha

    def jac(t, x):
        x = np.asarray(x, dtype=float)[..., :1, None]
        return scale * alpha * np.abs(x) ** (alpha - 1.0)

    return DriftField("power1d", 1, fn, jac)


_GAIN_RULES = {
    # g must be integrable on [0, T]; all of these are bounded.
    "one": lambda t, T: 1.0,
    "sin_squared": lambda t, T: math.sin(math.pi * t / T) ** 2,
    "ramp": lambda t, T: t / T,
}


def time_modulated_drift(base: DriftField, gain_id: str, horizon: float) -> DriftField:
    """Separable time modulation g(t) * b(x) with g from a small catalog.

    The result records its ``factors``: modulating an already modulated
    field multiplies the two gains and keeps the innermost base.
    """
    if gain_id not in _GAIN_RULES:
        raise ConfigError(f"unknown gain id {gain_id!r}; choose from {sorted(_GAIN_RULES)}")
    gain = _GAIN_RULES[gain_id]
    T = float(horizon)

    inner_gain, root = base.factors or (lambda t: 1.0, base)

    def total_gain(t):
        return gain(t, T) * inner_gain(t)

    def fn(t, x):
        return gain(t, T) * base.fn(t, x)

    jac = None
    if base.jacobian is not None:
        def jac(t, x):
            return gain(t, T) * base.jacobian(t, x)

    return DriftField(
        f"{base.id}*{gain_id}", base.d, fn, jac,
        smooth=base.smooth,
        time_dependent=True,
        factors=(total_gain, root),
    )


def drift_from_spec(d: int, half_width: float, spec: dict, horizon: float = 1.0) -> DriftField:
    """Build a catalog drift from a config dictionary like {"id": "power1d", "alpha": 0.75}."""
    if not isinstance(spec, dict) or "id" not in spec:
        raise ConfigError(f"drift spec must be a dict with an 'id', got {spec!r}")
    kind = spec["id"]
    kwargs = {k: v for k, v in spec.items() if k != "id"}
    try:
        if kind == "zero":
            b = zero_drift(d, **kwargs)
        elif kind == "constant":
            kwargs.setdefault("c", [1.0] * d)
            b = constant_drift(**kwargs)
        elif kind == "linear":
            b = linear_drift(**kwargs)
        elif kind == "stream":
            kwargs.setdefault("half_width", half_width)
            b = stream_function_drift(**kwargs)
        elif kind == "shear":
            kwargs.setdefault("half_width", half_width)
            b = shear_drift(**kwargs)
        elif kind == "power1d":
            b = power_drift(**kwargs)
        elif kind == "time_modulated":
            base = drift_from_spec(d, half_width, kwargs.pop("base"), horizon)
            b = time_modulated_drift(base, horizon=horizon, **kwargs)
        else:
            raise ConfigError(f"unknown drift id {kind!r}")
    except TypeError as exc:
        raise ConfigError(f"bad parameters for drift {kind!r}: {exc}") from exc
    if b.d != d:
        raise ConfigError(f"drift {kind!r} has dimension {b.d}, config asks for {d}")
    return b


# ---------------------------------------------------------------------------
# hypothesis checking


@dataclass(frozen=True)
class HypothesisReport:
    """Outcome of the drift integrability checks on a window.

    ``div_bound`` is the trapezoid-in-time integral of the sampled sup of
    |div b|; the three boolean verdicts hold when the matching evidence
    integral is below ``EVIDENCE_CEILING`` and moves by at most 5% when
    the spatial sample count doubles. ``divergence_is_exact`` holds when
    the drift states an analytic Jacobian, whose trace is the divergence.
    """

    drift_id: str
    div_bound: float
    div_ok: bool
    lq_evidence: float
    lq_loc_ok: bool
    w1q_evidence: float
    w1q_loc_ok: bool
    growth_evidence: float
    growth_ok: bool
    rel_changes: dict
    divergence_is_exact: bool

    @property
    def all_ok(self) -> bool:
        return self.div_ok and self.lq_loc_ok and self.w1q_loc_ok and self.growth_ok


def _window_extent(window, d: int):
    win = [(float(lo), float(hi)) for lo, hi in window]
    if len(win) != d:
        raise ConfigError(f"window has {len(win)} axes, drift has dimension {d}")
    for lo, hi in win:
        if not (hi > lo):
            raise ConfigError(f"degenerate window axis ({lo}, {hi})")
    return win


def _lattice_points(window, n_total: int, d: int) -> np.ndarray:
    """Deterministic midpoint lattice over the window, jittered off symmetry axes."""
    per_axis = max(2, int(round(n_total ** (1.0 / d))))
    axes = []
    for lo, hi in window:
        width = hi - lo
        pts = lo + (np.arange(per_axis) + 0.5) * width / per_axis
        axes.append(pts + _JITTER_SCALE * width)
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)


def _probe_points(window, d: int, jitter: float) -> np.ndarray:
    """Extremal candidates for sup-type evidence: center, corners, edge midpoints.

    A plain lattice resolves sup|div b| and sup|b|/(1+|x|) poorly when the
    extremum sits on a symmetry set (the origin, the window boundary), and
    whether a lattice point lands nearby flips with the sample count. The
    probes pin those candidates in every pass. Their offset from the exact
    set shrinks with the pass size, so a quantity that is genuinely
    unbounded there keeps growing between passes and reads as unstable.
    """
    center = np.array([0.5 * (lo + hi) + jitter * (hi - lo) for lo, hi in window])
    pts = [center]
    for mask in range(1 << d):
        corner = np.empty(d)
        for axis, (lo, hi) in enumerate(window):
            off = jitter * (hi - lo)
            corner[axis] = hi - off if (mask >> axis) & 1 else lo + off
        pts.append(corner)
    for axis, (lo, hi) in enumerate(window):
        off = jitter * (hi - lo)
        for edge in (lo + off, hi - off):
            p = center.copy()
            p[axis] = edge
            pts.append(p)
    return np.stack(pts, axis=0)


def _evidence_pass(b: DriftField, q: float, window, horizon: float, samples: int):
    win = window
    volume = float(np.prod([hi - lo for lo, hi in win]))
    max_width = max(hi - lo for lo, hi in win)
    fd_step = 1.0e-4 * max_width
    pts = _lattice_points(win, samples, b.d)
    # Sup-type quantities additionally probe the window's symmetry sets; the
    # probe offset scales with the pass so singular fields stay unstable.
    # Integral quantities use the lattice alone, a probe next to an
    # integrable singularity would otherwise dominate the mean.
    probes = _probe_points(win, b.d, _JITTER_SCALE * (4096.0 / samples))
    sup_pts = np.concatenate([pts, probes], axis=0)
    times = np.linspace(0.0, horizon, 17)

    sup_based = math.isinf(q)
    sup_div = np.empty(times.size)
    lq_slice = np.empty(times.size)
    w1q_slice = np.empty(times.size)
    growth = 0.0
    denom = 1.0 + np.sqrt(np.sum(sup_pts * sup_pts, axis=-1))
    for j, t in enumerate(times):
        # One evaluation at sup_pts; its first len(pts) rows are the lattice.
        bs = eval_drift(b, t, sup_pts)
        sup_speed = np.sqrt(np.sum(bs * bs, axis=-1))
        speed = sup_speed[: len(pts)]
        jac = _jacobian_of(b, t, sup_pts, fd_step=fd_step)
        div = np.trace(jac, axis1=-2, axis2=-1)
        grad_mag = np.sqrt(np.sum(jac * jac, axis=(-2, -1)))[: len(pts)]
        sup_div[j] = float(np.max(np.abs(div)))
        if sup_based:
            # q = inf: the integrability evidence degenerates to sup norms.
            lq_slice[j] = float(np.max(sup_speed))
            w1q_slice[j] = float(np.max(grad_mag))
        else:
            lq_slice[j] = float(np.mean(speed**q)) * volume
            w1q_slice[j] = float(np.mean(grad_mag**q)) * volume
        growth = max(growth, float(np.max(sup_speed / denom)))
    return {
        "div": float(np.trapezoid(sup_div, times)),
        "lq": float(np.trapezoid(lq_slice, times)),
        "w1q": float(np.trapezoid(w1q_slice, times)),
        "growth": growth,
    }


def check_hypotheses(
    b: DriftField,
    q: float,
    window,
    horizon: float,
    samples: int = 4096,
) -> HypothesisReport:
    """Estimate the integrability evidence for a drift on ``window`` x [0, horizon].

    Parameters
    ----------
    b : DriftField
    q : float
        Conjugate exponent used for the local integrability checks;
        q = inf is handled by replacing the q-integrals with sup norms.
    window : sequence of (lo, hi) pairs
        One bounded interval per axis.
    horizon : float
        Final time of the run the drift will feed.
    samples : int
        Spatial sample count per time slice; at least 1000. The check
        runs twice, at ``samples`` and ``2 * samples``, and an evidence
        value is accepted only when the two passes agree within 5%.

    Notes
    -----
    Sampling is a deterministic midpoint lattice per axis with a relative
    jitter of 1e-9, so points cannot land exactly on the singular sets of
    the catalog fields; the whole procedure is reproducible bit for bit.
    The trapezoid rule in t uses 17 equally spaced time slices.
    """
    qv = float(q)
    if not (qv >= 1.0):
        raise ConfigError(f"conjugate exponent must satisfy q >= 1, got {qv}")
    if samples < 1000:
        raise ConfigError(f"need at least 1000 samples, got {samples}")
    if not (horizon > 0):
        raise ConfigError(f"horizon must be positive, got {horizon}")
    win = _window_extent(window, b.d)

    coarse = _evidence_pass(b, qv, win, horizon, samples)
    fine = _evidence_pass(b, qv, win, horizon, 2 * samples)

    rel_changes = {}
    verdict = {}
    for key in ("div", "lq", "w1q", "growth"):
        lo, hi = coarse[key], fine[key]
        denom = max(abs(lo), abs(hi), 1.0e-300)
        rel = abs(hi - lo) / denom if max(abs(lo), abs(hi)) > 0 else 0.0
        rel_changes[key] = rel
        verdict[key] = bool(hi < EVIDENCE_CEILING and rel <= STABILITY_RTOL)

    return HypothesisReport(
        drift_id=b.id,
        div_bound=fine["div"],
        div_ok=verdict["div"],
        lq_evidence=fine["lq"],
        lq_loc_ok=verdict["lq"],
        w1q_evidence=fine["w1q"],
        w1q_loc_ok=verdict["w1q"],
        growth_evidence=fine["growth"],
        growth_ok=verdict["growth"],
        rel_changes=rel_changes,
        divergence_is_exact=b.jacobian is not None,
    )


def write_hypothesis_csv(report: HypothesisReport, path) -> None:
    """Write the four checks as rows ``check,ok,evidence,threshold``."""
    checks = [
        ("div_bound", report.div_ok, report.div_bound),
        ("lq_loc", report.lq_loc_ok, report.lq_evidence),
        ("w1q_loc", report.w1q_loc_ok, report.w1q_evidence),
        ("growth", report.growth_ok, report.growth_evidence),
    ]
    rows = [(name, str(ok).lower(), evidence, EVIDENCE_CEILING) for name, ok, evidence in checks]
    write_csv(path, ("check", "ok", "evidence", "threshold"), rows)

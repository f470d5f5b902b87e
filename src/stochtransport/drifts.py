"""Drift velocity fields and integrability diagnostics.

A drift is b(t, x) = gain(t) * fn(x): a vectorized autonomous rule
fn on points of shape (..., d), optionally carrying an analytic Jacobian
rule, times an optional scalar gain of time. The Jacobian is the only
derivative a drift states: its divergence is the trace, and a drift
without the rule is differentiated by centered differences. The
catalog covers the regimes exercised by the solvers: constants, linear
fields, divergence-free stream-function fields, a one-dimensional
power-law field with a Sobolev-but-not-Lipschitz kink at the origin,
and time modulation by a gain.

``check_hypotheses`` estimates, by deterministic quadrature sampling,
the quantities a well-posed transport problem needs from its drift: a
time-integrated sup bound on the divergence, local q-integrability of
b and of its gradient, and sublinear growth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .artifacts import write_csv
from .errors import ConfigError, DriftEvaluationError
from .schema import DRIFT, GAIN_IDS, check

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

#: Lattice points per time slice in the coarse pass of ``check_hypotheses``.
SAMPLES_PER_SLICE = 4096

#: Relative offset applied to sample coordinates to step off singular sets.
_JITTER_SCALE = 1.0e-9


@dataclass(frozen=True)
class DriftField:
    """A velocity field b(t, x) = gain(t) * fn(x) with an optional analytic Jacobian.

    ``fn`` and ``jacobian`` are autonomous and vectorized over points of
    shape (..., d); the Jacobian returns (..., d, d) with entries
    d fn_i / d x_j. ``gain`` is a scalar rule of time, None for an
    autonomous field. ``smooth`` marks fields the solver steps as they
    are; the others are mollified first (see ``spde.solve_spde``).
    ``constant_value`` is set only for fields constant in space and time,
    and unlocks closed-form transported solutions downstream.

    ``on_axes``, when set, is ``fn`` on a tensor grid given by its axes:
    ``on_axes(x_1, ..., x_d)``, with coordinate arrays of shapes
    (..., n_1) to (..., n_d) whose leading shapes broadcast, returns
    shape (..., n_1, ..., n_d, d) and equals, bit for bit, ``fn`` on the
    points ``stack(meshgrid(x_1, ..., x_d, indexing="ij"), axis=-1)``
    taken over the leading axes (``_separable_2d``); the march reads it at
    the path-shifted grid nodes (``transport._composed_drift``). A field
    that replaces ``fn`` must drop it.
    """

    id: str
    d: int
    fn: Callable[[np.ndarray], np.ndarray]
    jacobian: Optional[Callable[[np.ndarray], np.ndarray]] = None
    smooth: bool = False
    constant_value: Optional[np.ndarray] = None
    gain: Optional[Callable[[float], float]] = None
    on_axes: Optional[Callable[..., np.ndarray]] = None


def eval_drift(b: DriftField, t, points: np.ndarray) -> np.ndarray:
    """Evaluate b(t, x) = gain(t) * fn(x), guarding against non-finite output.

    ``t`` is one time, or a 1-D array of B times with points of shape
    (B, ..., d), row i read at time i. ``fn`` is read once for all of
    them and scaled by the gain at each time. The drift runs with numpy's
    floating-point warnings off: a non-finite value raises
    ``DriftEvaluationError`` naming the first time that gave one.
    """
    return _drift_read(b, t, b.fn, np.asarray(points, dtype=float))


def _drift_read(b: DriftField, t, rule, *args, fault: str = "returned non-finite values"):
    """gain(t) * rule(*args), where ``rule`` is ``b.fn`` or ``b.on_axes``, with
    the warnings, gain and finiteness check of :func:`eval_drift`, whose
    error states ``fault``. With an array of B times, the output's leading
    axis is the time axis. With no gain, the output is the rule's own."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        out = np.asarray(rule(*args), dtype=float)
        if b.gain is not None:
            if np.ndim(t) == 0:
                out = b.gain(t) * out
            else:
                scale = np.array([b.gain(s) for s in np.asarray(t, dtype=float).tolist()])
                out = out * scale.reshape((-1,) + (1,) * (out.ndim - 1))
    finite = np.isfinite(out)
    if not np.logical_and.reduce(finite, axis=None):
        if np.ndim(t):
            t = float(np.ravel(t)[np.argmin(finite.reshape(np.size(t), -1).all(axis=1))])
        raise DriftEvaluationError(f"drift {b.id!r} {fault} at t={t}")
    return out


def _drift_reads(b: DriftField, points, step: float, analytic: bool = True) -> Callable:
    """``at(t) -> (b(t, x), J(t, x))`` at ``points`` x, the drift and its
    (..., d, d) Jacobian, whose trace is div b, from one read of the
    autonomous factor, which ``at`` scales by gain(t) as :func:`eval_drift`
    does: each value has the bits of a read at t, and a non-finite one
    raises ``DriftEvaluationError`` naming t. J is ``b.jacobian`` when
    ``analytic`` and the rule is set, else centered differences (b(x + step
    e_j) - b(x - step e_j)) / (2 step) as column j, whose trace at step = h
    / 2 is the cell average of div b: the flux through the faces of a cell
    of side h, finite for every W^{1,1} drift, singular points included.
    """
    pts = np.asarray(points, dtype=float)
    exact = analytic and b.jacobian is not None

    def read(rule, x):  # with the warnings of eval_drift
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return np.asarray(rule(x), dtype=float)

    value = read(b.fn, pts)
    if exact:
        jac = read(b.jacobian, pts)
    else:  # fn at both sides of each difference
        sides = [(read(b.fn, pts + s), read(b.fn, pts - s)) for s in np.eye(b.d) * step]

    def at(t):
        out = _drift_read(b, t, np.asarray, value)
        if exact:
            return out, _drift_read(b, t, np.asarray, jac, fault="Jacobian non-finite")
        jac_t = np.zeros(pts.shape[:-1] + (b.d, b.d))
        for a, (plus, minus) in enumerate(sides):
            jac_t[..., :, a] = (_drift_read(b, t, np.asarray, plus)
                                - _drift_read(b, t, np.asarray, minus)) / (2.0 * step)
        return out, jac_t

    return at


# ---------------------------------------------------------------------------
# catalog


def zero_drift(d: int) -> DriftField:
    """The trivial field b = 0: the constant drift of d zeros, under the id ``zero``."""
    return replace(constant_drift(np.zeros(d)), id="zero")


def constant_drift(c) -> DriftField:
    """Spatially constant field b(t, x) = c."""
    cvec = np.atleast_1d(np.asarray(c, dtype=float))
    d = cvec.size

    def fn(x):
        return np.broadcast_to(cvec, np.asarray(x).shape).copy()

    def jac(x):
        return np.zeros(np.asarray(x).shape[:-1] + (d, d))

    return DriftField("constant", d, fn, jac, smooth=True, constant_value=cvec)


def linear_drift(matrix) -> DriftField:
    """Linear field b(x) = A x."""
    A = np.atleast_2d(np.asarray(matrix, dtype=float))
    if A.shape[0] != A.shape[1]:
        raise ConfigError(f"linear drift matrix must be square, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ConfigError(f"linear drift matrix must be finite, got {A.tolist()!r}")
    d = A.shape[0]

    def fn(x):
        return np.asarray(x) @ A.T

    def jac(x):
        return np.broadcast_to(A, np.asarray(x).shape[:-1] + (d, d)).copy()

    return DriftField("linear", d, fn, jac, smooth=True)


def _separable_2d(components) -> tuple[Callable, Callable]:
    """``fn`` and ``on_axes`` of a 2D drift from one rule ``components(x1, x2)``
    that returns its two components as products of per-axis factors.

    ``fn`` applies the rule to the coordinates of its points; ``on_axes``
    applies it to x1 along the first grid axis and x2 along the second, so
    each factor is computed once per axis coordinate and the products
    broadcast to the tensor grid. Both multiply the same factors in the
    same order, so they agree bit for bit.
    """

    def fn(x):
        x = np.asarray(x, dtype=float)
        out = np.empty(x.shape)
        out[..., 0], out[..., 1] = components(x[..., 0], x[..., 1])
        return out

    def on_axes(x1, x2):
        x1 = np.asarray(x1, dtype=float)[..., :, None]
        x2 = np.asarray(x2, dtype=float)[..., None, :]
        out = np.empty(np.broadcast_shapes(x1.shape, x2.shape) + (2,))
        out[..., 0], out[..., 1] = components(x1, x2)
        return out

    return fn, on_axes


def _wavenumber(half_width: float) -> float:
    """pi / L for the half width L of a periodic drift, positive and finite."""
    if not 0.0 < float(half_width) < math.inf:
        raise ConfigError(f"half_width must be positive and finite, got {half_width!r}")
    return np.pi / float(half_width)


def stream_function_drift(half_width: float, amplitude: float = 1.0) -> DriftField:
    """Divergence-free 2D field from the stream function
    psi = amplitude * cos(pi x1 / L) * cos(pi x2 / L), rotated so that
    b = (-d psi/d x2, d psi/d x1).

    Each component is a product of one factor of x1 and one of x2, so the
    field states ``on_axes`` (``_separable_2d``) from the rule ``fn`` uses.
    """
    k = _wavenumber(half_width)

    def components(x1, x2):
        kx1, kx2 = k * x1, k * x2
        return (amplitude * k * np.cos(kx1) * np.sin(kx2),
                -amplitude * k * np.sin(kx1) * np.cos(kx2))

    def jac(x):
        x = np.asarray(x, dtype=float)
        kx1, kx2 = k * x[..., 0], k * x[..., 1]
        sin1, cos1, sin2, cos2 = np.sin(kx1), np.cos(kx1), np.sin(kx2), np.cos(kx2)
        out = np.empty(x.shape[:-1] + (2, 2))
        out[..., 0, 0] = -amplitude * k * k * sin1 * sin2
        out[..., 0, 1] = amplitude * k * k * cos1 * cos2
        out[..., 1, 0] = -amplitude * k * k * cos1 * cos2
        out[..., 1, 1] = amplitude * k * k * sin1 * sin2
        return out

    fn, on_axes = _separable_2d(components)
    return DriftField("stream", 2, fn, jac, smooth=True, on_axes=on_axes)


def shear_drift(half_width: float, amplitude: float = 1.0) -> DriftField:
    """Periodic horizontal shear b(x1, x2) = (amplitude * sin(pi x2 / L), 0).

    The field depends on x2 alone, so it states ``on_axes``
    (``_separable_2d``) from the rule ``fn`` uses.
    """
    k = _wavenumber(half_width)

    def components(x1, x2):
        return amplitude * np.sin(k * x2), 0.0

    def jac(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[:-1] + (2, 2))
        out[..., 0, 1] = amplitude * k * np.cos(k * x[..., 1])
        return out

    fn, on_axes = _separable_2d(components)
    return DriftField("shear", 2, fn, jac, smooth=True, on_axes=on_axes)


def power_drift(alpha: float, scale: float = 1.0) -> DriftField:
    """One-dimensional power field b(x) = scale * sign(x) |x|^alpha.

    For 0 < alpha < 1 the derivative alpha |x|^(alpha-1) blows up at the
    origin: the field is W^{1,q}_loc exactly when (alpha - 1) q > -1.
    """
    if not (0.0 < alpha < 1.0):
        raise ConfigError(f"power drift exponent must lie in (0, 1), got {alpha}")

    def fn(x):
        x = np.asarray(x, dtype=float)
        return scale * np.sign(x) * np.abs(x) ** alpha

    def jac(x):
        x = np.asarray(x, dtype=float)[..., :1, None]
        return scale * alpha * np.abs(x) ** (alpha - 1.0)

    return DriftField("power1d", 1, fn, jac)


#: The gain g(t, T) of each of ``schema.GAIN_IDS``, in order: bounded, so integrable on [0, T].
_GAIN_RULES = dict(zip(GAIN_IDS, (
    lambda t, T: 1.0,
    lambda t, T: math.sin(math.pi * t / T) ** 2,
    lambda t, T: t / T,
)))


def time_modulated_drift(base: DriftField, gain_id: str, horizon: float) -> DriftField:
    """Separable time modulation g(t) * b(x) with g from a small catalog.

    Modulating an already modulated field multiplies the two gains, the
    new one first. The result states no ``constant_value``: it is not
    constant in time.
    """
    if gain_id not in _GAIN_RULES:
        raise ConfigError(f"unknown gain id {gain_id!r}; choose from {sorted(_GAIN_RULES)}")
    rule = _GAIN_RULES[gain_id]
    T = float(horizon)
    inner = base.gain

    def gain(t):
        return rule(t, T) if inner is None else rule(t, T) * inner(t)

    return replace(base, id=f"{base.id}*{gain_id}", constant_value=None, gain=gain)


def _check_period(key: str, kind: str, drift_half_width: float, half_width: float,
                  n: int) -> None:
    """A ``stream`` or ``shear`` drift of half width L / m is periodic on the box
    [-L, L)^2 for a whole m >= 1, and resolved by n nodes per axis for m <=
    n / 2; any other half width is an error."""
    periods = half_width / drift_half_width if drift_half_width > 0 else 0.0
    if periods > n / 2:
        raise ConfigError(f"{key} = {drift_half_width!r} puts {periods:.6g} periods of the "
                          f"drift on the box, more than the N/2 = {n / 2:g} that N = {n} "
                          "nodes per axis resolve")
    if not (1.0 <= periods < math.inf and abs(periods - round(periods)) <= 1.0e-12 * periods):
        raise ConfigError(f"drift {kind!r}: half_width {drift_half_width!r} is not L / m for "
                          f"a whole m >= 1 with L = {half_width}, so the drift is not periodic "
                          "on the box")


def drift_from_spec(d: int, half_width: float, spec: dict, horizon: float = 1.0, *,
                    n: int) -> DriftField:
    """Build a catalog drift from a config dictionary like {"id": "power1d", "alpha": 0.75}.

    The spec must meet ``schema.DRIFT`` in dimension ``d``, or a
    ``ConfigError`` names the key path at fault (``drift.base.scale``).
    The ``half_width`` of a ``stream`` or ``shear`` drift, L by default,
    must be L / m for a whole m >= 1, so that the drift is periodic on the
    box [-L, L)^2, and m <= n / 2, so that the n grid nodes per axis
    resolve it.
    """
    check(spec, DRIFT, "drift", d)
    gains = []  # a time_modulated spec's gain, then its base's, down to the autonomous field
    while spec["id"] == "time_modulated":
        gains.append(spec["gain_id"])
        spec = spec["base"]
    kind = spec["id"]
    kwargs = {k: v for k, v in spec.items() if k != "id"}
    if kind == "zero":
        b = zero_drift(d)
    elif kind == "constant":
        b = constant_drift(kwargs.get("c", [1.0] * d))
    elif kind == "linear":
        b = linear_drift(**kwargs)
    elif kind in ("stream", "shear"):
        kwargs.setdefault("half_width", half_width)
        _check_period("drift" + ".base" * len(gains) + ".half_width", kind,
                      kwargs["half_width"], half_width, n)
        b = (stream_function_drift if kind == "stream" else shear_drift)(**kwargs)
    else:
        b = power_drift(**kwargs)
    if b.d != d:
        raise ConfigError(f"drift {kind!r} has dimension {b.d}, config asks for {d}")
    for gain_id in reversed(gains):
        b = time_modulated_drift(b, gain_id, horizon)
    return b


# ---------------------------------------------------------------------------
# hypothesis checking


@dataclass(frozen=True)
class HypothesisReport:
    """Outcome of the drift integrability checks on a window.

    ``div_bound`` is the trapezoid-in-time integral of the sampled sup of
    |div b|; the four boolean verdicts hold when the matching evidence
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
    probes = _probe_points(win, b.d, _JITTER_SCALE * (SAMPLES_PER_SLICE / samples))
    sup_pts = np.concatenate([pts, probes], axis=0)
    times = np.linspace(0.0, horizon, 17)

    sup_based = math.isinf(q)
    sup_div = np.empty(times.size)
    lq_slice = np.empty(times.size)
    w1q_slice = np.empty(times.size)
    growth = 0.0
    denom = 1.0 + np.sqrt(np.sum(sup_pts * sup_pts, axis=-1))
    # One read at sup_pts, scaled at each time; its first len(pts) rows are the lattice.
    at = _drift_reads(b, sup_pts, fd_step)
    for j, t in enumerate(times):
        bs, jac = at(t)
        sup_speed = np.sqrt(np.sum(bs * bs, axis=-1))
        speed = sup_speed[: len(pts)]
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

    Notes
    -----
    The check runs twice, at ``SAMPLES_PER_SLICE`` = 4096 lattice points
    per time slice and at 8192, and an evidence value is accepted only
    when the two passes agree within 5%. Sampling is a deterministic
    midpoint lattice per axis with a relative jitter of 1e-9, so points
    cannot land exactly on the singular sets of the catalog fields; the
    whole procedure is reproducible bit for bit.
    The trapezoid rule in t uses 17 equally spaced time slices.
    """
    qv = float(q)
    if not (qv >= 1.0):
        raise ConfigError(f"conjugate exponent must satisfy q >= 1, got {qv}")
    if not (horizon > 0):
        raise ConfigError(f"horizon must be positive, got {horizon}")
    win = _window_extent(window, b.d)

    # Evidence may overflow to inf, which the verdicts read as a failure,
    # so numpy need not warn, as eval_drift does not warn for the drift.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        coarse = _evidence_pass(b, qv, win, horizon, SAMPLES_PER_SLICE)
        fine = _evidence_pass(b, qv, win, horizon, 2 * SAMPLES_PER_SLICE)

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

"""Pathwise solutions of the noisy transport equation and their audits.

Oracles: the pure-noise solution is a translation of the initial data;
constant drift adds a uniform displacement; contraction by b(x) = -x
scales the L1 mass by e^{-t} exactly in the continuum.
"""

import dataclasses
import math
import sys
import warnings

import numpy as np
import pytest

from stochtransport import drifts as drifts_module
from stochtransport import paths as paths_module
from stochtransport import transport as transport_module
from stochtransport.errors import BlowUpError, ConfigError, SupportMarginWarning
from stochtransport.drifts import (
    DriftField,
    check_hypotheses,
    constant_drift,
    drift_from_spec,
    eval_drift,
    linear_drift,
    power_drift,
    shear_drift,
    stream_function_drift,
    time_modulated_drift,
    zero_drift,
)
from stochtransport.artifacts import read_field_csv, write_field_csv
from stochtransport.fields import ScalarField, SpatialGrid, lp_norm, shift_field
from stochtransport.paths import (
    SamplePath,
    eval_path,
    piecewise_linear_approx,
    sample_brownian,
    zero_path,
)
from stochtransport.profiles import bump, sample_profile, step
from stochtransport.spde import (
    SNAPSHOT_INTERVALS,
    SpdeSolution,
    _block_steps,
    exact_solution,
    renormalize_check,
    smoothed_truncated_power,
    solve_spde,
)
from stochtransport.transport import cfl_number, mollified_drift


@pytest.fixture
def setting512():
    g = SpatialGrid(d=1, half_width=4.0, n=512)
    prof = bump(1, center=0.0, radius=1.0)
    return g, prof, sample_profile(g, prof)


class TestRepresentation:
    def test_pure_noise_is_translation_of_initial_data(self, setting512):
        g, prof, u0 = setting512
        path = sample_brownian(24, 1.0, 512, 1)
        (sol,) = solve_spde(zero_drift(1), [path], u0)
        tol = 1e-3 * lp_norm(u0, 1.0)
        for m, t in enumerate(sol.times):
            want = shift_field(u0, eval_path(path, float(t)))
            assert lp_norm(sol.fields[m] - want, 1.0) <= tol

    def test_first_snapshot_is_initial_data(self, setting512):
        g, prof, u0 = setting512
        path = sample_brownian(24, 1.0, 512, 1)
        (sol,) = solve_spde(zero_drift(1), [path], u0)
        assert np.array_equal(sol.fields[0].values, u0.values)

    def test_constant_drift_closed_form(self):
        g = SpatialGrid(d=1, half_width=8.0, n=512)
        prof = bump(1, center=-0.5, radius=2.0)
        u0 = sample_profile(g, prof)
        path = sample_brownian(24, 1.0, 512, 1)
        b = constant_drift([1.0])
        (sol,) = solve_spde(b, [path], u0)
        truth = exact_solution(b, path, prof, 1.0, g)
        rel = lp_norm(sol.fields[-1] - truth, 1.0) / lp_norm(u0, 1.0)
        assert rel <= 5e-3

    def test_shifting_back_recovers_auxiliary_frame(self, setting512):
        # one interpolation round trip is the price of the shift, so the
        # budget is twice the measured single round-trip defect
        g, prof, u0 = setting512
        path = sample_brownian(24, 1.0, 512, 1)
        (sol,) = solve_spde(zero_drift(1), [path], u0)
        round_trip = lp_norm(
            shift_field(shift_field(u0, [0.37]), [-0.37]) - u0, 1.0
        )
        for m, t in enumerate(sol.times):
            back = shift_field(sol.fields[m], -eval_path(path, float(t)))
            assert lp_norm(back - sol.aux_fields[m], 1.0) <= 2.0 * round_trip

    def test_null_initial_data_stays_null_bit_exactly(self, setting512):
        g, prof, u0 = setting512
        path = sample_brownian(24, 1.0, 512, 1)
        for scheme in ("semi_lagrangian", "upwind_fv"):
            (sol,) = solve_spde(constant_drift([0.5]), [path], ScalarField.zeros(g), scheme=scheme)
            assert all(np.all(f.values == 0.0) for f in sol.fields)

    def test_linearity_within_scheme_tolerance(self, setting512):
        g, prof, u0 = setting512
        u0b = sample_profile(g, bump(1, center=0.8, radius=0.7))
        path = sample_brownian(24, 1.0, 512, 1)
        a = -1.7
        combo = ScalarField(g, a * u0.values + u0b.values)
        tol = {"semi_lagrangian": 1e-3, "upwind_fv": 1e-12}
        for scheme in ("semi_lagrangian", "upwind_fv"):
            (s_combo,) = solve_spde(constant_drift([0.5]), [path], combo, scheme=scheme)
            (s_a,) = solve_spde(constant_drift([0.5]), [path], u0, scheme=scheme)
            (s_b,) = solve_spde(constant_drift([0.5]), [path], u0b, scheme=scheme)
            worst = max(
                lp_norm(s_combo.fields[m] - (s_a.fields[m] * a + s_b.fields[m]), 1.0)
                for m in range(len(s_combo.times))
            )
            assert worst <= tol[scheme] * lp_norm(combo, 1.0) + 1e-15

    def test_gronwall_envelope_on_auxiliary_frame(self):
        # b(x) = -x has sup |div b| = 1, so the mass of the auxiliary
        # solution is bounded by e^{1.1 t} times the initial mass
        g = SpatialGrid(d=1, half_width=8.0, n=512)
        u0 = sample_profile(g, bump(1, center=0.0, radius=1.2))
        path = sample_brownian(24, 1.0, 1024, 1)
        (sol,) = solve_spde(linear_drift([[-1.0]]), [path], u0)
        n0 = lp_norm(u0, 1.0)
        for m, t in enumerate(sol.times):
            assert lp_norm(sol.aux_fields[m], 1.0) <= math.exp(1.1 * float(t)) * n0 + 1e-12


class TestWongZakaiPipeline:
    def test_zero_path_reduces_to_deterministic_problem(self, setting512):
        g, prof, u0 = setting512
        w = zero_path(1.0, 512, 1)
        (sol,) = solve_spde(constant_drift([0.5]), [w], u0)
        for m in range(len(sol.times)):
            assert np.array_equal(sol.fields[m].values,
                                  sol.aux_fields[m].values)

    def test_finest_approximant_matches_brownian_run_bitwise(self, setting512):
        g, prof, u0 = setting512
        path = sample_brownian(24, 1.0, 512, 1)
        full = piecewise_linear_approx(path, 512)
        (ref,) = solve_spde(zero_drift(1), [path], u0)
        (wz,) = solve_spde(zero_drift(1), [full], u0)
        for a, b in zip(ref.fields, wz.fields):
            assert np.array_equal(a.values, b.values)

    def test_pure_noise_approximant_is_translation(self, setting512):
        g, prof, u0 = setting512
        path = sample_brownian(24, 1.0, 512, 1)
        bn = piecewise_linear_approx(path, 32)
        (sol,) = solve_spde(zero_drift(1), [bn], u0)
        tol = 1e-3 * lp_norm(u0, 1.0)
        for m, t in enumerate(sol.times):
            want = shift_field(u0, eval_path(bn, float(t)))
            assert lp_norm(sol.fields[m] - want, 1.0) <= tol


class TestExactSolution:
    def test_time_zero_is_sampled_initial_data(self):
        g = SpatialGrid(d=1, half_width=4.0, n=128)
        prof = bump(1, center=0.0, radius=1.0)
        path = zero_path(1.0, 8, 1)
        got = exact_solution(constant_drift([0.0]), path, prof, 0.0, g)
        assert np.array_equal(got.values, sample_profile(g, prof).values)

    def test_lattice_displacement_is_exact_index_shift(self):
        g = SpatialGrid(d=1, half_width=4.0, n=128)
        prof = bump(1, center=0.0, radius=1.0)
        vals = np.zeros((9, 1))
        vals[-1, 0] = 5.0 * g.h
        path = SamplePath(kind="piecewise_linear_bv", horizon=1.0, values=vals,
                          seed=None)
        got = exact_solution(constant_drift([0.0]), path, prof, 1.0, g)
        u0 = sample_profile(g, prof)
        assert np.allclose(got.values, np.roll(u0.values, 5), atol=1e-15)

    def test_constant_drift_combines_displacements(self):
        g = SpatialGrid(d=2, half_width=4.0, n=64)
        prof = bump(2, center=(0.0, 0.0), radius=1.0)
        vals = np.zeros((9, 2))
        vals[-1] = [0.3, -0.2]
        path = SamplePath(kind="piecewise_linear_bv", horizon=1.0, values=vals,
                          seed=None)
        got = exact_solution(constant_drift([1.0, 0.0]), path, prof, 1.0, g)
        want = ScalarField.from_function(
            g, lambda p: prof.fn(p - np.array([1.3, -0.2]))
        )
        assert np.array_equal(got.values, want.values)

    def test_no_closed_form_for_modulated_constant(self):
        # g(t) * c is not constant in time: modulation drops the closed form
        g = SpatialGrid(d=1, half_width=4.0, n=128)
        prof = bump(1, center=0.0, radius=1.0)
        b = time_modulated_drift(constant_drift([0.5]), "ramp", 1.0)
        with pytest.raises(ConfigError, match="no closed-form"):
            exact_solution(b, zero_path(1.0, 8, 1), prof, 1.0, g)

    def test_no_closed_form_for_general_drift(self):
        g = SpatialGrid(d=1, half_width=4.0, n=128)
        prof = bump(1, center=0.0, radius=1.0)
        with pytest.raises(ConfigError):
            exact_solution(linear_drift([[-1.0]]), zero_path(1.0, 8, 1), prof,
                           1.0, g)


class TestRenormalization:
    def test_divergence_free_advection_conserves_square_integral(self):
        g = SpatialGrid(d=2, half_width=4.0, n=256)
        u0 = sample_profile(g, bump(2, center=(0.0, 0.0), radius=1.2))
        b = stream_function_drift(4.0)
        path = sample_brownian(14, 1.0, 128, 2)
        (sol,) = solve_spde(b, [path], u0)
        rep = renormalize_check(sol, lambda s: s * s, b)
        assert rep.passed
        assert rep.div_bound == 0.0
        drift = float(np.max(np.abs(rep.integrals - rep.integrals[0])))
        assert drift <= 0.01 * rep.integrals[0]

    def test_null_solution_has_null_integrals(self):
        g = SpatialGrid(d=2, half_width=4.0, n=64)
        b = stream_function_drift(4.0)
        path = sample_brownian(14, 1.0, 64, 2)
        (sol,) = solve_spde(b, [path], ScalarField.zeros(g))
        rep = renormalize_check(sol, lambda s: s * s, b)
        assert np.all(rep.integrals == 0.0)

    def test_contraction_decays_mass_at_unit_rate(self):
        # d|V|/dt = -div(b) |V| pointwise along the flow gives
        # I(t) = e^{-t} I(0) for b(x) = -x; the envelope must hold too
        g = SpatialGrid(d=1, half_width=8.0, n=512)
        u0 = sample_profile(g, bump(1, center=0.0, radius=1.2))
        b = linear_drift([[-1.0]])
        path = sample_brownian(24, 1.0, 1024, 1)
        (sol,) = solve_spde(b, [path], u0)
        beta = smoothed_truncated_power(M=10.0, p=1.0)
        rep = renormalize_check(sol, beta, b)
        assert rep.passed
        assert rep.div_bound == pytest.approx(1.0, abs=1e-12)
        decay = rep.integrals / rep.integrals[0]
        target = np.exp(-np.asarray(rep.times))
        assert float(np.max(np.abs(decay - target))) <= 0.02

    def test_a_solution_rebuilt_from_artifacts_is_audited_as_solved(self, tmp_path):
        # the audit reads u, the frame that dumped snapshots carry
        g = SpatialGrid(d=1, half_width=4.0, n=128)
        u0 = sample_profile(g, bump(1, radius=1.2))
        b = linear_drift([[-1.0]])
        path = sample_brownian(24, 1.0, 256, 1)
        (sol,) = solve_spde(b, [path], u0)
        fields = []
        for m, u in enumerate(sol.fields):
            write_field_csv(u, tmp_path / f"u_t{m:04d}.csv")
            fields.append(read_field_csv(tmp_path / f"u_t{m:04d}.csv", g))
        beta = smoothed_truncated_power(M=10.0, p=1.0)
        solved = renormalize_check(sol, beta, b)
        rebuilt = renormalize_check(SpdeSolution(tuple(fields), path), beta, b)
        assert rebuilt.passed
        assert np.array_equal(rebuilt.integrals, solved.integrals)
        assert np.array_equal(rebuilt.envelope, solved.envelope)

    def test_divergence_bound_above_ceiling_is_inconclusive(self):
        # C = 2e12 exceeds the 1e12 ceiling: no envelope is built
        g = SpatialGrid(d=1, half_width=4.0, n=64)
        u0 = sample_profile(g, bump(1, center=0.0, radius=1.0))
        (sol,) = solve_spde(zero_drift(1), [zero_path(1.0, 64, 1)], u0)
        rep = renormalize_check(sol, lambda s: s * s, linear_drift([[2e12]]))
        assert rep.status == "inconclusive"
        assert not rep.passed
        assert rep.div_bound == 2e12
        assert math.isnan(rep.slack)

    @pytest.mark.parametrize("b", [
        linear_drift([[-1.0]]), stream_function_drift(4.0), shear_drift(4.0),
    ], ids=lambda b: b.id)
    def test_gronwall_constant_is_the_hypotheses_div_bound(self, b):
        g = SpatialGrid(d=b.d, half_width=4.0, n=32)
        u0 = sample_profile(g, bump(b.d, radius=1.2))
        (sol,) = solve_spde(b, [zero_path(1.0, 64, b.d)], u0)
        rep = renormalize_check(sol, lambda s: s * s, b)
        box = [(-4.0, 4.0)] * b.d
        assert rep.div_bound == check_hypotheses(b, math.inf, box, 1.0).div_bound

    def test_smoothed_power_is_c1_with_declared_bound(self):
        # Difference quotients of beta alone, with steps far below the blend
        # width delta = 1e-2. A derivative jump J at s shows as a gap J
        # between the forward and backward quotients there, at every step;
        # for a C^1 beta the gap is O(h sup|beta''|), and the centered
        # quotients of the two steps agree. The samples include the kinks
        # of the raw truncated power and the ends of every blend band.
        M, delta = 10.0, 1e-2
        edges = np.array([0.0, delta, M - delta, M, M + delta])
        s = np.concatenate([np.linspace(-15.0, 15.0, 30001), edges, -edges])
        for p in (1.0, 2.0):
            beta = smoothed_truncated_power(M=M, p=p)
            bound = p * M ** (p - 1.0)
            centered = []
            for h in (1e-6, 2e-6):
                fwd = (beta(s + h) - beta(s)) / h
                bwd = (beta(s) - beta(s - h)) / h
                assert float(np.max(np.abs(fwd - bwd))) <= 1e-3 * bound
                centered.append(0.5 * (fwd + bwd))
            assert float(np.max(np.abs(centered[0] - centered[1]))) <= 1e-3 * bound
            assert float(np.max(np.abs(centered[0]))) <= bound * (1 + 1e-6)
            assert beta(np.array([0.0]))[0] <= 1e-2

    def test_smoothed_power_tracks_raw_truncation(self):
        beta = smoothed_truncated_power(M=10.0, p=2.0)
        s = np.array([0.5, 3.0, 9.9, 12.0, -4.0])
        raw = np.minimum(np.abs(s), 10.0) ** 2
        assert np.max(np.abs(beta(s) - raw)) <= 10.0 * 2 * 10.0 * 1e-3 * 2


def _reference_read(grid, values, feet):
    """The clamped cubic read of one field at the feet, the plain way: modulo
    stencil indices into copies of the values rolled by ``np.roll``, and the
    Lagrange weights written out. 1D sums the (Q, 4) stencil by ``np.einsum``;
    2D adds (w0_i * tap_ij) * w1_j to a zeroed sum in row-major (i, j)
    order. The sum is clipped to the range of its stencil."""
    L, n = grid.half_width, grid.n
    s = np.mod(feet + L, 2.0 * L) / grid.h
    base = np.floor(s).astype(np.int64)
    t = s - base
    base %= n
    w = np.stack([-t * (t - 1.0) * (t - 2.0) / 6.0, (t * t - 1.0) * (t - 2.0) / 2.0,
                  -t * (t + 1.0) * (t - 2.0) / 2.0, t * (t * t - 1.0) / 6.0], axis=-1)
    # tap i along an axis is node base + i - 1: the values rolled by 1 - i, read at base
    if grid.d == 1:
        stencil = np.stack([np.roll(values, 1 - i)[base[:, 0]] for i in range(4)], axis=-1)
        out = np.einsum("qi,qi->q", w[:, 0], stencil)
    else:
        out = np.zeros(len(feet))
        taps = []
        for i in range(4):
            for j in range(4):
                tap = np.roll(values, (1 - i, 1 - j), axis=(0, 1))[base[:, 0], base[:, 1]]
                out += (tap * w[:, 0, i]) * w[:, 1, j]
                taps.append(tap)
        stencil = np.stack(taps, axis=-1)
    return np.clip(out, stencil.min(axis=-1), stencil.max(axis=-1)).reshape(grid.shape)


def reference_march(b, path, u0, dt, horizon, scheme, n_snapshots):
    """The unshifted snapshots of ``solve_spde``, marched the plain way: the
    path is evaluated at every RK4 stage, every step reads its values by
    ``_reference_read`` and builds a validated ``ScalarField``. The default
    mollifier policy is repeated as written."""
    grid = u0.grid
    n_steps = int(round(horizon / dt))
    stride = n_steps // n_snapshots
    times = np.linspace(0.0, horizon, n_snapshots + 1)

    def shifted(drift):
        return lambda t, x: eval_drift(drift, t, np.asarray(x, dtype=float)
                                       + eval_path(path, float(t)))

    if not b.smooth:
        excursion = float(np.max(np.abs(path.values)))
        stage = cfl_number(shifted(b), grid, dt, times) * grid.h
        b = mollified_drift(b, 2.0 * grid.h, grid.half_width + excursion + 2.0 * stage)
    velocity = shifted(b)
    nodes = grid.nodes()
    v = u0
    snapshots = [u0]
    for k in range(n_steps):
        t = k * dt
        if scheme == "semi_lagrangian":
            k1 = velocity(t + dt, nodes)
            k2 = velocity(t + 0.5 * dt, nodes - 0.5 * dt * k1)
            k3 = velocity(t + 0.5 * dt, nodes - 0.5 * dt * k2)
            k4 = velocity(t, nodes - dt * k3)
            feet = nodes - (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            new = _reference_read(grid, v.values, feet)
        else:
            vel = velocity(t, nodes).reshape(grid.shape + (grid.d,))
            new = v.values.copy()
            for axis in range(grid.d):
                c = vel[..., axis]
                back = (v.values - np.roll(v.values, 1, axis=axis)) / grid.h
                fwd = (np.roll(v.values, -1, axis=axis) - v.values) / grid.h
                new -= dt * (np.maximum(c, 0.0) * back + np.minimum(c, 0.0) * fwd)
        v = ScalarField(grid, new)
        if (k + 1) % stride == 0:
            snapshots.append(v)
    return times, snapshots


def _case(name):
    """(drift, initial field) of a mollified 1D power solve, the same with the
    sin_squared gain over a horizon of 0.25, the power solve on 400 nodes, a
    small 2D stream solve, or the stream solve on 128 x 128 nodes, whose
    arrays are as large as a benchmark's."""
    if name in ("power1d", "power1d_tm", "straddle"):
        g = SpatialGrid(d=1, half_width=4.0, n=400 if name == "straddle" else 64)
        b = power_drift(0.75, -1.0)
        if name == "power1d_tm":
            b = time_modulated_drift(b, "sin_squared", 0.25)
        return b, sample_profile(g, bump(1, center=0.0, radius=1.0))
    g = SpatialGrid(d=2, half_width=4.0, n=128 if name == "stream128" else 16)
    return (stream_function_drift(4.0),
            sample_profile(g, bump(2, center=[0.0, 0.0], radius=1.5)))


def _replace_everywhere(monkeypatch, module, attr, wrap):
    """Replace ``module.attr`` in every package module that binds it by
    ``wrap(real)``."""
    real = getattr(module, attr)
    wrapper = wrap(real)
    for name, mod in list(sys.modules.items()):
        if name.startswith("stochtransport") and getattr(mod, attr, None) is real:
            monkeypatch.setattr(mod, attr, wrapper)


def _count_calls(monkeypatch, module, attr) -> list:
    """Replace ``module.attr`` in every package module that binds it by a
    wrapper that records the calls' second arguments."""
    calls = []

    def wrap(real):
        def counting(*args, **kwargs):
            calls.append(args[1])
            return real(*args, **kwargs)
        return counting

    _replace_everywhere(monkeypatch, module, attr, wrap)
    return calls


def _count_eval_path(monkeypatch) -> list:
    """Replace ``eval_path`` in every package module by a counting wrapper."""
    return _count_calls(monkeypatch, paths_module, "eval_path")


class TestArrayMarch:
    @pytest.mark.parametrize("scheme", ["semi_lagrangian", "upwind_fv"])
    @pytest.mark.parametrize("kind", ["brownian", "bv"])
    @pytest.mark.parametrize("case", ["power1d", "stream", "power1d_tm", "straddle",
                                      "stream128"])
    def test_matches_reference_march_bitwise(self, scheme, kind, case):
        b, u0 = _case(case)
        # 400 nodes march in blocks of 4096 // 400 = 10 steps: with 256 steps,
        # 16 per snapshot, blocks straddle snapshots and the last one is 6 steps
        n_steps = 256 if case == "straddle" else 32
        if case == "straddle":
            block = _block_steps(n_steps, u0.grid.size)
            assert (n_steps // SNAPSHOT_INTERVALS) % block != 0 and n_steps % block != 0
        dt, horizon = 0.25 / n_steps, 0.25
        path = sample_brownian(5, horizon, n_steps, u0.grid.d)
        if kind == "bv":
            path = piecewise_linear_approx(path, 4)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            (sol,) = solve_spde(b, [path], u0, scheme=scheme)
            times, ref = reference_march(b, path, u0, dt, horizon, scheme, SNAPSHOT_INTERVALS)
        assert (sol.mollify_epsilon is None) == case.startswith("stream")
        assert np.array_equal(sol.times, times)
        for m, t in enumerate(times):
            assert np.array_equal(sol.aux_fields[m].values, ref[m].values)
            want = shift_field(ref[m], eval_path(path, float(t)))
            assert np.array_equal(sol.fields[m].values, want.values)

    def test_overflow_is_caught_at_its_step(self):
        g = SpatialGrid(d=1, half_width=4.0, n=128)
        u0 = ScalarField(g, 1.0e308 * sample_profile(g, step(1, center=0.0, half_width=1.0)).values)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(BlowUpError) as err:
            solve_spde(constant_drift([0.5]), [zero_path(1.0, 64, 1)], u0, scheme="upwind_fv")
        assert err.value.step == 1
        assert "non-finite field at step 1" in str(err.value)

    @pytest.mark.parametrize("scheme", ["semi_lagrangian", "upwind_fv"])
    def test_path_evaluations_do_not_grow_with_steps(self, monkeypatch, scheme):
        calls = _count_eval_path(monkeypatch)
        g = SpatialGrid(d=1, half_width=4.0, n=64)
        u0 = sample_profile(g, bump(1, center=0.0, radius=1.0))
        counts = []
        for n_steps in (32, 128):
            path = sample_brownian(5, 0.25, n_steps, 1)
            calls.clear()
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                solve_spde(power_drift(0.75, -1.0), [path], u0, scheme=scheme)
            counts.append(len(calls))
        assert counts == [1, 1]

    @pytest.mark.parametrize("d", [1, 2])
    def test_grid_nodes_are_built_once_and_read_only(self, d):
        g = SpatialGrid(d=d, half_width=4.0, n=16)
        nodes = g.nodes()
        assert g.nodes() is nodes
        assert nodes.shape == (16**d, d)
        with pytest.raises(ValueError):
            nodes[0, 0] = 1.0


def _batch_case(name):
    """(drift, initial field, mollify_epsilon) of a mollified 1D power solve, a
    forced-epsilon 2D stream solve or an unmollified 2D stream solve. The
    mollifier lattice spacings, 2h/64 and 0.7/8, are not dyadic, so a
    lattice that moved with the table's reach would round its nodes
    differently."""
    if name == "power1d":
        g = SpatialGrid(d=1, half_width=3.3, n=64)
        return power_drift(0.75, -1.0), sample_profile(g, bump(1, center=0.0, radius=1.0)), None
    b, u0 = _case("stream")
    return b, u0, (0.7 if name == "stream_forced_eps" else None)


def _same_solution(a, b) -> bool:
    return (np.array_equal(a.times, b.times)
            and all(np.array_equal(x.values, y.values) for x, y in zip(a.fields, b.fields))
            and all(np.array_equal(x.values, y.values)
                    for x, y in zip(a.aux_fields, b.aux_fields))
            and a.support_violations == b.support_violations
            and a.mollify_epsilon == b.mollify_epsilon)


class TestBatchMarch:
    @pytest.mark.parametrize("scheme", ["semi_lagrangian", "upwind_fv"])
    @pytest.mark.parametrize("kind", ["brownian", "bv"])
    @pytest.mark.parametrize("case", ["power1d", "stream_forced_eps", "stream"])
    def test_path_alone_equals_path_in_batch_bitwise(self, scheme, kind, case):
        b, u0, eps = _batch_case(case)
        d = u0.grid.d
        horizon = 0.25
        path = sample_brownian(5, horizon, 32, d)
        if kind == "bv":
            path = piecewise_linear_approx(path, 4)
        # Companions with other, larger excursions: the batch's mollifier
        # table reaches further than the path's own.
        wide = SamplePath(3.0 * sample_brownian(9, horizon, 32, d).values, horizon,
                          "brownian")
        other = sample_brownian(11, horizon, 32, d)
        kwargs = dict(scheme=scheme, mollify_epsilon=eps)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            (alone,) = solve_spde(b, [path], u0, **kwargs)
            first = solve_spde(b, [wide, path, other], u0, **kwargs)
            second = solve_spde(b, [path, other, path], u0, **kwargs)
        assert (alone.mollify_epsilon is None) == (case == "stream")
        assert all(sol.path is p for sol, p in zip(first, [wide, path, other]))
        for sol in (first[1], second[0], second[2]):
            assert _same_solution(sol, alone)

    def test_no_state_carries_from_one_solve_to_the_next(self):
        # a 2D solve on 128 x 128 nodes, a 1D batch of three with other
        # array shapes, then the 2D solve again
        b2, u2 = _case("stream128")
        path2 = sample_brownian(5, 0.25, 32, 2)
        b1, u1, _ = _batch_case("power1d")
        paths1 = [sample_brownian(seed, 0.25, 32, 1) for seed in (1, 2, 3)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            (first,) = solve_spde(b2, [path2], u2)
            solve_spde(b1, paths1, u1)
            (again,) = solve_spde(b2, [path2], u2)
        assert _same_solution(first, again)

    def test_support_violations_are_recorded_per_path(self):
        g = SpatialGrid(d=1, half_width=4.0, n=64)
        u0 = sample_profile(g, bump(1, center=0.0, radius=1.0))
        b = linear_drift([[1.0]])
        quiet = zero_path(1.0, 64, 1)
        # a straight path to W(1) = 4 pushes v out to about 5.6 > 3.6
        pushed = SamplePath(4.0 * quiet.times[:, None], quiet.horizon,
                            "piecewise_linear_bv")
        with pytest.warns(SupportMarginWarning, match="in path 1"):
            sols = solve_spde(b, [quiet, pushed, quiet], u0)
        with pytest.warns(SupportMarginWarning):
            (alone,) = solve_spde(b, [pushed], u0)
        assert sols[0].support_violations == sols[2].support_violations == ()
        assert sols[1].support_violations == alone.support_violations
        assert len(alone.support_violations) > 0

    def test_margin_warning_names_the_caller(self):
        g = SpatialGrid(d=1, half_width=4.0, n=64)
        u0 = sample_profile(g, bump(1, center=0.0, radius=1.0))
        b = linear_drift([[1.0]])
        quiet = zero_path(1.0, 64, 1)
        pushed = SamplePath(4.0 * quiet.times[:, None], quiet.horizon, "piecewise_linear_bv")
        with pytest.warns(SupportMarginWarning) as alone:
            solve_spde(b, [pushed], u0)
        with pytest.warns(SupportMarginWarning) as batch:
            solve_spde(b, [quiet, pushed], u0)
        for record in (alone, batch):
            assert [w.filename for w in record
                    if issubclass(w.category, SupportMarginWarning)] == [__file__]

    def test_blow_up_names_its_step_and_path(self):
        g = SpatialGrid(d=1, half_width=4.0, n=64)
        u0 = sample_profile(g, bump(1, center=0.0, radius=1.0))
        # 1e308 beyond x = 50: the RK4 sum overflows, so the feet and then
        # the values of the one path that reaches that far are not finite
        cliff = DriftField("cliff", 1,
                           lambda x: np.where(np.asarray(x) > 50.0, 1.0e308, 0.0),
                           smooth=True)
        quiet = zero_path(1.0, 64, 1)
        far = SamplePath(100.0 * quiet.times[:, None], quiet.horizon, "piecewise_linear_bv")
        with np.errstate(all="ignore"):
            with pytest.raises(BlowUpError) as alone:
                solve_spde(cliff, [far], u0)
            with pytest.raises(BlowUpError) as err:
                solve_spde(cliff, [quiet, quiet, far], u0)
        assert 1 < alone.value.step < 64
        assert err.value.step == alone.value.step
        assert f"non-finite field at step {alone.value.step} of path 2" in str(err.value)

    def test_mollifier_is_tabulated_once_per_batch(self, monkeypatch):
        calls = _count_calls(monkeypatch, transport_module, "mollified_drift")
        b, u0 = _case("power1d")
        paths = [sample_brownian(seed, 0.25, 32, 1) for seed in (5, 6, 7)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            solve_spde(b, paths, u0)
        assert len(calls) == 1

    @pytest.mark.parametrize("scheme, stages", [("semi_lagrangian", 4), ("upwind_fv", 1)])
    def test_drift_reads_per_step_do_not_grow_with_the_batch(self, monkeypatch, scheme,
                                                              stages):
        calls = _count_calls(monkeypatch, drifts_module, "eval_drift")
        b, u0 = _case("power1d")
        counts = {}
        for n_paths in (1, 4):
            for n_steps in (32, 512):
                paths = [sample_brownian(seed, 0.25, n_steps, 1) for seed in range(n_paths)]
                calls.clear()
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    solve_spde(b, paths, u0, scheme=scheme)
                # the march reads at arrays of times; the set-up, at single times
                counts[n_paths, n_steps] = (sum(np.ndim(t) == 1 for t in calls), len(calls))
        # 64 nodes: blocks of min(K / 16, 4096 // 64) steps, 16 of 2 steps
        # for K = 32 and 16 of 32 steps for K = 512
        for n_paths in (1, 4):
            assert counts[n_paths, 32][0] == stages * 16
            assert counts[n_paths, 512][0] == stages * 16
        assert counts[1, 32] == counts[4, 32] and counts[1, 512] == counts[4, 512]

    @pytest.mark.parametrize("scheme, stages", [("semi_lagrangian", 4), ("upwind_fv", 1)])
    def test_every_march_read_goes_through_the_mollified_fn(self, monkeypatch, scheme,
                                                             stages):
        # Wrapping the ``fn`` of the mollified drift sees every velocity read
        # of the march, gain or no gain.
        shapes = []

        def wrap(real):
            def mollified(*args, **kwargs):
                m = real(*args, **kwargs)

                def fn(points):
                    shapes.append(np.shape(points))
                    return m.fn(points)
                return dataclasses.replace(m, fn=fn)
            return mollified

        _replace_everywhere(monkeypatch, transport_module, "mollified_drift", wrap)
        b, u0 = _case("power1d_tm")
        paths = [sample_brownian(seed, 0.25, 32, 1) for seed in (5, 6)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            solve_spde(b, paths, u0, scheme=scheme)
        # upwind first probes its CFL number at the snapshot times, at
        # (P, Q, d) points; then 64 nodes and 32 steps march in 16 blocks of
        # 2 steps, each read once per stage at (B, P, Q, d) points
        probes = SNAPSHOT_INTERVALS + 1 if scheme == "upwind_fv" else 0
        assert shapes == [(2, 64, 1)] * probes + [(2, 2, 64, 1)] * (stages * 16)

    def test_empty_batch_rejected(self):
        b, u0 = _case("power1d")
        with pytest.raises(ConfigError, match="at least one path"):
            solve_spde(b, [], u0)

    def test_a_bare_path_or_an_element_that_is_no_path_is_rejected(self):
        b, u0 = _case("power1d")
        path = sample_brownian(5, 0.25, 32, 1)
        with pytest.raises(ConfigError, match=r"pass \[path\] for one"):
            solve_spde(b, path, u0)
        with pytest.raises(ConfigError, match="path 1 of the batch is a ndarray"):
            solve_spde(b, [path, path.values], u0)


#: The 2D drifts that state ``on_axes``, read there at the grid nodes.
SEPARABLE_SPECS = [{"id": "stream"}, {"id": "shear", "amplitude": -0.6},
                   {"id": "time_modulated", "gain_id": "sin_squared", "base": {"id": "stream"}}]


class TestNodeRead:
    @pytest.mark.parametrize("scheme", ["semi_lagrangian", "upwind_fv"])
    @pytest.mark.parametrize("spec", SEPARABLE_SPECS, ids=["stream", "shear",
                                                           "stream*sin_squared"])
    def test_solve_equals_the_solve_without_on_axes_bitwise(self, scheme, spec):
        g = SpatialGrid(d=2, half_width=4.0, n=16)
        u0 = sample_profile(g, bump(2, center=[0.0, 0.0], radius=1.2))
        b = drift_from_spec(2, 4.0, spec, horizon=0.25, n=g.n)
        assert b.on_axes is not None and _block_steps(32, g.size) > 1
        paths = [sample_brownian(seed, 0.25, 32, 2) for seed in (1, 2, 3)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SupportMarginWarning)  # upwind spreads the support
            got = solve_spde(b, paths, u0, scheme=scheme)
            want = solve_spde(dataclasses.replace(b, on_axes=None), paths, u0, scheme=scheme)
        assert all(_same_solution(x, y) for x, y in zip(got, want))

    @pytest.mark.parametrize("scheme, fn_reads", [("semi_lagrangian", 3), ("upwind_fv", 0)])
    def test_reads_at_the_nodes_take_on_axes(self, scheme, fn_reads):
        # 64 x 64 nodes march one step per block: each semi-Lagrangian step
        # reads its first RK4 stage at the nodes and the other three at the
        # stage points; every upwind read is at the nodes
        b = stream_function_drift(4.0)
        calls = {"fn": 0, "on_axes": 0}

        def counted(name):
            def rule(*args):
                calls[name] += 1
                return getattr(b, name)(*args)
            return rule

        g = SpatialGrid(d=2, half_width=4.0, n=64)
        u0 = sample_profile(g, bump(2, center=[0.0, 0.0], radius=1.2))
        n_steps = 32
        assert _block_steps(n_steps, g.size) == 1
        solve_spde(dataclasses.replace(b, fn=counted("fn"), on_axes=counted("on_axes")),
                   [sample_brownian(5, 0.25, n_steps, 2)], u0, scheme=scheme)
        # upwind also reads its CFL number at the 17 snapshot times
        cfl_reads = 0 if scheme == "semi_lagrangian" else SNAPSHOT_INTERVALS + 1
        assert calls == {"fn": fn_reads * n_steps, "on_axes": n_steps + cfl_reads}


class TestSolutionRecord:
    def test_grid_times_and_dt_are_derived_and_read_only(self):
        b, u0 = _case("power1d")
        path = sample_brownian(5, 0.3, 48, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            (sol,) = solve_spde(b, [path], u0)
        assert [f.name for f in dataclasses.fields(sol)] == [
            "fields", "path", "aux_fields", "mollify_epsilon", "support_violations"]
        assert sol.grid is u0.grid
        assert np.array_equal(sol.times, np.linspace(0.0, 0.3, SNAPSHOT_INTERVALS + 1))
        assert sol.dt == 0.3 / 48
        for name in ("grid", "times", "dt"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(sol, name, None)
        with pytest.raises(ValueError):
            sol.times[0] = 1.0
        # a solution rebuilt from its snapshots, as from dumped artifacts
        rebuilt = SpdeSolution(sol.fields, path)
        assert rebuilt.grid is sol.grid and rebuilt.dt == sol.dt
        assert np.array_equal(rebuilt.times, sol.times)
        assert rebuilt.aux_fields == () and rebuilt.mollify_epsilon is None


def _zero_solution():
    """A zero solution of 16 snapshot intervals on a 1D grid, as from artifacts."""
    g = SpatialGrid(d=1, half_width=4.0, n=16)
    return SpdeSolution([ScalarField.zeros(g)] * 17, zero_path(1.0, 16, 1))


@pytest.mark.parametrize("call, message", [
    (lambda u0: solve_spde(zero_drift(1), [zero_path(1.0, 16, 1)], u0, scheme="spectral"),
     r"unknown scheme 'spectral'; choose from \('semi_lagrangian', 'upwind_fv'\)$"),
    (lambda u0: solve_spde(zero_drift(2), [zero_path(1.0, 16, 1)], u0),
     "dimension mismatch: grid d=1, drift d=2, path d=1$"),
    (lambda u0: smoothed_truncated_power(0.0, 2.0), "truncation level must be positive, got 0.0$"),
    (lambda u0: smoothed_truncated_power(1.0, 0.5), "power must satisfy 1 <= p < inf, got 0.5$"),
    (lambda u0: renormalize_check(_zero_solution(), smoothed_truncated_power(1.0, 2.0),
                                  linear_drift([[50.0]])),
     r"snapshot spacing 0.0625 too coarse for div bound 50.0: need spacing\*C < 0.1$"),
], ids=["scheme", "dimension", "truncation-level", "power", "coarse-snapshots"])
def test_a_malformed_argument_is_a_config_error(call, message):
    u0 = ScalarField.zeros(SpatialGrid(d=1, half_width=4.0, n=16))
    with pytest.raises(ConfigError, match=message):
        call(u0)

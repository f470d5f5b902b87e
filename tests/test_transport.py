"""Deterministic advection along a frozen path: feet, flows, both schemes.

Closed-form flows provide the oracles: constant drift translates,
b(x) = -x contracts by e^{-t} (so backward feet expand by e^{dt}).
The mollified drift is checked against a direct bump quadrature, and its
table convolution against ``scipy.ndimage`` bit for bit.
"""

import functools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from stochtransport.errors import BlowUpError, ConfigError, SupportMarginWarning
from stochtransport.drifts import (
    constant_drift,
    eval_drift,
    linear_drift,
    power_drift,
    stream_function_drift,
    time_modulated_drift,
    zero_drift,
)
from stochtransport.experiments import estimate_order
from stochtransport.fields import ScalarField, SpatialGrid, _Workspace, lp_norm
from stochtransport.paths import eval_path, sample_brownian, zero_path
from stochtransport.profiles import bump, sample_profile, step
from stochtransport.spde import SNAPSHOT_INTERVALS, solve_spde
from stochtransport import transport
from stochtransport.transport import (
    _bump_kernel,
    _composed_drift,
    _path_table,
    _rk4_feet,
    cfl_number,
    mollified_drift,
)


class TestRk4Feet:
    def test_zero_velocity_returns_points(self):
        pts = np.linspace(-3.0, 3.0, 13)[:, None]
        feet = _rk4_feet(lambda t, p: np.zeros_like(p), pts, 0.0, 0.1, _Workspace())
        assert np.array_equal(feet, pts)

    def test_constant_velocity_is_exact(self):
        pts = np.linspace(-3.0, 3.0, 13)[:, None]
        feet = _rk4_feet(lambda t, p: np.full_like(p, 0.7), pts, 0.0, 0.1, _Workspace())
        assert np.max(np.abs(feet - (pts - 0.07))) <= 1e-15

    def test_contracting_field_foot_matches_exponential(self):
        pts = np.linspace(-3.0, 3.0, 13)[:, None]
        feet = _rk4_feet(lambda t, p: -p, pts, 0.0, 0.01, _Workspace())
        assert np.max(np.abs(feet - pts * math.exp(0.01))) <= 1e-9

    def test_single_step_is_high_order(self):
        pts = np.linspace(-3.0, 3.0, 13)[:, None]
        errs = []
        for dt in (0.4, 0.2, 0.1, 0.05):
            feet = _rk4_feet(lambda t, p: -p, pts, 0.0, dt, _Workspace())
            errs.append(float(np.max(np.abs(feet - pts * math.exp(dt)))))
        orders = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
        assert min(orders) >= 4.5


class TestPathTable:
    def test_rows_are_the_path_values_bitwise(self):
        w = sample_brownian(7, 1.0, 64, 2)
        times = [0.0, 1.0 / 3.0, 0.5, 1.0 / 64 + 0.5 / 64, 1.0]
        keys, shifts = _path_table([w], times + times[::-1])
        assert keys.dtype == np.float64 and keys.tolist() == sorted(times)
        assert all(np.array_equal(shifts[m, 0], eval_path(w, t))
                   for m, t in enumerate(keys.tolist()))

    def test_velocity_reads_its_shift_from_the_table(self):
        w = sample_brownian(7, 1.0, 64, 1)
        velocity = _composed_drift(linear_drift([[-1.0]]), _path_table([w], [0.25]), _Workspace())
        pts = np.array([[0.5], [-1.0]])
        assert np.array_equal(velocity(0.25, pts)[0], -(pts + eval_path(w, 0.25)))
        with pytest.raises(KeyError, match="no path shift tabulated"):
            velocity(0.3, pts)

    @pytest.mark.parametrize("missing", [0.1, 0.6, 0.9])
    def test_array_query_names_the_untabulated_time(self, missing):
        # before the first, between two and after the last tabulated time
        w = sample_brownian(7, 1.0, 64, 1)
        velocity = _composed_drift(linear_drift([[-1.0]]), _path_table([w], [0.25, 0.5, 0.75]),
                                   _Workspace())
        pts = np.array([[0.5], [-1.0]])
        at = np.array([0.25, 0.5, 0.75])
        assert velocity(at, pts).shape == (3, 1, 2, 1)
        at[1] = missing
        with pytest.raises(KeyError, match=f"no path shift tabulated for t={missing!r}"):
            velocity(at, pts)

    def test_ladder_solve_peaks_below_a_row_view_per_time(self):
        # N = 256, K = 2048: a table holding one row view per stage time
        # peaked at 1.35 MB; one (M, P, d) array with a time -> row dict at
        # 0.85 MB in blocks of 1024 node-steps; with one sorted array of the
        # times, 0.76 MB in blocks of 4096
        g = SpatialGrid(d=1, half_width=4.0, n=256)
        u0 = sample_profile(g, bump(1, center=0.0, radius=1.2))
        w = sample_brownian(24, 1.0, 2048, 1)
        b = power_drift(0.75, scale=-1.0)
        # an untraced solve first, so one-off process growth (the first
        # np.unique imports numpy.ma) falls outside the traced window
        solve_spde(b, [w], u0)
        tracemalloc.start()
        try:
            solve_spde(b, [w], u0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.0e6


class TestBlockSteps:
    @pytest.mark.parametrize("scheme", ["semi_lagrangian", "upwind_fv"])
    @pytest.mark.parametrize("d", [1, 2])
    def test_block_equals_its_steps_one_at_a_time_bitwise(self, scheme, d):
        g = SpatialGrid(d=d, half_width=4.0, n=64 if d == 1 else 16)
        u0 = sample_profile(g, bump(d, center=[0.0] * d, radius=1.0))
        base = power_drift(0.75, scale=-1.0) if d == 1 else stream_function_drift(4.0)
        # a mollified time-modulated drift: the block reads its table once per stage
        b = mollified_drift(time_modulated_drift(base, "sin_squared", 0.25), 0.25, reach=8.0)
        dt = 1.0 / 64
        starts = np.arange(5) * dt
        paths = [sample_brownian(seed, 0.25, 16, d) for seed in (1, 2)]
        ws = _Workspace()
        velocity = _composed_drift(b, _path_table(paths, np.concatenate(
            transport._stage_times(starts, dt))), ws)
        block = (functools.partial(transport._semi_lagrangian_block, ws=ws)
                 if scheme == "semi_lagrangian" else transport._upwind_block)
        vals = np.stack([u0.values] * len(paths))
        # a copy: the semi-Lagrangian block's values are the workspace's, reused by the next
        after = block(g, vals, velocity, starts, dt).copy()
        assert len(after) == len(starts)
        for t, want in zip(starts.tolist(), after):
            (vals,) = block(g, vals, velocity, np.array([t]), dt)
            assert np.array_equal(vals, want)


class TestSemiLagrangian:
    def test_zero_drift_any_path_is_bit_exact(self):
        g = SpatialGrid(d=1, half_width=4.0, n=128)
        u0 = sample_profile(g, bump(1, center=0.0, radius=1.0))
        w = sample_brownian(7, 1.0, 128, 1)
        (sol,) = solve_spde(zero_drift(1), [w], u0)
        assert all(np.array_equal(f.values, u0.values) for f in sol.aux_fields)

    def test_initial_snapshot_is_initial_field(self):
        g = SpatialGrid(d=1, half_width=4.0, n=128)
        u0 = sample_profile(g, bump(1, center=0.0, radius=1.0))
        w = sample_brownian(7, 1.0, 128, 1)
        (sol,) = solve_spde(constant_drift([0.3]), [w], u0)
        assert np.array_equal(sol.aux_fields[0].values, u0.values)
        assert all(np.all(np.isfinite(f.values)) for f in sol.aux_fields)

    def test_constant_drift_matches_translation(self):
        g = SpatialGrid(d=1, half_width=8.0, n=512)
        prof = bump(1, center=-0.5, radius=2.0)
        u0 = sample_profile(g, prof)
        w = zero_path(1.0, 512, 1)
        (sol,) = solve_spde(constant_drift([1.0]), [w], u0)
        truth = ScalarField.from_function(g, lambda p: prof.fn(p - 1.0))
        assert lp_norm(sol.aux_fields[-1] - truth, 1.0) <= 1e-3 * lp_norm(u0, 1.0)

    def test_contraction_matches_closed_form(self):
        g = SpatialGrid(d=1, half_width=8.0, n=1024)
        prof = bump(1, center=0.0, radius=1.0)
        u0 = sample_profile(g, prof)
        w = zero_path(0.5, 512, 1)
        (sol,) = solve_spde(linear_drift([[-1.0]]), [w], u0)
        truth = ScalarField.from_function(g, lambda p: prof.fn(p * math.exp(0.5)))
        rel = lp_norm(sol.aux_fields[-1] - truth, 1.0) / lp_norm(u0, 1.0)
        assert rel <= 5e-3

    def test_agrees_with_closed_form_flow_at_high_order(self):
        # b = -x on the zero path: the backward flow from T = 0.25 is x * e^0.25
        errs = []
        for n in (128, 256, 512):
            g = SpatialGrid(d=1, half_width=8.0, n=n)
            prof = bump(1, center=0.5, radius=2.0)
            u0 = sample_profile(g, prof)
            steps = n // 4
            w = zero_path(0.25, steps, 1)
            (sol,) = solve_spde(linear_drift([[-1.0]]), [w], u0)
            truth = ScalarField.from_function(g, lambda p: prof.fn(p * math.exp(0.25)))
            errs.append(lp_norm(sol.aux_fields[-1] - truth, 1.0))
        orders = estimate_order(errs)
        assert orders[-1] >= 2.5
        assert all(a > b for a, b in zip(errs, errs[1:]))


class TestUpwind:
    def test_zero_velocity_leaves_field_unchanged(self):
        g = SpatialGrid(d=1, half_width=4.0, n=128)
        f = sample_profile(g, step(1, center=0.0, half_width=1.0))
        (out,) = transport._upwind_block(g, f.values[None], lambda t, p: np.zeros_like(p),
                                         np.array([0.0]), 0.01)
        assert np.array_equal(out[0], f.values)

    def test_single_step_preserves_mass(self):
        for n in (128, 256, 512):
            g = SpatialGrid(d=1, half_width=4.0, n=n)
            f = sample_profile(g, step(1, center=-1.0, half_width=0.5))
            (out,) = transport._upwind_block(g, f.values[None],
                                             lambda t, p: np.full_like(p, 0.8),
                                             np.array([0.0]), 0.2 * g.h / 0.8)
            assert abs(float(np.sum(out)) - float(np.sum(f.values))) <= 1e-12

    def test_translation_of_step_converges_at_half_order(self):
        # L1 error on a discontinuity behaves like h^(1/2) at fixed CFL
        errs = []
        horizon, c, cfl = 0.5, 0.8, 0.5
        for n in (128, 256, 512):
            g = SpatialGrid(d=1, half_width=4.0, n=n)
            f = sample_profile(g, step(1, center=-1.0, half_width=0.5))
            steps = int(math.ceil(horizon * c / (cfl * g.h)))
            dt = horizon / steps
            v = f.values[None]
            for k in range(steps):
                (v,) = transport._upwind_block(g, v, lambda t, p: np.full_like(p, c),
                                               np.array([k * dt]), dt)
            moved = sample_profile(
                g, step(1, center=-1.0 + c * horizon, half_width=0.5)
            )
            errs.append(lp_norm(ScalarField(g, v[0]) - moved, 1.0))
        orders = estimate_order(errs)
        assert all(0.4 <= o <= 0.6 for o in orders)

    def test_cfl_violation_rejected_by_marcher(self):
        g = SpatialGrid(d=1, half_width=4.0, n=256)
        u0 = sample_profile(g, bump(1, center=0.0, radius=1.0))
        w = zero_path(1.0, 16, 1)
        with pytest.raises(ConfigError):
            solve_spde(constant_drift([3.0]), [w], u0, scheme="upwind_fv")


class TestSchemeProperties:
    @pytest.mark.parametrize("scheme", ["semi_lagrangian", "upwind_fv"])
    def test_max_principle(self, scheme):
        g = SpatialGrid(d=1, half_width=8.0, n=256)
        u0 = sample_profile(g, bump(1, center=0.5, radius=2.0))
        w = sample_brownian(3, 1.0, 256, 1)
        (sol,) = solve_spde(linear_drift([[-1.0]]), [w], u0, scheme=scheme)
        lo, hi = float(u0.values.min()), float(u0.values.max())
        for f in sol.aux_fields:
            assert float(f.values.min()) >= lo - 1e-12
            assert float(f.values.max()) <= hi + 1e-12

    def test_divergence_free_drift_preserves_norms_under_refinement(self):
        drifts = []
        for n in (64, 128):
            g = SpatialGrid(d=2, half_width=4.0, n=n)
            u0 = sample_profile(g, bump(2, center=(0.0, 0.0), radius=1.2))
            w = zero_path(0.5, n, 2)
            (sol,) = solve_spde(stream_function_drift(4.0), [w], u0)
            rel = max(
                abs(lp_norm(f, 1.0) - lp_norm(u0, 1.0)) for f in sol.aux_fields
            ) / lp_norm(u0, 1.0)
            drifts.append(rel)
        assert drifts[1] <= 0.5 * drifts[0]
        assert drifts[0] <= 1e-2

    def test_schemes_cross_agree_under_refinement(self):
        discs = []
        for n in (128, 256):
            g = SpatialGrid(d=1, half_width=8.0, n=n)
            u0 = sample_profile(g, bump(1, center=-0.5, radius=2.0))
            w = zero_path(1.0, 4 * n, 1)
            runs = {}
            for scheme in ("semi_lagrangian", "upwind_fv"):
                (runs[scheme],) = solve_spde(constant_drift([0.6]), [w], u0, scheme=scheme)
            discs.append(max(
                lp_norm(a - b, 1.0)
                for a, b in zip(runs["semi_lagrangian"].aux_fields,
                                runs["upwind_fv"].aux_fields)
            ))
        assert discs[1] < discs[0]

    def test_support_margin_warning_emitted(self):
        g = SpatialGrid(d=1, half_width=4.0, n=128)
        u0 = sample_profile(g, bump(1, center=0.0, radius=1.0))
        w = zero_path(1.0, 128, 1)
        with pytest.warns(SupportMarginWarning):
            solve_spde(constant_drift([2.8]), [w], u0)

    def test_upwind_support_is_checked_every_step(self):
        g = SpatialGrid(d=1, half_width=4.0, n=128)
        u0 = sample_profile(g, bump(1, center=0.0, radius=1.0))
        w = zero_path(1.0, 128, 1)
        with pytest.warns(SupportMarginWarning):
            (sol,) = solve_spde(constant_drift([2.8]), [w], u0, scheme="upwind_fv")
        stride = 128 // SNAPSHOT_INTERVALS
        assert any(step % stride != 0 for step in sol.support_violations)

    def test_mesh_validation(self):
        g = SpatialGrid(d=1, half_width=4.0, n=128)
        u0 = sample_profile(g, bump(1, center=0.0, radius=1.0))
        w = zero_path(1.0, 128, 1)
        with pytest.raises(ConfigError, match="8 steps cannot be grouped into 16"):
            solve_spde(zero_drift(1), [zero_path(1.0, 8, 1)], u0)
        with pytest.raises(ConfigError, match="share one clock"):
            solve_spde(zero_drift(1), [w, zero_path(1.0, 64, 1)], u0)
        with pytest.raises(ConfigError, match="share one clock"):
            solve_spde(zero_drift(1), [w, zero_path(2.0, 128, 1)], u0)

    def test_the_path_sets_the_clock(self):
        g = SpatialGrid(d=1, half_width=4.0, n=64)
        u0 = sample_profile(g, bump(1, center=0.0, radius=1.0))
        path = sample_brownian(3, 0.3, 48, 1)
        (sol,) = solve_spde(constant_drift([0.5]), [path], u0)
        assert sol.dt == path.horizon / path.n_steps
        assert np.array_equal(sol.times, np.linspace(0.0, path.horizon, 17))

    def test_cfl_number_reports_worst_case(self):
        g = SpatialGrid(d=1, half_width=4.0, n=128)
        got = cfl_number(lambda t, p: np.full_like(p, 2.0), g, 0.01, [0.0, 1.0])
        assert got == pytest.approx(0.02 / g.h, rel=1e-12)


def bump_average(b, t, points, eps, per_axis):
    """Reference mollification: midpoint rule for the radius-eps bump average.

    The bump exp(1/(z^2 - 1)), z = |offset|/eps, is written out here, apart
    from ``profiles.bump``, which the solver's kernel samples.
    """
    z = eps * (2.0 * (np.arange(per_axis) + 0.5) / per_axis - 1.0)
    if b.d == 1:
        offsets = z[:, None]
    else:
        z1, z2 = np.meshgrid(z, z, indexing="ij")
        offsets = np.stack([z1.ravel(), z2.ravel()], axis=-1)
    zz = np.sum(offsets * offsets, axis=-1) / (eps * eps)
    keep = zz < 1.0
    offsets, w = offsets[keep], np.exp(1.0 / (zz[keep] - 1.0))
    w = w / w.sum()
    pts = np.asarray(points, dtype=float)
    return np.stack([w @ eval_drift(b, t, p - offsets) for p in pts])


class TestMollifiedDrift:
    EPS = 1.0 / 16
    PTS_1D = np.array([[-5.9], [-1.0], [-0.03], [0.0], [0.01], [0.5], [3.3]])
    PTS_2D = np.array([[0.0, 0.0], [-4.7, 1.3], [2.05, -3.9], [0.6, 0.11]])

    @pytest.mark.parametrize("d", [1, 2])
    def test_kernel_has_unit_mass_and_no_negative_weights(self, d):
        k = _bump_kernel(d, self.EPS, self.EPS / 8)
        assert k.shape == (17,) * d
        assert float(k.sum()) == pytest.approx(1.0, abs=1e-15)
        assert np.all(k >= 0.0)

    def test_power1d_matches_bump_quadrature(self):
        b = power_drift(0.75, scale=-1.0)
        got = mollified_drift(b, self.EPS, reach=6.0).fn(self.PTS_1D)
        ref = bump_average(b, 0.0, self.PTS_1D, self.EPS, 20000)
        assert got.shape == self.PTS_1D.shape
        assert np.max(np.abs(got - ref)) <= 1e-5

    def test_time_modulated_is_gain_times_mollified_base(self):
        base = power_drift(0.75, scale=-1.0)
        once = time_modulated_drift(base, "sin_squared", 1.0)
        twice = time_modulated_drift(once, "ramp", 1.0)
        smooth_base = mollified_drift(base, self.EPS, reach=6.0).fn(self.PTS_1D)
        m_once = mollified_drift(once, self.EPS, reach=6.0)
        m_twice = mollified_drift(twice, self.EPS, reach=6.0)
        for t in (0.0, 0.3, 0.8):
            gain = math.sin(math.pi * t) ** 2
            assert np.allclose(eval_drift(m_once, t, self.PTS_1D), gain * smooth_base,
                               rtol=1e-14, atol=0.0)
            assert np.allclose(eval_drift(m_twice, t, self.PTS_1D), t * gain * smooth_base,
                               rtol=1e-14, atol=0.0)
            ref = bump_average(twice, t, self.PTS_1D, self.EPS, 20000)
            assert np.max(np.abs(eval_drift(m_twice, t, self.PTS_1D) - ref)) <= 1e-5

    def test_forced_2d_stream_matches_bump_quadrature(self):
        b = stream_function_drift(4.0)
        m = mollified_drift(b, 0.25, reach=5.0)
        got = m.fn(self.PTS_2D)
        ref = bump_average(b, 0.0, self.PTS_2D, 0.25, 400)
        assert got.shape == self.PTS_2D.shape
        assert np.max(np.abs(got - ref)) <= 1e-5

    @pytest.mark.parametrize("b, eps", [
        (power_drift(0.75, scale=-1.0), 0.1),
        (stream_function_drift(4.0), 0.3),
    ])
    def test_tables_of_different_reach_agree_bitwise(self, b, eps):
        near = mollified_drift(b, eps, reach=2.0)
        far = mollified_drift(b, eps, reach=5.0)
        delta = eps / (64 if b.d == 1 else 8)
        axis = delta * np.arange(-int(2.0 / delta), int(2.0 / delta) + 1)
        nodes = np.stack(np.meshgrid(*[axis] * b.d, indexing="ij"), axis=-1).reshape(-1, b.d)
        between = np.random.default_rng(3).uniform(-2.0, 2.0, size=(500, b.d))
        for pts in (nodes, between):
            assert np.array_equal(near.fn(pts), far.fn(pts))

    @pytest.mark.parametrize("b, eps", [
        *[(power_drift(0.75, scale=-1.0), 2.0 * 8.0 / n) for n in (32, 64, 128, 256, 512, 1024)],
        (power_drift(0.75, scale=-1.0), 0.1),
        (power_drift(0.75, scale=-1.0), 0.37),
        (time_modulated_drift(power_drift(0.75, scale=-1.0), "sin_squared", 1.0), 1.0 / 16),
        (stream_function_drift(4.0), 0.7),
        (stream_function_drift(4.0), 0.5),
        (stream_function_drift(4.0), 0.25),
    ])
    def test_tap_sum_equals_ndimage_convolve_bitwise(self, monkeypatch, b, eps):
        # ndimage adds the taps above DBL_EPSILON in C order from 0.0; the
        # bump kernel's smallest nonzero tap is above that, so the sums match.
        from scipy import ndimage

        tap_sum = transport._convolve_nearest
        tables = []

        def checked(table, kernel):
            out = tap_sum(table, kernel)
            tables.append(np.array_equal(out, ndimage.convolve(table, kernel, mode="nearest")))
            return out

        monkeypatch.setattr(transport, "_convolve_nearest", checked)
        mollified_drift(b, eps, reach=6.0)
        assert tables == [True] * b.d

    @pytest.mark.parametrize("eps", [2.0 * 8.0 / n for n in (64, 256, 1024)] + [0.1, 0.37])
    def test_lattice_lookup_equals_np_interp_bitwise(self, eps):
        b, reach = power_drift(0.75, scale=-1.0), 4.5
        delta, K, table = transport._mollified_table(b, eps, reach)
        axis = delta * np.arange(-K, K + 1)
        inner = axis[1:-1]
        rng = np.random.default_rng(7)
        x = np.concatenate([
            rng.uniform(axis[0], axis[-1], 20000),
            axis[:-1],  # every node of the lookup's domain [axis[0], axis[-1])
            np.nextafter(inner, -np.inf), np.nextafter(inner, np.inf),
            [np.nextafter(axis[0], np.inf), -0.0, -reach, reach],
        ])
        # (B, P, Q) batches, as the march asks: nodes, one ulp below them and
        # the reach itself, all within the reach, the rest uniform in it
        within = axis[np.abs(axis) <= reach]
        edge = np.concatenate([within, np.nextafter(within, -np.inf), [-reach, reach]])
        edge = edge[np.abs(edge) <= reach]
        batches = [np.concatenate([rng.permutation(edge), rng.uniform(-reach, reach, 16 * 8 * 256)])
                   [: math.prod(shape)].reshape(shape) for shape in [(16, 8, 256), (3, 8, 100)]]
        zeros = table.copy()  # the table with signed zero entries
        zeros[::97], zeros[1::89] = -0.0, 0.0
        for values in (table, zeros):
            interp = transport._lattice_interp(delta, values, _Workspace())
            for pts in [x] + batches:
                got = interp(pts)
                want = np.interp(pts, axis, values)
                assert np.array_equal(got.view(np.int64), want.view(np.int64))
        fn = mollified_drift(b, eps, reach).fn
        for pts in batches:
            got = fn(pts[..., None])
            assert got.shape == pts.shape + (1,)
            assert np.array_equal(got[..., 0].view(np.int64),
                                  np.interp(pts, axis, table).view(np.int64))

    @pytest.mark.parametrize("b", [power_drift(0.75), stream_function_drift(4.0)],
                             ids=["1d", "2d"])
    @pytest.mark.parametrize("bad", ["above", "below", "nan"])
    def test_a_point_one_ulp_past_the_reach_or_nan_raises(self, b, bad):
        # the table reads clip their indices, so the reach check is what keeps them in range
        reach = 2.0
        m = mollified_drift(b, 0.25, reach=reach)
        pts = np.random.default_rng(5).uniform(-reach, reach, (4, 8, 32, b.d))
        pts[0, 0, 0, -1], pts[1, 0, 0, 0] = reach, -reach
        m.fn(pts)
        pts[3, 7, 31, 0] = {"above": np.nextafter(reach, np.inf),
                            "below": np.nextafter(-reach, -np.inf), "nan": np.nan}[bad]
        with pytest.raises(BlowUpError):
            m.fn(pts)

    @pytest.mark.parametrize("b", [power_drift(0.75, scale=-1.0), stream_function_drift(4.0)],
                             ids=["1d", "2d"])
    def test_a_held_result_is_unchanged_by_later_calls(self, b):
        # the lookup writes its steps into a workspace of the table's; what it
        # returns must not be one of its slots or of their views per shape
        m = mollified_drift(b, 0.3, reach=4.0)
        rng = np.random.default_rng(12)
        pts = rng.uniform(-4.0, 4.0, (3, 8, 50, b.d))
        held = m.fn(pts)
        kept = held.copy()
        for shape in [(7, b.d), (5, 8, 60, b.d), pts.shape]:
            m.fn(rng.uniform(-4.0, 4.0, shape))
        assert np.array_equal(held, kept)
        assert np.array_equal(held, mollified_drift(b, 0.3, reach=4.0).fn(pts))

    def test_a_repeated_1d_lookup_allocates_only_its_output(self):
        m = mollified_drift(power_drift(0.75, scale=-1.0), 1.0 / 16, reach=6.0)
        pts = np.random.default_rng(4).uniform(-5.0, 5.0, (16, 8, 256, 1))
        m.fn(pts)  # the first call sizes the workspace
        tracemalloc.start()
        try:
            out = m.fn(pts)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * out.nbytes

    @pytest.mark.parametrize("b, point", [
        (power_drift(0.75), [[2.01]]),
        (stream_function_drift(4.0), [[0.0, -2.5]]),
    ])
    def test_query_beyond_the_table_raises(self, b, point):
        m = mollified_drift(b, 0.25, reach=2.0)
        m.fn(np.full((1, b.d), 2.0))
        with pytest.raises(BlowUpError):
            m.fn(point)

    @pytest.mark.parametrize("eps", [0.0, -0.1])
    def test_nonpositive_radius_rejected(self, eps):
        with pytest.raises(ConfigError):
            mollified_drift(power_drift(0.75), eps, reach=2.0)

    def test_sub_grid_radius_rejected_by_solver(self):
        g = SpatialGrid(d=1, half_width=4.0, n=128)
        u0 = sample_profile(g, bump(1, center=0.0, radius=1.0))
        w = zero_path(1.0, 16, 1)
        with pytest.raises(ConfigError, match="grid spacing"):
            solve_spde(power_drift(0.75), [w], u0, mollify_epsilon=0.5 * g.h)

    @pytest.mark.parametrize("eps", [4.5, 1e150, 1e308])
    def test_radius_above_the_half_width_rejected_by_solver(self, eps):
        # unchecked, 1e308 overflows the kernel offsets to a centre-only kernel
        # and 1e150 reads the table beyond its reach
        g = SpatialGrid(d=1, half_width=4.0, n=128)
        u0 = sample_profile(g, bump(1, center=0.0, radius=1.0))
        w = zero_path(1.0, 16, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ConfigError, match="exceeds the box half-width L=4.0"):
                solve_spde(power_drift(0.75), [w], u0, mollify_epsilon=eps)

    @pytest.mark.parametrize("scheme", ["semi_lagrangian", "upwind_fv"])
    def test_rough_solves_emit_no_runtime_warning(self, scheme):
        g = SpatialGrid(d=1, half_width=4.0, n=128)
        u0 = sample_profile(g, bump(1, center=0.0, radius=1.2))
        w = sample_brownian(5, 0.25, 64, 1)
        base = power_drift(0.75, scale=-1.0)
        for b in (base, time_modulated_drift(base, "sin_squared", 0.25)):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                (sol,) = solve_spde(b, [w], u0, scheme=scheme)
            assert sol.mollify_epsilon == 2.0 * g.h

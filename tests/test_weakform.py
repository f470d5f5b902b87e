"""Weak-identity residuals: test functions, defect detection, refinement.

The pure-noise closed form u(t, x) = u0(x - W(t)) is an exact weak
solution, so its residual is purely quadrature error and must shrink
under joint space-path refinement; adding a bump to the trajectory
after T/2 must be flagged at the size of the injected term.
"""

import math

import numpy as np
import pytest

from _support import closed_form_translation
from stochtransport.errors import ConfigError, MeshMismatchError
from stochtransport.drifts import zero_drift
from stochtransport.experiments import estimate_order
from stochtransport.fields import ScalarField, SpatialGrid
from stochtransport.paths import piecewise_linear_approx, sample_brownian
from stochtransport.profiles import bump
from stochtransport.spde import SpdeSolution
from stochtransport.weakform import (
    TestFunction as CompactTestFunction,
    make_test_functions,
    weak_residual,
    write_weak_report_csv,
)


@pytest.fixture(scope="module")
def grid512():
    return SpatialGrid(d=1, half_width=8.0, n=512)


@pytest.fixture(scope="module")
def profile():
    return bump(1, center=-0.5, radius=2.0)


@pytest.fixture(scope="module")
def path2048():
    return sample_brownian(24, 1.0, 2048, 1)


@pytest.fixture(scope="module")
def phis(grid512):
    return make_test_functions(grid512, 10, 0)


class TestMakeTestFunctions:
    def test_fixed_seed_is_reproducible(self, grid512):
        a = make_test_functions(grid512, 5, 3)
        b = make_test_functions(grid512, 5, 3)
        for p, q in zip(a, b):
            assert np.array_equal(p.center, q.center)
            assert p.radius == q.radius

    def test_support_is_compact(self, phis):
        for phi in phis:
            direction = np.ones(phi.d) / math.sqrt(phi.d)
            outside = phi.center + direction * phi.radius * np.array([[1.0], [1.5], [4.0]])
            assert np.all(phi.value(outside) == 0.0)

    def test_support_clears_box_margin(self, grid512, phis):
        margin = 2 * grid512.h
        for phi in phis:
            assert np.all(
                np.abs(phi.center) + phi.radius <= grid512.half_width - margin + 1e-12
            )

    def test_positive_finite_mass(self, grid512, phis):
        nodes = grid512.nodes()
        for phi in phis:
            mass = float(np.sum(phi.value(nodes))) * grid512.cell_volume
            assert 0.0 < mass < math.inf

    def test_gradient_matches_finite_differences(self, phis):
        rng = np.random.default_rng(6)
        for phi in phis[:3]:
            pts = phi.center + rng.uniform(-0.9, 0.9, size=(100, phi.d)) * phi.radius
            ana = phi.gradient(pts)
            h = 1e-6
            num = np.empty_like(ana)
            for a in range(phi.d):
                up = pts.copy()
                dn = pts.copy()
                up[..., a] += h
                dn[..., a] -= h
                num[..., a] = (phi.value(up) - phi.value(dn)) / (2.0 * h)
            scale = max(phi.sup_gradient, 1.0)
            assert float(np.max(np.abs(ana - num))) <= 1e-6 * scale

    @pytest.mark.parametrize("d", [1, 2])
    def test_sup_gradient_matches_closed_form(self, d):
        # |grad phi| peaks at (|x - x0|/r)^2 = 1/sqrt(3), where
        # w = (|x - x0|/r)^2 - 1 solves 3w^2 + 6w + 2 = 0.
        phi = CompactTestFunction(np.full(d, 5.0), 1.7, -2.5)
        w = 1.0 / math.sqrt(3.0) - 1.0
        peak = 2.0 * 2.5 * 3.0 ** -0.25 * math.exp(1.0 / w) / (w * w * 1.7)
        assert phi.sup_gradient == pytest.approx(peak, rel=1e-8)
        # Reference: the largest |grad phi| on a dense sample of a ray from
        # the centre; the bump is radial.
        rho = np.linspace(0.0, phi.radius, 20001)[1:-1]
        ray = phi.center + rho[:, None] * np.eye(d)[0]
        sampled = np.linalg.norm(phi.gradient(ray), axis=-1)
        assert np.all(phi.sup_gradient >= sampled)
        assert phi.sup_gradient - sampled.max() <= 1e-8 * phi.sup_gradient

    def test_count_must_be_positive(self, grid512):
        with pytest.raises(ConfigError):
            make_test_functions(grid512, 0, 0)

    def test_oversized_support_rejected(self, grid512):
        phi = CompactTestFunction(np.array([6.0]), 3.0, 1.0)
        with pytest.raises(ConfigError):
            phi.validate_for(grid512)


class TestStratonovichResidual:
    def test_zero_solution_residual_is_exactly_zero(self, grid512, path2048, phis):
        times = np.linspace(0.0, 1.0, 17)
        fields = tuple(ScalarField.zeros(grid512) for _ in times)
        sol = SpdeSolution(grid=grid512, times=times, fields=fields, path=path2048)
        rep = weak_residual(sol, zero_drift(1), 1.0, phis=phis)
        assert rep.max_abs == 0.0

    def test_residual_is_linear_in_the_solution(self, grid512, profile, path2048, phis):
        sol = closed_form_translation(grid512, profile, path2048)
        scaled = SpdeSolution(grid=grid512, times=sol.times,
                              fields=tuple(f * -2.5 for f in sol.fields), path=path2048)
        r1 = weak_residual(sol, zero_drift(1), 1.0, phis=phis)
        r2 = weak_residual(scaled, zero_drift(1), 1.0, phis=phis)
        for s1, s2 in zip(r1.series, r2.series):
            assert float(np.max(np.abs(s2.residuals - (-2.5) * s1.residuals))) <= 1e-13

    def test_closed_form_residual_small_and_refinable(self, profile):
        # halving both h and the path mesh must cut the defect; nesting
        # the coarse path inside the fine one isolates quadrature error
        from stochtransport.paths import SamplePath

        fine_path = sample_brownian(24, 1.0, 4096, 1)
        coarse_path = SamplePath(kind="brownian", horizon=fine_path.horizon,
                                 values=fine_path.values[::2], seed=24)
        g_coarse = SpatialGrid(d=1, half_width=4.0, n=512)
        g_fine = SpatialGrid(d=1, half_width=4.0, n=1024)
        phis10 = make_test_functions(g_coarse, 10, 0)
        coarse = weak_residual(
            closed_form_translation(g_coarse, profile, coarse_path, 2048),
            zero_drift(1), 1.0, phis=phis10,
        )
        fine = weak_residual(
            closed_form_translation(g_fine, profile, fine_path, 4096),
            zero_drift(1), 1.0, phis=phis10,
        )
        assert coarse.max_normalized <= 1e-2
        assert coarse.max_normalized >= 3.0 * fine.max_normalized

    def test_injected_defect_is_detected(self, grid512, profile, path2048, phis):
        sol = closed_form_translation(grid512, profile, path2048)
        phi = phis[0]
        phi_field = ScalarField.from_function(grid512, phi.value)
        int_phi_sq = float(np.sum(phi_field.values**2)) * grid512.cell_volume
        fields = [
            f + (phi_field * 0.1) if t > 0.5 else f
            for f, t in zip(sol.fields, sol.times)
        ]
        bad = SpdeSolution(grid=grid512, times=sol.times, fields=tuple(fields), path=path2048)
        rep = weak_residual(bad, zero_drift(1), 1.0, phis=phis)
        assert rep.max_abs >= 0.05 * int_phi_sq

    def test_left_point_rule_keeps_a_finite_defect(self, grid512, profile, phis):
        # the stochastic term is a Stratonovich integral: midpoint sums
        # converge, left-point sums converge to the missing correction
        g = SpatialGrid(d=1, half_width=8.0, n=1024)
        path = sample_brownian(24, 1.0, 4096, 1)
        sol = closed_form_translation(g, profile, path)
        phis_fine = make_test_functions(g, 10, 0)
        strat = weak_residual(sol, zero_drift(1), 1.0, phis=phis_fine, rule="stratonovich")
        ito = weak_residual(sol, zero_drift(1), 1.0, phis=phis_fine, rule="ito")
        assert ito.max_abs >= 5.0 * strat.max_abs

    def test_unknown_rule_rejected(self, grid512, profile, path2048, phis):
        sol = closed_form_translation(grid512, profile, path2048)
        for rule in ("trapezoid", "bv_trapezoid"):
            with pytest.raises(ConfigError):
                weak_residual(sol, zero_drift(1), 1.0, phis=phis, rule=rule)

    def test_misaligned_snapshots_rejected(self, grid512, profile, phis):
        path = sample_brownian(24, 1.0, 100, 1)
        sol = closed_form_translation(grid512, profile, path)
        with pytest.raises(MeshMismatchError):
            weak_residual(sol, zero_drift(1), 1.0, phis=phis)

    def test_normalizer_is_scale_free(self, grid512, profile, path2048, phis):
        sol = closed_form_translation(grid512, profile, path2048)
        rep = weak_residual(sol, zero_drift(1), 1.0, phis=phis)
        scaled = SpdeSolution(grid=grid512, times=sol.times,
                              fields=tuple(f * 10.0 for f in sol.fields), path=path2048)
        rep10 = weak_residual(scaled, zero_drift(1), 1.0, phis=phis)
        assert rep10.max_normalized == pytest.approx(rep.max_normalized, rel=1e-9)


class TestBoundedVariationResidual:
    def test_zero_solution_residual_is_exactly_zero(self, grid512, path2048, phis):
        bn = piecewise_linear_approx(path2048, 16)
        times = np.linspace(0.0, 1.0, 17)
        fields = tuple(ScalarField.zeros(grid512) for _ in times)
        sol = SpdeSolution(grid=grid512, times=times, fields=fields, path=bn)
        rep = weak_residual(sol, zero_drift(1), 1.0, phis=phis)
        assert rep.max_abs == 0.0

    def test_residual_vanishes_at_first_order_in_snapshot_spacing(
        self, grid512, path2048
    ):
        bn = piecewise_linear_approx(path2048, 16)
        prof = bump(1, center=-0.5, radius=2.0)
        phis6 = make_test_functions(grid512, 6, 0)
        errs = []
        for m in (16, 32, 64, 128):
            sol = closed_form_translation(grid512, prof, bn, m)
            errs.append(weak_residual(sol, zero_drift(1), 1.0, phis=phis6).max_abs)
        orders = estimate_order(errs)
        assert min(orders) >= 0.8


class TestReportCsv:
    def test_report_csv_is_tidy(self, tmp_path, grid512, profile, path2048, phis):
        sol = closed_form_translation(grid512, profile, path2048)
        rep = weak_residual(sol, zero_drift(1), 1.0, phis=phis)
        target = tmp_path / "weak.csv"
        write_weak_report_csv(rep, target)
        lines = target.read_text().splitlines()
        assert lines[0] == (
            "phi_index,t,residual,term_initial,term_drift,term_div,"
            "term_stoch,normalizer"
        )
        assert len(lines) == 1 + 10 * 17

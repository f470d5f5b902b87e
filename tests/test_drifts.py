"""Drift catalog evaluation, divergences, and the integrability checker.

Checker expectations for the power fields come from closed-form
integrals over the window [-1, 1]: with b(x) = sign(x) |x|^a,
|b'(x)|^2 = a^2 |x|^(2a-2), whose integral is 4 a^2 / (2a - 1) when
2a - 1 > 0 (a = 0.75 gives 2.25) and diverges when a = 0.25.
"""

import numpy as np
import pytest

from stochtransport.errors import ConfigError
from stochtransport.drifts import (
    STABILITY_RTOL,
    check_hypotheses,
    constant_drift,
    drift_from_spec,
    eval_drift,
    linear_drift,
    power_drift,
    shear_drift,
    stream_function_drift,
    time_modulated_drift,
    write_hypothesis_csv,
    zero_drift,
    _central_jacobian,
    _jacobian_of,
)


BOX2 = [(-4.0, 4.0), (-4.0, 4.0)]
BOX1 = [(-1.0, 1.0)]


def divergence(b, t, pts, fd_step=1e-4):
    """The divergence the checker reads: the trace of the drift's Jacobian."""
    return np.trace(_jacobian_of(b, t, pts, fd_step), axis1=-2, axis2=-1)


class TestCatalogEvaluation:
    def test_constant_field(self):
        b = constant_drift([2.0, 0.0])
        got = eval_drift(b, 0.3, np.array([[1.0, -2.0], [0.0, 0.0]]))
        assert np.array_equal(got, np.array([[2.0, 0.0], [2.0, 0.0]]))

    def test_linear_field(self):
        b = linear_drift([[-1.0]])
        got = eval_drift(b, 0.0, np.array([[1.5]]))
        assert got[0, 0] == -1.5

    def test_shear_at_half_height(self):
        b = shear_drift(half_width=4.0, amplitude=1.0)
        got = eval_drift(b, 0.0, np.array([[0.7, 2.0]]))
        assert got[0] == pytest.approx([1.0, 0.0], abs=1e-14)

    def test_power_field_signs(self):
        b = power_drift(0.75, scale=-1.0)
        got = eval_drift(b, 0.0, np.array([[0.5], [-0.5], [0.0]]))
        assert got[0, 0] == pytest.approx(-(0.5**0.75), rel=1e-14)
        assert got[1, 0] == pytest.approx(0.5**0.75, rel=1e-14)
        assert got[2, 0] == 0.0

    def test_power_exponent_range_enforced(self):
        for alpha in (0.0, 1.0, -0.5):
            with pytest.raises(ConfigError):
                power_drift(alpha)

    def test_time_modulated_gain(self):
        base = constant_drift([1.0])
        mod = time_modulated_drift(base, "sin_squared", horizon=2.0)
        got = eval_drift(mod, 1.0, np.array([[0.0]]))
        assert got[0, 0] == pytest.approx(1.0, rel=1e-14)
        assert eval_drift(mod, 0.0, np.array([[0.0]]))[0, 0] == 0.0

    def test_unknown_gain_rejected(self):
        with pytest.raises(ConfigError):
            time_modulated_drift(constant_drift([1.0]), "chirp", horizon=1.0)


class TestDivergence:
    def test_constant_is_divergence_free(self):
        b = constant_drift([2.0, -1.0])
        pts = np.array([[0.5, 0.5], [-1.0, 2.0]])
        assert np.all(divergence(b, 0.0, pts) == 0.0)

    def test_linear_contraction(self):
        b = linear_drift([[-1.0]])
        assert float(divergence(b, 0.0, np.array([[1.5]]))[0]) == -1.0

    def test_stream_field_analytic_divergence(self):
        b = stream_function_drift(4.0)
        rng = np.random.default_rng(4)
        pts = rng.uniform(-4.0, 4.0, size=(300, 2))
        assert float(np.max(np.abs(divergence(b, 0.0, pts)))) <= 1e-8

    def test_stream_field_finite_difference_divergence(self):
        full = stream_function_drift(4.0)
        bare = type(full)(id=full.id, d=2, fn=full.fn, jacobian=None, smooth=full.smooth)
        rng = np.random.default_rng(4)
        pts = rng.uniform(-4.0, 4.0, size=(300, 2))
        assert float(np.max(np.abs(divergence(bare, 0.0, pts)))) <= 1e-5

    @pytest.mark.parametrize("b", [
        zero_drift(2),
        constant_drift([2.0, -1.0]),
        linear_drift([[-1.0, 0.5], [0.25, 0.3]]),
        stream_function_drift(4.0, amplitude=1.3),
        shear_drift(4.0),
        power_drift(0.75, scale=-1.0),
        time_modulated_drift(power_drift(0.75), "sin_squared", 1.0),
        time_modulated_drift(stream_function_drift(4.0), "ramp", 1.0),
    ], ids=lambda b: b.id)
    def test_divergence_is_trace_of_jacobian(self, b):
        # the checker reads the drift's analytic Jacobian, whose trace is
        # the divergence of b itself
        rng = np.random.default_rng(8)
        pts = rng.uniform(-4.0, 4.0, size=(200, b.d))
        for t in (0.0, 0.4):
            jac = _jacobian_of(b, t, pts, fd_step=1e-4)
            assert jac.shape == (200, b.d, b.d)
            assert np.array_equal(divergence(b, t, pts),
                                  np.trace(b.jacobian(t, pts), axis1=-2, axis2=-1))
            central = np.trace(_central_jacobian(b, t, pts, 1e-4), axis1=-2, axis2=-1)
            assert np.allclose(divergence(b, t, pts), central, rtol=1e-5, atol=1e-6)

    def test_stream_divergence_is_exactly_zero(self):
        rng = np.random.default_rng(9)
        pts = rng.uniform(-4.0, 4.0, size=(500, 2))
        assert np.all(divergence(stream_function_drift(4.0, 1.7), 0.0, pts) == 0.0)

    def test_divergence_bound_of_linear_contraction(self):
        # sup |div b| = 1 at every time, so the time integral over [0,1] is 1
        C = check_hypotheses(linear_drift([[-1.0]]), np.inf, [(-8.0, 8.0)], 1.0).div_bound
        assert C == pytest.approx(1.0, abs=1e-12)


class TestDriftFromSpec:
    def test_catalog_ids_build(self):
        cases = [
            (1, {"id": "zero"}),
            (1, {"id": "constant", "c": [0.5]}),
            (1, {"id": "linear", "matrix": [[-1.0]]}),
            (2, {"id": "stream", "amplitude": 1.0}),
            (2, {"id": "shear"}),
            (1, {"id": "power1d", "alpha": 0.75, "scale": -1.0}),
            (1, {"id": "time_modulated", "base": {"id": "constant", "c": [1.0]},
                 "gain_id": "sin_squared"}),
        ]
        for d, spec in cases:
            b = drift_from_spec(d, 4.0, spec)
            assert b.d == d

    def test_unknown_id_rejected(self):
        with pytest.raises(ConfigError):
            drift_from_spec(1, 4.0, {"id": "vortex"})

    def test_bad_parameters_rejected(self):
        with pytest.raises(ConfigError):
            drift_from_spec(1, 4.0, {"id": "constant", "speed": 1.0})


class TestHypothesisChecker:
    def test_constant_passes_everything_with_zero_bound(self):
        rep = check_hypotheses(constant_drift([1.0, 2.0]), 2.0, BOX2, 1.0)
        assert rep.all_ok
        assert rep.div_bound == 0.0
        assert rep.divergence_is_exact

    def test_stream_field_passes_with_tiny_bound(self):
        rep = check_hypotheses(stream_function_drift(4.0), 2.0, BOX2, 1.0)
        assert rep.all_ok
        assert rep.div_bound <= 1e-8

    def test_rough_power_fails_sobolev_evidence(self):
        rep = check_hypotheses(power_drift(0.25, scale=-1.0), 2.0, BOX1, 1.0)
        assert not rep.w1q_loc_ok
        assert not rep.all_ok

    def test_rough_power_evidence_grows_under_doubling(self):
        # truncated integral of |x|^{-1.5} scales like sqrt(samples): the
        # evidence must keep growing (factor >= 1.3 per doubling) instead
        # of stabilizing
        levels = [
            check_hypotheses(power_drift(0.25, scale=-1.0), 2.0, BOX1, 1.0,
                             samples=n).w1q_evidence
            for n in (2000, 4000, 8000)
        ]
        assert levels[1] >= 1.3 * levels[0]
        assert levels[2] >= 1.3 * levels[1]

    def test_admissible_power_passes_sobolev_evidence(self):
        rep = check_hypotheses(power_drift(0.75, scale=-1.0), 2.0, BOX1, 1.0)
        assert rep.w1q_loc_ok
        assert rep.w1q_evidence == pytest.approx(2.25, rel=0.02)
        assert rep.lq_evidence == pytest.approx(0.8, rel=0.01)
        assert rep.rel_changes["w1q"] <= STABILITY_RTOL

    def test_admissible_power_divergence_is_honestly_unstable(self):
        # |div b| = a |x|^{a-1} is unbounded near 0 for a < 1; the checker
        # must not certify a finite sup
        rep = check_hypotheses(power_drift(0.75, scale=-1.0), 2.0, BOX1, 1.0)
        assert not rep.div_ok

    def test_passing_evidence_stable_under_doubling(self):
        for b, box in (
            (constant_drift([1.0, 2.0]), BOX2),
            (stream_function_drift(4.0), BOX2),
            (shear_drift(4.0), BOX2),
        ):
            rep = check_hypotheses(b, 2.0, box, 1.0)
            for name, ok in (
                ("div", rep.div_ok),
                ("lq", rep.lq_loc_ok),
                ("w1q", rep.w1q_loc_ok),
                ("growth", rep.growth_ok),
            ):
                if ok:
                    assert rep.rel_changes[name] <= STABILITY_RTOL

    def test_checker_is_deterministic(self):
        a = check_hypotheses(stream_function_drift(4.0), 2.0, BOX2, 1.0)
        b = check_hypotheses(stream_function_drift(4.0), 2.0, BOX2, 1.0)
        assert a == b

    def test_sample_floor_enforced(self):
        with pytest.raises(ConfigError):
            check_hypotheses(constant_drift([1.0]), 2.0, BOX1, 1.0, samples=10)

    def test_exponent_floor_enforced(self):
        with pytest.raises(ConfigError):
            check_hypotheses(constant_drift([1.0]), 0.5, BOX1, 1.0)

    def test_report_csv_has_header_and_rows(self, tmp_path):
        rep = check_hypotheses(constant_drift([1.0]), 2.0, BOX1, 1.0)
        target = tmp_path / "hypotheses.csv"
        write_hypothesis_csv(rep, target)
        lines = [l for l in target.read_text().splitlines() if not l.startswith("#")]
        assert lines[0].startswith("check,")
        assert len(lines) == 5


class TestZeroDrift:
    def test_zero_everywhere(self):
        b = zero_drift(2)
        pts = np.array([[1.0, 2.0], [0.0, 0.0]])
        assert np.all(eval_drift(b, 0.5, pts) == 0.0)
        assert np.all(divergence(b, 0.5, pts) == 0.0)

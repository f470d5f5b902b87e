"""Drift catalog evaluation, divergences, and the integrability checker.

Checker expectations for the power fields come from closed-form
integrals over the window [-1, 1]: with b(x) = sign(x) |x|^a,
|b'(x)|^2 = a^2 |x|^(2a-2), whose integral is 4 a^2 / (2a - 1) when
2a - 1 > 0 (a = 0.75 gives 2.25) and diverges when a = 0.25.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from stochtransport.errors import ConfigError, DriftEvaluationError
from stochtransport.drifts import (
    DriftField,
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
    _drift_reads,
    _evidence_pass,
)
from stochtransport.transport import mollified_drift


BOX2 = [(-4.0, 4.0), (-4.0, 4.0)]
BOX1 = [(-1.0, 1.0)]


def divergence(b, t, pts, fd_step=1e-4):
    """The divergence the checker reads: the trace of the drift's Jacobian."""
    return np.trace(_drift_reads(b, pts, fd_step)(t)[1], axis1=-2, axis2=-1)


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

    @pytest.mark.parametrize("d, spec, mollify", [
        (2, {"id": "zero"}, False),
        (2, {"id": "constant", "c": [0.5, -1.0]}, False),
        (2, {"id": "linear", "matrix": [[-1.0, 0.5], [0.25, 0.3]]}, False),
        (2, {"id": "stream"}, False),
        (2, {"id": "shear"}, False),
        (1, {"id": "power1d", "alpha": 0.75}, False),
        (2, {"id": "time_modulated", "gain_id": "sin_squared", "base": {"id": "stream"}},
         False),
        (2, {"id": "time_modulated", "gain_id": "ramp", "base": {
            "id": "time_modulated", "gain_id": "sin_squared", "base": {"id": "stream"}}},
         False),
        (1, {"id": "time_modulated", "gain_id": "sin_squared",
             "base": {"id": "power1d", "alpha": 0.75}}, True),
    ], ids=["zero", "constant", "linear", "stream", "shear", "power1d", "stream*sin_squared",
            "stream*sin_squared*ramp", "power1d*sin_squared~eps"])
    def test_read_at_many_times_equals_reads_one_at_a_time_bitwise(self, d, spec, mollify):
        b = drift_from_spec(d, 4.0, spec, n=16)
        if mollify:
            b = mollified_drift(b, 1.0 / 16, reach=6.0)
        times = np.array([0.1, 0.35, 0.6, 0.85])
        pts = np.random.default_rng(2).uniform(-4.0, 4.0, size=(4, 3, 50, b.d))
        got = eval_drift(b, times, pts)
        assert np.array_equal(got, np.stack([eval_drift(b, t, x) for t, x in zip(times, pts)]))

    def test_read_at_many_times_names_the_first_non_finite_time(self):
        cliff = DriftField("cliff", 1, lambda x: np.ones(np.shape(x)),
                           gain=lambda t: math.inf if t > 1.0 else 1.0)
        pts = np.ones((3, 5, 1))
        with pytest.raises(DriftEvaluationError, match=r"non-finite values at t=1.5$"):
            eval_drift(cliff, np.array([0.5, 1.5, 2.5]), pts)


#: The 2D drifts whose components are products of per-axis factors.
SEPARABLE_SPECS = [{"id": "stream", "amplitude": 1.7}, {"id": "shear", "amplitude": -0.6},
                   {"id": "time_modulated", "gain_id": "sin_squared", "base": {"id": "stream"}}]


class TestOnAxes:
    @pytest.mark.parametrize("lead", [(), (3,), (2, 3)], ids=["one", "P", "BP"])
    @pytest.mark.parametrize("spec", SEPARABLE_SPECS, ids=["stream", "shear",
                                                           "stream*sin_squared"])
    def test_on_axes_equals_fn_on_the_meshgrid_bitwise(self, spec, lead):
        b = drift_from_spec(2, 4.0, spec, n=16)
        rng = np.random.default_rng(11)
        shifts = rng.normal(scale=3.0, size=lead + (2,))
        x1 = -4.0 + 0.5 * np.arange(16) + shifts[..., :1]
        x2 = rng.uniform(-4.0, 4.0, size=12) + shifts[..., 1:]
        got = b.on_axes(x1, x2)
        assert got.shape == lead + (16, 12, 2)
        for index in np.ndindex(lead):
            want = b.fn(np.stack(np.meshgrid(x1[index], x2[index], indexing="ij"), axis=-1))
            assert np.array_equal(got[index], want)
            assert np.array_equal(np.signbit(got[index]), np.signbit(want))

    def test_only_separable_drifts_state_it(self):
        stream = stream_function_drift(4.0)
        assert time_modulated_drift(stream, "ramp", 1.0).on_axes is stream.on_axes
        assert shear_drift(4.0).on_axes is not None
        for b in (linear_drift([[-1.0, 0.5], [0.25, 0.3]]), power_drift(0.75),
                  mollified_drift(stream, 0.5, reach=6.0)):
            assert b.on_axes is None


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
            jac = _drift_reads(b, pts, 1e-4)(t)[1]
            assert jac.shape == (200, b.d, b.d)
            gain = 1.0 if b.gain is None else b.gain(t)
            assert np.array_equal(divergence(b, t, pts),
                                  np.trace(gain * b.jacobian(pts), axis1=-2, axis2=-1))
            central = np.trace(_drift_reads(b, pts, 1e-4, analytic=False)(t)[1],
                               axis1=-2, axis2=-1)
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
            b = drift_from_spec(d, 4.0, spec, n=16)
            assert b.d == d

    def test_unknown_id_rejected(self):
        with pytest.raises(ConfigError):
            drift_from_spec(1, 4.0, {"id": "vortex"}, n=16)

    def test_bad_parameters_rejected(self):
        with pytest.raises(ConfigError):
            drift_from_spec(1, 4.0, {"id": "constant", "speed": 1.0}, n=16)

    @pytest.mark.parametrize("kind", ["stream", "shear"])
    def test_half_width_must_be_the_box_over_a_whole_number(self, kind):
        for half_width in (4.0, 2.0, 4.0 / 3.0, 1.0):
            assert drift_from_spec(2, 4.0, {"id": kind, "half_width": half_width}, n=16).d == 2
        for half_width in (3.0, 8.0, 0.0, -4.0):
            with pytest.raises(ConfigError, match="not periodic on the box"):
                drift_from_spec(2, 4.0, {"id": kind, "half_width": half_width}, n=16)

    @pytest.mark.parametrize("kind", ["stream", "shear"])
    def test_a_grid_resolves_at_most_n_over_2_periods(self, kind):
        # N = 16 nodes per axis resolve 8 periods on the box: half width L / 8
        assert drift_from_spec(2, 4.0, {"id": kind, "half_width": 0.5}, n=16).d == 2
        for half_width, periods in ((0.25, "16"), (1e-300, "4e+300"), (5e-324, "inf")):
            spec = {"id": "time_modulated", "gain_id": "one",
                    "base": {"id": kind, "half_width": half_width}}
            with pytest.raises(ConfigError) as info:
                drift_from_spec(2, 4.0, spec, n=16)
            assert str(info.value) == (
                f"drift.base.half_width = {half_width!r} puts {periods} periods of the drift "
                "on the box, more than the N/2 = 8 that N = 16 nodes per axis resolve")
        with pytest.raises(ConfigError, match="drift.half_width must be a finite real number"):
            drift_from_spec(2, 4.0, {"id": kind, "half_width": "4"}, n=16)

    @pytest.mark.parametrize("spec, message", [
        ({"id": "stream", "amplitude": True},
         "drift.amplitude must be a finite real number, got True"),
        ({"id": "shear", "half_width": True},
         "drift.half_width must be a finite real number, got True"),
        ({"id": "power1d", "alpha": 0.75, "scale": True},
         "drift.scale must be a finite real number, got True"),
        ({"id": "constant", "c": [1.0, True]},
         "drift.c must be a list of 2 finite real numbers, got [1.0, True]"),
        ({"id": "linear", "matrix": [[1.0, False], [0.0, 1.0]]},
         "drift.matrix must be a 2 x 2 matrix: a list of 2 rows of 2 finite real numbers, "
         "got [[1.0, False], [0.0, 1.0]]"),
        ({"id": "time_modulated", "gain_id": "ramp", "base": {"id": "stream", "amplitude": True}},
         "drift.base.amplitude must be a finite real number, got True"),
    ], ids=["amplitude", "half-width", "scale", "c", "matrix", "nested-base"])
    def test_a_bool_is_no_number(self, spec, message):
        d = 1 if spec["id"] in ("power1d",) else 2
        with pytest.raises(ConfigError) as info:
            drift_from_spec(d, 4.0, spec, n=16)
        assert str(info.value) == message

    @pytest.mark.parametrize("spec, key", [
        ({"id": "power1d", "alpha": 0.75, "scale": [1.0]}, "scale"),
        ({"id": "power1d", "alpha": "0.75"}, "alpha"),
        ({"id": "power1d", "alpha": 0.75, "scale": 10**400}, "scale"),
        ({"id": "stream", "amplitude": math.nan}, "amplitude"),
        ({"id": "shear", "amplitude": math.inf}, "amplitude"),
        ({"id": "stream", "half_width": None}, "half_width"),
        ({"id": "time_modulated", "gain_id": "ramp",
          "base": {"id": "power1d", "alpha": 0.75, "scale": [[-1.0]]}}, "scale"),
    ], ids=["list", "string", "huge-int", "nan", "inf", "none", "nested-base"])
    def test_a_scalar_parameter_is_one_finite_real(self, spec, key):
        d = 1 if "power1d" in str(spec) else 2
        with pytest.raises(ConfigError, match=f"{key} must be a finite real number"):
            drift_from_spec(d, 4.0, spec, n=16)

    def test_integral_and_numpy_scalars_are_numbers(self):
        for scale in (-1, np.float64(-1.0), np.int64(-1)):
            b = drift_from_spec(1, 4.0, {"id": "power1d", "alpha": 0.75, "scale": scale}, n=16)
            assert eval_drift(b, 0.0, np.array([[2.0]]))[0, 0] == -(2.0**0.75)


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
            _evidence_pass(power_drift(0.25, scale=-1.0), 2.0, BOX1, 1.0, 2 * n)["w1q"]
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

    def test_exponent_floor_enforced(self):
        with pytest.raises(ConfigError):
            check_hypotheses(constant_drift([1.0]), 0.5, BOX1, 1.0)

    @pytest.mark.parametrize("gain_id", [None, "sin_squared"])
    @pytest.mark.parametrize("analytic", [True, False], ids=["analytic", "central"])
    def test_the_autonomous_factor_is_read_once_per_pass(self, gain_id, analytic):
        # fn and the Jacobian rule, or fn at both sides of the differences,
        # once in each of the two passes, not at each of the 17 times
        base = power_drift(0.75, scale=-1.0)
        calls = []
        counted = replace(base, fn=lambda x: calls.append("fn") or base.fn(x),
                          jacobian=(lambda x: calls.append("jac") or base.jacobian(x))
                          if analytic else None)
        b = counted if gain_id is None else time_modulated_drift(counted, gain_id, 1.0)
        check_hypotheses(b, 2.0, BOX1, 1.0)
        assert calls == (["fn", "jac"] if analytic else ["fn"] * 3) * 2

    def test_a_non_finite_read_names_its_time(self):
        base = power_drift(0.75)
        late = replace(base, gain=lambda t: math.inf if t >= 0.5 else 1.0)
        with pytest.raises(DriftEvaluationError, match=r"returned non-finite values at t=0.5$"):
            check_hypotheses(late, 2.0, BOX1, 1.0)
        steep = replace(base, jacobian=lambda x: np.full(np.shape(x) + (1,), math.inf))
        with pytest.raises(DriftEvaluationError, match=r"'power1d' Jacobian non-finite at t=0.0$"):
            check_hypotheses(steep, 2.0, BOX1, 1.0)

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


@pytest.mark.parametrize("call, message", [
    (lambda: linear_drift([[1.0, 0.0]]), r"must be square, got shape \(1, 2\)$"),
    (lambda: check_hypotheses(constant_drift([1.0]), 2.0, [(-1, 1), (-1, 1)], 1.0),
     "window has 2 axes, drift has dimension 1$"),
    (lambda: check_hypotheses(constant_drift([1.0]), 2.0, [(1, 1)], 1.0),
     r"degenerate window axis \(1.0, 1.0\)$"),
    (lambda: check_hypotheses(constant_drift([1.0]), 2.0, BOX1, 0.0),
     "horizon must be positive, got 0.0$"),
    (lambda: stream_function_drift(0.0), "half_width must be positive and finite, got 0.0$"),
    (lambda: shear_drift(math.inf), "half_width must be positive and finite, got inf$"),
    (lambda: linear_drift([[math.nan]]), r"matrix must be finite, got \[\[nan\]\]$"),
], ids=["non-square-matrix", "window-axes", "degenerate-window", "zero-horizon",
        "zero-half-width", "infinite-half-width", "non-finite-matrix"])
def test_a_malformed_argument_is_a_config_error(call, message):
    with pytest.raises(ConfigError, match=message):
        call()

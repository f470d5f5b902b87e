"""Driving paths: Brownian sampling, BV approximants and distances.

The chi-square band for increment variances and the chord-midpoint
recomputation are evaluated inline; no frozen solver output enters.
"""

import math

import numpy as np
import pytest

from stochtransport.artifacts import read_path_csv, write_path_csv
from stochtransport.errors import ConfigError, MeshMismatchError, PathRangeError
from stochtransport.paths import (
    SamplePath,
    eval_path,
    piecewise_linear_approx,
    sample_brownian,
    sup_distance,
    zero_path,
)


class TestBrownianSampling:
    def test_starts_at_zero(self):
        for seed in (0, 7, 123456):
            p = sample_brownian(seed, 1.0, 64, 2)
            assert np.all(p.values[0] == 0.0)

    def test_fixed_seed_is_bit_reproducible(self):
        a = sample_brownian(7, 1.0, 512, 2)
        b = sample_brownian(7, 1.0, 512, 2)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.times, b.times)

    def test_different_seeds_differ(self):
        a = sample_brownian(7, 1.0, 64, 1)
        b = sample_brownian(8, 1.0, 64, 1)
        assert not np.array_equal(a.values, b.values)

    def test_increment_variance_band_across_seeds(self):
        # normalized increments are iid standard normals, so the sample
        # variance at K = 1e4 lies in [0.96, 1.04] except on chi-square
        # tail events; 198 of the first 200 seeds land inside
        dt = 1.0 / 10_000
        inside = 0
        for seed in range(200):
            p = sample_brownian(seed, 1.0, 10_000, 1)
            z = np.diff(p.values[:, 0]) / np.sqrt(dt)
            v = float(np.var(z, ddof=1))
            inside += 0.96 <= v <= 1.04
        assert inside == 198
        assert inside >= 0.95 * 200

    def test_terminal_value_scaling(self):
        # E W(1)^2 = 1; the empirical mean over 1000 seeds sits within 10%
        vals = [sample_brownian(s, 1.0, 64, 1).values[-1, 0] ** 2 for s in range(1000)]
        assert 0.9 <= float(np.mean(vals)) <= 1.1

    def test_mesh_is_uniform(self):
        p = sample_brownian(3, 2.0, 128, 1)
        assert p.times[0] == 0.0
        assert p.times[-1] == 2.0
        assert np.allclose(np.diff(p.times), 2.0 / 128, rtol=1e-12, atol=0.0)


class TestZeroPath:
    def test_identically_zero(self):
        p = zero_path(1.0, 32, 2)
        assert p.kind == "zero"
        assert np.all(p.values == 0.0)


class TestPiecewiseLinearApprox:
    def test_finest_level_returns_path_values(self):
        p = sample_brownian(5, 1.0, 128, 1)
        q = piecewise_linear_approx(p, 128)
        assert np.array_equal(q.values, p.values)

    def test_coarse_knots_match_source_bitwise(self):
        p = sample_brownian(5, 1.0, 256, 2)
        q = piecewise_linear_approx(p, 16)
        stride = 256 // 16
        assert np.array_equal(q.values[::stride], p.values[::stride])

    def test_piecewise_linear_input_reproduced(self):
        base = sample_brownian(5, 1.0, 256, 1)
        coarse = piecewise_linear_approx(base, 8)
        again = piecewise_linear_approx(coarse, 8)
        assert np.array_equal(again.values, coarse.values)

    def test_dyadic_ladder_contracts_to_zero(self):
        # seed chosen so the uniform distance decreases at every level
        p = sample_brownian(1, 1.0, 256, 1)
        ds = [sup_distance(piecewise_linear_approx(p, n), p)
              for n in (4, 8, 16, 32, 64, 128, 256)]
        assert all(a >= b for a, b in zip(ds, ds[1:]))
        assert ds[-1] == 0.0

    def test_knot_count_must_divide_mesh(self):
        p = sample_brownian(5, 1.0, 256, 1)
        with pytest.raises(MeshMismatchError):
            piecewise_linear_approx(p, 3)

    def test_kind_is_bounded_variation(self):
        p = sample_brownian(5, 1.0, 256, 1)
        assert piecewise_linear_approx(p, 16).kind == "piecewise_linear_bv"


class TestSupDistance:
    def test_identical_paths_have_zero_distance(self):
        p = sample_brownian(9, 1.0, 64, 1)
        assert sup_distance(p, p) == 0.0

    def test_distance_to_zero_path_is_max_magnitude(self):
        p = sample_brownian(9, 1.0, 64, 1)
        z = zero_path(1.0, 64, 1)
        assert sup_distance(p, z) == float(np.max(np.abs(p.values)))

    def test_half_level_equals_chord_midpoint_deviation(self):
        p = sample_brownian(24, 1.0, 256, 1)
        half = piecewise_linear_approx(p, 128)
        odd = np.arange(1, 256, 2)
        chord_mid = 0.5 * (p.values[odd - 1] + p.values[odd + 1])
        oracle = float(np.max(np.abs(p.values[odd] - chord_mid)))
        assert sup_distance(half, p) == oracle

    def test_mismatched_step_counts_rejected(self):
        a = sample_brownian(1, 1.0, 64, 1)
        b = sample_brownian(1, 1.0, 128, 1)
        with pytest.raises(MeshMismatchError, match="do not share one mesh"):
            sup_distance(a, b)

    def test_mismatched_horizons_rejected(self):
        a = sample_brownian(1, 1.0, 64, 1)
        b = sample_brownian(1, 2.0, 64, 1)
        with pytest.raises(MeshMismatchError):
            sup_distance(a, b)


class TestEvalPath:
    def test_knot_evaluation_is_exact(self):
        p = sample_brownian(11, 1.0, 64, 2)
        for k in (0, 13, 64):
            assert np.array_equal(eval_path(p, float(p.times[k])), p.values[k])

    def test_start_is_pinned_to_zero(self):
        p = sample_brownian(11, 1.0, 64, 2)
        assert np.all(eval_path(p, 0.0) == 0.0)

    def test_midpoint_is_average_of_endpoints(self):
        p = sample_brownian(11, 1.0, 64, 1)
        t = 0.5 * (p.times[3] + p.times[4])
        want = 0.5 * (p.values[3] + p.values[4])
        assert eval_path(p, t) == pytest.approx(want, abs=1e-15)

    def test_outside_horizon_rejected(self):
        p = sample_brownian(11, 1.0, 64, 1)
        with pytest.raises(PathRangeError):
            eval_path(p, 1.5)
        with pytest.raises(PathRangeError):
            eval_path(p, -0.1)

    def test_nan_time_rejected(self):
        p = sample_brownian(11, 1.0, 64, 1)
        with pytest.raises(PathRangeError):
            eval_path(p, math.nan)
        with pytest.raises(PathRangeError):
            eval_path(p, np.array([0.5, math.nan]))


class TestSamplePathValidation:
    def test_nonzero_start_rejected_for_brownian(self):
        vals = np.ones((5, 1))
        with pytest.raises(ConfigError):
            SamplePath(kind="brownian", horizon=1.0, values=vals, seed=0)

    def test_times_are_the_uniform_mesh_and_read_only(self):
        p = SamplePath(np.zeros((9, 2)), 0.3, "zero")
        assert np.array_equal(p.times, np.linspace(0.0, 0.3, 9))
        assert p.horizon == 0.3 and p.n_steps == 8
        with pytest.raises(ValueError):
            p.times[1] = 0.5
        with pytest.raises(AttributeError):
            p.times = np.linspace(0.0, 1.0, 9)

    @pytest.mark.parametrize("horizon", [0.0, -1.0, np.nan, np.inf])
    def test_non_positive_or_non_finite_horizon_rejected(self, horizon):
        with pytest.raises(ConfigError, match="horizon must be positive and finite"):
            SamplePath(np.zeros((5, 1)), horizon, "zero")


def _path_file_of_kind(tmp_path, kind):
    """A Brownian path's file whose header states ``kind``."""
    target = tmp_path / "path.csv"
    write_path_csv(sample_brownian(3, 1.0, 4, 1), target)
    target.write_text(target.read_text().replace("brownian", kind))
    return target


@pytest.mark.parametrize("call, message", [
    (lambda tmp: SamplePath(np.zeros((3, 1)), 1.0, "levy"), "unknown path kind 'levy'$"),
    (lambda tmp: SamplePath(np.zeros(3), 1.0, "brownian"),
     r"need shape \(K \+ 1, d\), K >= 1, not \(3,\)$"),
    (lambda tmp: SamplePath([[0.0], [np.nan]], 1.0, "brownian"), "path knots must be finite$"),
    (lambda tmp: SamplePath([[0.0], [1.0]], 1.0, "zero"), "must vanish at every knot$"),
    (lambda tmp: sample_brownian(0, 0.0, 4, 1), "horizon must be positive, got 0.0$"),
    (lambda tmp: sample_brownian(0, 1.0, 0, 1), "need at least one step, got 0$"),
    (lambda tmp: sample_brownian(0, 1.0, 4, 0), "path dimension must be positive, got 0$"),
    (lambda tmp: piecewise_linear_approx(zero_path(1.0, 4, 1), 2),
     "cannot coarsen a path of kind 'zero'$"),
    (lambda tmp: read_path_csv(_path_file_of_kind(tmp, "zero")),
     r"path\.csv: a zero path must vanish at every knot$"),
], ids=["kind", "shape", "non-finite-knot", "moving-zero-path", "brownian-horizon",
        "brownian-steps", "brownian-dimension", "coarsen-zero-path", "file-of-no-path"])
def test_a_malformed_argument_is_a_config_error(tmp_path, call, message):
    with pytest.raises(ConfigError, match=message):
        call(tmp_path)

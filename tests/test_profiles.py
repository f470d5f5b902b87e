"""Initial-data profiles: support, amplitudes, gradients, config plumbing."""

import math

import numpy as np
import pytest

from stochtransport.errors import ConfigError
from stochtransport.fields import SpatialGrid
from stochtransport.profiles import (
    bump,
    double_bump,
    profile_from_spec,
    sample_profile,
    step,
)


def fd_gradient(fn, points, h=1e-6):
    pts = np.asarray(points, dtype=float)
    out = np.empty(pts.shape)
    for a in range(pts.shape[-1]):
        up = pts.copy()
        dn = pts.copy()
        up[..., a] += h
        dn[..., a] -= h
        out[..., a] = (fn(up) - fn(dn)) / (2.0 * h)
    return out


class TestBump:
    def test_support_is_compact(self):
        prof = bump(1, center=0.5, radius=1.0)
        outside = np.array([[1.5], [2.0], [-0.5], [-3.0]])
        assert np.all(prof.fn(outside) == 0.0)

    def test_peak_value_at_center(self):
        prof = bump(2, center=(0.3, -0.2), radius=1.0, amplitude=2.0)
        # exp(-1/(1-0)) scaling makes the peak amplitude * e^{-1}
        got = float(prof.fn(np.array([[0.3, -0.2]]))[0])
        assert got == pytest.approx(2.0 * math.exp(-1.0), rel=1e-14)

    def test_gradient_matches_finite_differences(self):
        prof = bump(2, center=(0.0, 0.0), radius=1.3)
        rng = np.random.default_rng(2)
        pts = rng.uniform(-1.1, 1.1, size=(200, 2))
        ana = prof.gradient(pts)
        num = fd_gradient(prof.fn, pts)
        assert float(np.max(np.abs(ana - num))) <= 1e-6

    def test_positive_integral(self):
        g = SpatialGrid(d=1, half_width=4.0, n=256)
        f = sample_profile(g, bump(1, center=0.0, radius=1.0))
        assert float(np.sum(f.values)) * g.cell_volume > 0.0


class TestDoubleBump:
    def test_is_sum_of_two_bumps(self):
        prof = double_bump(1, centers=(-1.5, 1.5), radius=1.0, amplitudes=(1.0, 0.5))
        lone0 = bump(1, center=-1.5, radius=1.0, amplitude=1.0)
        lone1 = bump(1, center=1.5, radius=1.0, amplitude=0.5)
        pts = np.linspace(-3.0, 3.0, 41)[:, None]
        assert np.allclose(prof.fn(pts), lone0.fn(pts) + lone1.fn(pts), atol=1e-15)

    def test_gradient_matches_finite_differences(self):
        prof = double_bump(1, centers=(-1.5, 1.5), radius=1.0)
        pts = np.linspace(-2.9, 2.9, 101)[:, None]
        ana = prof.gradient(pts)
        num = fd_gradient(prof.fn, pts)
        assert float(np.max(np.abs(ana - num))) <= 1e-6


class TestStep:
    def test_values_are_zero_or_amplitude(self):
        prof = step(1, center=0.0, half_width=1.0, amplitude=0.7)
        pts = np.linspace(-3.0, 3.0, 101)[:, None]
        vals = prof.fn(pts)
        assert set(np.unique(vals)) <= {0.0, 0.7}

    def test_box_membership(self):
        prof = step(2, center=(1.0, 0.0), half_width=0.5)
        assert prof.fn(np.array([[1.2, 0.3]]))[0] == 1.0
        assert prof.fn(np.array([[1.2, 0.6]]))[0] == 0.0

    def test_bad_half_width_rejected(self):
        with pytest.raises(ConfigError):
            step(1, half_width=0.0)


class TestProfileFromSpec:
    def test_catalog_ids_build(self):
        for spec in (
            {"id": "bump", "radius": 1.2},
            {"id": "double_bump"},
            {"id": "step", "half_width": 0.5},
        ):
            prof = profile_from_spec(1, spec)
            assert prof.d == 1

    def test_unknown_id_rejected(self):
        with pytest.raises(ConfigError):
            profile_from_spec(1, {"id": "spiral"})

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ConfigError):
            profile_from_spec(1, {"id": "bump", "sharpness": 3})

    def test_missing_id_rejected(self):
        with pytest.raises(ConfigError):
            profile_from_spec(1, {"radius": 1.0})


class TestSampleProfile:
    def test_nodal_values_match_rule_exactly(self):
        g = SpatialGrid(d=2, half_width=4.0, n=32)
        prof = bump(2, center=(0.0, 0.0), radius=1.5)
        f = sample_profile(g, prof)
        direct = prof.fn(g.nodes()).reshape(g.shape)
        assert np.array_equal(f.values, direct)

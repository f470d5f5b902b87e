"""Grid, norm, interpolation, shift, and field CSV behavior.

Reference values come from closed forms evaluated inline (analytic
integrals, exact translations) or from resampling the same analytic
profile; no value is copied from solver output.
"""

import itertools
import math

import numpy as np
import pytest

from stochtransport.errors import FieldValidationError
from stochtransport.fields import (
    ScalarField,
    SpatialGrid,
    _cubic_read,
    _cubic_weights,
    _window_sum,
    _Workspace,
    interpolate,
    lp_norm,
    read_field_csv,
    shift_field,
    write_field_csv,
)
from stochtransport.drifts import stream_function_drift
from stochtransport.profiles import bump, sample_profile
from stochtransport.transport import _mollified_table


@pytest.fixture
def grid512():
    return SpatialGrid(d=1, half_width=4.0, n=512)


@pytest.fixture
def bump512(grid512):
    return sample_profile(grid512, bump(1, center=0.0, radius=1.0))


class TestSpatialGrid:
    def test_node_index_round_trip_is_exact(self, grid512):
        ax = grid512.axis()
        rebuilt = -grid512.half_width + np.arange(grid512.n) * grid512.h
        assert np.array_equal(ax, rebuilt)

    def test_minimum_resolution_enforced(self):
        with pytest.raises(FieldValidationError):
            SpatialGrid(d=1, half_width=4.0, n=7)

    def test_dimension_restricted(self):
        with pytest.raises(FieldValidationError):
            SpatialGrid(d=3, half_width=4.0, n=16)

    def test_cell_volume_matches_spacing(self):
        g = SpatialGrid(d=2, half_width=4.0, n=64)
        assert g.cell_volume == pytest.approx(g.h**2, rel=1e-15)


class TestLpNorm:
    def test_unit_indicator_has_unit_mass(self):
        # volume of [0,1)^d; rectangle rule is exact up to one boundary cell
        for d in (1, 2):
            g = SpatialGrid(d=d, half_width=4.0, n=256)
            ind = ScalarField.from_function(
                g, lambda p: np.all((p >= 0.0) & (p < 1.0), axis=-1).astype(float)
            )
            assert abs(lp_norm(ind, 1.0) - 1.0) <= g.h

    def test_zero_field_has_zero_norm(self, grid512):
        z = ScalarField.zeros(grid512)
        for p in (1.0, 2.0, 7.5):
            assert lp_norm(z, p) == 0.0

    def test_infinite_exponent_rejected(self, grid512):
        with pytest.raises(FieldValidationError):
            lp_norm(ScalarField.zeros(grid512), math.inf)

    def test_gaussian_l2_matches_analytic_integral(self):
        # ||exp(-x^2)||_2 = (integral exp(-2x^2))^(1/2) = (pi/2)^(1/4);
        # the rectangle rule is spectrally accurate on rapidly decaying data
        g = SpatialGrid(d=1, half_width=8.0, n=2**16)
        f = ScalarField.from_function(g, lambda p: np.exp(-p[..., 0] ** 2))
        assert lp_norm(f, 2.0) == pytest.approx((math.pi / 2.0) ** 0.25, abs=1e-12)

    def test_homogeneity_is_exact(self, bump512):
        for c in (-2.5, 3.0, 0.125):
            for p in (1.0, 2.0):
                assert lp_norm(bump512 * c, p) == abs(c) * lp_norm(bump512, p)

    def test_norm_nonnegative_and_zero_only_for_zero(self, bump512):
        assert lp_norm(bump512, 1.0) > 0.0

    def test_non_finite_values_rejected(self, grid512):
        vals = np.zeros(grid512.shape)
        vals[5] = math.nan
        with pytest.raises(FieldValidationError):
            lp_norm(ScalarField(grid512, vals), 1.0)

    def test_exponent_must_be_at_least_one(self, bump512):
        with pytest.raises(FieldValidationError):
            lp_norm(bump512, 0.5)


class TestInterpolate:
    def test_constant_field_reproduced(self, grid512):
        f = ScalarField.from_function(grid512, lambda p: np.full(p.shape[:-1], 3.7))
        q = np.array([[0.123], [-3.9], [2.0 + grid512.h / 3.0]])
        assert np.max(np.abs(interpolate(f, q) - 3.7)) <= 1e-13

    def test_nodes_reproduce_nodal_values_exactly(self, bump512, grid512):
        q = grid512.axis()[:, None]
        assert np.array_equal(interpolate(bump512, q), bump512.values)

    def test_cubic_hits_analytic_sine(self):
        g = SpatialGrid(d=1, half_width=math.pi, n=512)
        f = ScalarField.from_function(g, lambda p: np.sin(p[..., 0]))
        got = interpolate(f, np.array([[math.pi / 7.0]]))
        assert abs(float(got[0]) - math.sin(math.pi / 7.0)) <= 1e-6

    def test_cubic_is_fourth_order_on_smooth_data(self):
        rng = np.random.default_rng(5)
        q = rng.uniform(-7.5, 7.5, size=(400, 1))
        truth = np.sin(2.0 * np.pi * q[:, 0] / 8.0 + 0.3)
        errs = []
        for n in (64, 128, 256, 512):
            g = SpatialGrid(d=1, half_width=8.0, n=n)
            f = ScalarField.from_function(
                g, lambda p: np.sin(2.0 * np.pi * p[..., 0] / 8.0 + 0.3)
            )
            vals = interpolate(f, q)
            errs.append(float(np.max(np.abs(vals - truth))))
        orders = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
        assert min(orders) >= 3.8

    def test_clamped_cubic_stays_in_stencil_range(self, bump512, grid512):
        rng = np.random.default_rng(11)
        q = rng.uniform(-4.0, 4.0, size=(2000, 1))
        vals = _cubic_read(grid512, bump512.values[None], q[None], clamp=True)
        assert np.min(vals) >= float(bump512.values.min()) - 1e-12
        assert np.max(vals) <= float(bump512.values.max()) + 1e-12


def _weights_by_point(theta):
    """``_cubic_weights`` as one C-contiguous (Q, 4) array, the layout the 1D plan
    hands to its einsum (an einsum's bits depend on its operands' layout)."""
    out = np.empty(theta.shape + (4,))
    _cubic_weights(theta, np.moveaxis(out, -1, 0))
    return out


def _modulo_read(grid, values, pts, clamp):
    """Reference cubic read: modulo stencil indices, one (Q, 4) or (Q, 4, 4) gather."""
    L, n = grid.half_width, grid.n
    s = np.mod(pts + L, 2.0 * L) / grid.h
    base = np.floor(s).astype(np.int64)
    theta = s - base
    base = np.where(base >= n, base - n, base) % n
    idx = (base[..., None] + np.array([-1, 0, 1, 2])) % n  # (P, Q, d, 4)
    path = np.arange(values.shape[0])[:, None, None]
    w = [_weights_by_point(theta[..., a].ravel()) for a in range(grid.d)]
    if grid.d == 1:
        flat = values[path, idx[..., 0, :]].reshape(-1, 4)
        out = np.einsum("qk,qk->q", w[0], flat)
    else:
        flat = values[path[..., None], idx[..., 0, :, None], idx[..., 1, None, :]].reshape(-1, 4, 4)
        out = np.einsum("qi,qij,qj->q", w[0], flat, w[1])
    if clamp:
        bounds = tuple(range(1, flat.ndim))
        out = np.clip(out, flat.min(axis=bounds), flat.max(axis=bounds))
    return out.reshape(pts.shape[:2]), flat


class TestWindowRead:
    @staticmethod
    def _query(grid, n_fields, rng):
        """Off-node points, nodes, the box edges and points periods outside it."""
        L, d = grid.half_width, grid.d
        edges = [-L, L, np.nextafter(L, 0.0), np.nextafter(-L, -np.inf), 0.0]
        corners = np.array(list(itertools.product(edges, repeat=d)))
        nodes = grid.nodes()[::7]
        far = rng.uniform(-L, L, size=(40, d)) + 2.0 * L * rng.integers(-5, 6, size=(40, d))
        far_nodes = nodes[:20] + 2.0 * L * np.array([3.0, -4.0])[:d]
        inside = rng.uniform(-L, L, size=(300, d))
        pts = np.concatenate([inside, corners, nodes, far, far_nodes])
        return np.stack([pts + 0.05 * p for p in range(n_fields)])

    @pytest.mark.parametrize("d, n_fields", [(1, 1), (1, 8), (2, 1), (2, 3)])
    @pytest.mark.parametrize("clamp", [False, True])
    def test_window_read_equals_modulo_gather(self, d, n_fields, clamp):
        rng = np.random.default_rng(17 + n_fields)
        grid = SpatialGrid(d=d, half_width=4.0, n=24)
        values = rng.standard_normal((n_fields,) + grid.shape)
        values[:, :3] = 0.0  # flat patches: ties in the clamp bounds
        pts = self._query(grid, n_fields, rng)
        expected, _ = _modulo_read(grid, values, pts, clamp)
        assert np.array_equal(_cubic_read(grid, values, pts, clamp), expected)

    def test_a_point_just_below_the_box_wraps_to_node_0(self):
        # x + L rounds to exactly 2L in np.mod and (x + L) mod 2L / h to just
        # above n, so the stencil base is n, which must wrap to node 0; a huge
        # value at node 2 shows any other stencil
        grid = SpatialGrid(d=1, half_width=3.0, n=47)
        values = np.zeros((1, 47))
        values[0, 2] = 1e30
        pts = np.array([[[np.nextafter(-3.0, -np.inf)]]])
        expected, _ = _modulo_read(grid, values, pts, False)
        assert expected[0, 0] != 0.0
        assert np.array_equal(_cubic_read(grid, values, pts, False), expected)

    @pytest.mark.parametrize("tables", ["padded_128", "mollifier"])
    def test_2d_tap_sum_equals_the_einsum_bitwise(self, tables):
        rng = np.random.default_rng(5)
        if tables == "padded_128":  # one wrap-padded 128 x 128 field, with signed zeros
            stack = rng.standard_normal((1, 131, 131)) * 10.0 ** rng.uniform(-3, 3, (1, 131, 131))
            stack[rng.random(stack.shape) < 0.1] = 0.0
            stack[rng.random(stack.shape) < 0.1] = -0.0
        else:  # the two component tables of a forced-radius 2D mollifier
            stack = _mollified_table(stream_function_drift(4.0), 0.7, 4.5)[2]
        n = stack.shape[-1]
        corner = rng.integers(0, n - 3, size=(128 * 128, 2))
        start = corner[:, 0] * n + corner[:, 1]
        theta = rng.random((start.size, 2))
        theta[::5] = 0.0  # node hits: weights of both signs of zero
        weights = [_weights_by_point(theta[:, a]) for a in range(2)]
        # the oracle: every window as one strided (C, Q, 4, 4) stencil, summed by einsum
        flat = stack.reshape(len(stack), -1)
        item = flat.strides[1]
        windows = np.ndarray((len(flat), flat.shape[1] - 3 * (n + 1), 4, 4), flat.dtype, flat,
                             strides=(flat.strides[0], item, item * n, item))
        want = np.einsum("qi,...qij,qj->...q", weights[0], windows[:, start], weights[1])
        # the tap sum reads the weights of each offset as one contiguous row
        rows = [_cubic_weights(theta[:, a], np.empty((4, start.size))) for a in range(2)]
        got = _window_sum(stack, start, rows, _Workspace(), np.empty((len(stack), start.size)))
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


class TestWorkspace:
    def test_a_slot_is_reused_and_grows_only_for_a_larger_request(self):
        ws = _Workspace()
        a = ws.array("x0", (4, 3))
        assert ws.array("x0", (4, 3)) is a
        b = ws.array("x0", (2, 5))
        assert b.shape == (2, 5) and np.shares_memory(a, b)
        assert not np.shares_memory(a, ws.array("x1", (4, 3)))
        a[...] = 1.0
        c = ws.array("x0", (5, 5))
        # a larger request takes a new array; views of the old one keep it
        assert not np.shares_memory(a, c) and np.all(a == 1.0)
        assert np.shares_memory(ws.array("x0", (2, 5)), c)
        assert ws.array("start", (3,), np.int64).dtype == np.int64

    def test_weights_written_in_place_equal_the_formula_bitwise(self):
        t = np.concatenate([np.random.default_rng(8).random(1000),
                            [0.0, 1.0, 0.5, np.nextafter(1.0, 0.0), 1e-300]])
        want = np.stack([-t * (t - 1.0) * (t - 2.0) / 6.0, (t * t - 1.0) * (t - 2.0) / 2.0,
                         -t * (t + 1.0) * (t - 2.0) / 2.0, t * (t * t - 1.0) / 6.0], axis=-1)
        rows = np.empty((4, len(t)))
        for got in (_weights_by_point(t), _cubic_weights(t, rows).T):
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))
        assert _cubic_weights(t, rows) is rows


class TestInterpolate2D:
    @pytest.mark.parametrize("n_fields", [1, 3])
    def test_nodes_reproduce_nodal_values_exactly(self, n_fields):
        rng = np.random.default_rng(3)
        grid = SpatialGrid(d=2, half_width=4.0, n=32)
        values = rng.standard_normal((n_fields,) + grid.shape)
        shifted = grid.nodes() + 2.0 * grid.half_width * np.array([2.0, -3.0])
        for pts in (grid.nodes(), shifted):
            for clamp in (False, True):
                got = _cubic_read(grid, values, np.stack([pts] * n_fields), clamp)
                assert np.array_equal(got, values.reshape(n_fields, -1))

    def test_nodes_of_a_field_read_exactly(self):
        g = SpatialGrid(d=2, half_width=4.0, n=64)
        f = sample_profile(g, bump(2, center=0.3, radius=1.5))
        assert np.array_equal(interpolate(f, g.nodes()), f.values.ravel())

    @pytest.mark.parametrize("n_fields", [1, 3])
    def test_clamped_cubic_stays_in_stencil_range(self, n_fields):
        rng = np.random.default_rng(29)
        grid = SpatialGrid(d=2, half_width=4.0, n=32)
        # a step per field: the unclamped cubic overshoots next to the jump
        values = np.stack([(grid.nodes()[:, p % 2] > 0.5 * p).reshape(grid.shape)
                           for p in range(n_fields)]).astype(float)
        pts = rng.uniform(-4.0, 4.0, size=(n_fields, 3000, 2))
        free = _cubic_read(grid, values, pts, clamp=False)
        clamped = _cubic_read(grid, values, pts, clamp=True)
        _, stencil = _modulo_read(grid, values, pts, clamp=False)
        lo = stencil.min(axis=(1, 2)).reshape(pts.shape[:2])
        hi = stencil.max(axis=(1, 2)).reshape(pts.shape[:2])
        assert np.any((free < lo) | (free > hi))
        assert np.all((lo <= clamped) & (clamped <= hi))


class TestShiftField:
    def test_zero_shift_is_identity(self, bump512):
        out = shift_field(bump512, [0.0])
        assert np.array_equal(out.values, bump512.values)

    def test_lattice_shift_is_index_rotation(self):
        g = SpatialGrid(d=2, half_width=4.0, n=64)
        f = ScalarField.from_function(g, lambda p: np.exp(-np.sum(p * p, axis=-1)))
        out = shift_field(f, [g.h, 0.0])
        assert np.array_equal(out.values, np.roll(f.values, 1, axis=0))

    def test_lattice_shift_conserves_norm_exactly(self, bump512, grid512):
        out = shift_field(bump512, [3.0 * grid512.h])
        for p in (1.0, 2.0):
            assert lp_norm(out, p) == lp_norm(bump512, p)

    def test_off_lattice_shift_matches_resampled_profile(self, grid512):
        prof = bump(1, center=0.0, radius=1.0)
        f = sample_profile(grid512, prof)
        shifted = shift_field(f, [0.3])
        resampled = ScalarField.from_function(
            grid512, lambda p: prof.fn(p - np.array([0.3]))
        )
        tol = 1e-3 * lp_norm(f, 1.0)
        assert lp_norm(shifted - resampled, 1.0) <= tol
        assert abs(lp_norm(shifted, 1.0) - lp_norm(f, 1.0)) <= tol

    def test_shift_group_property(self, bump512):
        two_step = shift_field(shift_field(bump512, [0.2]), [0.17])
        one_step = shift_field(bump512, [0.37])
        assert lp_norm(two_step - one_step, 1.0) <= 1e-5

    def test_non_finite_shift_rejected(self, bump512):
        with pytest.raises(FieldValidationError):
            shift_field(bump512, [math.nan])


class TestFieldCsv:
    def test_round_trip_is_bit_exact(self, tmp_path, bump512):
        target = tmp_path / "field.csv"
        write_field_csv(bump512, target)
        back = read_field_csv(target)
        assert np.array_equal(back.values, bump512.values)
        assert back.grid == bump512.grid

    def test_header_row_names_all_columns(self, tmp_path, bump512):
        target = tmp_path / "field.csv"
        write_field_csv(bump512, target)
        lines = [l for l in target.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "index,x1,value"

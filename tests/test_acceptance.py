"""End-to-end acceptance suite: nine frozen-seed criteria, one verdict line each.

Each test prints ``criterion <n>: PASS/FAIL`` with its measured numbers
before asserting, so a full run always shows the scoreboard. Seeds are
frozen: 24 drives every one-dimensional pathwise criterion, 14 the
two-dimensional one, and 0 the test-function draws. All tolerances are
stated inline next to the assertion they guard.
"""

import math
import time

import numpy as np
import pytest

from _support import closed_form_translation, tree_digest
from stochtransport.drifts import (
    check_hypotheses,
    constant_drift,
    linear_drift,
    power_drift,
    stream_function_drift,
    zero_drift,
)
from stochtransport.experiments import ExperimentConfig, cmd_solve, estimate_order
from stochtransport.fields import ScalarField, SpatialGrid, lp_norm
from stochtransport.paths import (
    SamplePath,
    piecewise_linear_approx,
    sample_brownian,
    sup_distance,
)
from stochtransport.profiles import bump, sample_profile
from stochtransport.spde import (
    exact_solution,
    renormalize_check,
    smoothed_truncated_power,
    solve_spde,
)
from stochtransport.weakform import make_test_functions, weak_residual

SEED_1D = 24
SEED_2D = 14
PHI_SEED = 0

# coarse ladder levels and diffusive upwind tails legitimately graze the
# wrap-around band; the unit suites pin exactly where that happens
pytestmark = pytest.mark.filterwarnings(
    "ignore::stochtransport.errors.SupportMarginWarning")


def verdict(capsys, criterion: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_pure_noise_oracle(capsys):
    profile = bump(1, center=-0.5, radius=2.0)
    grid = SpatialGrid(1, 4.0, 512)
    u0 = sample_profile(grid, profile)
    u0_norm = lp_norm(u0, 1.0)
    b = zero_drift(1)
    path = sample_brownian(SEED_1D, 1.0, 2048, 1)
    start = time.perf_counter()
    (sol,) = solve_spde(b, [path], u0)
    runtime = time.perf_counter() - start
    err = max(
        lp_norm(u - exact_solution(b, path, profile, t, grid), 1.0)
        for t, u in zip(sol.times, sol.fields)
    )
    ok = err <= 1.0e-3 * u0_norm and runtime < 10.0
    verdict(capsys, 1, ok,
            f"sup L1 error {err:.3e} <= {1.0e-3 * u0_norm:.3e}, "
            f"runtime {runtime:.1f}s < 10s")
    assert err <= 1.0e-3 * u0_norm
    assert runtime < 10.0


def test_criterion_2_constant_drift_representation(capsys):
    profile = bump(1, center=-0.5, radius=2.0)
    b = constant_drift((1.0,))
    path = sample_brownian(SEED_1D, 1.0, 2048, 1)
    errors = {"semi_lagrangian": [], "upwind_fv": []}
    for n in (64, 128, 256, 512):
        grid = SpatialGrid(1, 4.0, n)
        u0 = sample_profile(grid, profile)
        for scheme, sink in errors.items():
            (sol,) = solve_spde(b, [path], u0, scheme=scheme)
            sink.append(max(
                lp_norm(u - exact_solution(b, path, profile, t, grid), 1.0)
                for t, u in zip(sol.times, sol.fields)
            ))
    u0_norm = lp_norm(sample_profile(SpatialGrid(1, 4.0, 512), profile), 1.0)
    sl_order = estimate_order(errors["semi_lagrangian"])[-1]
    up_order = estimate_order(errors["upwind_fv"])[-1]
    fine_err = errors["semi_lagrangian"][-1]
    ok = (fine_err <= 5.0e-3 * u0_norm and sl_order >= 2.5
          and 0.4 <= up_order <= 1.2)
    verdict(capsys, 2, ok,
            f"N=512 error {fine_err:.3e} <= {5.0e-3 * u0_norm:.3e}, "
            f"orders: semi-Lagrangian {sl_order:.2f} >= 2.5, "
            f"upwind {up_order:.2f} in [0.4, 1.2]")
    assert fine_err <= 5.0e-3 * u0_norm
    assert sl_order >= 2.5
    assert 0.4 <= up_order <= 1.2


def test_criterion_3_norm_conservation_divergence_free(capsys):
    profile = bump(2, radius=1.2)
    b = stream_function_drift(4.0, amplitude=1.0)
    grid = SpatialGrid(2, 4.0, 256)
    u0 = sample_profile(grid, profile)
    path = sample_brownian(SEED_2D, 1.0, 128, 2)
    (sol,) = solve_spde(b, [path], u0)
    drifts = {}
    for p in (1.0, 2.0):
        n0 = lp_norm(u0, p)
        drifts[p] = max(abs(lp_norm(u, p) - n0) for u in sol.fields) / n0
    ok = all(v <= 1.0e-2 for v in drifts.values())
    verdict(capsys, 3, ok,
            f"relative norm drift p=1: {drifts[1.0]:.2e}, "
            f"p=2: {drifts[2.0]:.2e}, both <= 1e-2")
    assert drifts[1.0] <= 1.0e-2
    assert drifts[2.0] <= 1.0e-2


def test_criterion_4_gronwall_envelope_and_decay(capsys):
    profile = bump(1, radius=1.2)
    b = linear_drift([[-1.0]])
    grid = SpatialGrid(1, 4.0, 512)
    u0 = sample_profile(grid, profile)
    path = sample_brownian(SEED_1D, 1.0, 1024, 1)
    (sol,) = solve_spde(b, [path], u0)
    beta = smoothed_truncated_power(M=10.0, p=1.0)
    report = renormalize_check(sol, beta, b)
    integrals = np.asarray(report.integrals)
    envelope = integrals[0] * np.exp(1.1 * np.asarray(report.times))
    env_ok = bool(np.all(integrals <= envelope * (1.0 + 1.0e-12)))
    n0 = lp_norm(u0, 1.0)
    decay_mismatch = max(
        abs(lp_norm(v, 1.0) - math.exp(-t) * n0) / (math.exp(-t) * n0)
        for t, v in zip(sol.times, sol.aux_fields)
    )
    ok = report.passed and env_ok and decay_mismatch <= 2.0e-2
    verdict(capsys, 4, ok,
            f"renormalized growth {report.status} (C={report.div_bound:.4f}), "
            f"exp(1.1t) envelope holds: {env_ok}, "
            f"contraction decay mismatch {decay_mismatch:.2e} <= 2e-2")
    assert report.passed
    assert env_ok
    assert decay_mismatch <= 2.0e-2


def test_criterion_5_weak_identity_refinement_and_rule(capsys):
    profile = bump(1, center=-0.5, radius=2.0)
    b = zero_drift(1)
    fine_path = sample_brownian(SEED_1D, 1.0, 4096, 1)
    coarse_path = SamplePath(kind="brownian", horizon=fine_path.horizon,
                             values=fine_path.values[::2], seed=SEED_1D)
    grid_coarse = SpatialGrid(1, 4.0, 512)
    grid_fine = SpatialGrid(1, 4.0, 1024)
    phis = make_test_functions(grid_coarse, 10, PHI_SEED)
    sol_coarse = closed_form_translation(grid_coarse, profile, coarse_path, 2048)
    sol_fine = closed_form_translation(grid_fine, profile, fine_path, 4096)
    coarse = weak_residual(sol_coarse, b, 1.0, phis=phis).max_normalized
    fine = weak_residual(sol_fine, b, 1.0, phis=phis).max_normalized
    ito = weak_residual(sol_fine, b, 1.0, phis=phis, rule="ito").max_normalized
    ok = coarse <= 1.0e-2 and coarse >= 3.0 * fine and ito >= 5.0 * fine
    verdict(capsys, 5, ok,
            f"normalized residual {coarse:.3e} <= 1e-2, refinement ratio "
            f"{coarse / fine:.2f} >= 3, left-point/midpoint ratio "
            f"{ito / fine:.0f} >= 5")
    assert coarse <= 1.0e-2
    assert coarse >= 3.0 * fine
    assert ito >= 5.0 * fine


def test_criterion_6_cross_scheme_uniqueness_evidence(capsys):
    profile = bump(1, radius=1.2)
    path = sample_brownian(SEED_1D, 1.0, 2048, 1)
    outcomes = {}
    oracle_margin = None
    for label, b in (("constant", constant_drift((1.0,))),
                     ("rough", power_drift(0.75, scale=-1.0))):
        discs = []
        oracle_sums = []
        for n in (128, 256, 512, 1024):
            grid = SpatialGrid(1, 4.0, n)
            u0 = sample_profile(grid, profile)
            sols = {
                scheme: solve_spde(b, [path], u0, scheme=scheme)[0]
                for scheme in ("semi_lagrangian", "upwind_fv")
            }
            discs.append(max(
                lp_norm(ua - ub, 1.0)
                for ua, ub in zip(sols["semi_lagrangian"].fields,
                                  sols["upwind_fv"].fields)
            ))
            if b.constant_value is not None:
                total = 0.0
                for sol in sols.values():
                    total += max(
                        lp_norm(u - exact_solution(b, path, profile, t, grid), 1.0)
                        for t, u in zip(sol.times, sol.fields)
                    )
                oracle_sums.append(total)
        outcomes[label] = all(a > b_ for a, b_ in zip(discs, discs[1:]))
        if oracle_sums:
            oracle_margin = (discs[-1], 2.0 * oracle_sums[-1])
    oracle_ok = oracle_margin[0] <= oracle_margin[1]
    ok = outcomes["constant"] and outcomes["rough"] and oracle_ok
    verdict(capsys, 6, ok,
            f"discrepancy ladders monotone (constant: {outcomes['constant']}, "
            f"rough alpha=0.75: {outcomes['rough']}), final "
            f"{oracle_margin[0]:.3e} <= 2x oracle sum {oracle_margin[1]:.3e}")
    assert outcomes["constant"]
    assert outcomes["rough"]
    assert oracle_ok


def test_criterion_7_path_approximation_convergence(capsys):
    profile = bump(1, radius=1.2)
    levels = (4, 8, 16, 32, 64, 128, 256)
    path = sample_brownian(SEED_1D, 1.0, 2048, 1)

    b = linear_drift([[-1.0]])
    grid = SpatialGrid(1, 4.0, 256)
    u0 = sample_profile(grid, profile)
    u0_norm = lp_norm(u0, 2.0)
    (ref,) = solve_spde(b, [path], u0)
    errs = []
    for n in levels:
        approx = piecewise_linear_approx(path, n)
        (sol,) = solve_spde(b, [approx], u0)
        errs.append(max(lp_norm(ua - ub, 2.0)
                        for ua, ub in zip(sol.fields, ref.fields)))
    (full,) = solve_spde(b, [piecewise_linear_approx(path, 2048)], u0)
    exact_tie = max(float(np.max(np.abs(ua.values - ub.values)))
                    for ua, ub in zip(full.fields, ref.fields))
    tail = errs[-4:]
    monotone = all(a >= b_ for a, b_ in zip(tail, tail[1:]))
    small = errs[-1] <= 0.05 * u0_norm

    # zero-drift branch: the solver reduces to sub-grid shifts of u0, so
    # the Minkowski bound plus two shift tolerances must dominate
    bz = zero_drift(1)
    grid_z = SpatialGrid(1, 4.0, 512)
    u0_z = sample_profile(grid_z, profile)
    grad_mag = np.sqrt(np.sum(
        np.asarray(profile.gradient(grid_z.nodes())) ** 2, axis=-1))
    grad_norm = lp_norm(ScalarField(grid_z, grad_mag.reshape(grid_z.shape)), 2.0)
    shift_tol = 1.0e-3 * lp_norm(u0_z, 2.0)
    (ref_z,) = solve_spde(bz, [path], u0_z)
    bound_ok = True
    for n in levels:
        approx = piecewise_linear_approx(path, n)
        (sol,) = solve_spde(bz, [approx], u0_z)
        err_n = max(lp_norm(ua - ub, 2.0)
                    for ua, ub in zip(sol.fields, ref_z.fields))
        bound_n = grad_norm * sup_distance(approx, path) + 2.0 * shift_tol
        bound_ok = bound_ok and err_n <= bound_n

    ok = monotone and small and exact_tie == 0.0 and bound_ok
    verdict(capsys, 7, ok,
            f"errors non-increasing over last 4 levels: {monotone}, "
            f"E_256 {errs[-1]:.3e} <= {0.05 * u0_norm:.3e}, full-mesh tie "
            f"{exact_tie}, zero-drift bound holds at every level: {bound_ok}")
    assert monotone
    assert small
    assert exact_tie == 0.0
    assert bound_ok


def test_criterion_8_hypothesis_classification(capsys):
    box1 = [(-4.0, 4.0)]
    checks = {
        "constant": check_hypotheses(constant_drift((1.0,)), 2.0, box1, 1.0),
        "stream": check_hypotheses(stream_function_drift(4.0, amplitude=1.0),
                                   2.0, [(-4.0, 4.0)] * 2, 1.0),
        "power025": check_hypotheses(power_drift(0.25), 2.0, [(-1.0, 1.0)], 1.0),
        "power075": check_hypotheses(power_drift(0.75), 2.0, [(-1.0, 1.0)], 1.0),
    }
    const_ok = checks["constant"].all_ok and checks["constant"].div_bound == 0.0
    stream_ok = checks["stream"].all_ok and checks["stream"].div_bound <= 1.0e-8
    split_ok = (not checks["power025"].w1q_loc_ok) and checks["power075"].w1q_loc_ok
    stability_ok = True
    for report in checks.values():
        for key, passed in (("div", report.div_ok), ("lq", report.lq_loc_ok),
                            ("w1q", report.w1q_loc_ok),
                            ("growth", report.growth_ok)):
            if passed:
                stability_ok = stability_ok and report.rel_changes[key] <= 0.05
    ok = const_ok and stream_ok and split_ok and stability_ok
    verdict(capsys, 8, ok,
            f"constant all-pass C={checks['constant'].div_bound}, stream "
            f"all-pass C={checks['stream'].div_bound:.2e} <= 1e-8, "
            f"alpha=0.25 fails W1q while alpha=0.75 passes: {split_ok}, "
            f"pass-verdict evidence stable within 5%: {stability_ok}")
    assert const_ok
    assert stream_ok
    assert split_ok
    assert stability_ok


def test_criterion_9_statistics_and_determinism(capsys, tmp_path):
    steps = 10_000
    dt = 1.0 / steps
    inside = 0
    for seed in range(200):
        path = sample_brownian(seed, 1.0, steps, 1)
        normalized = np.diff(path.values[:, 0]) / math.sqrt(dt)
        if 0.96 <= float(np.var(normalized, ddof=1)) <= 1.04:
            inside += 1
    band_ok = inside >= 190

    cfg = ExperimentConfig.from_dict({
        "d": 1, "L": 4.0, "N": 64, "T": 0.25, "dt": 0.25 / 16,
        "scheme": "semi_lagrangian", "p": 1.0, "seed": 3,
        "drift": {"id": "zero"},
        "u0": {"id": "bump", "center": 0.0, "radius": 1.0},
    })
    first, second = tmp_path / "first", tmp_path / "second"
    cmd_solve(cfg, out_dir=first)
    cmd_solve(cfg, out_dir=second)
    trees_ok = tree_digest(first) == tree_digest(second)

    ok = band_ok and trees_ok
    verdict(capsys, 9, ok,
            f"increment variance in [0.96, 1.04] for {inside}/200 seeds "
            f"(need >= 190), repeated run trees byte-identical: {trees_ok}")
    assert band_ok
    assert trees_ok

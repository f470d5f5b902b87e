"""Spatial refinement study for both advection schemes on one noisy run.

A constant drift admits the closed form u(t, x) = u0(x - c t - W(t)),
so the discretization error of each scheme is directly measurable. The
cubic semi-Lagrangian march converges well above second order on smooth
data; the first-order upwind flux stays near first order.
"""

import warnings

import stochtransport as st


def main() -> None:
    # coarse upwind levels smear a sub-1e-6 tail into the wrap-around
    # band; the study reads absolute errors, so the flag adds nothing
    warnings.simplefilter("ignore", st.SupportMarginWarning)
    profile = st.bump(1, center=-0.5, radius=2.0)
    b = st.constant_drift((1.0,))
    path = st.sample_brownian(24, 1.0, 2048, 1)

    errors = {"semi_lagrangian": [], "upwind_fv": []}
    ladder = (64, 128, 256, 512)
    for n in ladder:
        grid = st.SpatialGrid(1, 4.0, n)
        u0 = st.sample_profile(grid, profile)
        for scheme, sink in errors.items():
            sol = st.solve_spde(b, path, u0, scheme=scheme)
            sink.append(max(
                st.lp_norm(u - st.exact_solution(b, path, profile, t, grid), 1.0)
                for t, u in zip(sol.times, sol.fields)))

    for scheme, errs in errors.items():
        orders = st.estimate_order(errs)
        print(scheme)
        print(f"  {'N':>5} {'sup-t L1 error':>15} {'order':>7}")
        for i, (n, e) in enumerate(zip(ladder, errs)):
            tag = "" if i == 0 else f"{orders[i - 1]:7.2f}"
            print(f"  {n:>5} {e:15.3e} {tag:>7}")


if __name__ == "__main__":
    main()

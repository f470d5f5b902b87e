"""Driving the solver with piecewise-linear interpolants of the path.

The reference run uses the sampled Brownian path itself; each study
level replaces it with a bounded-variation interpolant on a coarser
knot set. The sup-over-snapshots Lp gap shrinks as the knot set refines
and vanishes identically once the interpolant matches the full mesh.
"""

import stochtransport as st


def main() -> None:
    grid = st.SpatialGrid(1, 4.0, 256)
    u0 = st.sample_profile(grid, st.bump(1, radius=1.2))
    b = st.linear_drift([[-1.0]])
    path = st.sample_brownian(24, 1.0, 2048, 1)
    levels = (4, 8, 16, 32, 64, 128, 256, 2048)
    approxes = [st.piecewise_linear_approx(path, level) for level in levels]
    # the reference and every level march together, as one batch
    ref, *sols = st.solve_spde(b, [path] + approxes, u0)
    u0_norm = st.lp_norm(u0, 2.0)

    print(f"{'knots':>6} {'sup |B_n - B|':>14} {'sup-t L2 error':>15}")
    for level, approx, sol in zip(levels, approxes, sols):
        err = max(st.lp_norm(ua - ub, 2.0)
                  for ua, ub in zip(sol.fields, ref.fields))
        dist = st.sup_distance(approx, path)
        print(f"{level:>6} {dist:14.3e} {err:15.3e}")
    print(f"\nreference |u0|_2 = {u0_norm:.3f}; the full-mesh level "
          "reproduces the Brownian run bit for bit")


if __name__ == "__main__":
    main()

"""Pure-noise transport run compared against its analytic translation.

With no drift the solver reduces to translating the initial profile
along the sampled Brownian path, u(t, x) = u0(x - W(t)). This script
solves the full pipeline and measures the L1 gap to the closed form at
every snapshot, then shows that the L1 norm is conserved exactly up to
interpolation error.
"""

import numpy as np

import stochtransport as st


def main() -> None:
    grid = st.SpatialGrid(1, 4.0, 512)
    profile = st.bump(1, center=-0.5, radius=2.0)
    u0 = st.sample_profile(grid, profile)
    u0_norm = st.lp_norm(u0, 1.0)
    b = st.zero_drift(1)
    path = st.sample_brownian(24, 1.0, 2048, 1)
    print(f"driving path: {path.n_steps} steps, max |W| = "
          f"{float(np.max(np.abs(path.values))):.3f}")

    (sol,) = st.solve_spde(b, [path], u0)
    print(f"{'t':>6} {'L1 error vs u0(x - W(t))':>26} {'norm drift':>12}")
    for t, u in zip(sol.times, sol.fields):
        truth = st.exact_solution(b, path, profile, t, grid)
        err = st.lp_norm(u - truth, 1.0)
        drift = abs(st.lp_norm(u, 1.0) - u0_norm)
        print(f"{t:6.3f} {err:26.3e} {drift:12.3e}")

    worst = max(st.lp_norm(u - st.exact_solution(b, path, profile, t, grid), 1.0)
                for t, u in zip(sol.times, sol.fields))
    print(f"\nsup-over-snapshots L1 error: {worst:.3e} "
          f"({worst / u0_norm:.2e} relative)")


if __name__ == "__main__":
    main()

"""Renormalized-growth audit for a compressing drift.

For b(x) = -x the flow contracts space, the mass of the solution u
decays like exp(-t), and any smooth truncation beta of the absolute
value must keep its integral under the Gronwall envelope
exp((C + slack) t) with C the time-integrated sup of |div b| (here C = 1).
"""

import math

import stochtransport as st


def main() -> None:
    grid = st.SpatialGrid(1, 4.0, 512)
    u0 = st.sample_profile(grid, st.bump(1, radius=1.2))
    b = st.linear_drift([[-1.0]])
    path = st.sample_brownian(24, 1.0, 1024, 1)
    (sol,) = st.solve_spde(b, [path], u0)

    beta = st.smoothed_truncated_power(M=10.0, p=1.0)
    report = st.renormalize_check(sol, beta, b)
    print(f"divergence bound C = {report.div_bound:.6f}, "
          f"slack = {report.slack:.4f}, status = {report.status}")
    print(f"{'t':>6} {'int beta(u)':>12} {'envelope':>12} {'exp(-t) mass':>13}")
    n0 = st.lp_norm(u0, 1.0)
    for t, integral, env, u in zip(report.times, report.integrals,
                                   report.envelope, sol.fields):
        print(f"{t:6.3f} {integral:12.6f} {env:12.6f} "
              f"{st.lp_norm(u, 1.0) / (math.exp(-t) * n0):13.6f}")
    print("\nlast column: measured mass of u over the exact "
          "exp(-t) decay (1 means perfect agreement)")


if __name__ == "__main__":
    main()

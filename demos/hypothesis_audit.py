"""Integrability audit of the drift catalog.

For each field the checker estimates the Gronwall divergence bound, the
local Lq and W1q evidence integrals, and the linear-growth quotient,
doubling the sample count to expose quantities that are secretly
infinite: a divergent integral keeps growing between passes and is
reported unstable rather than assigned a misleading finite value.
"""

import stochtransport as st


def main() -> None:
    box1 = [(-4.0, 4.0)]
    cases = (
        ("constant c=1", st.constant_drift((1.0,)), box1),
        ("linear b=-x", st.linear_drift([[-1.0]]), box1),
        ("stream function", st.stream_function_drift(4.0, amplitude=1.0),
         [(-4.0, 4.0)] * 2),
        ("power alpha=0.25", st.power_drift(0.25), [(-1.0, 1.0)]),
        ("power alpha=0.75", st.power_drift(0.75), [(-1.0, 1.0)]),
    )
    for label, b, window in cases:
        r = st.check_hypotheses(b, 2.0, window, 1.0)
        print(f"{label} (q=2, window {window})")
        print(f"  div bound C = {r.div_bound:.6g} (ok={r.div_ok}, "
              f"analytic Jacobian: {r.divergence_is_exact})")
        print(f"  Lq_loc evidence {r.lq_evidence:.6g} (ok={r.lq_loc_ok})")
        print(f"  W1q_loc evidence {r.w1q_evidence:.6g} (ok={r.w1q_loc_ok})")
        print(f"  growth quotient {r.growth_evidence:.6g} (ok={r.growth_ok})")
        print(f"  verdict: {'admissible' if r.all_ok else 'not admissible'}")


if __name__ == "__main__":
    main()

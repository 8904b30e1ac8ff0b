"""Gallery of exactly solvable work-optimal expansions.

For the work cost the variational problem closes in elementary functions,
so every quantity below has a formula to check against. The script sweeps
the tradeoff weight, prints duration and work next to their closed forms,
and verifies two structural facts: the excess work above the quasistatic
value times the duration is a constant of the family, and the synthesized
quantum schedule satisfies the wavepacket width equation with zero
acceleration (the widths travel in a straight line).
"""

import numpy as np

from swifttrap import PhysConsts, analytic_work_optimal, work_from_schedule

ROOT2 = np.sqrt(2.0)


def main():
    c = PhysConsts()
    s_i, s_f = 1.0, 2.0
    w_qs = -0.5 * c.D * c.gamma * np.log(s_f / s_i)  # quasistatic limit

    print(f"expansion {s_i} -> {s_f}, quasistatic work {w_qs:.6f}")
    print(f"{'lam':>7}  {'duration':>9}  {'closed':>9}  "
          f"{'work':>10}  {'closed':>10}  {'(W-Wqs)*T':>10}")

    invariant_target = 0.5 * c.gamma * (ROOT2 - 1.0) ** 2
    for lam in (0.3, 1.0, 3.0, 10.0, 30.0):
        _, emitted = analytic_work_optimal(lam, s_i, s_f, c)
        dur_cf = np.sqrt(c.gamma * lam) * (np.sqrt(s_f) - np.sqrt(s_i))
        w = work_from_schedule(emitted.classical, emitted.s)
        w_cf = w_qs + 0.5 * (ROOT2 - 1.0) * np.sqrt(c.gamma / lam)
        inv = (w - w_qs) * emitted.duration
        print(f"{lam:7.1f}  {emitted.duration:9.5f}  {dur_cf:9.5f}  "
              f"{w:10.6f}  {w_cf:10.6f}  {inv:10.6f}")

    print(f"\nfamily invariant (W - W_qs) * T, closed form: "
          f"{invariant_target:.6f}")

    # along the optimum sigma = sqrt(2 s) is linear in time, so the width
    # equation sigma'' = -kappa sigma / m + 4 D^2 / sigma^3 degenerates to
    # an algebraic balance between its two forces
    _, emitted = analytic_work_optimal(1.0, s_i, s_f, c)
    sigma = np.sqrt(2.0 * emitted.s)
    resid = np.max(np.abs(emitted.quantum.values * sigma / c.m - 4.0 * c.D**2 / sigma**3))
    t = emitted.classical.t_nodes
    lin_dev = np.max(np.abs(sigma - (sigma[0] + (sigma[-1] - sigma[0]) * t / t[-1])))
    print(f"force balance residual:        {resid:.2e}")
    print(f"sigma(t) off its chord:        {lin_dev:.2e}  "
          f"(straight-line transport)")


if __name__ == "__main__":
    main()

"""Where does the variational schedule beat the polynomial ramp?

Sweeps the smoothing weight for both running costs at a fixed tradeoff
weight, matches each solved schedule against a polynomial interpolation
ramp of identical duration and endpoints, and tabulates which side wins.
Short protocols favour the variational schedule; as smoothing pushes the
duration up the ramp catches up and eventually wins on the phase cost.
"""

import numpy as np

from swifttrap import (
    LAGRANGIANS,
    ConvergenceError,
    OptimizationProblem,
    PhysConsts,
    chen_polynomial,
    integrate_ermakov,
    solve_bvp,
    to_time_domain,
)

LAM = 10.0
MU_GRID = (0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1.0)


def main():
    c = PhysConsts()
    for cost in ("energy", "phase"):
        print(f"== cost = {cost}, tradeoff weight {LAM} ==")
        print(f"   {'mu':>7}  {'duration':>9}  {'f(solved)':>10}  "
              f"{'f(ramp)':>10}  winner")
        rows = []
        for mu in MU_GRID:
            prob = OptimizationProblem(cost=cost, lam=LAM, mu=mu,
                                       s_i=1.0, s_f=2.0, n_grid=2001)
            try:
                res = solve_bvp(prob, c)
            except ConvergenceError:
                print(f"   {mu:7.3f}  (no solution: gap closes at this smoothing)")
                continue
            td = to_time_domain(res.protocol, c)
            dur = float(td.quantum.t_nodes[-1])
            run = integrate_ermakov(td.quantum, 1.0, c, dt=1e-4)

            k0 = float(td.quantum.values[0])
            k1 = float(td.quantum.values[-1])
            ramp, _ = chen_polynomial(k0, k1, dur, c)
            run_ramp = integrate_ermakov(ramp, 1.0, c, dt=1e-4)

            f_solved = LAGRANGIANS[cost].from_run(run)
            f_ramp = LAGRANGIANS[cost].from_run(run_ramp)
            rows.append((dur, f_solved, f_ramp))
            who = "solved" if f_solved < f_ramp else "ramp"
            print(f"   {mu:7.3f}  {dur:9.4f}  {f_solved:10.5f}  "
                  f"{f_ramp:10.5f}  {who}")

        rows.sort()
        flips = sum(1 for i in range(1, len(rows))
                    if (rows[i][1] < rows[i][2]) != (rows[i - 1][1] < rows[i - 1][2]))
        print(f"   ordering by duration shows {flips} lead change(s)\n")


if __name__ == "__main__":
    main()

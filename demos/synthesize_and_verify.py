"""End-to-end pipeline: synthesize a fast stiffness schedule and verify it twice.

Solves the smoothed energy-cost problem on the width grid, emits the paired
time-domain schedules, then checks the quantum schedule by direct wavepacket
integration and by a stochastic ensemble against the Born-rule variance.
"""

import time

import numpy as np

from swifttrap import (
    McConfig,
    OptimizationProblem,
    PhysConsts,
    equilibrium_kappa,
    integrate_ermakov,
    j_total,
    simulate_nelson,
    solve_bvp,
    to_time_domain,
    verify_born,
)


def main():
    c = PhysConsts()
    prob = OptimizationProblem(cost="energy", lam=1.0, mu=0.5,
                               s_i=1.0, s_f=2.0, n_grid=2001)

    print("== 1. variational solve on the width grid ==")
    t0 = time.perf_counter()
    res = solve_bvp(prob, c)
    print(f"   converged in {res.iterations} Newton steps "
          f"({time.perf_counter() - t0:.2f} s), residual {res.residual:.2e}")

    rep = j_total(res.protocol, prob, c)
    print(f"   duration        {rep.duration:.6f}")
    print(f"   f_energy        {rep.f_energy:.6f}")
    print(f"   work            {rep.work:.6f}")
    print(f"   total objective {rep.j_total:.6f}")

    print("== 2. emit time-domain schedule pair ==")
    td = to_time_domain(res.protocol, c)
    dur = float(td.classical.t_nodes[-1])
    k0, k1 = float(td.quantum.values[0]), float(td.quantum.values[-1])
    print(f"   span [0, {dur:.6f}]")
    print(f"   quantum stiffness  {k0:.6f} -> {k1:.6f}")
    print(f"   equilibrium values {equilibrium_kappa(prob.s_i, c):.6f} -> "
          f"{equilibrium_kappa(prob.s_f, c):.6f}")

    print("== 3. independent check: wavepacket width equation ==")
    run = integrate_ermakov(td.quantum, prob.s_i, c, dt=1e-4)
    err_s = abs(run.s[-1] - prob.s_f)
    err_a = abs(run.alpha[-1])
    print(f"   landing width error {err_s:.2e}  (target {prob.s_f})")
    print(f"   residual phase rate {err_a:.2e}  (want 0: stationary end)")
    ok_ermakov = err_s <= 1e-3 and err_a <= 1e-3

    print("== 4. independent check: stochastic ensemble ==")
    ckpts = np.linspace(0.0, dur, 9)[1:]
    cfg = McConfig(40_000, 7, ckpts, dt=1e-4)
    t0 = time.perf_counter()
    stats = simulate_nelson(run, cfg, c)
    report = verify_born(stats, np.interp(ckpts, run.t, run.s))
    print(f"   {cfg.n_particles} walkers, {len(ckpts)} checkpoints "
          f"({time.perf_counter() - t0:.1f} s)")
    print(f"   worst |z| {report.worst_abs_z:.2f} "
          f"(threshold {report.threshold:.1f})")
    for t_c, z in zip(stats.times, report.z_variance):
        print(f"      t = {t_c:6.3f}   z(variance) = {z:+.2f}")

    verdict = "PASS" if (ok_ermakov and report.passed) else "FAIL"
    print(f"== verdict: {verdict} ==")


if __name__ == "__main__":
    main()

"""End-to-end checks of the package's stated guarantees.

Each test pins one externally stated target: closed-form identities, the
reference durations of the solved family, the two independent verifiers
(wavepacket integration and stochastic ensembles), crossover against the
polynomial-ramp baseline, step-response settling, and a cross-cutting
invariant suite (consistency, refinement, normalization, determinism).

Two checks are currently red and are kept at their stated tolerances
rather than loosened; neither can be settled from what the repository
holds, since the definitions behind the stated values are not in it:

* the six reference durations: the converged solves of the implemented
  stationarity equations land 13-19 percent short of the quoted values
  (energy -13.0/-13.6/-14.1, phase -19.2/-16.2/-15.4 percent).  The
  printed equations are stationary for 2*duration + lam*F + mu*G while
  j_total reports duration + lam*F + mu*G, but solving for either
  convention misses the references, with opposite signs for the two
  costs, so no single convention explains the gap;
* the phase-cost crossover window: the ramp wins at durations 0.572,
  0.830 and 1.189 (mu = 0.03, 0.1, 0.3).  The time-domain phase cost
  matches the s-domain one to 1e-6, and the reversals persist under
  the other convention, so this is neither an emission nor a resolution
  error; the mu-smoothed family minimizes J rather than F at fixed
  duration, so it need not beat a duration-matched ramp.
"""

import os
import time
from contextlib import contextmanager

import numpy as np
import pytest

from swifttrap import (
    McConfig,
    OptimizationProblem,
    PhysConsts,
    SGridProtocol,
    TimeProtocol,
    analytic_work_optimal,
    chen_polynomial,
    duration,
    equilibrium_kappa,
    equilibrium_kbar,
    evolve_variance,
    f_alpha,
    f_alpha_from_run,
    f_energy,
    f_energy_from_run,
    integrate_ermakov,
    j_total,
    quantum_from_classical_s,
    quantum_from_classical_t,
    simulate_classical,
    simulate_nelson,
    solve_bvp,
    step_protocol,
    to_time_domain,
    variance_rate,
    verify_born,
    wigner_at,
    work_classical,
    work_from_schedule,
)
from swifttrap.cli import main as cli_main

from conftest import REFERENCE_DURATIONS

ROOT2 = np.sqrt(2.0)


@contextmanager
def _timed(clock, name):
    t0 = time.perf_counter()
    try:
        yield
    finally:
        clock[name] = time.perf_counter() - t0


# ---------------------------------------------------------------------------
# 1. equilibrium identities at machine precision, under one second
# ---------------------------------------------------------------------------

def test_equilibrium_identities(consts):
    t0 = time.perf_counter()
    c = consts
    rng = np.random.default_rng(0)
    s = 10.0 ** rng.uniform(-2.0, 2.0, 100)

    kb = equilibrium_kbar(s, c)
    kp = equilibrium_kappa(s, c)
    assert np.max(np.abs(kb * s - c.D * c.gamma)) <= 1e-13
    assert np.max(np.abs(kp * s**2 - c.m * c.D**2)) <= 1e-13
    # the two equilibrium branches are images of each other under the map;
    # kappa spans ~1e-4..5e3 over this s range, so compare in relative form
    assert np.max(np.abs(kp / ((c.m / c.gamma**2) * kb**2) - 1.0)) <= 1e-13
    assert np.max(np.abs(variance_rate(s, kb, c))) <= 1e-13

    # discretized map on the equilibrium branch collapses to m D^2 / s^2
    sg = np.linspace(1.0, 2.0, 301)
    p_eq = SGridProtocol(sg, equilibrium_kbar(sg, c))
    kappa = quantum_from_classical_s(p_eq, c)
    assert np.max(np.abs(kappa * sg**2 / (c.m * c.D**2) - 1.0)) <= 1e-12

    # D is derived from hbar/(2m), never passed in
    assert c.D == c.hbar / (2 * c.m)
    with pytest.raises(TypeError):
        PhysConsts(D=1.5)

    assert time.perf_counter() - t0 < 1.0


# ---------------------------------------------------------------------------
# 2. minimum-work closed form
# ---------------------------------------------------------------------------

def test_work_optimal_closed_form(consts):
    c = consts
    p, emitted = analytic_work_optimal(1.0, 1.0, 2.0, c)
    assert abs(emitted.duration - (ROOT2 - 1.0)) <= 1e-6
    # quantum image collapses to the instantaneous ground-state stiffness
    assert np.max(np.abs(emitted.kappa_nodes - c.m * c.D**2 / p.s_nodes**2)) <= 1e-10
    # in rescaled time the quantum schedule does not depend on lam
    lams = (0.3, 1.0, 7.7)
    kappas = [analytic_work_optimal(L, 1.0, 2.0, c)[1].quantum.values for L in lams]
    for other in kappas[1:]:
        assert np.max(np.abs(other - kappas[0])) <= 1e-8
    for L in lams:
        emitted_L = analytic_work_optimal(L, 1.0, 2.0, c)[1]
        assert abs(emitted_L.duration - np.sqrt(c.gamma * L) * (ROOT2 - 1.0)) <= 1e-12


# ---------------------------------------------------------------------------
# 3. reference durations of the solved family (currently red)
# ---------------------------------------------------------------------------

def test_reference_durations_reproduced(cache):
    rows = []
    for (cost, mu), target in REFERENCE_DURATIONS.items():
        res = cache.bvp(cost, mu)
        k = cache._key(cost, 1.0, mu, 1.0, 2.0, 2001)
        assert cache.solve_seconds[k] < 2.0, f"{cost} mu={mu}: solve too slow"
        dur = duration(res.protocol, cache.c)
        rows.append((cost, mu, dur, target, (dur - target) / target))
    table = "\n".join(
        f"  {cost:6s} mu={mu:<4g} solved={dur:.6f} stated={target:<5g} rel={rel:+.1%}"
        for cost, mu, dur, target, rel in rows)
    bad = [r for r in rows if abs(r[4]) > 0.05]
    # the converged solves of the implemented stationarity equations land
    # 13-19 percent below the stated values for every case; the definitions
    # behind those values are not in the repository, so they are asserted
    # as stated, not refit
    assert not bad, (
        "solved durations outside the stated 5 percent window:\n" + table)


# ---------------------------------------------------------------------------
# 4. first verifier: wavepacket integration lands the solved schedules
# ---------------------------------------------------------------------------

def test_wavepacket_round_trip_lands(cache):
    for (cost, mu) in REFERENCE_DURATIONS:
        run = cache.ermakov(cost, mu)
        err_s = abs(float(run.s[-1]) - 2.0)
        err_sdot = abs(float(run.sdot[-1]))
        assert err_s <= 1e-3, f"{cost} mu={mu}: |s(T) - 2| = {err_s:.2e}"
        assert err_sdot <= 1e-3, f"{cost} mu={mu}: |sdot(T)| = {err_sdot:.2e}"


@pytest.mark.parametrize("cost", ["energy", "phase", "work"])
def test_compression_round_trip_lands(cache, cost):
    # 2 -> 1 lands as the expansions do: |s(T) - 1| and |sdot(T)| measured
    # at 2.4e-6 to 3.9e-6, the level of the 1 -> 2 twins
    run = cache.ermakov(cost, 0.5, s_i=2.0, s_f=1.0)
    assert abs(float(run.s[-1]) - 1.0) <= 1e-5
    assert abs(float(run.sdot[-1])) <= 1e-5


# ---------------------------------------------------------------------------
# 5. second verifier: stochastic ensemble obeys the Born statistics
# ---------------------------------------------------------------------------

def test_stochastic_ensemble_matches_born(cache):
    c = cache.c
    td = cache.timedomain("energy", 0.1)
    run = cache.ermakov("energy", 0.1)
    t0f, t1f = td.quantum.span
    ckpts = np.linspace(t0f, t1f, 21)[1:]

    t0 = time.perf_counter()
    cfg = McConfig(n_particles=100_000, seed=20260823, checkpoints=ckpts, dt=1e-4)
    stats = simulate_nelson(run, cfg, c)
    report = verify_born(stats, np.interp(ckpts, run.t, run.s))

    cfg_twin = McConfig(n_particles=100_000, seed=20260824, checkpoints=ckpts, dt=1e-4)
    twin = simulate_classical(td.classical, 1.0, cfg_twin, c)
    elapsed = time.perf_counter() - t0

    assert report.passed, f"worst |z| = {report.worst_abs_z:.2f} exceeds 3"
    joint = (np.abs(stats.variance - twin.variance)
             / np.hypot(stats.stderr_variance, twin.stderr_variance))
    assert np.max(joint) <= 3.0, f"twin ensembles disagree: z = {np.max(joint):.2f}"
    assert elapsed < 60.0, f"ensemble verification took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 6. crossover against the polynomial-ramp baseline at lam = 10
# ---------------------------------------------------------------------------

def _crossover_rows(cache, cost, mus, f_of):
    c = cache.c
    ki, kf = equilibrium_kappa(1.0, c), equilibrium_kappa(2.0, c)
    rows = []
    for mu in mus:
        td = cache.timedomain(cost, mu, lam=10.0)
        run_opt = cache.ermakov(cost, mu, lam=10.0)
        ramp, _ = chen_polynomial(ki, kf, td.duration, c)
        run_ramp = integrate_ermakov(ramp, 1.0, c)
        rows.append((td.duration, mu, f_of(run_opt), f_of(run_ramp)))
    rows.sort()
    return rows


def test_crossover_energy_cost(cache):
    rows = _crossover_rows(cache, "energy",
                           (0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1.0, 2.5),
                           f_energy_from_run)
    for dur, mu, f_opt, f_ramp in rows[:3]:
        assert f_opt < f_ramp, (
            f"short schedule (dt={dur:.3f}, mu={mu}) should beat the ramp: "
            f"{f_opt:.6f} vs {f_ramp:.6f}")
    assert any(f_opt > f_ramp for _, _, f_opt, f_ramp in rows[3:]), (
        "expected the ramp to win somewhere at longer durations")


def test_crossover_phase_cost(cache):
    rows = _crossover_rows(cache, "phase",
                           (0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1.0, 2.5),
                           f_alpha_from_run)
    window = [r for r in rows if r[0] < 1.2]
    assert window, "no solved schedule shorter than the stated window"
    reversed_ = [r for r in window if not r[2] < r[3]]
    table = "\n".join(
        f"  dt={dur:.3f} mu={mu:<6g} F_opt={fo:.6f} F_ramp={fr:.6f}"
        for dur, mu, fo, fr in reversed_)
    # stated guarantee: every schedule shorter than 1.2 beats the ramp on
    # the phase cost; measured reversals at mu = 0.03, 0.1 and 0.3 sit
    # inside that window (see the module docstring)
    assert not reversed_, (
        "phase-cost reversals inside the stated duration window:\n" + table)


# ---------------------------------------------------------------------------
# 7. step response of the variance flow
# ---------------------------------------------------------------------------

def _settling_time(traj, s_i, s_f):
    band = 0.005 * abs(s_f - s_i)
    t, s = traj.t, traj.s
    out_i = np.where(np.abs(s - s_i) > band)[0]
    not_in_f = np.where(np.abs(s - s_f) > band)[0]
    t_depart = t[out_i[0] - 1] if out_i.size and out_i[0] > 0 else t[0]
    t_arrive = (t[not_in_f[-1] + 1]
                if not_in_f.size and not_in_f[-1] + 1 < t.size else t[-1])
    return t_arrive - t_depart


def _direction_changes(values):
    rng = values.max() - values.min()
    dk = np.diff(values)
    sig = dk[np.abs(dk) > 1e-6 * rng]
    return int(np.sum(np.diff(np.sign(sig)) != 0))


@pytest.mark.parametrize("eps,span,target,quantum_monotone", [
    (1.0, (0.0, 16.0), 6.0, True),
    (0.1, (6.0, 10.0), 0.75, False),
])
def test_step_response_settling(consts, eps, span, target, quantum_monotone):
    c = consts
    proto = step_protocol(2.0, 4.0, 8.0, eps, span, n=200_001)
    traj = evolve_variance(proto, 0.5, c)
    settle = _settling_time(traj, 0.5, 0.25)
    assert 0.8 * target <= settle <= 1.2 * target, (
        f"eps={eps}: settling {settle:.3f} outside {target} +- 20%")
    changes = _direction_changes(quantum_from_classical_t(proto, traj.s, c).values)
    if quantum_monotone:
        assert changes == 0, f"slow step: quantum image should be monotone ({changes})"
    else:
        assert changes >= 1, "fast step: quantum image should overshoot"


# ---------------------------------------------------------------------------
# 8. invariant suite (one test per leg; total budget asserted at the end)
# ---------------------------------------------------------------------------

def test_invariant_map_consistency(cache, invariant_clock):
    c = cache.c
    with _timed(invariant_clock, "map_consistency"):
        # analytic schedule with equilibrium-pinned ends
        s = np.linspace(1.0, 2.0, 2001)
        gap = 0.5 * ((s - 1.0) * (2.0 - s)) ** (2.0 / 3.0)
        p_beta = SGridProtocol(s, (c.D * c.gamma - gap) / s)
        protocols = [(p_beta, None), (cache.bvp("phase", 0.5).protocol,
                                      cache.timedomain("phase", 0.5))]
        for p, td in protocols:
            if td is None:
                td = to_time_domain(p, c)
            # s-differenced and t-differenced stiffness maps agree away
            # from the boundary layers
            kap_s = quantum_from_classical_s(p, c)
            gap_nodes = np.abs(kap_s - td.kappa_nodes)[30:-30]
            assert np.max(gap_nodes) <= 1e-3
            # integrating the flow under the emitted classical schedule
            # reproduces the emitted variance history
            traj = evolve_variance(td.classical, float(p.s_nodes[0]), c)
            assert np.max(np.abs(traj.s - td.s)) <= 2e-4
            # emitted quantum endpoints sit on the equilibrium values
            assert abs(td.quantum.values[0] - equilibrium_kappa(p.s_nodes[0], c)) <= 1e-4
            assert abs(td.quantum.values[-1] - equilibrium_kappa(p.s_nodes[-1], c)) <= 1e-4


def test_invariant_domain_change_identities(cache, invariant_clock):
    c = cache.c
    with _timed(invariant_clock, "domain_change"):
        for cost in ("energy", "phase"):
            p = cache.bvp(cost, 0.5).protocol
            run = cache.ermakov(cost, 0.5)
            fe_s, fe_t = f_energy(p, c), f_energy_from_run(run)
            assert abs(fe_t / fe_s - 1.0) <= 1e-2, f"{cost}: energy integrals disagree"
            fa_s, fa_t = f_alpha(p, c), f_alpha_from_run(run)
            assert abs(fa_t / fa_s - 1.0) <= 5e-4, f"{cost}: phase integrals disagree"

        p_w, emitted = analytic_work_optimal(1.0, 1.0, 2.0, c)
        w_s = work_classical(p_w, c)
        w_t = work_from_schedule(emitted.classical, emitted.s)
        assert abs(w_t - w_s) <= 1e-6

        prob = OptimizationProblem(cost="phase", lam=1.0, mu=0.5, s_i=1.0, s_f=2.0)
        rep = j_total(cache.bvp("phase", 0.5).protocol, prob, c)
        recomposed = rep.duration + prob.lam * rep.f_alpha + prob.mu * rep.g_penalty
        assert abs(rep.j_total - recomposed) <= 1e-12


def test_invariant_quadrature_refinement(consts, invariant_clock):
    c = consts
    with _timed(invariant_clock, "quadrature_refinement"):
        exact = {
            "duration": ROOT2 - 1.0,
            "f_alpha": (c.m**2 / (8.0 * c.gamma * c.hbar**2))
                       * 2.0 * np.sqrt(c.gamma) * (1.0 - 1.0 / ROOT2),
            "work": -0.5 * np.log(2.0) + 0.5 * (ROOT2 - 1.0),
        }
        errs = {k: [] for k in exact}
        for n in (501, 1001, 2001):
            p = analytic_work_optimal(1.0, 1.0, 2.0, c, n=n)[0]
            errs["duration"].append(duration(p, c) - exact["duration"])
            errs["f_alpha"].append(f_alpha(p, c) - exact["f_alpha"])
            errs["work"].append(work_classical(p, c) - exact["work"])
        for name, (e1, e2, e3) in errs.items():
            for coarse, fine in ((e1, e2), (e2, e3)):
                ratio = coarse / fine
                assert 3.5 <= ratio <= 4.5, (
                    f"{name}: halving the step scaled the error by {ratio:.2f}")


def test_invariant_solved_duration_refinement(cache, invariant_clock):
    with _timed(invariant_clock, "solved_refinement"):
        durs = {n: duration(cache.bvp("energy", 0.1, n_grid=n).protocol, cache.c)
                for n in (1001, 2001, 4001)}
    ratio = (durs[1001] - durs[2001]) / (durs[2001] - durs[4001])
    # the solved schedules carry |s - s_end|^(2/3) boundary layers; graded
    # nodes, fitted finite volumes and the fitted duration quadrature must
    # resolve them at the stated second-order window
    assert 3.5 <= ratio <= 4.5, (
        "refining the solve grid does not converge at second order: "
        + ", ".join(f"n={n}: dt={d:.7f}" for n, d in durs.items())
        + f"; ratio = {ratio:.3f}")


def test_invariant_wigner_normalization(consts, invariant_clock):
    c = consts
    with _timed(invariant_clock, "wigner_normalization"):
        for s, alpha in ((1.3, 0.4), (0.5, -1.1)):
            sd = np.sqrt(s)
            x = np.linspace(-12.0 * sd, 12.0 * sd, 1201)
            p_half = (c.hbar / (2.0 * sd)) * 12.0 + 2.0 * abs(alpha) * c.hbar * 12.0 * sd
            p = np.linspace(-1.5 * p_half, 1.5 * p_half, 1201)
            w = wigner_at(x[:, None], p[None, :], s, alpha, c)
            total = np.trapezoid(np.trapezoid(w, p, axis=1), x)
            assert abs(total - 1.0) <= 1e-6


def test_invariant_determinism(cache, invariant_clock, tmp_path):
    c = cache.c
    with _timed(invariant_clock, "determinism"):
        prob = OptimizationProblem(cost="phase", lam=1.0, mu=0.5, s_i=1.0, s_f=2.0)
        r1, r2 = solve_bvp(prob, c), solve_bvp(prob, c)
        assert np.array_equal(r1.protocol.kbar, r2.protocol.kbar)

        tn = np.linspace(0.0, 2.0, 201)
        proto = TimeProtocol(tn, np.full_like(tn, 1.0), "classical")
        cfg = McConfig(n_particles=2000, seed=11,
                       checkpoints=np.array([1.0, 2.0]), dt=1e-3)
        s1 = simulate_classical(proto, 1.0, cfg, c)
        s2 = simulate_classical(proto, 1.0, cfg, c)
        for field in ("mean", "variance", "excess_kurtosis", "stderr_variance"):
            assert np.array_equal(getattr(s1, field), getattr(s2, field))

        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            rc = cli_main(["optimize", "--cost", "work", "--lambda", "1",
                           "--mu", "0.01", "--si", "1", "--sf", "2",
                           "--grid", "501", "--out", str(out)])
            assert rc == 0
            outs.append(out)
        for fname in ("protocol_s.csv", "protocol_t.csv", "report.json",
                      "manifest.json"):
            a = (outs[0] / fname).read_bytes()
            b = (outs[1] / fname).read_bytes()
            assert a == b, f"{fname} differs between identical reruns"


def test_invariant_suite_runtime(invariant_clock):
    expected = {"map_consistency", "domain_change", "quadrature_refinement",
                "solved_refinement", "wigner_normalization", "determinism"}
    missing = expected - set(invariant_clock)
    assert not missing, f"invariant legs not run: {sorted(missing)}"
    total = sum(invariant_clock.values())
    assert total < 180.0, f"invariant suite took {total:.1f}s"

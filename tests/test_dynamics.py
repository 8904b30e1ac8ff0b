"""Gaussian wavepacket integration and its phase-space observables."""

import tracemalloc

import numpy as np
import pytest

from swifttrap import (
    IntegrationError,
    TimeProtocol,
    analytic_work_optimal,
    chen_polynomial,
    energy_of,
    equilibrium_kappa,
    integrate_ermakov,
    wigner_at,
)
from swifttrap.dynamics import _gouy_angle
from test_model import _recursive_scan, same_bits


def _const_quantum(kappa, span=5.0, n=51):
    t = np.linspace(0.0, span, n)
    return TimeProtocol(t, np.full(n, kappa), "quantum")


def test_ground_state_energy(consts):
    # at equilibrium the mean energy is the ground-state value m D^2 / s
    for s in (0.25, 1.0, 3.0):
        e = energy_of(s, 0.0, equilibrium_kappa(s, consts), consts)
        assert e == pytest.approx(consts.m * consts.D**2 / s, rel=1e-14)
    with pytest.raises(ValueError):
        energy_of(-1.0, 0.0, 1.0, consts)


def test_hold_at_equilibrium(consts):
    run = integrate_ermakov(_const_quantum(equilibrium_kappa(1.0, consts)), 1.0, consts)
    assert np.max(np.abs(run.s - 1.0)) <= 1e-12
    assert np.max(np.abs(run.sdot)) <= 1e-12
    assert np.max(np.abs(run.alpha)) <= 1e-12
    assert run.duration == pytest.approx(5.0)
    # global phase advances at -hbar/(4 m s) = -1/2 per unit time
    assert run.beta[-1] == pytest.approx(-2.5, rel=1e-10)


def test_breathing_mode_closed_form(consts):
    # quench 1.0 -> equilibrium-of-0.5 from rest: s oscillates between the
    # turning points 1 and 1/4 with period pi/omega, conserving the energy
    kappa = equilibrium_kappa(0.5, consts)
    omega = np.sqrt(kappa / consts.m)
    run = integrate_ermakov(_const_quantum(kappa), 1.0, consts)
    energy = energy_of(run.s, run.sdot, kappa, consts)
    assert np.max(np.abs(energy - energy[0])) <= 1e-10
    assert run.s.min() == pytest.approx(0.25, abs=1e-5)
    assert run.s.max() <= 1.0 + 1e-9
    period = np.pi / omega
    assert np.interp(period, run.t, run.s) == pytest.approx(1.0, abs=1e-4)


def test_alpha_tracks_width_velocity(consts):
    kappa = equilibrium_kappa(0.5, consts)
    run = integrate_ermakov(_const_quantum(kappa), 1.0, consts)
    expect = consts.m * run.sdot / (4.0 * consts.hbar * run.s)
    assert np.max(np.abs(run.alpha - expect)) <= 1e-14


def _stepping_reference(kappa_t, s_start, c, n_steps):
    """RK4 stepped on (sigma, sigmadot, beta) of the nonlinear width equation
    sigma'' = -(kappa/m) sigma + 4 D^2 / sigma^3, sigma = sqrt(2 s), with
    betadot = -hbar/(4 m s) as a rider quadrature; one step at a time."""
    t0, t1 = kappa_t.span
    h = (t1 - t0) / n_steps
    kap = np.interp(t0 + 0.5 * h * np.arange(2 * n_steps + 1),
                    kappa_t.t_nodes, kappa_t.values)

    def accel(sigma, kappa):
        return 4.0 * c.D**2 / sigma**3 - kappa / c.m * sigma

    sig, v, beta = np.sqrt(2.0 * s_start), 0.0, 0.0
    out = np.empty((n_steps + 1, 3))
    out[0] = sig, v, beta
    for k in range(n_steps):
        ka, km, kb = kap[2 * k: 2 * k + 3]
        a1 = accel(sig, ka)
        s2, v2 = sig + 0.5 * h * v, v + 0.5 * h * a1
        a2 = accel(s2, km)
        s3, v3 = sig + 0.5 * h * v2, v + 0.5 * h * a2
        a3 = accel(s3, km)
        s4, v4 = sig + h * v3, v + h * a3
        a4 = accel(s4, kb)
        beta -= (h / 6.0) * (0.5 * c.hbar / c.m) * (
            1.0 / sig**2 + 2.0 / s2**2 + 2.0 / s3**2 + 1.0 / s4**2)
        sig += (h / 6.0) * (v + 2.0 * v2 + 2.0 * v3 + v4)
        v += (h / 6.0) * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
        out[k + 1] = sig, v, beta
    sig, v, beta = out.T
    s, sdot = 0.5 * sig**2, sig * v
    return {"s": s, "sdot": sdot, "alpha": c.m * sdot / (4.0 * c.hbar * s), "beta": beta}


def _reference_cases(consts, cache):
    ki, kf = equilibrium_kappa(1.0, consts), equilibrium_kappa(2.0, consts)
    chen, _ = chen_polynomial(ki, kf, 0.2, consts)
    assert chen.values.min() < 0.0
    return {
        "breathing": _const_quantum(equilibrium_kappa(0.5, consts)),
        "energy mu=0.1": cache.timedomain("energy", 0.1).quantum,
        "chen inverted": chen,
    }


@pytest.mark.parametrize("case", ["breathing", "energy mu=0.1", "chen inverted"])
def test_linear_flow_matches_stepping_reference(consts, cache, case):
    # the record rebuilt from the linear flow is the nonlinear width
    # equation's own solution.  At twice the default step count the two
    # schemes agree to rounding; at the default step the stepping scheme's
    # truncation error on the breathing quench is 1.8e-12 of s against the
    # closed form, where the linear flow's is 5.7e-14
    proto = _reference_cases(consts, cache)[case]
    n_steps = 20_000
    run = integrate_ermakov(proto, 1.0, consts, dt=(proto.span[1] - proto.span[0]) / n_steps)
    ref = _stepping_reference(proto, 1.0, consts, n_steps)
    for name, want in ref.items():
        got = getattr(run, name)
        rel = np.max(np.abs(got - want)) / np.max(np.abs(want))
        assert rel <= 1e-12, f"{case}: {name} differs by {rel:.2e} relative"


def test_beta_is_the_gouy_phase_integral(consts, cache):
    # beta = -hbar theta / (4 m D) must equal the integral of -hbar/(4 m s);
    # composite Simpson over step pairs of the record's own samples
    for proto in _reference_cases(consts, cache).values():
        run = integrate_ermakov(proto, 1.0, consts)
        f = -consts.hbar / (4.0 * consts.m * run.s)
        h = run.t[1] - run.t[0]
        quad = np.concatenate(([0.0], np.cumsum(h / 3.0 * (f[:-2:2] + 4.0 * f[1::2] + f[2::2]))))
        assert np.max(np.abs(run.beta[::2] - quad)) <= 1e-12 * np.max(np.abs(quad))


def test_stability_guard_threshold(consts):
    # RK4 is stable on the imaginary axis up to h sqrt(kappa/m) = 2 sqrt(2);
    # ten steps of h = 0.1 put the threshold at kappa = 800 m
    edge = consts.m * (2.0 * np.sqrt(2.0) / 0.1) ** 2
    below = integrate_ermakov(_const_quantum(edge * (1.0 - 1e-6), span=1.0), 1.0,
                              consts, dt=0.1)
    assert below.t.size == 11 and np.all(np.isfinite(below.s)) and below.s.min() > 0.0
    with pytest.raises(IntegrationError, match="stability") as exc:
        integrate_ermakov(_const_quantum(edge * (1.0 + 1e-6), span=1.0), 1.0, consts, dt=0.1)
    assert exc.value.t == 0.0


def test_gouy_angle_matches_unwrap_across_branch_crossings():
    # a nondecreasing angle turning by up to 3 rad per step crosses the
    # atan2 branch about a thousand times
    rng = np.random.default_rng(5)
    theta = np.cumsum(rng.uniform(0.0, 3.0, 4001)) - 2.0
    raw = np.arctan2(np.sin(theta), np.cos(theta))
    got, want = _gouy_angle(raw), np.unwrap(raw)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    assert np.max(np.abs(got - theta)) <= 1e-12 * np.max(np.abs(theta))


def test_gouy_angle_ignores_rounding_noise_on_a_flat_angle():
    rng = np.random.default_rng(6)
    for level in (-3.0, -1e-3, 0.0, 1.0, 3.14):
        noisy = level + rng.choice([-1.0, 0.0, 1.0], 1001) * np.spacing(level or 1e-300)
        assert np.array_equal(_gouy_angle(noisy), noisy), level


def _three_array_failure_time(proto, c, dt):
    """First step failing h sqrt(max stage |kappa|/m) > 2 sqrt(2), by step."""
    t0, t1 = proto.span
    n_steps = max(1, int(round((t1 - t0) / dt)))
    h = (t1 - t0) / n_steps
    kap = np.interp(t0 + 0.5 * h * np.arange(2 * n_steps + 1), proto.t_nodes, proto.values)
    ka, km, kb = kap[:-1:2] / c.m, kap[1::2] / c.m, kap[2::2] / c.m
    stiff = h * np.sqrt(np.maximum(np.maximum(np.abs(ka), np.abs(km)), np.abs(kb)))
    k = int(np.flatnonzero(stiff > 2.0 * np.sqrt(2.0))[0])
    return float((t0 + h * np.arange(n_steps + 1))[k]), stiff[k]


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_stability_guard_on_a_ramp_reports_the_first_bad_step(consts, sign):
    # kappa ramps through the bound 8 m / h^2 (h = 0.01) mid-span; the
    # check names the step a per-step check names, whether the first
    # sample past the bound is a step (the ramp crosses it at 0.6364,
    # between the midpoint 0.635 and the step 0.64) or a midpoint (0.6325,
    # between the step 0.63 and the midpoint 0.635)
    edge = 8.0 * consts.m / 0.01**2
    t = np.linspace(0.0, 1.0, 7)
    for intercept, first_bad in ((0.3, "step"), (1.0 - 1.1 * 0.6325, "midpoint")):
        proto = TimeProtocol(t, sign * edge * (intercept + 1.1 * t), "quantum")
        half_grid = np.interp(0.005 * np.arange(201), t, proto.values)
        i = int(np.flatnonzero(np.abs(half_grid) > edge)[0])
        assert ("step", "midpoint")[i % 2] == first_bad
        want_t, want_stiff = _three_array_failure_time(proto, consts, 0.01)
        assert 0.4 < want_t < 0.8
        with pytest.raises(IntegrationError, match="stability") as exc:
            integrate_ermakov(proto, 1.0, consts, dt=0.01)
        assert exc.value.t == want_t, first_bad
        assert f"h*sqrt(|kappa|/m)={want_stiff:.3g} " in str(exc.value)


def _half_step_reference(kappa_t, s_start, c, dt=None):
    """The width equation built the direct way: kappa on the whole
    half-step grid, the step maps as whole-array expressions, the recursive
    scan, and the record as plain expressions."""
    t0, t1 = kappa_t.span
    n = max(1, int(round((t1 - t0) / (dt or (t1 - t0) / 1.0e4))))
    h = (t1 - t0) / n
    kap = np.interp(t0 + 0.5 * h * np.arange(2 * n + 1), kappa_t.t_nodes, kappa_t.values)
    ka, km, kb = kap[:-1:2] / c.m, kap[1::2] / c.m, kap[2::2] / c.m
    h2 = h * h
    e = np.zeros((4, n + 1))
    e[0, 1:] = -h2 * (ka + 2.0 * km) / 6.0 + h2 * h2 * km * ka / 24.0
    e[1, 1:] = h - h2 * h * km / 6.0
    e[2, 1:] = -h * (ka + 4.0 * km + kb) / 6.0 + h2 * h * km * (ka + kb) / 12.0
    e[3, 1:] = -h2 * (2.0 * km + kb) / 6.0 + h2 * h2 * km * kb / 24.0
    p = _recursive_scan(e)
    u1, du1, u2, du2 = 1.0 + p[0], p[2], p[1], 1.0 + p[3]
    q = c.D**2 / s_start
    s = s_start * u1**2 + q * u2**2
    sdot = 2.0 * (s_start * u1 * du1 + q * u2 * du2)
    raw = np.arctan2(c.D * u2, s_start * u1)
    theta = raw + 2.0 * np.pi * np.concatenate(
        ([0.0], np.cumsum(np.diff(raw) < -np.pi, dtype=float)))
    return {"t": t0 + h * np.arange(n + 1), "s": s, "sdot": sdot,
            "alpha": c.m * sdot / (4.0 * c.hbar * s),
            "beta": -c.hbar * theta / (4.0 * c.m * c.D),
            "energy": energy_of(s, sdot, kap[::2], c)}


@pytest.mark.parametrize("case", ["cached", "chen inverted", "odd steps"])
def test_record_is_the_half_step_construction_to_the_bit(consts, cache, case):
    if case == "cached":
        runs = [(cache.timedomain(cost, mu).quantum, None)
                for cost in ("energy", "phase") for mu in (0.1, 0.5, 1.0)]
    else:
        cases = _reference_cases(consts, cache)
        protos = [cases["chen inverted"]] if case == "chen inverted" else list(cases.values())
        runs = [(p, None if case == "chen inverted" else (p.span[1] - p.span[0]) / 1001)
                for p in protos]
    for proto, dt in runs:
        run = integrate_ermakov(proto, 1.0, consts, dt)
        for name, want in _half_step_reference(proto, 1.0, consts, dt).items():
            assert same_bits(getattr(run, name), want), (case, name)


def test_width_equation_peak_memory_pin(consts, cache):
    # the record's own six arrays plus the step maps and the scan's scratch;
    # the direct construction peaks above four records
    proto = cache.timedomain("energy", 0.1).quantum
    integrate_ermakov(proto, 1.0, consts)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        run = integrate_ermakov(proto, 1.0, consts)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    record = sum(getattr(run, k).nbytes for k in ("t", "s", "sdot", "alpha", "beta", "energy"))
    assert run.t.size == 10001
    assert peak <= 3.0 * record


def test_integration_is_deterministic(consts, cache):
    proto = cache.timedomain("energy", 0.1).quantum
    a = integrate_ermakov(proto, 1.0, consts)
    b = integrate_ermakov(proto, 1.0, consts)
    for name in ("t", "s", "sdot", "alpha", "beta", "energy"):
        assert np.array_equal(getattr(a, name), getattr(b, name))


def test_under_resolved_integration_collapses(consts):
    bad = TimeProtocol(np.linspace(0.0, 10.0, 23), np.full(23, 200.0), "quantum")
    with pytest.raises(IntegrationError) as exc:
        integrate_ermakov(bad, 1.0, consts, dt=0.45)
    assert exc.value.t is not None


def test_integrator_guards(consts):
    proto = _const_quantum(0.5)
    with pytest.raises(ValueError, match="quantum"):
        integrate_ermakov(TimeProtocol(proto.t_nodes, proto.values, "classical"),
                          1.0, consts)
    with pytest.raises(ValueError):
        integrate_ermakov(proto, 0.0, consts)
    with pytest.raises(ValueError):
        integrate_ermakov(proto, 1.0, consts, dt=-0.1)


def test_work_bundle_satisfies_width_equation(consts):
    # along the minimum-work path sigma = sqrt(2 s) is linear in time, so
    # the width equation reduces to kappa sigma / m = 4 D^2 / sigma^3
    b = analytic_work_optimal(1.0, 1.0, 2.0, consts)
    sigma = np.sqrt(2.0 * b.s_t)
    assert np.max(np.abs(np.diff(sigma, 2))) <= 1e-10
    resid = b.kappa_t * sigma / consts.m - 4.0 * consts.D**2 / sigma**3
    assert np.max(np.abs(resid)) <= 1e-12


def test_work_bundle_needs_matched_launch_velocity(consts):
    # the closed-form path starts with sdot = 2 sqrt(s_i / (gamma lam)) != 0;
    # integrating its stiffness from rest therefore misses the target
    b = analytic_work_optimal(1.0, 1.0, 2.0, consts)
    run = integrate_ermakov(b.quantum_time_protocol(), 1.0, consts)
    assert np.max(np.abs(np.interp(b.t, run.t, run.s) - b.s_t)) > 0.1
    assert abs(run.s[-1] - 2.0) > 1e-2


def test_wigner_density_values(consts):
    assert wigner_at(0.0, 0.0, 1.0, 0.0, consts) == pytest.approx(1.0 / np.pi)
    # shear: the p-Gaussian is centered on 2 alpha hbar x
    x, alpha, s = 0.7, 0.9, 1.3
    ridge = 2.0 * alpha * consts.hbar * x
    w_on = wigner_at(x, ridge, s, alpha, consts)
    assert w_on > wigner_at(x, ridge + 0.5, s, alpha, consts)
    assert w_on == pytest.approx(np.exp(-x**2 / (2.0 * s)) / np.pi)
    with pytest.raises(ValueError):
        wigner_at(0.0, 0.0, -1.0, 0.0, consts)

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
from swifttrap.model import _node_substeps
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


def _stepping_reference(kappa_t, s_start, c, t):
    """RK4 stepped on (sigma, sigmadot, beta) of the nonlinear width equation
    sigma'' = -(kappa/m) sigma + 4 D^2 / sigma^3, sigma = sqrt(2 s), with
    betadot = -hbar/(4 m s) as a rider quadrature; one step at a time over
    the step grid t, kappa interpolated at each step's start, midpoint and
    end."""
    h_all = np.diff(t)
    kap = np.interp(np.column_stack((t[:-1], t[:-1] + 0.5 * h_all, t[1:])),
                    kappa_t.t_nodes, kappa_t.values)

    def accel(sigma, kappa):
        return 4.0 * c.D**2 / sigma**3 - kappa / c.m * sigma

    sig, v, beta = np.sqrt(2.0 * s_start), 0.0, 0.0
    out = np.empty((t.size, 3))
    out[0] = sig, v, beta
    for k, h in enumerate(h_all):
        ka, km, kb = kap[k]
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
    # equation's own solution.  Stepped on the same grid of about 2e4 steps,
    # the two schemes agree to rounding; at the default step (1028 steps of
    # about 0.005) their truncation errors on the breathing quench differ by
    # 1.6e-8 of s
    proto = _reference_cases(consts, cache)[case]
    run = integrate_ermakov(proto, 1.0, consts, dt=(proto.span[1] - proto.span[0]) / 20_000)
    assert 20_000 <= run.t.size - 1 <= 22_000
    ref = _stepping_reference(proto, 1.0, consts, run.t)
    for name, want in ref.items():
        got = getattr(run, name)
        rel = np.max(np.abs(got - want)) / np.max(np.abs(want))
        assert rel <= 1e-12, f"{case}: {name} differs by {rel:.2e} relative"


def test_beta_is_the_gouy_phase_integral(consts, cache):
    # beta = -hbar theta / (4 m D) must equal the integral of -hbar/(4 m s);
    # composite Simpson over step pairs of the record's own samples, in its
    # form for two unequal steps h0, h1
    for proto in _reference_cases(consts, cache).values():
        run = integrate_ermakov(proto, 1.0, consts, dt=(proto.span[1] - proto.span[0]) / 1.0e4)
        f = -consts.hbar / (4.0 * consts.m * run.s)
        h = np.diff(run.t)
        h0, h1 = h[:-1:2], h[1::2]
        f0, f1, f2 = f[:-2:2], f[1:-1:2], f[2::2]
        pairs = (h0 + h1) / 6.0 * ((2.0 - h1 / h0) * f0 + (h0 + h1) ** 2 / (h0 * h1) * f1
                                   + (2.0 - h0 / h1) * f2)
        quad = np.concatenate(([0.0], np.cumsum(pairs)))
        beta = run.beta[:2 * pairs.size + 1:2]
        assert np.max(np.abs(beta - quad)) <= 1e-12 * np.max(np.abs(quad))


def test_stability_guard_threshold(consts):
    # RK4 is stable on the imaginary axis up to h sqrt(kappa/m) = 2 sqrt(2);
    # two cells of 0.5 at dt = 0.125 take eight steps of h = 0.125, which
    # put the threshold at kappa = 512 m
    edge = consts.m * (2.0 * np.sqrt(2.0) / 0.125) ** 2
    t = np.array([0.0, 0.5, 1.0])
    below = integrate_ermakov(TimeProtocol(t, np.full(3, edge * (1.0 - 1e-6)), "quantum"),
                              1.0, consts, dt=0.125)
    assert below.t.size == 9 and np.all(np.isfinite(below.s)) and below.s.min() > 0.0
    assert below.stability_margin == pytest.approx(2.0 * np.sqrt(2.0 * (1.0 - 1e-6)), rel=1e-12)
    with pytest.raises(IntegrationError, match="stability") as exc:
        integrate_ermakov(TimeProtocol(t, np.full(3, edge * (1.0 + 1e-6)), "quantum"),
                          1.0, consts, dt=0.125)
    assert exc.value.t == 0.0


def test_stability_guard_uses_each_steps_own_length(consts):
    # at dt = 0.25 the cell [0, 0.375] takes two steps of 0.1875 and the cell
    # [0.375, 1] three of 0.2083; a constant kappa = 200 m is stable for the
    # first steps (margin 2.65) and not for the later ones (2.95)
    proto = TimeProtocol([0.0, 0.375, 1.0], np.full(3, 200.0 * consts.m), "quantum")
    with pytest.raises(IntegrationError, match="stability") as exc:
        integrate_ermakov(proto, 1.0, consts, dt=0.25)
    assert exc.value.t == 0.375
    assert "h=0.208 " in str(exc.value) and "h*sqrt(|kappa|/m)=2.95 " in str(exc.value)
    # at dt = 0.2 the steps are 0.1875 and 0.15625, and the margin is the
    # longer step's
    run = integrate_ermakov(proto, 1.0, consts, dt=0.2)
    assert run.t.size == 2 + 4 + 1
    assert run.stability_margin == pytest.approx(0.1875 * np.sqrt(200.0), rel=1e-12)


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


def _node_steps(proto, dt):
    """Rows (start, length, cell start, cell start value, cell slope) of
    every step, laid out cell by cell."""
    rows = []
    for t0, t1, v0, v1 in zip(proto.t_nodes[:-1], proto.t_nodes[1:],
                              proto.values[:-1], proto.values[1:]):
        m = max(1, int(np.ceil((t1 - t0) / dt)))
        h = (t1 - t0) / m
        rows += [(t0 + i * h, h, t0, v0, (v1 - v0) / (t1 - t0)) for i in range(m)]
    return np.array(rows).T


def _first_bad_step(proto, c, dt):
    """First step failing h sqrt(max stage |kappa|/m) > 2 sqrt(2), by step,
    with kappa interpolated on the protocol at the three stage times."""
    ta, h, *_ = _node_steps(proto, dt)
    kap = np.interp(np.stack((ta, ta + 0.5 * h, ta + h)), proto.t_nodes, proto.values)
    stiff = h * np.sqrt(np.max(np.abs(kap), axis=0) / c.m)
    k = int(np.flatnonzero(stiff > 2.0 * np.sqrt(2.0))[0])
    return float(ta[k]), stiff[k], k == 0 or ta[k] in proto.t_nodes


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_stability_guard_on_a_ramp_reports_the_first_bad_step(consts, sign):
    # at dt = 0.025 the cell [0, 0.41] takes 17 steps of 0.024118 and the
    # cell [0.41, 1] 24 of 0.024583, whose bounds are |kappa| = 13753 m and
    # 13238 m.  A ramp crossing 13238 m mid-cell fails at the step whose end
    # sample is past it; a ramp that reaches the node at 13410 m passes the
    # short steps and fails at the first long one, at the node
    t = np.array([0.0, 0.41, 1.0])
    for intercept, slope, at_node in ((11000.0, 3000.0, False), (13000.0, 1000.0, True)):
        proto = TimeProtocol(t, sign * consts.m * (intercept + slope * t), "quantum")
        want_t, want_stiff, want_node = _first_bad_step(proto, consts, 0.025)
        assert want_node == at_node and 0.4 < want_t < 0.8
        with pytest.raises(IntegrationError, match="stability") as exc:
            integrate_ermakov(proto, 1.0, consts, dt=0.025)
        assert exc.value.t == want_t, at_node
        assert f"h*sqrt(|kappa|/m)={want_stiff:.3g} " in str(exc.value)


def _node_step_reference(kappa_t, s_start, c, dt=None):
    """The width equation built the plain way: steps laid out cell by cell,
    kappa from each cell's line, the step maps as whole-array expressions,
    the recursive scan, and the record as plain expressions."""
    t0, t1 = kappa_t.span
    ta, h, tc, vc, slope = _node_steps(kappa_t, dt or (t1 - t0) / 1.0e3)
    ka = vc + slope * (ta - tc)
    km = vc + slope * (ta + 0.5 * h - tc)
    kb = vc + slope * (ta + h - tc)
    a, am, b = ka / c.m, km / c.m, kb / c.m
    h2 = h * h
    e = np.zeros((4, ta.size + 1))
    e[0, 1:] = -h2 * (a + 2.0 * am) / 6.0 + h2 * h2 * am * a / 24.0
    e[1, 1:] = h - h2 * h * am / 6.0
    e[2, 1:] = -h * (a + 4.0 * am + b) / 6.0 + h2 * h * am * (a + b) / 12.0
    e[3, 1:] = -h2 * (2.0 * am + b) / 6.0 + h2 * h2 * am * b / 24.0
    p = _recursive_scan(e)
    u1, du1, u2, du2 = 1.0 + p[0], p[2], p[1], 1.0 + p[3]
    q = c.D**2 / s_start
    s = s_start * u1**2 + q * u2**2
    sdot = 2.0 * (s_start * u1 * du1 + q * u2 * du2)
    raw = np.arctan2(c.D * u2, s_start * u1)
    theta = raw + 2.0 * np.pi * np.concatenate(
        ([0.0], np.cumsum(np.diff(raw) < -np.pi, dtype=float)))
    return {"t": np.append(ta, t1), "s": s, "sdot": sdot,
            "alpha": c.m * sdot / (4.0 * c.hbar * s),
            "beta": -c.hbar * theta / (4.0 * c.m * c.D),
            "energy": energy_of(s, sdot, np.append(ka, kappa_t.values[-1]), c)}


@pytest.mark.parametrize("case", ["cached", "chen inverted", "odd steps"])
def test_record_is_the_node_step_construction_to_the_bit(consts, cache, case):
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
        for name, want in _node_step_reference(proto, 1.0, consts, dt).items():
            assert same_bits(getattr(run, name), want), (case, name)


def _landing_cases(cache):
    return {f"{cost} lam={lam:g} mu={mu:g} 1->{s_f:g}": cache.timedomain(cost, mu, lam, 1.0, s_f)
            for cost, lam, mu, s_f in (("energy", 1.0, 0.1, 2.0), ("phase", 1.0, 0.5, 2.0),
                                       ("work", 1.0, 0.5, 2.0), ("energy", 10.0, 0.001, 5.0),
                                       ("work", 10.0, 0.001, 5.0), ("phase", 10.0, 0.01, 5.0))}


def test_emitted_schedule_takes_one_step_per_cell(consts, cache):
    # every emitted cell is one step, or, if longer than the default step of
    # span / 1000, ceil(cell / step) equal steps: the step grid is the
    # emitted nodes plus the substeps model._node_substeps lays out
    for name, em in _landing_cases(cache).items():
        run = integrate_ermakov(em.quantum, 1.0, consts)
        ta, _, ends, *_ = _node_substeps(em.quantum)
        assert run.t.size == ends[-1] + 1 >= em.quantum.t_nodes.size >= 2001, name
        assert same_bits(run.t, np.append(ta, em.quantum.t_nodes[-1])), name
        assert same_bits(run.t[np.append(0, ends)], em.quantum.t_nodes), name


def test_every_node_is_a_step(consts, cache):
    # no step straddles a node: the nodes are a subset of the increasing step
    # grid, for coarse and fine steps and for cells far from multiples of dt
    cases = _reference_cases(consts, cache)
    rng = np.random.default_rng(9)
    jagged = TimeProtocol(np.cumsum(rng.uniform(0.01, 0.3, 40)) - 0.01,
                          rng.uniform(0.0, 2.0, 40), "quantum")
    for proto in (*cases.values(), jagged):
        span = proto.span[1] - proto.span[0]
        for dt in (None, span / 317.0, span / 4999.0, 0.5 * span):
            run = integrate_ermakov(proto, 1.0, consts, dt)
            assert np.all(np.diff(run.t) > 0.0)
            assert np.all(np.isin(proto.t_nodes, run.t))
            assert np.max(np.diff(run.t)) <= (dt or span / 1.0e3) * (1.0 + 1e-12)


@pytest.mark.parametrize("case", ["energy lam=1 mu=0.1 1->2", "phase lam=1 mu=0.5 1->2",
                                  "work lam=1 mu=0.5 1->2", "energy lam=10 mu=0.001 1->5",
                                  "work lam=10 mu=0.001 1->5", "phase lam=10 mu=0.01 1->5"])
def test_landing_agrees_with_a_refined_node_step_run(consts, cache, case):
    # the default steps on the emitted cells against 64 equal steps per
    # cell, taken as one step per cell of the same piecewise-linear kappa on
    # 64x the nodes: the landing values s(T) and sdot(T) that verify reads
    # agree to 1e-9
    proto = _landing_cases(cache)[case].quantum
    run = integrate_ermakov(proto, 1.0, consts)
    assert run.t.size - 1 == _node_substeps(proto)[2][-1]
    t, cells = proto.t_nodes, np.diff(proto.t_nodes)
    t_fine = np.append((t[:-1, None] + cells[:, None] * (np.arange(64) / 64.0)).ravel(), t[-1])
    fine = integrate_ermakov(TimeProtocol(t_fine, proto(t_fine), "quantum"), 1.0, consts,
                             dt=np.max(np.diff(t_fine)))
    assert fine.t.size - 1 == 64 * cells.size
    assert abs(run.s[-1] - fine.s[-1]) <= 1e-9, case
    assert abs(run.sdot[-1] - fine.sdot[-1]) <= 1e-9, case


def test_width_equation_peak_memory_pin(consts, cache):
    # the record's own six arrays plus the substep layout, the step maps
    # and the scan's scratch, each freed once read for the last time
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
    assert run.t.size == _node_substeps(proto)[2][-1] + 1 >= 2001
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
    for dt in (-0.1, np.nan):
        with pytest.raises(ValueError, match="dt must be positive"):
            integrate_ermakov(proto, 1.0, consts, dt=dt)


def test_work_bundle_satisfies_width_equation(consts):
    # along the minimum-work path sigma = sqrt(2 s) is linear in time, so
    # the width equation reduces to kappa sigma / m = 4 D^2 / sigma^3
    _, emitted = analytic_work_optimal(1.0, 1.0, 2.0, consts)
    sigma = np.sqrt(2.0 * emitted.s)
    t = emitted.classical.t_nodes
    line = sigma[0] + (sigma[-1] - sigma[0]) * t / t[-1]
    assert np.max(np.abs(sigma - line)) <= 1e-10
    resid = emitted.quantum.values * sigma / consts.m - 4.0 * consts.D**2 / sigma**3
    assert np.max(np.abs(resid)) <= 1e-12


def test_work_bundle_needs_matched_launch_velocity(consts):
    # the closed-form path starts with sdot = 2 sqrt(s_i / (gamma lam)) != 0;
    # integrating its stiffness from rest therefore misses the target
    _, emitted = analytic_work_optimal(1.0, 1.0, 2.0, consts)
    run = integrate_ermakov(emitted.quantum, 1.0, consts)
    t = emitted.classical.t_nodes
    assert np.max(np.abs(np.interp(t, run.t, run.s) - emitted.s)) > 0.1
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

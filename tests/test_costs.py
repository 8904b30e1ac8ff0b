"""Cost functionals, their closed forms, and the combined objective."""

import numpy as np
import pytest
from scipy.integrate import quad

from swifttrap import (
    LAGRANGIANS,
    CostReport,
    Lagrangian,
    OptimizationProblem,
    PhysConsts,
    SGridProtocol,
    analytic_work_optimal,
    duration,
    f_alpha,
    f_energy,
    flow_gap,
    g_penalty,
    j_total,
    solve_bvp,
    time_of_s,
    to_time_domain,
    work_classical,
    work_from_schedule,
)
from swifttrap import analog
from swifttrap.analog import _pinned_ends

ROOT2 = np.sqrt(2.0)


def _work_optimal_protocol(consts, lam=1.0, n=2001):
    return analytic_work_optimal(lam, 1.0, 2.0, consts, n=n)[0]


def _closed_forms(c, lam=1.0):
    """Exact functionals of the minimum-work path on the 1 -> 2 expansion."""
    f_a = (c.m**2 / (8.0 * c.gamma * c.hbar**2)) \
        * 2.0 * np.sqrt(c.gamma / lam) * (1.0 - 1.0 / ROOT2)
    def kbar(s):
        return c.D * c.gamma / s - np.sqrt(c.gamma / (lam * s))
    def integrand(s):
        gap = c.D * c.gamma - s * kbar(s)
        return gap / s + (3.0 * c.D**2 * c.gamma**2 - s**2 * kbar(s)**2) / (s * gap) \
            - 2.0 * kbar(s)
    f_e = (c.m / (4.0 * c.gamma)) * (
        quad(integrand, 1.0, 2.0, epsabs=1e-12, epsrel=1e-12)[0]
        + 2.0 * (2.0 * kbar(2.0) - kbar(1.0)))
    work = -0.5 * c.D * c.gamma * np.log(2.0) \
        + 0.5 * (ROOT2 - 1.0) * np.sqrt(c.gamma / lam)
    return f_e, f_a, work


def test_work_closed_form_value(consts):
    p = _work_optimal_protocol(consts)
    _, _, w_exact = _closed_forms(consts)
    assert work_classical(p, consts) == pytest.approx(w_exact, abs=2e-8)
    assert w_exact == pytest.approx(-0.1394668091, abs=1e-9)


def test_energy_and_phase_closed_forms(consts):
    p = _work_optimal_protocol(consts)
    f_e, f_a, _ = _closed_forms(consts)
    assert f_energy(p, consts) == pytest.approx(f_e, abs=5e-8)
    assert f_alpha(p, consts) == pytest.approx(f_a, abs=1e-8)


def test_work_excess_duration_tradeoff_invariant(consts):
    # (W - W_quasistatic) * duration = (gamma/2) (sqrt(2)-1)^2 for every lam
    target = 0.5 * consts.gamma * (ROOT2 - 1.0) ** 2
    w_qs = -0.5 * consts.D * consts.gamma * np.log(2.0)
    products = []
    for lam in (0.25, 1.0, 4.0, 16.0):
        p, emitted = analytic_work_optimal(lam, 1.0, 2.0, consts)
        w = work_classical(p, consts)
        products.append((w - w_qs) * emitted.duration)
        assert abs(products[-1] - target) <= 1e-7
    # and the excess work itself decreases monotonically with lam
    excesses = [p / analytic_work_optimal(lam, 1.0, 2.0, consts)[1].duration
                for p, lam in zip(products, (0.25, 1.0, 4.0, 16.0))]
    assert excesses[0] > excesses[1] > excesses[2] > excesses[3] > 0.0


def test_time_and_s_domain_work_agree(consts):
    p, emitted = analytic_work_optimal(1.0, 1.0, 2.0, consts)
    w_s = work_classical(p, consts)
    w_t = work_from_schedule(emitted.classical, emitted.s)
    assert abs(w_t - w_s) <= 1e-6
    with pytest.raises(ValueError):
        work_from_schedule(emitted.quantum, emitted.s)
    with pytest.raises(ValueError):
        work_from_schedule(emitted.classical, emitted.s[:-1])


def test_penalty_closed_form_and_direction_invariance(consts):
    s = np.linspace(1.0, 2.0, 1001)
    p = SGridProtocol(s, s.copy())          # kbar' = 1
    assert g_penalty(p, consts) == pytest.approx(1.0, rel=1e-10)
    q = SGridProtocol(s[::-1], s[::-1].copy())
    assert g_penalty(q, consts) == pytest.approx(g_penalty(p, consts), rel=1e-12)


def test_combined_objective_composition(cache):
    c = cache.c
    p = cache.bvp("phase", 0.5).protocol
    for cost in ("energy", "phase", "work"):
        prob = OptimizationProblem(cost=cost, lam=1.3, mu=0.7, s_i=1.0, s_f=2.0)
        rep = j_total(p, prob, c)
        assert isinstance(rep, CostReport)
        assert rep.duration == pytest.approx(duration(p, c), rel=1e-12)
        if cost == "energy":
            f_abs = 4.0 * rep.f_energy / c.m
        elif cost == "phase":
            f_abs = rep.f_alpha
        else:
            f_abs = -np.trapezoid(p.kbar, p.s_nodes)
        assert rep.f_absorbed == pytest.approx(f_abs, rel=1e-9)
        assert rep.j_total == pytest.approx(
            rep.duration + 1.3 * f_abs + 0.7 * rep.g_penalty, rel=1e-12)


def _assert_local_minimum(p0, prob, c):
    # a solved schedule makes the right-hand side stationary for the
    # combination 2 * duration + lam * F + mu * G; every smooth feasible
    # perturbation, sin(k pi x) with x uniform in s, must raise it
    def j_el(p):
        rep = j_total(p, prob, c)
        return rep.j_total + rep.duration

    base = j_el(p0)
    x = (p0.s_nodes - p0.s_start) / (p0.s_end - p0.s_start)
    increases = []
    for k in (1, 2, 3):
        for eps in (-0.05, -0.02, 0.02, 0.05):
            p = SGridProtocol(p0.s_nodes,
                                           p0.kbar + eps * np.sin(k * np.pi * x))
            increases.append(j_el(p) - base)
    rng = np.random.Generator(np.random.Philox(key=42))
    for _ in range(5):
        coeffs = rng.normal(0.0, 0.02, 3)
        bump = sum(ck * np.sin((i + 1) * np.pi * x)
                   for i, ck in enumerate(coeffs))
        p = SGridProtocol(p0.s_nodes, p0.kbar + bump)
        increases.append(j_el(p) - base)
    assert min(increases) > 0.0, f"found a descent direction: {min(increases):.3e}"
    # first order: the central difference along each mode vanishes to the
    # quadrature's resolution (at most 2.5e-3 measured on these solves; a
    # solve that leaves out the phase term of energy + phase reads 1.4e-2)
    for k in (1, 2, 3):
        mode = 1e-3 * np.sin(k * np.pi * x)
        slope = (j_el(SGridProtocol(p0.s_nodes, p0.kbar + mode))
                 - j_el(SGridProtocol(p0.s_nodes, p0.kbar - mode))) / 2e-3
        assert abs(slope) <= 5e-3, (k, slope)


@pytest.mark.parametrize("cost", ["energy", "phase"])
def test_solutions_are_local_minima(cache, cost):
    prob = OptimizationProblem(cost=cost, lam=1.0, mu=0.5, s_i=1.0, s_f=2.0)
    _assert_local_minimum(cache.bvp(cost, 0.5).protocol, prob, cache.c)


@pytest.mark.parametrize("cost", ["energy", "phase", "work"])
def test_compressions_are_local_minima(cache, cost):
    # the running terms integrate along the schedule, the penalty over |ds|:
    # a solved 2 -> 1 compression is a minimum of the same combination
    prob = OptimizationProblem(cost=cost, lam=1.0, mu=0.5, s_i=2.0, s_f=1.0)
    _assert_local_minimum(cache.bvp(cost, 0.5, s_i=2.0, s_f=1.0).protocol, prob, cache.c)


_CONSTS = [PhysConsts(), PhysConsts(hbar=2.0, m=0.25, gamma=3.0)]


def _derived(entry, s, kbar, c):
    """ell, d(ell)/d(kbar) and d^2(ell)/d(kbar)^2 from an entry's a, b, k."""
    a, b, k = entry.a(s, c), entry.b(s, c), entry.k(s, c)
    gap = c.D * c.gamma - s * kbar
    return a / gap + b + k * kbar, a * s / gap**2 + k, 2.0 * a * s**2 / gap**3


def _points(c):
    """Nodes on both sides of the singular manifold, as (s, kbar, gap)."""
    s = np.linspace(1.0, 5.0, 9)[:, None]
    gap = c.D * c.gamma * np.array([-0.5, -0.1, -0.01, 0.01, 0.1, 0.5, 0.9])
    s, kbar = np.broadcast_arrays(s, (c.D * c.gamma - gap) / s)
    return s, kbar, c.D * c.gamma - s * kbar


@pytest.mark.parametrize("c", _CONSTS, ids=["paper", "custom"])
def test_energy_coefficients_reproduce_the_printed_lagrangian(c):
    # a = 2 D^2 gamma / s, b = 2 D / s, k = -2 / gamma: the printed ell and
    # its second derivative to 1e-14; the printed first derivative cancels
    # to about 1e-11, so dl is held to its reduced form
    # (2 D^2 gamma^2 / gap^2 - 2) / gamma
    s, kbar, gap = _points(c)
    ell, dl, d2l = _derived(LAGRANGIANS["energy"], s, kbar, c)
    w = 3.0 * c.D**2 * c.gamma**2 - s**2 * kbar**2
    printed_ell = (gap / s + w / (s * gap) - 2.0 * kbar) / c.gamma
    printed_d2l = 2.0 * s * (w / gap - s * kbar - c.D * c.gamma) / (c.gamma * gap**2)
    reduced_dl = (2.0 * c.D**2 * c.gamma**2 / gap**2 - 2.0) / c.gamma
    for got, want in ((ell, printed_ell), (d2l, printed_d2l), (dl, reduced_dl)):
        assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))


@pytest.mark.parametrize("c", _CONSTS, ids=["paper", "custom"])
@pytest.mark.parametrize("cost", ["energy", "phase", "work"])
def test_ell_is_an_antiderivative_of_dl(cost, c):
    # central differences in kbar, at fixed s and on both sides of the
    # singular manifold: of ell reproduce dl, and of dl reproduce d2l
    entry = LAGRANGIANS[cost]
    s, kbar, gap = _points(c)
    h = 1e-6 * np.abs(gap) / s
    up, down = _derived(entry, s, kbar + h, c), _derived(entry, s, kbar - h, c)
    _, dl, d2l = _derived(entry, s, kbar, c)
    for j, want in ((0, dl), (1, d2l)):
        central = (up[j] - down[j]) / (2.0 * h)
        assert np.all(np.abs(central - want) <= 1e-7 * np.abs(want))


def test_a_cost_lives_only_in_its_table_entry(consts, monkeypatch):
    # a cost added to LAGRANGIANS alone is validated, solved and reported:
    # energy + phase, each coefficient the sum of the two
    energy, phase = LAGRANGIANS["energy"], LAGRANGIANS["phase"]

    def both(field):
        return lambda s, c: getattr(energy, field)(s, c) + getattr(phase, field)(s, c)

    summed = Lagrangian(**{field: both(field) for field in ("a", "b", "k")},
                        from_run=None)
    monkeypatch.setitem(LAGRANGIANS, "energy+phase", summed)
    prob = OptimizationProblem(cost="energy+phase", lam=1.0, mu=0.5, s_i=1.0, s_f=2.0)
    res = solve_bvp(prob, consts)
    assert res.iterations <= 10
    rep = j_total(res.protocol, prob, consts)
    assert rep.f_absorbed == pytest.approx(4.0 * rep.f_energy / consts.m + rep.f_alpha,
                                           rel=1e-14)
    _assert_local_minimum(res.protocol, prob, consts)


def test_f_energy_refines_at_second_order(consts):
    # the a / gap term on the fitted cells and the rest on a trapezoid:
    # each doubling of the grid shrinks the change of f_energy by 3x or
    # more (energy lam=1 mu=0.01 1 -> 5)
    values = [f_energy(solve_bvp(OptimizationProblem("energy", 1.0, 0.01, 1.0, 5.0, n),
                                 consts).protocol, consts)
              for n in (2001, 4001, 8001, 16001)]
    steps = np.abs(np.diff(values))
    assert np.all(steps[1:] * 3.0 <= steps[:-1]), steps


def test_emission_and_j_total_make_one_cell_pass(consts, monkeypatch):
    # a schedule's time table and its j_total read one pass over its
    # duration cells, and each result is bitwise the one from a pass of its
    # own weight alone; a changed schedule makes a new pass
    prob = OptimizationProblem("energy", 1.0, 0.3, 1.0, 2.0, 501)
    p = solve_bvp(prob, consts).protocol
    real = analog._duration_cells
    calls = []

    def counted(*args):
        calls.append(len(args))
        return real(*args)

    monkeypatch.setattr(analog, "_duration_cells", counted)
    emitted = to_time_domain(p, consts)
    report = j_total(p, prob, consts)
    assert calls == [3]
    cells = real(p, consts)
    t_nodes = np.concatenate(([0.0], np.cumsum(0.5 * cells)))
    assert emitted.t_nodes.tobytes() == t_nodes.tobytes()
    assert time_of_s(p, consts).tobytes() == t_nodes.tobytes()
    assert report.duration == duration(p, consts) == float(0.5 * np.sum(cells))
    assert report.f_energy == f_energy(p, consts)
    assert len(calls) == 1
    p.kbar[p.kbar.size // 2] *= 1.0 + 1e-9
    assert duration(p, consts) == float(0.5 * np.sum(real(p, consts)))
    assert len(calls) == 2


@pytest.mark.parametrize("pinned", ["both", "start", "neither"])
def test_j_total_shares_one_cell_pass_to_the_bit(consts, pinned):
    # duration and f_energy come from one pass over their fitted cells;
    # every field equals the separate functions' value exactly
    s = np.linspace(1.0, 2.0, 2001)
    gap = {"both": 0.5 * ((s - 1.0) * (2.0 - s)) ** (2.0 / 3.0),
           "start": 0.5 * (s - 1.0) ** (2.0 / 3.0),
           "neither": 1.0 - 0.3 * s}[pinned]
    p = SGridProtocol(s, (1.0 - gap) / s)
    assert _pinned_ends(flow_gap(p, consts)) == {
        "both": (True, True), "start": (True, False), "neither": (False, False)}[pinned]
    boundary = float(s[-1] * p.kbar[-1] - s[0] * p.kbar[0])
    for cost in ("energy", "phase", "work"):
        prob = OptimizationProblem(cost=cost, lam=2.0, mu=0.1, s_i=1.0, s_f=2.0)
        report = j_total(p, prob, consts)
        assert report.duration == duration(p, consts)
        assert report.f_energy == f_energy(p, consts)
        assert report.f_alpha == f_alpha(p, consts)
        assert report.g_penalty == g_penalty(p, consts)
        assert report.work == work_classical(p, consts)
        # each raw functional is its cost's F times a prefactor plus a
        # boundary term, formed in the same order
        f_abs = report.f_absorbed
        raw = {"energy": (consts.m / 4.0) * (f_abs + (2.0 / consts.gamma) * boundary),
               "phase": f_abs, "work": 0.5 * (f_abs + boundary)}[cost]
        assert raw == {"energy": report.f_energy, "phase": report.f_alpha,
                       "work": report.work}[cost]
        if cost == "work":
            assert f_abs == -np.sum(0.5 * (p.kbar[1:] + p.kbar[:-1]) * np.diff(s))
        assert report.j_total == report.duration + 2.0 * f_abs + 0.1 * report.g_penalty

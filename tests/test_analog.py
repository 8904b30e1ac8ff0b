"""Stiffness correspondence, duration quadrature, time-domain emission."""

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gamma as gamma_fn

from swifttrap import (
    InfeasibleProtocolError,
    IntegrationError,
    OptimizationProblem,
    SGridProtocol,
    TimeProtocol,
    chen_polynomial,
    duration,
    equilibrium_kappa,
    equilibrium_kbar,
    evolve_variance,
    f_energy,
    flow_gap,
    quantum_from_classical_s,
    quantum_from_classical_t,
    solve_bvp,
    time_of_s,
    to_time_domain,
    variance_rate,
)
from swifttrap import analog
from swifttrap.analog import (
    _GAUSS_W,
    _GAUSS_X,
    _cell_geometry,
    _end_cell,
    _fitted_cells,
    _kappa,
    _layer_exponent,
    _schedule_cells,
)
from swifttrap.costs import _over_gap
from test_model import _recursive_scan, same_bits


def _pinned_analytic(amplitude=0.5, n=2001):
    """Schedule with gap = A ((s-1)(2-s))^(2/3): equilibrium-pinned ends and
    a duration known in closed form through the Beta function."""
    s = np.linspace(1.0, 2.0, n)
    gap = amplitude * ((s - 1.0) * (2.0 - s)) ** (2.0 / 3.0)
    return s, SGridProtocol(s, (1.0 - gap) / s)


def test_variance_rate_signs_and_validation(consts):
    assert variance_rate(1.0, 1.0, consts) == 0.0
    assert variance_rate(1.0, 0.5, consts) > 0.0   # soft trap: spreading
    assert variance_rate(1.0, 2.0, consts) < 0.0   # stiff trap: squeezing
    with pytest.raises(ValueError):
        variance_rate(-1.0, 1.0, consts)


def test_flow_gap_matches_definition(consts):
    s = np.linspace(1.0, 2.0, 11)
    p = SGridProtocol(s, 0.3 * np.ones(11))
    assert np.allclose(flow_gap(p, consts), 1.0 - 0.3 * s, rtol=1e-15)


def test_duration_closed_form_smooth(consts):
    # gap = sqrt(s): dt = (1/2) int ds / sqrt(s) = sqrt(2) - 1
    s = np.linspace(1.0, 2.0, 2001)
    p = SGridProtocol(s, (1.0 - np.sqrt(s)) / s)
    assert duration(p, consts) == pytest.approx(np.sqrt(2.0) - 1.0, abs=1e-8)


@pytest.mark.parametrize("amplitude", [0.5, 1.0])
def test_duration_closed_form_pinned_ends(consts, amplitude):
    _, p = _pinned_analytic(amplitude)
    beta_13 = gamma_fn(1.0 / 3.0) ** 2 / gamma_fn(2.0 / 3.0)
    exact = beta_13 / (2.0 * amplitude)
    assert duration(p, consts) == pytest.approx(exact, rel=2e-4)


@pytest.mark.parametrize("case", ["both pinned", "both pinned, compression",
                                  "start pinned", "unpinned"])
@pytest.mark.parametrize("nodes,rel", [("uniform", 2e-4), ("graded", 1e-6)])
def test_fitted_pair_integrates_a_varying_weight(consts, case, nodes, rel):
    # the one pass over 1 / gap integrates any nodal weight w through
    # w[:-1] cells + dw slope; quad weights the pinned ends' power laws
    # exactly (weight="alg"), so the reference is independent of the cells.
    # On graded nodes a zero slope would miss by 1e-5 or more
    def weight(s):
        return 2.0 / s + 0.5 * s * s

    eta = np.linspace(0.0, 1.0, 2001)
    s = 1.0 + (eta if nodes == "uniform" else 0.5 * (1.0 - np.cos(np.pi * eta)))
    if case == "unpinned":
        gap = 1.0 - 0.3 * s
        want = quad(lambda x: weight(x) / (1.0 - 0.3 * x), 1.0, 2.0, epsabs=0.0)[0]
    else:
        left, right = -2.0 / 3.0, (0.0 if case == "start pinned" else -2.0 / 3.0)
        gap = 0.5 * (s - 1.0) ** (2.0 / 3.0) * (2.0 - s) ** (-right)
        want = quad(lambda x: 2.0 * weight(x), 1.0, 2.0, weight="alg",
                    wvar=(left, right), epsabs=0.0)[0]
    if case.endswith("compression"):
        # run 2 -> 1 with the flow reversed: the signed integral is the same
        s, gap = s[::-1], -gap[::-1]
    p = SGridProtocol(s, (1.0 - gap) / s)
    assert _over_gap(weight(s), _schedule_cells(p, consts)) == pytest.approx(want, rel=rel)


def test_time_of_s_cumulative(consts):
    _, p = _pinned_analytic()
    t = time_of_s(p, consts)
    assert t[0] == 0.0
    assert np.all(np.diff(t) > 0.0)
    assert t[-1] == pytest.approx(duration(p, consts), rel=1e-12)


def test_interior_stall_is_rejected(consts):
    s = np.linspace(1.0, 2.0, 101)
    kbar = equilibrium_kbar(s, consts).copy()
    kbar += 0.2 * np.sin(np.pi * (s - 1.0))   # gap < 0: flow reversed
    with pytest.raises(InfeasibleProtocolError) as exc:
        duration(SGridProtocol(s, kbar), consts)
    assert exc.value.node is not None


def test_linearly_vanishing_gap_diverges(consts):
    # gap ~ |s - s_end| has a log-divergent time integral; the grid must be
    # fine enough that the fitted boundary exponent resolves the linear zero
    s = np.linspace(1.0, 2.0, 1001)
    gap = 0.5 * (s - 1.0) * (2.0 - s)
    with pytest.raises(InfeasibleProtocolError, match="diverges"):
        duration(SGridProtocol(s, (1.0 - gap) / s), consts)


def test_evolve_variance_exponential_relaxation(consts):
    tn = np.linspace(0.0, 3.0, 301)
    kb = 0.8
    proto = TimeProtocol(tn, np.full_like(tn, kb), "classical")
    traj = evolve_variance(proto, 1.0, consts)
    s_eq = 1.0 / kb
    exact = s_eq + (1.0 - s_eq) * np.exp(-2.0 * kb * tn)
    assert np.max(np.abs(traj.s - exact)) <= 1e-12
    assert np.allclose(traj.sdot, variance_rate(traj.s, proto.values, consts))


def _variance_stepping_reference(kbar_t, s_start, c, dt):
    """RK4 on sdot = (2/gamma)(D gamma - kbar s), ceil(cell/dt) substeps per
    cell with kbar linear inside it, stepped one substep at a time."""
    t, k = kbar_t.t_nodes, kbar_t.values
    out = [s_start]
    s = s_start
    for j in range(t.size - 1):
        m_sub = max(1, int(np.ceil((t[j + 1] - t[j]) / dt)))
        h = (t[j + 1] - t[j]) / m_sub
        for i in range(m_sub):
            ka, km, kb = np.interp(t[j] + h * np.array([i, i + 0.5, i + 1.0]), t, k)
            f1 = 2.0 * (c.D * c.gamma - ka * s) / c.gamma
            f2 = 2.0 * (c.D * c.gamma - km * (s + 0.5 * h * f1)) / c.gamma
            f3 = 2.0 * (c.D * c.gamma - km * (s + 0.5 * h * f2)) / c.gamma
            f4 = 2.0 * (c.D * c.gamma - kb * (s + h * f3)) / c.gamma
            s += (h / 6.0) * (f1 + 2.0 * f2 + 2.0 * f3 + f4)
        out.append(s)
    return np.array(out)


@pytest.mark.parametrize("dt", [None, 0.013, 0.5])
def test_evolve_variance_matches_stepping_reference(consts, dt):
    # graded cells of 95-360, 4-12 and 1 substeps for the three steps, kbar
    # swinging from squeezing to (at its dip) expulsive
    t = np.linspace(0.0, 3.0, 37) ** 1.3
    proto = TimeProtocol(t, 0.9 + 1.8 * np.sin(2.0 * t), "classical")
    traj = evolve_variance(proto, 1.0, consts, dt)
    ref = _variance_stepping_reference(proto, 1.0, consts, dt or (t[-1] - t[0]) / 1.0e3)
    assert np.max(np.abs(traj.s - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("dt", [None, 0.013, 0.5])
def test_evolve_variance_is_the_recursive_scan_to_the_bit(consts, dt, monkeypatch):
    t = np.linspace(0.0, 3.0, 37) ** 1.3
    proto = TimeProtocol(t, 0.9 + 1.8 * np.sin(2.0 * t), "classical")
    got = evolve_variance(proto, 1.0, consts, dt)
    monkeypatch.setattr(analog, "_prefix_step_maps", _recursive_scan)
    want = evolve_variance(proto, 1.0, consts, dt)
    for name in ("t", "s", "sdot"):
        assert same_bits(getattr(got, name), getattr(want, name)), name


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_evolve_variance_guards(consts):
    tn = np.linspace(0.0, 1.0, 11)
    quantum = TimeProtocol(tn, np.ones(11), "quantum")
    with pytest.raises(ValueError, match="classical"):
        evolve_variance(quantum, 1.0, consts)
    proto = TimeProtocol(tn, np.ones(11), "classical")
    with pytest.raises(ValueError):
        evolve_variance(proto, -1.0, consts)
    with pytest.raises(ValueError):
        evolve_variance(proto, 1.0, consts, dt=0.0)
    # strongly expulsive trap blows the variance up (overflow to inf)
    expulsive = TimeProtocol(np.linspace(0.0, 80.0, 11), np.full(11, -5.0), "classical")
    with pytest.raises(IntegrationError):
        evolve_variance(expulsive, 1.0, consts)


def test_evolve_variance_raises_past_the_rk4_bound(consts):
    # a hold at kbar = 400 relaxing from s = 2/400: substeps of 0.005 have
    # h (2/gamma) kbar = 4, where RK4 multiplies a deviation from
    # equilibrium by R(-4) = 5 (it returned s kbar = 3.38 where the flow
    # relaxes to 1); inside the bound the flow lands on 1
    hold = TimeProtocol(np.linspace(0.0, 0.05, 11), np.full(11, 400.0), "classical")
    with pytest.raises(IntegrationError, match="stability") as exc:
        evolve_variance(hold, 2.0 / 400.0, consts, dt=0.005)
    assert exc.value.t == 0.0
    fine = evolve_variance(hold, 2.0 / 400.0, consts, dt=1e-4)
    assert fine.s[-1] * 400.0 == pytest.approx(1.0, abs=1e-12)
    # on kbar = 1 + 399 t the first substep past the bound starts at 0.695:
    # it ends at kbar = 280.3 > 2.785 / 0.01, the one before at 278.3
    ramp = TimeProtocol(np.array([0.0, 1.0]), np.array([1.0, 400.0]), "classical")
    with pytest.raises(IntegrationError, match="stability") as exc:
        evolve_variance(ramp, 1.0, consts, dt=0.005)
    assert exc.value.t == pytest.approx(0.695, abs=1e-12)


def original_nodes(td, p, c):
    """Where the schedule's own nodes sit in its emitted table."""
    t = time_of_s(p, c)
    j = np.searchsorted(td.classical.t_nodes, t)
    assert same_bits(td.classical.t_nodes[j], t)
    return j


def test_map_s_and_t_forms_agree(consts):
    # the same schedule mapped via d/ds and, on the emitted table, via d/dt
    # (chain rule check)
    _, p = _pinned_analytic()
    td = to_time_domain(p, consts)
    kap_s = quantum_from_classical_s(p, consts)
    kap_t = quantum_from_classical_t(td.classical, td.s, consts).values
    j = original_nodes(td, p, consts)
    assert np.max(np.abs(kap_s - kap_t[j])[30:-30]) <= 1e-3


@pytest.mark.parametrize("case", ["energy lam=10 mu=0.001 1->5", "uniform fixture"])
def test_emitted_kappa_reads_no_node_time(consts, case, monkeypatch):
    # the emitted kappa at the schedule's nodes is the s-domain map itself,
    # so moving every node time by one ulp leaves it unchanged to the bit
    if case == "uniform fixture":
        p = _pinned_analytic()[1]
    else:
        p = solve_bvp(OptimizationProblem("energy", 10.0, 0.001, 1.0, 5.0), consts).protocol
    td = to_time_domain(p, consts)
    j = original_nodes(td, p, consts)
    kap_s = quantum_from_classical_s(p, consts)
    assert same_bits(td.quantum.values[j], kap_s)
    assert same_bits(td.s[j], p.s_nodes) and same_bits(td.classical.values[j], p.kbar)

    real = analog.time_of_s
    monkeypatch.setattr(analog, "time_of_s", lambda *a: np.nextafter(real(*a), np.inf))
    moved = to_time_domain(p, consts)
    assert not same_bits(moved.classical.t_nodes, td.classical.t_nodes)
    assert same_bits(moved.quantum.values, td.quantum.values)


def test_s_map_is_exact_for_the_pinned_end_model(consts):
    # kbar = a + b tau^(2/3) from each pinned end (kbar = D gamma / s there):
    # the fitted kbar' is exact away from the middle, where the two models
    # meet, and the rate term vanishes at the ends, where gap ~ tau^(2/3)
    # and kbar' ~ tau^(-1/3)
    s = np.linspace(1.0, 2.0, 2001)
    tau = np.minimum(s - 1.0, 2.0 - s)
    left = s - 1.0 <= 2.0 - s
    kbar = np.where(left, 1.0 - 0.3 * np.cbrt(tau**2), 0.5 - 0.1 * np.cbrt(tau**2))
    p = SGridProtocol(s, kbar)
    got = quantum_from_classical_s(p, consts)
    inner = slice(1, -1)
    dkbar = np.where(left, -0.3, 0.1)[inner] * (2.0 / 3.0) / np.cbrt(tau[inner])
    rate = (2.0 * consts.m / consts.gamma**2) * flow_gap(p, consts)[inner] * dkbar
    want = _kappa(s[inner], kbar[inner], rate, consts)
    far_from_middle = np.abs(s[inner] - 1.5) > 1e-3
    err = np.abs(got[inner] - want)[far_from_middle]
    assert np.max(err) <= 1e-10 * np.max(np.abs(want))
    for end in (0, -1):
        assert got[end] == _kappa(s[end], kbar[end], 0.0, consts)


def test_swift_equilibration_maps_to_chen_ramp(consts):
    # the engineered swift equilibration of the bead prescribes s(t) and
    # applies kbar = (D gamma - gamma sdot/2)/s; through the analog its
    # quantum image is Chen's ramp with the same s = s_i q^2, both reading
    # kappa/m = kappa_i/(m q^4) - qddot/q (Martinez et al., Nature Physics
    # 12, 843 (2016); Chen et al., PRL 104, 063002 (2010)).  Read as an
    # s-grid schedule, the emission must give back Chen's times and kappa
    # at second order, with kappa exact at both ends.
    s_i, s_f, span = 1.0, 2.0, 1.0
    errors = []
    for n in (501, 2001, 8001):
        chen, q = chen_polynomial(equilibrium_kappa(s_i, consts),
                                  equilibrium_kappa(s_f, consts), span, consts, n)
        tn = chen.t_nodes / span
        # q = 1 + (q_f - 1)(6 T^5 - 15 T^4 + 10 T^3), q_f = sqrt(s_f/s_i)
        qdot = (np.sqrt(s_f / s_i) - 1.0) * 30.0 * tn**2 * (1.0 - tn) ** 2 / span
        s = s_i * q**2
        kbar = consts.gamma * (consts.D - s_i * q * qdot) / s
        p = SGridProtocol(s, kbar)
        kappa = quantum_from_classical_s(p, consts)
        assert kappa[[0, -1]] == pytest.approx(chen.values[[0, -1]], rel=1e-15, abs=0.0)
        errors.append((np.max(np.abs(time_of_s(p, consts) - chen.t_nodes)) / span,
                       np.max(np.abs(kappa - chen.values)) / np.max(np.abs(chen.values))))
    # 9.1e-6, 7.4e-7, 6.1e-8 of T and 2.4e-5, 1.5e-6, 1.2e-7 of max|kappa|
    bounds = ((1.2e-5, 3e-5), (1e-6, 2e-6), (1e-7, 2e-7))
    for (err_t, err_k), (bound_t, bound_k) in zip(errors, bounds):
        assert err_t <= bound_t and err_k <= bound_k, (err_t, err_k)
    # each fourfold refinement gains at least a factor 10 (order > 1.6)
    for coarse, fine in zip(errors, errors[1:]):
        assert min(c / f for c, f in zip(coarse, fine)) >= 10.0, (coarse, fine)


def test_map_t_form_guards(consts):
    tn = np.linspace(0.0, 1.0, 11)
    proto = TimeProtocol(tn, np.ones(11), "classical")
    with pytest.raises(ValueError, match="classical"):
        quantum_from_classical_t(TimeProtocol(tn, np.ones(11), "quantum"),
                                 np.ones(11), consts)
    with pytest.raises(ValueError):
        quantum_from_classical_t(proto, np.ones(10), consts)
    with pytest.raises(ValueError):
        quantum_from_classical_t(proto, -np.ones(11), consts)


def test_emission_round_trip(consts):
    _, p = _pinned_analytic()
    td = to_time_domain(p, consts)
    assert td.classical.kind == "classical" and td.quantum.kind == "quantum"
    assert td.s[0] == pytest.approx(1.0, abs=1e-12)
    assert td.s[-1] == pytest.approx(2.0, abs=1e-9)
    assert td.duration == pytest.approx(duration(p, consts), rel=1e-12)
    # driving the flow with the emitted schedule reproduces the emitted s
    traj = evolve_variance(td.classical, 1.0, consts)
    assert np.max(np.abs(traj.s - td.s)) <= 2e-4


def test_emission_endpoint_stiffness_is_equilibrium(cache):
    # at pinned ends kbar approaches its boundary value quadratically in
    # time, so the emitted quantum stiffness must start and end on the
    # equilibrium values rather than inherit a finite differencing bias
    td = cache.timedomain("phase", 0.5)
    assert td.quantum.values[0] == pytest.approx(0.5, abs=1e-4)
    assert td.quantum.values[-1] == pytest.approx(0.125, abs=1e-4)


def test_emission_rejects_tiny_grid(consts):
    _, p = _pinned_analytic(n=501)
    with pytest.raises(ValueError):
        to_time_domain(p, consts, n_t=5)


def _fitted_cells_from_scratch(x, g, pinned_left, pinned_right):
    """_fitted_cells with its Gauss geometry built on every call, no memo."""
    if not (pinned_left or pinned_right):
        v = 1.0 / g
        return 0.5 * (v[:-1] + v[1:]) * np.diff(x), 0.5 * v[1:] * np.diff(x)
    g = g.copy()
    if pinned_left:
        p_left = _layer_exponent(x, g, 0)
        g[0] = 0.0
    if pinned_right:
        p_right = _layer_exponent(x, g, -1)
        g[-1] = 0.0
    mid = 0.5 * (x[:-1] + x[1:])
    if pinned_left and pinned_right:
        end = np.where(np.abs(mid - x[0]) <= np.abs(mid - x[-1]), x[0], x[-1])
    else:
        end = np.full(mid.size, x[0] if pinned_left else x[-1])
    ua = np.cbrt(np.abs(x[:-1] - end))
    ub = np.cbrt(np.abs(x[1:] - end))
    sign = np.sign(mid - end)
    u = 0.5 * (ua + ub)[:, None] + 0.5 * (ub - ua)[:, None] * _GAUSS_X
    frac = (u**2 - (ua**2)[:, None]) / (ub**2 - ua**2)[:, None]
    g_u = g[:-1, None] + (g[1:] - g[:-1])[:, None] * frac
    base = 3.0 * u**2 / g_u
    cells = sign * 0.5 * (ub - ua) * (base @ _GAUSS_W)
    slope = sign * 0.5 * (ub - ua) * ((base * frac) @ _GAUSS_W)
    if pinned_left:
        cells[0], slope[0] = _end_cell(x[1] - x[0], g[1], p_left)
    if pinned_right:
        end, far = _end_cell(x[-1] - x[-2], g[-2], p_right)
        cells[-1], slope[-1] = end, end - far
    return cells, slope


def test_fitted_cells_memo_matches_from_scratch(consts):
    # solver nodes carry both pinned flag sets, so a memo keyed on the
    # nodes alone would hand one case the other's geometry
    solved = solve_bvp(OptimizationProblem("energy", 1.0, 0.1, 1.0, 2.0, 501), consts).protocol
    x = solved.s_nodes
    tau = x - x[0]
    hand = np.linspace(1.0, 3.0, 301) + 0.002 * np.sin(np.arange(301.0))
    hand[0], hand[-1] = 1.0, 3.0
    cases = {
        "solver nodes, both ends pinned": (x, flow_gap(solved, consts), True, True),
        "solver nodes, start pinned": (x, 0.3 * tau ** (2.0 / 3.0) + 0.1 * tau, True, False),
        "solver nodes, no end pinned": (x, 0.2 + tau, False, False),
        "hand-built nodes, both ends pinned":
            (hand, ((hand - 1.0) * (3.0 - hand)) ** (2.0 / 3.0), True, True),
    }

    def same_pair(got, want):
        return all(a.tobytes() == b.tobytes() for a, b in zip(got, want, strict=True))

    _cell_geometry.cache_clear()
    hits = 0
    for label, (nodes, g, left, right) in cases.items():
        want = _fitted_cells_from_scratch(nodes, g, left, right)
        for _ in range(2):  # cold, then from the memo
            assert same_pair(_fitted_cells(nodes, g, left, right), want), label
        hits += left or right
        assert _cell_geometry.cache_info().hits == hits, label
    _cell_geometry.cache_clear()
    for label, (nodes, g, left, right) in cases.items():
        want = _fitted_cells_from_scratch(nodes, g, left, right)
        assert same_pair(_fitted_cells(nodes, g, left, right), want), label


def test_fitted_cells_geometry_is_shared_and_read_only(consts):
    # duration, time table and energy cost of one schedule share one entry;
    # the duration and the energy cost read the time table's cells and
    # need no geometry
    p = solve_bvp(OptimizationProblem("phase", 1.0, 0.5, 1.0, 2.0, 501), consts).protocol
    _cell_geometry.cache_clear()
    to_time_domain(p, consts)
    duration(p, consts)
    f_energy(p, consts)
    info = _cell_geometry.cache_info()
    assert info.misses == 1 and info.hits == 0
    for a in _cell_geometry(p.s_nodes.tobytes(), True, True):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0.0

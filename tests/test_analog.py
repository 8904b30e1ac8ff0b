"""Stiffness correspondence, duration quadrature, time-domain emission."""

import numpy as np
import pytest
from scipy.special import gamma as gamma_fn

from swifttrap import (
    InfeasibleProtocolError,
    IntegrationError,
    OptimizationProblem,
    SGridProtocol,
    TimeProtocol,
    duration,
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
    _hermite,
    _layer_exponent,
)
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
    ref = _variance_stepping_reference(proto, 1.0, consts, dt or (t[-1] - t[0]) / 1.0e4)
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


def test_map_s_and_t_forms_agree(consts):
    # the same schedule mapped via d/ds and via d/dt (chain rule check)
    _, p = _pinned_analytic()
    td = to_time_domain(p, consts)
    kap_s = quantum_from_classical_s(p, consts)
    assert np.max(np.abs(kap_s - td.kappa_nodes)[30:-30]) <= 1e-3


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


def test_hermite_evaluator_on_nonuniform_nodes():
    from scipy.interpolate import CubicHermiteSpline  # reference only

    t_nodes = 3.0 * np.linspace(0.0, 1.0, 41) ** 1.7
    t = np.linspace(0.0, t_nodes[-1], 1001)

    def cubic(x):
        return 2.0 - 1.5 * x + 0.7 * x**2 - 0.3 * x**3

    def cubic_dot(x):
        return -1.5 + 1.4 * x - 0.9 * x**2

    exact = cubic(t)
    got = _hermite(t_nodes, cubic(t_nodes), cubic_dot(t_nodes), t)
    assert np.max(np.abs(got - exact)) <= 1e-13 * np.max(np.abs(exact))

    y, dy = np.sin(2.0 * t_nodes), 2.0 * np.cos(2.0 * t_nodes)
    # node values come back exactly, t_nodes[-1] (the clipped last cell) too
    assert np.array_equal(_hermite(t_nodes, y, dy, t_nodes), y)
    ref = CubicHermiteSpline(t_nodes, y, dy)(t)
    assert np.max(np.abs(_hermite(t_nodes, y, dy, t) - ref)) <= 1e-13 * np.max(np.abs(ref))


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


def _fitted_cells_from_scratch(x, w, g, pinned_left, pinned_right):
    """_fitted_cells with its Gauss geometry built on every call, no memo."""
    if not (pinned_left or pinned_right):
        v = w / g
        return 0.5 * (v[:-1] + v[1:]) * np.diff(x)
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
    w_u = w[:-1, None] + (w[1:] - w[:-1])[:, None] * frac
    cells = sign * 0.5 * (ub - ua) * ((3.0 * u**2 * w_u / g_u) @ _GAUSS_W)
    if pinned_left:
        cells[0] = _end_cell(x[1] - x[0], g[1], w[0], w[1], p_left)
    if pinned_right:
        cells[-1] = _end_cell(x[-1] - x[-2], g[-2], w[-1], w[-2], p_right)
    return cells


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
    _cell_geometry.cache_clear()
    hits = 0
    for label, (nodes, g, left, right) in cases.items():
        w = 1.0 + 0.5 * np.cos(nodes)
        want = _fitted_cells_from_scratch(nodes, w, g, left, right).tobytes()
        for _ in range(2):  # cold, then from the memo
            assert _fitted_cells(nodes, w, g, left, right).tobytes() == want, label
        hits += left or right
        assert _cell_geometry.cache_info().hits == hits, label
    _cell_geometry.cache_clear()
    for label, (nodes, g, left, right) in cases.items():
        w = 1.0 + 0.5 * np.cos(nodes)
        want = _fitted_cells_from_scratch(nodes, w, g, left, right).tobytes()
        assert _fitted_cells(nodes, w, g, left, right).tobytes() == want, label


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

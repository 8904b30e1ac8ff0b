"""Quantum/classical stiffness correspondence and the variance flow.

A Gaussian ground state of width s in a quantum trap kappa(t) has the same
position statistics as an overdamped bead in a classical trap kbar(t) when
D = hbar/(2m), which PhysConsts holds by construction, so every map here
applies to any constants it accepts.  The bridge works in both directions:

* forward: drive the bead with kbar(t), its variance obeys
  sdot = (2/gamma) * (D*gamma - kbar*s);
* back: given kbar and the variance history, the quantum stiffness is
  kappa = hbar^2/(2 m s^2) + (m/gamma) * d(kbar)/dt - (m/gamma^2) * kbar^2,
  or equivalently, with s as the independent variable,
  kappa = hbar^2/(2 m s^2) + (2m/gamma^2) (D gamma - s kbar) kbar' - (m/gamma^2) kbar^2.

Schedules parametrized by s are turned into time-domain protocols through
the duration integral dt = gamma ds / (2 (D gamma - s kbar)).  Protocols
pinned to equilibrium at both ends make that integrand blow up like
|s - s_end|^(-2/3); the quadrature here models the gap in every cell as
linear in |s - s_end|^(2/3) of the nearer pinned end, which integrates
that blow-up exactly instead of evaluating at the endpoints; the cell at
each pinned end takes the power fitted there, so other powers below one
are integrated exactly in that cell too.  One pass over 1/gap gives a
(cells, slope) pair that integrates any nodal weight (_fitted_cells): the
duration, the time table and every cost's a(s)/gap term read the pair
kept on the schedule.  Its Gauss geometry depends on the nodes and on which
ends are pinned, so `_cell_geometry` memoizes it (functools.lru_cache, at
most 16 node arrays, about 145 kB each at 2001 nodes, keyed on the nodes'
bytes) for every schedule solved on the same grid.

The time-domain emission is the schedule's node table: each node at its
transfer time with its kbar and the s-domain kappa, whose kbar' reads the
same tau^(2/3) model.  Nothing is resampled or differenced in time.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleProtocolError, IntegrationError
from .model import PhysConsts, SGridProtocol, TimeProtocol, _node_substeps, _prefix_step_maps

__all__ = [
    "TimeDomainProtocols",
    "VarianceTrajectory",
    "duration",
    "evolve_variance",
    "flow_gap",
    "quantum_from_classical_s",
    "quantum_from_classical_t",
    "time_of_s",
    "to_time_domain",
    "variance_rate",
]


def variance_rate(s, kbar, c: PhysConsts):
    """Instantaneous variance velocity of the overdamped ensemble.

    sdot = (2/gamma) * (D*gamma - kbar*s).  Positive while the trap is
    softer than the equilibrium stiffness for the current width.
    """
    s = np.asarray(s, dtype=float)
    if np.any(s <= 0.0):
        raise ValueError("variance must be positive")
    kbar = np.asarray(kbar, dtype=float)
    out = 2.0 * (c.D * c.gamma - kbar * s) / c.gamma
    return float(out) if out.ndim == 0 else out


def flow_gap(p: SGridProtocol, c: PhysConsts) -> np.ndarray:
    """D*gamma - s*kbar at every node; the signed distance to stalling."""
    return c.D * c.gamma - p.s_nodes * p.kbar


@dataclass
class VarianceTrajectory:
    """Variance history sampled at the driving protocol's own nodes."""

    t: np.ndarray
    s: np.ndarray
    sdot: np.ndarray


# |R(z)| <= 1 for RK4's stability function on z in [-2.785, 0]
_RK4_REAL_BOUND = 2.785


def _variance_steps(kbar_t: TimeProtocol, c: PhysConsts, dt: float | None = None):
    """The RK4 substeps of the variance flow under kbar_t, as affine maps.

    The flow is affine in s, so each substep is the map s <- (1 + e) s + b,
    i.e. the 2x2 map [[1 + e, b], [0, 1]] on (s, 1), written in closed form
    from the substep's three kbar samples.  Returns (ta, h, ends, maps):
    model._node_substeps' layout and the (4, n) rows E00 = e, E01 = b,
    E10 = E11 = 0 of every substep, in time order.

    Raises IntegrationError, with the substep's start time, at the first
    substep where h (2/gamma) kbar at one of its three samples exceeds
    2.785, RK4's stability bound on the negative real axis: past it a
    deviation from the flow's equilibrium grows each substep where the
    exact flow damps it.  kbar < 0 makes the flow itself grow, so it is
    not bounded here.
    """
    two_over_gamma = 2.0 / c.gamma
    source = two_over_gamma * (c.D * c.gamma)

    ta, h, ends, ka, km, kb = _node_substeps(kbar_t, dt)
    # rates -(2/gamma) kbar at the substep's start, midpoint and end
    x = -two_over_gamma * ka
    y = -two_over_gamma * km
    z = -two_over_gamma * kb
    stiff = -h * np.minimum(np.minimum(x, y), z)
    if np.max(stiff) > _RK4_REAL_BOUND:
        k = int(np.argmax(stiff > _RK4_REAL_BOUND))
        raise IntegrationError(
            f"substep h={h[k]:.3g} gives h*(2/gamma)*kbar={stiff[k]:.3g} above the RK4 "
            f"stability bound {_RK4_REAL_BOUND} at t={ta[k]:.6g}", t=float(ta[k]))

    hy = h * y
    e = np.zeros((4, ends[-1]))
    e[0] = (h / 6.0 * (x + 4.0 * y + z) + h * hy / 6.0 * (x + y + z)
            + h * hy * hy / 12.0 * (x + z) + h * hy * hy * h * x * z / 24.0)
    e[1] = (h * source / 6.0) * (6.0 + 2.0 * hy + h * z + 0.5 * hy * hy
                              + 0.5 * hy * h * z + 0.25 * hy * hy * h * z)
    return ta, h, ends, e


def evolve_variance(kbar_t: TimeProtocol, s_start: float, c: PhysConsts,
                    dt: float | None = None) -> VarianceTrajectory:
    """Integrate the variance flow under kbar_t, from variance s_start.

    Classic fixed-step RK4, with substeps chosen so no step straddles a
    protocol node (kbar is linear inside each cell, so fourth order is
    preserved): a cell of length L takes ceil(L/dt) equal substeps, laid
    out by model._node_substeps, which integrate_ermakov shares along with
    its default dt.  Each substep is an affine map of s (_variance_steps,
    which montecarlo's ensembles read too); the maps are composed by a
    vectorized prefix scan.  Samples are returned at the protocol nodes.
    Raises IntegrationError (with the failure time) at the first substep
    that breaks RK4's stability bound h (2/gamma) kbar <= 2.785
    (_variance_steps), and at the end of the first substep where s leaves
    (0, inf).
    """
    if kbar_t.kind != "classical":
        raise ValueError("evolve_variance drives the classical trap; got a quantum schedule")
    if s_start <= 0.0:
        raise ValueError("starting variance must be positive")
    t_nodes = kbar_t.t_nodes
    ta, h, ends, maps = _variance_steps(kbar_t, c, dt)
    p = _prefix_step_maps(maps)
    with np.errstate(over="ignore", invalid="ignore"):
        s = s_start + s_start * p[0] + p[1]
    bad = np.flatnonzero(~(np.isfinite(s) & (s > 0.0)))
    if bad.size:
        t_bad = float(ta[bad[0]] + h[bad[0]])
        raise IntegrationError(
            f"variance left (0, inf) during integration at t={t_bad:.6g}", t=t_bad)

    s_out = np.empty_like(t_nodes)
    s_out[0] = s_start
    s_out[1:] = s[ends - 1]
    sdot = variance_rate(s_out, kbar_t.values, c)
    return VarianceTrajectory(t=t_nodes.copy(), s=s_out, sdot=sdot)


def _kappa(s, kbar, rate, c: PhysConsts):
    """hbar^2/(2 m s^2) + rate - (m/gamma^2) kbar^2, the quantum stiffness.

    rate is the (m/gamma) d(kbar)/dt term, written in time or, through
    dt = gamma ds / (2 gap), as (2m/gamma^2) gap d(kbar)/ds.
    """
    return c.hbar**2 / (2.0 * c.m * s**2) + rate - (c.m / c.gamma**2) * kbar**2


def quantum_from_classical_t(kbar_t: TimeProtocol, s_t: np.ndarray,
                             c: PhysConsts) -> TimeProtocol:
    """Map a time-domain classical schedule plus its variance history to kappa(t).

    kappa = hbar^2/(2 m s^2) + (m/gamma) d(kbar)/dt - (m/gamma^2) kbar^2,
    with the time derivative taken by centered differences on the protocol
    grid (second-order one-sided at the ends).  s_t must be the variance
    produced by this same schedule (e.g. from evolve_variance), sampled on
    the same grid.
    """
    if kbar_t.kind != "classical":
        raise ValueError("expected a classical schedule")
    s_t = np.asarray(s_t, dtype=float)
    if s_t.shape != kbar_t.t_nodes.shape:
        raise ValueError("s_t must be sampled on the protocol's time grid")
    if np.any(s_t <= 0.0):
        raise ValueError("variance samples must be positive")
    kbar = kbar_t.values
    kbar_dot = np.gradient(kbar, kbar_t.t_nodes, edge_order=2)
    kappa = _kappa(s_t, kbar, (c.m / c.gamma) * kbar_dot, c)
    return TimeProtocol(kbar_t.t_nodes.copy(), kappa, "quantum")


def quantum_from_classical_s(p: SGridProtocol, c: PhysConsts) -> np.ndarray:
    """Quantum stiffness on the protocol's s-grid.

    kappa(s) = hbar^2/(2 m s^2) + (2m/gamma^2)(D gamma - s kbar) kbar'
               - (m/gamma^2) kbar^2.
    With an equilibrium-pinned end, kbar' at interior nodes is exact for
    the model the duration cells use, kbar = a + b phi with phi = tau^(2/3)
    and tau the distance to the nearer pinned end:
    kbar'_j = phi'(s_j) (K[j+1] - K[j-1]) / (phi[j+1] - phi[j-1]).  At a
    pinned end gap ~ tau^(2/3) and kbar' ~ tau^(-1/3), so the rate term is
    0 there.  Otherwise kbar' is a centered difference (second-order
    one-sided at the ends).  On the equilibrium branch kbar = D gamma / s
    the rate term's prefactor is zero, so the result collapses to
    m D^2 / s^2 at machine precision regardless of discretization.
    """
    x, kbar = p.s_nodes, p.kbar
    g = flow_gap(p, c)
    pinned = _pinned_ends(g)
    kbar_prime = np.gradient(kbar, x, edge_order=2)
    if any(pinned):
        end = _nearer_end(x[1:-1], x, *pinned)
        phi_step = np.abs(x[2:] - end) ** (2.0 / 3.0) - np.abs(x[:-2] - end) ** (2.0 / 3.0)
        kbar_prime[1:-1] = (2.0 / 3.0) / np.cbrt(x[1:-1] - end) * (kbar[2:] - kbar[:-2]) / phi_step
    rate = (2.0 * c.m / c.gamma**2) * g * kbar_prime
    rate[[0, -1]] = np.where(pinned, 0.0, rate[[0, -1]])
    return _kappa(x, kbar, rate, c)


# ---------------------------------------------------------------------------
# duration quadrature
# ---------------------------------------------------------------------------

# endpoint counts as pinned to equilibrium below this fraction of the gap scale
_SINGULAR_REL = 1e-7

# 4-point Gauss-Legendre rule on [-1, 1]
_GAUSS_X = np.array([-0.8611363115940526, -0.33998104358485626,
                     0.33998104358485626, 0.8611363115940526])
_GAUSS_W = np.array([0.34785484513745357, 0.6521451548625464,
                     0.6521451548625464, 0.34785484513745357])


def _pinned_ends(g):
    """Which ends of the sampled gap g sit on the equilibrium branch."""
    scale = np.max(np.abs(g))
    return abs(g[0]) <= _SINGULAR_REL * scale, abs(g[-1]) <= _SINGULAR_REL * scale


def _nearer_end(y, x, pinned_left, pinned_right):
    """The pinned end of the nodes x nearer to each point y."""
    if pinned_left and pinned_right:
        return np.where(np.abs(y - x[0]) <= np.abs(y - x[-1]), x[0], x[-1])
    return x[0] if pinned_left else x[-1]


def _layer_exponent(x, g, end):
    """Exponent p of a gap leaving the pinned end like tau^p, p in [0, 1).

    The local exponent is fitted through the two nodes next to the end;
    the time integral of 1/gap diverges for p >= 1, which raises.
    """
    j1, j2 = (1, 2) if end == 0 else (-2, -3)
    tau1, tau2 = abs(x[j1] - x[end]), abs(x[j2] - x[end])
    p = np.log(abs(g[j2] / g[j1])) / np.log(tau2 / tau1)
    if p >= 0.99:
        where = "start" if end == 0 else "end"
        raise InfeasibleProtocolError(
            f"duration integral diverges at the {where} node "
            f"(local exponent {p:.3f} >= 1)",
            node=end if end == 0 else x.size - 1, s=float(x[end]))
    return max(p, 0.0)


def _end_cell(dx, g1, p):
    """The (cells, slope) pair of the cell [end, end + dx] at a pinned end.

    Models g = g1 (tau/|dx|)^p and w linear in tau^(2/3), as the other
    cells do, and integrates exactly: the cell of w / g is
    w_end * cells + (w_next - w_end) * slope.
    """
    return dx / g1 * (1.0 / (1.0 - p)), dx / g1 * (1.0 / (5.0 / 3.0 - p))


# node arrays whose cell geometry _cell_geometry keeps
_GEOMETRY_MEMO_SIZE = 16


@functools.lru_cache(maxsize=_GEOMETRY_MEMO_SIZE)
def _cell_geometry(x_bytes, pinned_left, pinned_right):
    """Gauss geometry of the fitted cells on the nodes stored in x_bytes.

    Returns (frac, three_u2, half, penalty) for the 4-point rule of every
    cell: frac = (u^2 - ua^2) / (ub^2 - ua^2) at the Gauss points u, 3 u^2,
    the signed half-width sign * (ub - ua) / 2, with u = tau^(1/3)
    measured from the nearer pinned end, and the (3, cells) rows
    penalty = (b2, bg, g2): with the gap g linear in phi = u^2 and kbar =
    (D gamma - g) / s, u dkbar/ds is smooth in u, and the rule makes the
    cell's integral of (dkbar/ds)^2 over |ds| the quadratic form b2 dg^2 +
    2 bg dg e + g2 e^2, dg = g_b - g_a, e = D gamma - g_a.  They depend on
    the nodes and the pinned flags alone, so the memo, keyed on the nodes'
    bytes, lets every schedule on the same grid share them (read-only).
    """
    x = np.frombuffer(x_bytes)
    mid = 0.5 * (x[:-1] + x[1:])
    end = _nearer_end(mid, x, pinned_left, pinned_right)
    ua = np.cbrt(np.abs(x[:-1] - end))
    ub = np.cbrt(np.abs(x[1:] - end))
    # ds = sign * dtau, with sign the direction pointing away from the end
    sign = np.sign(mid - end)
    u = 0.5 * (ua + ub)[:, None] + 0.5 * (ub - ua)[:, None] * _GAUSS_X
    frac = (u**2 - (ua**2)[:, None]) / (ub**2 - ua**2)[:, None]
    three_u2 = 3.0 * u**2
    half = sign * 0.5 * (ub - ua)
    # u dkbar/ds = -(beta dg + gamma e) / root at the Gauss points s
    s = np.reshape(end, (-1, 1)) + sign[:, None] * u**3
    root = np.sqrt(3.0 * np.abs(half)[:, None] * _GAUSS_W)
    slope = (sign * (2.0 / 3.0) / (ub**2 - ua**2))[:, None]
    beta, gamma = root * (slope / s - u * frac / s**2), root * u / s**2
    penalty = np.stack([np.sum(a * b, axis=1) for a, b in
                        ((beta, beta), (beta, gamma), (gamma, gamma))])
    for a in (frac, three_u2, half, penalty):
        a.flags.writeable = False
    return frac, three_u2, half, penalty


def _fitted_cells(x, g, pinned_left, pinned_right):
    """The (cells, slope) pair that integrates w/g dx for any nodal weight w.

    Every cell's integral is linear in the weight at its two nodes, so one
    pass over the gap serves every weight: the cells of w / g are
    w[:-1] * cells + (w[1:] - w[:-1]) * slope.  With no pinned end the
    cells use the trapezoid rule on w/g.  Otherwise every cell measures
    tau from the nearer pinned end and models both g and w as linear in
    phi = tau^(2/3) between its two nodes, which is exact for the leading
    behaviour g ~ tau^(2/3) of an equilibrium-pinned schedule; the model
    is integrated by 4-point Gauss-Legendre in u = tau^(1/3), where
    dx = 3 u^2 du makes the integrand smooth.  The cell at a pinned end
    instead models g as the power tau^p fitted there (_end_cell), so a gap
    leaving the end like any power p < 1 keeps its first cell exact and
    the sum converges as the grid refines (at second order for p = 2/3 on
    graded nodes).  A gap leaving a pinned end like tau^p with p >= 1
    raises InfeasibleProtocolError, since its time integral diverges.  The
    Gauss geometry comes from _cell_geometry.  Both arrays are read-only.
    """
    if not (pinned_left or pinned_right):
        v, half_dx = 1.0 / g, 0.5 * np.diff(x)
        cells, slope = (v[:-1] + v[1:]) * half_dx, v[1:] * half_dx
    else:
        g = g.copy()
        if pinned_left:
            p_left = _layer_exponent(x, g, 0)
            g[0] = 0.0
        if pinned_right:
            p_right = _layer_exponent(x, g, -1)
            g[-1] = 0.0
        frac, three_u2, half, _ = _cell_geometry(
            np.ascontiguousarray(x, dtype=float).tobytes(), pinned_left, pinned_right)
        base = three_u2 / (g[:-1, None] + (g[1:] - g[:-1])[:, None] * frac)
        cells = half * (base @ _GAUSS_W)
        slope = half * ((base * frac) @ _GAUSS_W)
        if pinned_left:
            cells[0], slope[0] = _end_cell(x[1] - x[0], g[1], p_left)
        if pinned_right:
            # the pinned node is w[-1], so the end cell's pair is mirrored
            end, far = _end_cell(x[-1] - x[-2], g[-2], p_right)
            cells[-1], slope[-1] = end, end - far
    for a in (cells, slope):
        a.flags.writeable = False
    return cells, slope


def _schedule_cells(p: SGridProtocol, c: PhysConsts) -> tuple[np.ndarray, np.ndarray]:
    """The fitted-cell pair of 1 / gap over p, kept on p.

    Raises InfeasibleProtocolError where the flow stalls inside.  The pair
    is keyed on the nodes, the stiffness and the constants, so a schedule
    changed in place gets a new pass.
    """
    key = (p.s_nodes.tobytes(), p.kbar.tobytes(), c)
    if p._cells is not None and p._cells[0] == key:
        return p._cells[1]
    g = flow_gap(p, c)
    bad = np.nonzero(g[1:-1] * p.direction <= 0.0)[0]
    if bad.size:
        j = int(bad[0]) + 1
        raise InfeasibleProtocolError(
            "protocol stalls or reverses the variance flow at interior node "
            f"{j} (s={p.s_nodes[j]:.6g}); sign(D*gamma - s*kbar) must match "
            "sign(s_f - s_i) strictly between the endpoints",
            node=j, s=float(p.s_nodes[j]))
    pair = _fitted_cells(p.s_nodes, g, *_pinned_ends(g))
    p._cells = (key, pair)
    return pair


def duration(p: SGridProtocol, c: PhysConsts) -> float:
    """Total transfer time of an s-parametrized schedule.

    Delta_t = (1/2) * integral of gamma / (D gamma - s kbar) ds from s_i
    to s_f.  Equilibrium-pinned endpoints give an integrable
    |s - s_end|^(-2/3) divergence, integrated exactly by the cells of
    _fitted_cells (second order on solved schedules, the trapezoid rule
    when no end is pinned); an interior stall (or an endpoint approached
    with exponent >= 1) raises InfeasibleProtocolError.
    """
    return float(0.5 * np.sum(c.gamma * _schedule_cells(p, c)[0]))


def time_of_s(p: SGridProtocol, c: PhysConsts) -> np.ndarray:
    """Cumulative transfer time at each node, t(s_i) = 0, t(s_f) = duration."""
    return np.concatenate(([0.0], np.cumsum(0.5 * (c.gamma * _schedule_cells(p, c)[0]))))


# ---------------------------------------------------------------------------
# time-domain emission
# ---------------------------------------------------------------------------

@dataclass
class TimeDomainProtocols:
    """Time-domain emission of an s-parametrized schedule: its node table.

    classical and quantum share one time grid; s is the variance on that
    grid.  The grid is the schedule's own nodes at their transfer times,
    plus, from to_time_domain, the sub-nodes of a pinned end cell longer
    than the mean time step; solver.analytic_work_optimal emits its
    uniform s-nodes at their closed-form times.
    """

    classical: TimeProtocol
    quantum: TimeProtocol
    s: np.ndarray

    @property
    def duration(self) -> float:
        return float(self.classical.t_nodes[-1])


def _end_subnodes(t, x, kbar, g, end, c: PhysConsts) -> np.ndarray:
    """Rows t, s, kbar, kappa of the sub-nodes splitting a pinned end cell.

    The cell at node end (0 or -1), of time length dt_end, is cut into
    m = ceil(dt_end (n-1) / T) sub-cells uniform in time.  Its model is
    _end_cell's, gap = g1 (tau/dx)^p, so the time from the end is
    (tau/dx)^(1-p) dt_end and time fraction f sits at tau/dx = f^(1/(1-p));
    kbar is linear in tau^(2/3), and kappa's rate term is closed form.
    Returns a (4, m-1) array in time order, empty when m = 1.
    """
    nxt = 1 if end == 0 else -2
    dt_end = t[nxt] - t[end]
    m = int(np.ceil(abs(dt_end) * (t.size - 1) / t[-1]))
    f = np.arange(1, m) / m
    p = _layer_exponent(x, g, end)
    r = f ** (1.0 / (1.0 - p))
    dx, dk = x[nxt] - x[end], kbar[nxt] - kbar[end]
    s = x[end] + dx * r
    kb = kbar[end] + dk * np.cbrt(r * r)
    # gap g1 r^p times dkbar/ds = dk (2/3) r^(-1/3) / dx
    rate = (2.0 * c.m / c.gamma**2) * g[nxt] * (2.0 / 3.0) * dk / dx * r ** (p - 1.0 / 3.0)
    rows = np.stack((t[end] + dt_end * f, s, kb, _kappa(s, kb, rate, c)))
    return rows if end == 0 else rows[:, ::-1]


def to_time_domain(p: SGridProtocol, c: PhysConsts, n_t: int | None = None) -> TimeDomainProtocols:
    """Emit the schedule's node table as time-domain protocols.

    Node j sits at t_j = time_of_s(p, c)[j] with the solved kbar_j and
    kappa_j = quantum_from_classical_s(p, c)[j].  At a pinned end t ~
    tau^(1/3) can make the end cell many times the mean step T/(n-1); that
    cell alone is split, by _end_subnodes, and the original nodes keep
    their times and kappa bit for bit.  Both schedules are linear between
    the nodes, as every integrator here reads them.  n_t may only repeat
    p's node count; any other value raises ValueError.
    """
    x, kbar = p.s_nodes, p.kbar
    n = x.size
    if n_t is not None and n_t != n:
        raise ValueError(f"n_t must equal the schedule's {n} nodes, got {n_t}: "
                         "the emission is the node table")
    t = time_of_s(p, c)
    table = np.stack((t, x, kbar, quantum_from_classical_s(p, c)))
    g = flow_gap(p, c)
    left, right = (_end_subnodes(t, x, kbar, g, end, c) if pinned else np.empty((4, 0))
                   for end, pinned in zip((0, -1), _pinned_ends(g)))
    t, s, kbar_t, kappa_t = np.concatenate(
        (table[:, :1], left, table[:, 1:-1], right, table[:, -1:]), axis=1)
    return TimeDomainProtocols(classical=TimeProtocol(t, kbar_t, "classical"),
                               quantum=TimeProtocol(t, kappa_t, "quantum"), s=s)

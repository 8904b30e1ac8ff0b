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
are integrated exactly in that cell too.  The Gauss geometry of those cells
depends on the nodes and on which ends are pinned, not on the schedule, so
`_cell_geometry` memoizes it (functools.lru_cache, at most 16 node arrays,
about 145 kB each at 2001 nodes, keyed on the nodes' bytes): the duration,
the time table and the energy cost of a schedule, and every schedule
solved on the same grid, share one entry.
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


def evolve_variance(kbar_t: TimeProtocol, s_start: float, c: PhysConsts,
                    dt: float | None = None) -> VarianceTrajectory:
    """Integrate the variance flow under a time-domain classical schedule.

    Classic fixed-step RK4, with substeps chosen so no step straddles a
    protocol node (kbar is linear inside each cell, so fourth order is
    preserved): a cell of length L takes ceil(L/dt) equal substeps, laid
    out by model._node_substeps, which integrate_ermakov shares.  The
    flow is affine in s, so each substep is the map s <- (1 + e) s + b,
    i.e. the 2x2 map [[1 + e, b], [0, 1]] on (s, 1), written in closed form
    from the substep's three kbar samples; the maps are composed by a
    vectorized prefix scan.  Samples are returned at the protocol nodes.

    Parameters
    ----------
    kbar_t : TimeProtocol
        Classical stiffness schedule (kind "classical").
    s_start : float
        Variance at the first node.
    dt : float, optional
        Target substep; defaults to one ten-thousandth of the span.

    Raises IntegrationError (with the failure time) at the end of the first
    substep where s leaves (0, inf).
    """
    if kbar_t.kind != "classical":
        raise ValueError("evolve_variance drives the classical trap; got a quantum schedule")
    if s_start <= 0.0:
        raise ValueError("starting variance must be positive")
    t_nodes = kbar_t.t_nodes
    span = t_nodes[-1] - t_nodes[0]
    if dt is None:
        dt = span / 1.0e4
    if dt <= 0.0:
        raise ValueError("dt must be positive")

    two_over_gamma = 2.0 / c.gamma
    source = two_over_gamma * (c.D * c.gamma)

    ta, h, ends, ka, km, kb = _node_substeps(kbar_t, dt)
    # rates -(2/gamma) kbar at the substep's start, midpoint and end
    x = -two_over_gamma * ka
    y = -two_over_gamma * km
    z = -two_over_gamma * kb

    hy = h * y
    e = np.zeros((4, ends[-1]))
    e[0] = (h / 6.0 * (x + 4.0 * y + z) + h * hy / 6.0 * (x + y + z)
            + h * hy * hy / 12.0 * (x + z) + h * hy * hy * h * x * z / 24.0)
    e[1] = (h * source / 6.0) * (6.0 + 2.0 * hy + h * z + 0.5 * hy * hy
                              + 0.5 * hy * h * z + 0.25 * hy * hy * h * z)
    p = _prefix_step_maps(e)
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
               - (m/gamma^2) kbar^2,
    with kbar' = dkbar/ds by centered differences (second-order one-sided
    at the ends).  On the equilibrium branch kbar = D gamma / s the
    derivative term carries a zero prefactor, so the result collapses to
    m D^2 / s^2 at machine precision regardless of discretization.
    """
    kbar_prime = np.gradient(p.kbar, p.s_nodes, edge_order=2)
    rate = (2.0 * c.m / c.gamma**2) * flow_gap(p, c) * kbar_prime
    return _kappa(p.s_nodes, p.kbar, rate, c)


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


def _end_cell(dx, g1, w0, w1, p):
    """Integral of w/g over the cell [end, end + dx] at a pinned end.

    Models g = g1 (tau/|dx|)^p and w linear in tau^(2/3), as the other
    cells do, and integrates exactly.
    """
    return dx / g1 * (w0 / (1.0 - p) + (w1 - w0) / (5.0 / 3.0 - p))


# node arrays whose cell geometry _cell_geometry keeps
_GEOMETRY_MEMO_SIZE = 16


@functools.lru_cache(maxsize=_GEOMETRY_MEMO_SIZE)
def _cell_geometry(x_bytes, pinned_left, pinned_right):
    """Gauss geometry of the fitted cells on the nodes stored in x_bytes.

    Returns (frac, three_u2, half) for the 4-point rule of every cell:
    frac = (u^2 - ua^2) / (ub^2 - ua^2) at the Gauss points u, 3 u^2, and
    the signed half-width sign * (ub - ua) / 2, with u = tau^(1/3)
    measured from the nearer pinned end.  They depend on the nodes and
    the pinned flags alone, so the memo, keyed on the nodes' bytes, lets
    the duration, the time table and the energy cost of one schedule, and
    every schedule on the same grid, share them.  The arrays are
    read-only.
    """
    x = np.frombuffer(x_bytes)
    mid = 0.5 * (x[:-1] + x[1:])
    if pinned_left and pinned_right:
        end = np.where(np.abs(mid - x[0]) <= np.abs(mid - x[-1]), x[0], x[-1])
    else:
        end = np.full(mid.size, x[0] if pinned_left else x[-1])
    ua = np.cbrt(np.abs(x[:-1] - end))
    ub = np.cbrt(np.abs(x[1:] - end))
    # ds = sign * dtau, with sign the direction pointing away from the end
    sign = np.sign(mid - end)
    u = 0.5 * (ua + ub)[:, None] + 0.5 * (ub - ua)[:, None] * _GAUSS_X
    frac = (u**2 - (ua**2)[:, None]) / (ub**2 - ua**2)[:, None]
    three_u2 = 3.0 * u**2
    half = sign * 0.5 * (ub - ua)
    for a in (frac, three_u2, half):
        a.flags.writeable = False
    return frac, three_u2, half


def _fitted_cells(x, w, g, pinned_left, pinned_right):
    """Per-cell integrals of w/g dx for a gap g that vanishes at pinned ends.

    With no pinned end the cells use the trapezoid rule on w/g.  Otherwise
    every cell measures tau from the nearer pinned end and models both g
    and w as linear in phi = tau^(2/3) between its two nodes, which is
    exact for the leading behaviour g ~ tau^(2/3) of an equilibrium-pinned
    schedule; the model is integrated by 4-point Gauss-Legendre in
    u = tau^(1/3), where dx = 3 u^2 du makes the integrand smooth.  The
    cell at a pinned end instead models g as the power tau^p fitted there
    (_end_cell), so a gap leaving the end like any power p < 1 keeps its
    first cell exact and the sum converges as the grid refines (at second
    order for p = 2/3 on graded nodes).  A gap leaving a pinned end like
    tau^p with p >= 1 raises InfeasibleProtocolError, since its time
    integral diverges.  The Gauss geometry comes from _cell_geometry.
    w may stack several weights along a leading axis; each row of the
    result is then the cells of that weight alone, to the bit, and the
    work on the gap is done once.  The rows are integrated one at a time,
    which keeps every temporary at (nodes - 1, 4).
    """
    if not (pinned_left or pinned_right):
        v = w / g
        return 0.5 * (v[..., :-1] + v[..., 1:]) * np.diff(x)
    g = g.copy()
    if pinned_left:
        p_left = _layer_exponent(x, g, 0)
        g[0] = 0.0
    if pinned_right:
        p_right = _layer_exponent(x, g, -1)
        g[-1] = 0.0
    frac, three_u2, half = _cell_geometry(
        np.ascontiguousarray(x, dtype=float).tobytes(), pinned_left, pinned_right)
    g_u = g[:-1, None] + (g[1:] - g[:-1])[:, None] * frac
    cells = np.empty(w.shape[:-1] + (x.size - 1,))
    for w_row, out in zip(w.reshape(-1, x.size), cells.reshape(-1, x.size - 1)):
        w_u = w_row[:-1, None] + (w_row[1:] - w_row[:-1])[:, None] * frac
        np.multiply(half, (three_u2 * w_u / g_u) @ _GAUSS_W, out=out)
    if pinned_left:
        cells[..., 0] = _end_cell(x[1] - x[0], g[1], w[..., 0], w[..., 1], p_left)
    if pinned_right:
        cells[..., -1] = _end_cell(x[-1] - x[-2], g[-2], w[..., -1], w[..., -2], p_right)
    return cells


def _duration_cells(p: SGridProtocol, c: PhysConsts, *weights) -> np.ndarray:
    """Fitted cells of gamma / gap, once the flow is known not to stall inside.

    Each further weight w (one value per node) adds a row of the cells of
    w / gap, from the same pass over the gap and the Gauss geometry.
    """
    g = flow_gap(p, c)
    sgn = p.direction
    bad = np.nonzero(g[1:-1] * sgn <= 0.0)[0]
    if bad.size:
        j = int(bad[0]) + 1
        raise InfeasibleProtocolError(
            "protocol stalls or reverses the variance flow at interior node "
            f"{j} (s={p.s_nodes[j]:.6g}); sign(D*gamma - s*kbar) must match "
            "sign(s_f - s_i) strictly between the endpoints",
            node=j, s=float(p.s_nodes[j]))
    w = np.full(g.size, c.gamma)
    if weights:
        w = np.stack((w, *weights))
    return _fitted_cells(p.s_nodes, w, g, *_pinned_ends(g))


def _energy_a(s, c: PhysConsts):
    """2 D^2 gamma / s: the excess energy's coefficient a(s) of 1 / gap."""
    return 2.0 * c.D**2 * c.gamma / s


def _schedule_cells(p: SGridProtocol, c: PhysConsts) -> np.ndarray:
    """The duration cells and the excess energy's a-cells of p, kept on p.

    Rows: the fitted cells of gamma / gap and of _energy_a / gap.  The
    time table of an emission and j_total read the same schedule, so the
    cells of its last pass are kept on the schedule, keyed on its nodes,
    its stiffness and the constants (a schedule changed in place gets a
    new pass), and the pair makes one _duration_cells pass.  Each row is
    bitwise the cells of its weight alone.  The array is read-only.
    """
    key = (p.s_nodes.tobytes(), p.kbar.tobytes(), c)
    if p._cells is not None and p._cells[0] == key:
        return p._cells[1]
    cells = _duration_cells(p, c, _energy_a(p.s_nodes, c))
    cells.flags.writeable = False
    p._cells = (key, cells)
    return cells


def duration(p: SGridProtocol, c: PhysConsts) -> float:
    """Total transfer time of an s-parametrized schedule.

    Delta_t = (1/2) * integral of gamma / (D gamma - s kbar) ds from s_i
    to s_f.  Equilibrium-pinned endpoints give an integrable
    |s - s_end|^(-2/3) divergence, integrated exactly by the cells of
    _fitted_cells (second order on solved schedules, the trapezoid rule
    when no end is pinned); an interior stall (or an endpoint approached
    with exponent >= 1) raises InfeasibleProtocolError.
    """
    return float(0.5 * np.sum(_schedule_cells(p, c)[0]))


def time_of_s(p: SGridProtocol, c: PhysConsts) -> np.ndarray:
    """Cumulative transfer time at each node, t(s_i) = 0, t(s_f) = duration."""
    cells = _schedule_cells(p, c)[0]
    t = np.empty(p.s_nodes.size)
    t[0] = 0.0
    np.cumsum(0.5 * cells, out=t[1:])
    return t


# ---------------------------------------------------------------------------
# time-domain emission
# ---------------------------------------------------------------------------

def _hermite(t_nodes, y, dy, t):
    """Cubic Hermite interpolant through (t_nodes, y) with slopes dy, at t.

    y and dy may stack several series along a leading axis; the interval
    search and the four basis polynomials are then built once for all.
    """
    j = np.clip(np.searchsorted(t_nodes, t, side="right") - 1, 0, t_nodes.size - 2)
    h = t_nodes[j + 1] - t_nodes[j]
    x = (t - t_nodes[j]) / h
    x2, x3 = x * x, x * x * x
    # np.take along the last axis: y[..., j] on a stack is several times slower
    y0, y1 = np.take(y, j, axis=-1), np.take(y, j + 1, axis=-1)
    dy0, dy1 = np.take(dy, j, axis=-1), np.take(dy, j + 1, axis=-1)
    return ((2.0 * x3 - 3.0 * x2 + 1.0) * y0 + (x3 - 2.0 * x2 + x) * h * dy0
            + (3.0 * x2 - 2.0 * x3) * y1 + (x3 - x2) * h * dy1)


@dataclass
class TimeDomainProtocols:
    """Time-domain emission of an s-parametrized schedule.

    classical and quantum share one time grid; s is the variance on that
    grid.  t_nodes and kappa_nodes give the transfer time and quantum
    stiffness back on the original s-grid (the node-level table).
    to_time_domain grades the time grid toward both ends;
    solver.analytic_work_optimal samples both grids uniformly.
    """

    classical: TimeProtocol
    quantum: TimeProtocol
    s: np.ndarray
    t_nodes: np.ndarray
    kappa_nodes: np.ndarray

    @property
    def duration(self) -> float:
        return float(self.classical.t_nodes[-1])


# depth of the end grading of the emitted time grid, in [0, 1)
_EMIT_GRADING = 0.8


def to_time_domain(p: SGridProtocol, c: PhysConsts, n_t: int = 2001) -> TimeDomainProtocols:
    """Emit time-domain protocols on n_t samples from an s-grid schedule.

    The node times come from the duration quadrature.  Resampling uses
    cubic Hermite interpolation, evaluated in numpy by _hermite, with
    *exact* node derivatives: sdot is known in closed form from the flow,
    and d(kbar)/dt comes from finite differences in t (np.gradient), where
    the schedule is smooth even at equilibrium-pinned endpoints (in s it
    has infinite slope there, which is why differencing in s near the ends
    is avoided).  The samples sit at t = T (eta - a sin(2 pi eta) / (2 pi))
    for uniform eta and a = _EMIT_GRADING, so spacing near either end is
    1 - a times uniform: the quantum stiffness ramps hardest there, and a
    uniform grid would interpolate it too coarsely for the schedule to
    land.  The quantum schedule is then produced by the time-domain map on
    that grid.
    """
    if n_t < 9:
        raise ValueError("n_t too small")
    t_nodes = time_of_s(p, c)
    g = flow_gap(p, c)
    sdot_nodes = 2.0 * g / c.gamma
    kbar_dot_nodes = np.gradient(p.kbar, t_nodes, edge_order=2)
    # at an equilibrium-pinned end kbar approaches its boundary value
    # quadratically in time, so the true endpoint rate is zero; the
    # one-sided estimate extrapolates across the layer-stretched first
    # interval and lands far off, which would bend the whole first spline
    # segment the wrong way
    pinned_left, pinned_right = _pinned_ends(g)
    if pinned_left:
        kbar_dot_nodes[0] = 0.0
    if pinned_right:
        kbar_dot_nodes[-1] = 0.0

    kappa_nodes = _kappa(p.s_nodes, p.kbar, (c.m / c.gamma) * kbar_dot_nodes, c)

    # graded toward both ends, where kappa(t) ramps hardest; spacing runs
    # from 0.2 to 1.8 times uniform
    eta = np.linspace(0.0, 1.0, n_t)
    t_u = t_nodes[-1] * (eta - _EMIT_GRADING * np.sin(2.0 * np.pi * eta) / (2.0 * np.pi))
    t_u[0], t_u[-1] = 0.0, t_nodes[-1]
    s_u, kbar_u = _hermite(t_nodes, np.stack((p.s_nodes, p.kbar)),
                           np.stack((sdot_nodes, kbar_dot_nodes)), t_u)
    # interpolation can only undershoot positivity near pathological data
    if np.any(s_u <= 0.0):
        raise InfeasibleProtocolError("resampled variance left the positive axis")
    classical = TimeProtocol(t_u, kbar_u, "classical")
    quantum = quantum_from_classical_t(classical, s_u, c)
    return TimeDomainProtocols(classical=classical, quantum=quantum, s=s_u,
                               t_nodes=t_nodes, kappa_nodes=kappa_nodes)

"""Cost functionals of s-parametrized schedules and their time-domain twins.

All integrals run from s_i to s_f along the protocol's own node order, so
expansions and compressions come out with the same signs.

A cost is the time integral of f = A(s) + B(s) sdot + C(s) sdot^2, the
form of the mean work of Schmiedl & Seifert (PRL 98, 108301 (2007)), and
its entry of LAGRANGIANS holds A, B and C alone:

    cost     A(s)        B(s)        C(s)
    energy   4 D^2 / s   0           1 / s
    phase    0           0           m^2 / (16 hbar^2 s^2)   (f = alpha^2)
    work     0           -2 D C(s)   gamma / (2 s)           (f = -kbar sdot)

Along the flow sdot = 2 gap / gamma, gap = D gamma - s kbar, so the cost
is F = integral of ell ds, ell = a / gap + b + k kbar with a = gamma A / 2,
b = B + 2 C D and k = -2 C s / gamma (Lagrangian.a, b and k): the running
term lam ell that the solver's equations and start, and j_total's F, are
built from (see swifttrap.solver).  Lagrangian.from_run is F's
time-domain twin, the Simpson rule of f over a TrajectoryRecord.

F's a / gap term, for any a, reads the schedule's one fitted-cell pass
over 1 / gap, the (cells, slope) pair the duration and the time table
read too (it has the duration integrand's endpoint divergence on
equilibrium-pinned schedules); the rest is a trapezoid.  The raw
functionals are F times a prefactor plus a boundary term:

* f_energy = (m/4) (F_energy + (2/gamma) [s kbar]), the excess energy
  (m/(4 gamma)) integral of [gap/s + (3 D^2 gamma^2 - s^2 kbar^2)/(s gap)
  + 2 s kbar'] ds, its 2 s kbar' integrated by parts;
* f_alpha = F_phase, the accumulated phase curvature;
* work_classical = (1/2) (F_work + [s kbar]), the mean work;
* g_penalty = integral of (dkbar/ds)^2 over |ds| (orientation-free).

[s kbar] = s_f kbar_f - s_i kbar_i, zero on pinned schedules.  j_total
integrates each entry's F once and combines 2 duration + lam * F + mu * G;
CostReport carries the raw functionals and F.  A cost is added by adding
its entry to LAGRANGIANS: problem validation, the solver, j_total, the
time twin and the CLI read the table.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .analog import _cell_geometry, _pinned_ends, _schedule_cells, duration, flow_gap
from .model import OptimizationProblem, PhysConsts, SGridProtocol, TimeProtocol
from .dynamics import TrajectoryRecord

__all__ = [
    "LAGRANGIANS",
    "CostReport",
    "Lagrangian",
    "f_alpha",
    "f_energy",
    "g_penalty",
    "j_total",
    "work_classical",
    "work_from_schedule",
]


def _trapz(y, x):
    return float(np.sum(0.5 * (y[1:] + y[:-1]) * np.diff(x)))


def _simpson(y, x):
    """Composite Simpson rule on uneven samples, exact for parabolas.

    Each pair of intervals integrates the parabola through its three
    samples; an odd interval count closes with the three-point rule on the
    last three samples, and a single interval is a trapezoid.
    """
    h = np.diff(x)
    if h.size < 2:
        return _trapz(y, x)
    m = h.size - h.size % 2
    h0, h1 = h[0:m:2], h[1:m:2]
    hs = h0 + h1
    total = np.sum(hs / 6.0 * ((2.0 - h1 / h0) * y[0:m:2] + hs * hs / (h0 * h1) * y[1:m:2]
                               + (2.0 - h0 / h1) * y[2:m + 1:2]))
    if h.size % 2:
        a, b = h[-2], h[-1]
        total += b / 6.0 * ((2.0 * b + 3.0 * a) / (a + b) * y[-1] + (b + 3.0 * a) / a * y[-2]
                            - b * b / (a * (a + b)) * y[-3])
    return float(total)


@dataclass(frozen=True)
class Lagrangian:
    """One cost's time integrand f = A(s) + B(s) sdot + C(s) sdot^2.

    A, B and C take (s, c) and may return scalars; A >= 0 keeps the
    solver's objective strictly convex.  a, b and k are the coefficients
    of ell (module docstring).
    """

    A: Callable
    B: Callable
    C: Callable

    def a(self, s, c):
        return 0.5 * c.gamma * self.A(s, c)

    def b(self, s, c):
        return self.B(s, c) + 2.0 * c.D * self.C(s, c)

    def k(self, s, c):
        return -2.0 * self.C(s, c) * s / c.gamma

    def from_run(self, run: TrajectoryRecord, c: PhysConsts) -> float:
        """F's time-domain twin: the Simpson rule (_simpson) of f over run."""
        s, sdot = run.s, run.sdot
        return _simpson(self.A(s, c) + self.B(s, c) * sdot + self.C(s, c) * sdot**2, run.t)


def _zero(s, c):
    return 0.0


def _work_c(s, c):
    return c.gamma / (2.0 * s)


LAGRANGIANS = {
    "energy": Lagrangian(A=lambda s, c: 4.0 * c.D**2 / s, B=_zero, C=lambda s, c: 1.0 / s),
    "phase": Lagrangian(A=_zero, B=_zero, C=lambda s, c: c.m**2 / (16.0 * c.hbar**2 * s**2)),
    # B = -2 D C, so that b = B + 2 C D is an exact 0
    "work": Lagrangian(A=_zero, B=lambda s, c: -2.0 * c.D * _work_c(s, c), C=_work_c),
}


def _over_gap(w, pair) -> float:
    """Integral of w / gap ds from the fitted-cell pair, w one value per node."""
    cells, slope = pair
    return float(np.sum(w[:-1] * cells + (w[1:] - w[:-1]) * slope))


def _integral(lag, p: SGridProtocol, c: PhysConsts) -> float:
    """F = integral of ell = a/gap + b + k kbar over s, for the Lagrangian lag.

    The b + k kbar part is a trapezoid; a nonzero a / gap reads the
    schedule's fitted-cell pair (_schedule_cells).
    """
    s = p.s_nodes
    f = _trapz(lag.b(s, c) + lag.k(s, c) * p.kbar, s)
    a = lag.a(s, c)
    if np.any(a):
        f += _over_gap(np.broadcast_to(a, s.shape), _schedule_cells(p, c))
    return f


def _boundary(p: SGridProtocol) -> float:
    """[s kbar] = s_f kbar_f - s_i kbar_i, zero on pinned schedules."""
    return float(p.s_nodes[-1] * p.kbar[-1] - p.s_nodes[0] * p.kbar[0])


def f_energy(p: SGridProtocol, c: PhysConsts) -> float:
    """Excess-energy cost of a schedule: (m/4) (F_energy + (2/gamma) [s kbar]).

    The derivative term 2 s kbar' of the raw integrand is integrated by
    parts, so no numerical differentiation of kbar enters; the a / gap
    term shares the duration integrand's endpoint handling and its cell
    pass (_schedule_cells), so a schedule that stalls inside raises
    InfeasibleProtocolError, as duration does.
    """
    return _excess_energy(_integral(LAGRANGIANS["energy"], p, c), p, c)


def _excess_energy(f: float, p: SGridProtocol, c: PhysConsts) -> float:
    return (c.m / 4.0) * (f + (2.0 / c.gamma) * _boundary(p))


def f_alpha(p: SGridProtocol, c: PhysConsts) -> float:
    """Accumulated-phase-curvature cost, (m^2/(8 gamma hbar^2)) integral gap/s^2 ds.

    The integrand vanishes at equilibrium-pinned endpoints, so F_phase's
    plain trapezoid is enough.
    """
    return _integral(LAGRANGIANS["phase"], p, c)


def g_penalty(p: SGridProtocol, c: PhysConsts) -> float:
    """Smoothing penalty: integral of (dkbar/ds)^2 over the unsigned measure.

    On the duration's cell model: with a pinned end, the gap linear in
    tau^(2/3) in every cell and 0 at the pinned ends, by the Gauss rule of
    analog._cell_geometry (the solver's G_h); with none, kbar linear in s.
    """
    x = p.s_nodes
    g = flow_gap(p, c)
    pinned = _pinned_ends(g)
    if not any(pinned):
        return float(np.sum(np.diff(p.kbar) ** 2 / np.abs(np.diff(x))))
    b2, bg, g2 = _cell_geometry(np.ascontiguousarray(x, dtype=float).tobytes(), *pinned)[3]
    g[[0, -1]] = np.where(pinned, 0.0, g[[0, -1]])
    dg, e = np.diff(g), c.D * c.gamma - g[:-1]
    return float(np.sum(dg * (dg * b2 + e * bg) + e * (dg * bg + e * g2)))


def work_classical(p: SGridProtocol, c: PhysConsts) -> float:
    """Mean work on the overdamped bead: (1/2) (F_work + [s kbar]).

    The boundary term uses the protocol's own endpoint values; on
    schedules whose endpoints jump away from equilibrium, the up-front and
    final equilibration jumps' work cancels it, leaving -(1/2) integral kbar ds.
    """
    return _mean_work(_integral(LAGRANGIANS["work"], p, c), p)


def _mean_work(f: float, p: SGridProtocol) -> float:
    return 0.5 * (f + _boundary(p))


def work_from_schedule(kbar_t: TimeProtocol, s_t: np.ndarray) -> float:
    """Time-domain work: (1/2) integral d(kbar)/dt * s(t) dt."""
    if kbar_t.kind != "classical":
        raise ValueError("expected a classical schedule")
    s_t = np.asarray(s_t, dtype=float)
    if s_t.shape != kbar_t.t_nodes.shape:
        raise ValueError("s_t must be sampled on the schedule's grid")
    kbar_dot = np.gradient(kbar_t.values, kbar_t.t_nodes, edge_order=2)
    return 0.5 * _trapz(kbar_dot * s_t, kbar_t.t_nodes)


@dataclass
class CostReport:
    """Every functional of one schedule, plus the combined objective.

    f_absorbed is F = integral of ell ds for the report's cost, the F of
    j_total; f_energy keeps the boundary term of its integration by parts,
    so for the energy cost f_absorbed = 4 f_energy / m on pinned schedules.
    """

    cost: str
    lam: float
    mu: float
    duration: float
    f_energy: float
    f_alpha: float
    g_penalty: float
    work: float
    f_absorbed: float
    j_total: float


def j_total(p: SGridProtocol, prob: OptimizationProblem, c: PhysConsts) -> CostReport:
    """Evaluate duration, all raw functionals, and J = 2 duration + lam*F + mu*G.

    F is the integral of prob.cost's ell (module docstring); J is the
    objective whose stationarity equations swifttrap.solver prints and
    whose discretization it minimizes, so a solved schedule is a
    stationary point of the J reported here.  Each entry's F is integrated
    once, and f_absorbed and the raw functionals read it.  The duration
    and every a / gap term read one fitted-cell pass, the one the
    schedule's time table made if it was just emitted (_schedule_cells),
    so each field is bitwise its own function's.
    """
    dur = duration(p, c)
    g = g_penalty(p, c)
    f = {name: _integral(lag, p, c) for name, lag in LAGRANGIANS.items()}
    f_abs = f[prob.cost]
    return CostReport(cost=prob.cost, lam=prob.lam, mu=prob.mu, duration=dur,
                      f_energy=_excess_energy(f["energy"], p, c), f_alpha=f["phase"],
                      g_penalty=g, work=_mean_work(f["work"], p), f_absorbed=f_abs,
                      j_total=2.0 * dur + prob.lam * f_abs + prob.mu * g)

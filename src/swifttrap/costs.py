"""Cost functionals of s-parametrized schedules and their time-domain twins.

All integrals run from s_i to s_f along the protocol's own node order, so
expansions and compressions come out with the same signs.

Every cost shares one Lagrangian form: LAGRANGIANS maps each cost to the
coefficients of its running term

    lam ell = lam (a(s) / gap + b(s) + k(s) kbar),   gap = D gamma - s kbar,

which the solver's equations and start, and j_total's F, are built from
(see swifttrap.solver for the Euler-Lagrange equation):

    cost     a(s)              b(s)                    k(s)
    energy   2 D^2 gamma / s   2 D / s                 -2 / gamma
    phase    0                 m^2 D / (8 hbar^2 s^2)  -m^2 / (8 gamma hbar^2 s)
    work     0                 0                       -1

F = integral of ell ds: the a / gap term takes the fitted cells the
duration shares (it has the duration integrand's endpoint divergence on
equilibrium-pinned schedules), the rest a trapezoid.  The raw functionals
are F times a prefactor plus a boundary term:

* f_energy = (m/4) (F_energy + (2/gamma) [s kbar]), the excess energy
  (m/(4 gamma)) integral of [gap/s + (3 D^2 gamma^2 - s^2 kbar^2)/(s gap)
  + 2 s kbar'] ds, its 2 s kbar' integrated by parts;
* f_alpha = F_phase, the accumulated phase curvature;
* work_classical = (1/2) (F_work + [s kbar]), the mean work;
* g_penalty = integral of (dkbar/ds)^2 over |ds| (orientation-free).

[s kbar] = s_f kbar_f - s_i kbar_i, zero on pinned schedules.  j_total
combines duration + lam * F + mu * G; CostReport carries the raw
functionals and F.  A cost is added by adding its entry to LAGRANGIANS:
problem validation, the solver, j_total and the CLI read the table.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .analog import _duration_cells, _energy_a, _schedule_cells
from .model import OptimizationProblem, PhysConsts, SGridProtocol, TimeProtocol
from .dynamics import TrajectoryRecord

__all__ = [
    "LAGRANGIANS",
    "CostReport",
    "Lagrangian",
    "f_alpha",
    "f_alpha_from_run",
    "f_energy",
    "f_energy_from_run",
    "g_penalty",
    "j_total",
    "work_classical",
    "work_from_schedule",
]


def _trapz(y, x):
    return float(np.sum(0.5 * (y[1:] + y[:-1]) * np.diff(x)))


def _integral(lag, p: SGridProtocol, c: PhysConsts) -> float:
    """F = integral of ell = a/gap + b + k kbar over s, for the Lagrangian lag.

    The b + k kbar part is a trapezoid.  The excess energy's a / gap cells
    are the schedule's shared row (_schedule_cells); any other nonzero a
    makes a pass of its own.
    """
    s = p.s_nodes
    f = _trapz(lag.b(s, c) + lag.k(s, c) * p.kbar, s)
    if lag.a is _energy_a:
        return f + float(np.sum(_schedule_cells(p, c)[1]))
    a = lag.a(s, c)
    if np.any(a):
        f += float(np.sum(_duration_cells(p, c, np.broadcast_to(a, s.shape))[1]))
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
    f = _integral(LAGRANGIANS["energy"], p, c)
    return (c.m / 4.0) * (f + (2.0 / c.gamma) * _boundary(p))


def f_alpha(p: SGridProtocol, c: PhysConsts) -> float:
    """Accumulated-phase-curvature cost, (m^2/(8 gamma hbar^2)) integral gap/s^2 ds.

    The integrand vanishes at equilibrium-pinned endpoints, so F_phase's
    plain trapezoid is enough.
    """
    return _integral(LAGRANGIANS["phase"], p, c)


def g_penalty(p: SGridProtocol, c: PhysConsts) -> float:
    """Smoothing penalty: integral of (dkbar/ds)^2 over the unsigned measure."""
    kbar_prime = np.gradient(p.kbar, p.s_nodes, edge_order=2)
    return abs(_trapz(kbar_prime**2, p.s_nodes))


def work_classical(p: SGridProtocol, c: PhysConsts) -> float:
    """Mean work done on the overdamped bead along the schedule.

    (1/2) (F_work + [s kbar]) = -(1/2) integral kbar ds
    + (1/2)(s_f kbar_f - s_i kbar_i); the boundary term uses the
    protocol's own endpoint values.  (For schedules whose endpoints jump
    away from equilibrium, adding the up-front and final equilibration
    jump works cancels the boundary term, leaving -(1/2) integral kbar ds.)
    """
    return 0.5 * (_integral(LAGRANGIANS["work"], p, c) + _boundary(p))


def work_from_schedule(kbar_t: TimeProtocol, s_t: np.ndarray) -> float:
    """Time-domain work: (1/2) integral d(kbar)/dt * s(t) dt."""
    if kbar_t.kind != "classical":
        raise ValueError("expected a classical schedule")
    s_t = np.asarray(s_t, dtype=float)
    if s_t.shape != kbar_t.t_nodes.shape:
        raise ValueError("s_t must be sampled on the schedule's grid")
    kbar_dot = np.gradient(kbar_t.values, kbar_t.t_nodes, edge_order=2)
    return 0.5 * _trapz(kbar_dot * s_t, kbar_t.t_nodes)


def f_energy_from_run(run: TrajectoryRecord) -> float:
    """Time-domain excess-energy cost: integral of E(t) dt over a record."""
    return _trapz(run.energy, run.t)


def f_alpha_from_run(run: TrajectoryRecord) -> float:
    """Time-domain phase-curvature cost: integral of alpha(t)^2 dt."""
    return _trapz(run.alpha**2, run.t)


@dataclass(frozen=True)
class Lagrangian:
    """One cost's running term lam (a(s)/gap + b(s) + k(s) kbar).

    a, b and k take (s, c) and may return scalars; a(s) >= 0 keeps the
    solver's objective strictly convex.  from_run(run) is the time-domain
    twin of the cost's raw functional on a TrajectoryRecord, or None when
    there is none.
    """

    a: Callable
    b: Callable
    k: Callable
    from_run: Callable | None


LAGRANGIANS = {
    "energy": Lagrangian(
        a=_energy_a,
        b=lambda s, c: 2.0 * c.D / s,
        k=lambda s, c: -2.0 / c.gamma,
        from_run=f_energy_from_run),
    "phase": Lagrangian(
        a=lambda s, c: 0.0,
        b=lambda s, c: c.m**2 * c.D / (8.0 * c.hbar**2 * s**2),
        k=lambda s, c: -c.m**2 / (8.0 * c.gamma * c.hbar**2 * s),
        from_run=f_alpha_from_run),
    "work": Lagrangian(
        a=lambda s, c: 0.0,
        b=lambda s, c: 0.0,
        k=lambda s, c: -1.0,
        from_run=None),
}


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
    """Evaluate duration, all raw functionals, and J = duration + lam*F + mu*G.

    F is the integral of prob.cost's Lagrangian (see module docstring);
    with lam = mu = 0 the objective is the bare duration.  The duration
    and the excess energy's a-cells come from one pass, the one the
    schedule's time table made if it was just emitted (_schedule_cells),
    so each field is bitwise its own function's.
    """
    dur = float(0.5 * np.sum(_schedule_cells(p, c)[0]))
    g = g_penalty(p, c)
    f_abs = _integral(LAGRANGIANS[prob.cost], p, c)
    return CostReport(cost=prob.cost, lam=prob.lam, mu=prob.mu, duration=dur,
                      f_energy=f_energy(p, c), f_alpha=f_alpha(p, c), g_penalty=g,
                      work=work_classical(p, c), f_absorbed=f_abs,
                      j_total=dur + prob.lam * f_abs + prob.mu * g)

"""Cost functionals of s-parametrized schedules and their time-domain twins.

All integrals run from s_i to s_f along the protocol's own node order, so
expansions and compressions come out with the same signs.  The excess-
energy integrand inherits the duration integrand's endpoint divergence on
equilibrium-pinned schedules and reuses the same fitted cells.

Raw functionals (with their physical prefactors):

* f_energy: (m/(4 gamma)) * integral of [gap/s
      + (3 D^2 gamma^2 - s^2 kbar^2)/(s*gap) + 2 s kbar'] ds
* f_alpha:  (m^2/(8 gamma hbar^2)) * integral of gap/s^2 ds
* g_penalty: integral of (dkbar/ds)^2 over |ds| (orientation-free)
* work_classical: -(1/2) integral kbar ds + (1/2)(s_f kbar_f - s_i kbar_i)

LAGRANGIANS holds one Lagrangian per cost: the running term lam * ell(s,
kbar) of the objective, whose integral is the *absorbed* F, with the
closed forms the solver needs.  In the Euler-Lagrange equation (see
swifttrap.solver)

    2 mu kbar'' = gamma s / gap^2 + lam d(ell)/d(kbar),

* energy: ell = (1/gamma) [gap/s + (3 D^2 gamma^2 - s^2 kbar^2)/(s gap)
                           - 2 kbar],
          F = (4/m) f_energy (its 2 s kbar' integrated by parts);
* phase:  ell = m^2 gap / (8 gamma hbar^2 s^2), F = f_alpha as is;
* work:   ell = -kbar, F = -integral kbar ds.

j_total combines duration + lam * F + mu * G; CostReport carries both raw
and absorbed values.  A cost is added by adding its entry to LAGRANGIANS:
problem validation, the solver, j_total and the CLI read the table.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .analog import _schedule_cells, flow_gap
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


def _f_energy(p: SGridProtocol, c: PhysConsts, cells: np.ndarray) -> float:
    """f_energy from the fitted cells of its middle term."""
    s = p.s_nodes
    kbar = p.kbar
    g = flow_gap(p, c)
    i1 = _trapz(g / s, s)
    i2 = float(np.sum(cells))
    boundary = 2.0 * (s[-1] * kbar[-1] - s[0] * kbar[0]) - 2.0 * _trapz(kbar, s)
    return (c.m / (4.0 * c.gamma)) * (i1 + i2 + boundary)


def f_energy(p: SGridProtocol, c: PhysConsts) -> float:
    """Excess-energy cost of a schedule (raw, prefactor m/(4 gamma)).

    The derivative term 2 s kbar' is integrated by parts to
    2 (s_f kbar_f - s_i kbar_i) - 2 integral kbar ds, so no numerical
    differentiation of kbar enters; the middle term shares the duration
    integrand's endpoint handling and its cell pass (_schedule_cells), so a
    schedule that stalls inside raises InfeasibleProtocolError, as
    duration does.
    """
    return _f_energy(p, c, _schedule_cells(p, c)[1])


def f_alpha(p: SGridProtocol, c: PhysConsts) -> float:
    """Accumulated-phase-curvature cost (raw, prefactor m^2/(8 gamma hbar^2)).

    The integrand gap/s^2 vanishes at equilibrium-pinned endpoints, so a
    plain trapezoid is enough.
    """
    g = flow_gap(p, c)
    return (c.m**2 / (8.0 * c.gamma * c.hbar**2)) * _trapz(g / p.s_nodes**2, p.s_nodes)


def g_penalty(p: SGridProtocol, c: PhysConsts) -> float:
    """Smoothing penalty: integral of (dkbar/ds)^2 over the unsigned measure."""
    kbar_prime = np.gradient(p.kbar, p.s_nodes, edge_order=2)
    return abs(_trapz(kbar_prime**2, p.s_nodes))


def work_classical(p: SGridProtocol, c: PhysConsts) -> float:
    """Mean work done on the overdamped bead along the schedule.

    -(1/2) integral kbar ds + (1/2)(s_f kbar_f - s_i kbar_i); the boundary
    term uses the protocol's own endpoint values.  (For schedules whose
    endpoints jump away from equilibrium, adding the up-front and final
    equilibration jump works cancels the boundary term, leaving
    -(1/2) integral kbar ds.)
    """
    s, kbar = p.s_nodes, p.kbar
    return -0.5 * _trapz(kbar, s) + 0.5 * (s[-1] * kbar[-1] - s[0] * kbar[0])


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
    """One cost's running term lam * ell(s, kbar), in closed form.

    The closed forms the solver reads take lam and the constants c last:

    * ell(s, kbar, gap, lam, c): lam ell, the running term the solver's
      discrete objective sums over its control volumes;
    * dl(s, kbar, gap, lam, c): lam d(ell)/d(kbar);
    * d2l(s, kbar, gap, lam, c): lam d^2(ell)/d(kbar)^2;
    * outer_gap_inv4(s, lam, c): g_out^-4, g_out the gap at which
      gamma s / gap^2 + dl vanishes, written with lam in the numerator so
      that lam = 0 (no outer root) gives 0 rather than 1/0;
    * pole(lam, c): the coefficient of 1/gap^2 in dl on the equilibrium
      branch s kbar = D gamma, which adds to the duration term's gamma s
      in the end layers;
    * absorbed(p, c, f_energy, f_alpha): F, the integral of ell, given the
      raw functionals j_total has already evaluated on p;
    * from_run(run): the time-domain twin of F's raw functional on a
      TrajectoryRecord, or None when there is none.
    """

    ell: Callable
    dl: Callable
    d2l: Callable
    outer_gap_inv4: Callable
    pole: Callable
    absorbed: Callable
    from_run: Callable | None


LAGRANGIANS = {
    "energy": Lagrangian(
        ell=lambda s, kbar, g, lam, c: lam * (
            g / s + (3.0 * c.D**2 * c.gamma**2 - s**2 * kbar**2) / (s * g)
            - 2.0 * kbar) / c.gamma,
        dl=lambda s, kbar, g, lam, c: lam * (
            (3.0 * c.D**2 * c.gamma**2 - s**2 * kbar**2) / g**2
            - 2.0 * s * kbar / g - 3.0) / c.gamma,
        d2l=lambda s, kbar, g, lam, c: 2.0 * lam * s * (
            (3.0 * c.D**2 * c.gamma**2 - s**2 * kbar**2) / g
            - s * kbar - c.D * c.gamma) / (c.gamma * g**2),
        outer_gap_inv4=lambda s, lam, c: (
            (2.0 * lam) ** 2 / (c.gamma**4 * (s + 2.0 * c.D**2 * lam) ** 2)),
        pole=lambda lam, c: 2.0 * c.D**2 * c.gamma * lam,
        absorbed=lambda p, c, fe, fa: 4.0 * fe / c.m,
        from_run=f_energy_from_run),
    "phase": Lagrangian(
        ell=lambda s, kbar, g, lam, c: c.m**2 * lam * g / (8.0 * c.gamma * c.hbar**2 * s**2),
        dl=lambda s, kbar, g, lam, c: -c.m**2 * lam / (8.0 * c.gamma * c.hbar**2 * s),
        d2l=lambda s, kbar, g, lam, c: 0.0,
        outer_gap_inv4=lambda s, lam, c: (
            c.m**4 * lam**2 / (64.0 * c.gamma**4 * c.hbar**4 * s**4)),
        pole=lambda lam, c: 0.0,
        absorbed=lambda p, c, fe, fa: fa,
        from_run=f_alpha_from_run),
    "work": Lagrangian(
        ell=lambda s, kbar, g, lam, c: -lam * kbar,
        dl=lambda s, kbar, g, lam, c: -lam,
        d2l=lambda s, kbar, g, lam, c: 0.0,
        outer_gap_inv4=lambda s, lam, c: lam**2 / (c.gamma**2 * s**2),
        pole=lambda lam, c: 0.0,
        absorbed=lambda p, c, fe, fa: -_trapz(p.kbar, p.s_nodes),
        from_run=None),
}


@dataclass
class CostReport:
    """Every functional of one schedule, plus the combined objective."""

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

    F is the absorbed form of prob.cost's Lagrangian (see module
    docstring); with lam = mu = 0 the objective is the bare duration.  The
    duration and f_energy read the cells of one pass, the one the
    schedule's time table made if it was just emitted (_schedule_cells),
    each bitwise equal to its own function's.
    """
    dur_cells, energy_cells = _schedule_cells(p, c)
    dur = float(0.5 * np.sum(dur_cells))
    fe = _f_energy(p, c, energy_cells)
    fa = f_alpha(p, c)
    g = g_penalty(p, c)
    w = work_classical(p, c)
    f_abs = LAGRANGIANS[prob.cost].absorbed(p, c, fe, fa)
    j = dur + prob.lam * f_abs + prob.mu * g
    return CostReport(cost=prob.cost, lam=prob.lam, mu=prob.mu, duration=dur,
                      f_energy=fe, f_alpha=fa, g_penalty=g, work=w,
                      f_absorbed=f_abs, j_total=j)

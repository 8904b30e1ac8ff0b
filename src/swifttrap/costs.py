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

j_total combines duration + lam * F + mu * G using the *absorbed* form of
F (the one whose multiplier convention matches the printed stationarity
equations: energy (4/m) f_energy, phase f_alpha as is, work -integral
kbar ds); CostReport carries both raw and absorbed values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analog import _duration_cells, _fitted_cells, _pinned_ends, flow_gap
from .model import OptimizationProblem, PhysConsts, SGridProtocol, TimeProtocol
from .dynamics import TrajectoryRecord

__all__ = [
    "CostReport",
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


def _energy_weight(p: SGridProtocol, c: PhysConsts) -> np.ndarray:
    """Weight w of f_energy's middle term w / gap: (3 D^2 gamma^2 - s^2 kbar^2) / s."""
    s = p.s_nodes
    return (3.0 * c.D**2 * c.gamma**2 - s**2 * p.kbar**2) / s


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
    integrand's endpoint handling.
    """
    g = flow_gap(p, c)
    return _f_energy(p, c, _fitted_cells(p.s_nodes, _energy_weight(p, c), g, *_pinned_ends(g)))


def f_alpha(p: SGridProtocol, c: PhysConsts) -> float:
    """Accumulated-phase-curvature cost (raw, prefactor m^2/(8 gamma hbar^2)).

    The integrand gap/s^2 vanishes at equilibrium-pinned endpoints, so a
    plain trapezoid is enough.
    """
    c.require_quantum()
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

    F enters in the absorbed form matching prob.cost's multiplier
    convention (see module docstring); with lam = mu = 0 the objective is
    the bare duration.  The duration and f_energy share one pass over
    their fitted cells, each bitwise equal to its own function's.
    """
    dur_cells, energy_cells = _duration_cells(p, c, _energy_weight(p, c))
    dur = float(0.5 * np.sum(dur_cells))
    fe = _f_energy(p, c, energy_cells)
    fa = f_alpha(p, c)
    g = g_penalty(p, c)
    w = work_classical(p, c)
    if prob.cost == "energy":
        f_abs = 4.0 * fe / c.m
    elif prob.cost == "phase":
        f_abs = fa
    else:
        f_abs = -_trapz(p.kbar, p.s_nodes)
    j = dur + prob.lam * f_abs + prob.mu * g
    return CostReport(cost=prob.cost, lam=prob.lam, mu=prob.mu, duration=dur,
                      f_energy=fe, f_alpha=fa, g_penalty=g, work=w,
                      f_absorbed=f_abs, j_total=j)

"""Exact Gaussian wavepacket dynamics under a quantum stiffness schedule.

For a Gaussian state the Schroedinger equation closes on three numbers:
the variance s, the phase curvature alpha, and the global phase beta.
Everything follows from the width equation.  With sigma = sqrt(2 s),

    sigma'' + (kappa(t)/m) * sigma = 4 D^2 / sigma^3,

an Ermakov-type equation (D = hbar/(2m)).  Integrating it forward is the
first of the package's two independent verifiers: a schedule designed in
the overdamped picture must land the width on target with zero slope.

The width equation is integrated through its linear flow.  By the
Ermakov-Pinney construction (Pinney, Proc. AMS 1, 681 (1950)) sigma^2 is a
quadratic form in a fundamental pair (u1, u2) of the linear oscillator
u'' = -(kappa/m) u: from rest at variance s0, s = s0 u1^2 + (D^2/s0) u2^2,
and the Gouy angle theta = atan2(D u2, s0 u1) advances at D/s, so the
global phase beta = -hbar theta / (4 m D) needs no quadrature.  The steps
sit on the schedule's own nodes, as in evolve_variance: kappa is piecewise
linear, so a step that straddled a node would meet a kink in kappa and
cost RK4 its order.  Each RK4 step of the linear flow is a 2x2 map, and
the maps are composed by a vectorized prefix scan instead of a per-step
loop.  theta is continued across the branch of atan2 by counting the
steps where its raw value drops by more than pi.  Since theta never
decreases, that count is what np.unwrap would add, as long as every step
turns theta by less than pi, the condition np.unwrap assumes as well.

Also here: the instantaneous energy of the Gaussian state and its Wigner
phase-space density.  The drift that carries an ensemble in lockstep with
the wavepacket is simulate_nelson's, in swifttrap.montecarlo.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IntegrationError
from .model import PhysConsts, TimeProtocol, _node_substeps, _prefix_step_maps

__all__ = [
    "TrajectoryRecord",
    "energy_of",
    "integrate_ermakov",
    "wigner_at",
]


@dataclass
class TrajectoryRecord:
    """Wavepacket history on the integrator's step grid.

    t holds every node of the driving schedule and the substeps between
    them, so its spacing follows the schedule's cells.  stability_margin
    is max_k h_k sqrt(|kappa|/m) over the steps' stage samples, which
    RK4 needs below 2 sqrt(2).
    """

    t: np.ndarray
    s: np.ndarray
    sdot: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    energy: np.ndarray
    stability_margin: float = 0.0

    @property
    def duration(self) -> float:
        return float(self.t[-1] - self.t[0])


def energy_of(s, sdot, kappa, c: PhysConsts):
    """Mean energy of the Gaussian state.

    E = (m/(4 s)) * (sdot^2/2 + 2 s^2 kappa/m + 2 D^2); at equilibrium
    (sdot = 0, kappa = m D^2/s^2) this is the ground-state value m D^2/s,
    i.e. hbar*omega/2.
    """
    s = np.asarray(s, dtype=float)
    if np.any(s <= 0.0):
        raise ValueError("variance must be positive")
    sdot = np.asarray(sdot, dtype=float)
    kappa = np.asarray(kappa, dtype=float)
    out = (c.m / (4.0 * s)) * (0.5 * sdot**2 + 2.0 * s**2 * kappa / c.m + 2.0 * c.D**2)
    return float(out) if out.ndim == 0 else out


def _gouy_angle(raw: np.ndarray) -> np.ndarray:
    """The continuous Gouy angle theta from its atan2 samples raw.

    theta never decreases (its rate is D/s > 0), so the branch of atan2 is
    crossed only upward, where raw drops by nearly 2 pi; theta is raw plus
    2 pi times the number of such drops so far.  A drop counts only when
    it exceeds pi, so rounding noise on a nearly flat theta adds nothing.
    This is np.unwrap, to rounding, as long as every step turns theta by
    less than pi, which np.unwrap assumes too.  The count is built in the
    returned array, which is the only one allocated; without a crossing it
    is all zeros and needs no running sum.
    """
    theta = np.empty_like(raw)
    theta[0] = 0.0
    turns = theta[1:]
    np.subtract(raw[1:], raw[:-1], out=turns)
    np.less(turns, -np.pi, out=turns)
    if turns.any():
        np.cumsum(turns, out=turns)
    theta *= 2.0 * np.pi
    theta += raw
    return theta


def integrate_ermakov(kappa_t: TimeProtocol, s_start: float, c: PhysConsts,
                      dt: float | None = None) -> TrajectoryRecord:
    """Integrate the width equation under a quantum schedule, from rest.

    Fixed-step RK4 on the linear flow (u, u') of u'' = -(kappa/m) u, on
    the schedule's own nodes: a cell of length L takes ceil(L/dt) equal
    substeps (model._node_substeps, the rule evolve_variance follows), so
    no step straddles a node and kappa, linear inside each cell, is
    smooth over every step.  Each step's RK4 map I + E_k is written in
    closed form from its length h_k and its three kappa samples, and the
    maps are composed by a vectorized prefix scan.  The record is rebuilt
    by the Ermakov-Pinney construction from the pair u1 (u1 = 1, u1' = 0)
    and u2 (u2 = 0, u2' = 1), with s0 = s_start and q = D^2/s0:

        s = s0 u1^2 + q u2^2,    sdot = 2 (s0 u1 u1' + q u2 u2'),
        beta = -hbar theta / (4 m D),  theta = atan2(D u2, s0 u1) + 2 pi n,

    theta being the Gouy angle, whose rate is D/s, and n the number of
    branch crossings so far (_gouy_angle).  Starts at variance s_start
    with zero width velocity and returns the record on the step grid,
    which holds every node.  dt defaults to model._node_substeps's, a
    thousandth of the span.

    Raises IntegrationError (with the failure time) at the first step
    whose largest stage sample gives h_k sqrt(|kappa|/m) > 2 sqrt(2),
    RK4's stability bound on the imaginary axis, and at the first sample
    where s is non-finite or at most 1e-16 * s_start.
    """
    if kappa_t.kind != "quantum":
        raise ValueError("integrate_ermakov expects a quantum schedule")
    if s_start <= 0.0:
        raise ValueError("starting variance must be positive")
    # arrays are dropped once read for the last time, which keeps the
    # transient peak near two and a half records
    ta, h, ends, ka, km, kb = _node_substeps(kappa_t, dt)
    t = np.append(ta, kappa_t.t_nodes[-1])
    del ta, ends

    stiff = h * np.sqrt(np.maximum(np.maximum(np.abs(ka), np.abs(km)), np.abs(kb)) / c.m)
    margin = float(np.max(stiff))
    if margin > 2.0 * np.sqrt(2.0):
        k = int(np.argmax(stiff > 2.0 * np.sqrt(2.0)))
        raise IntegrationError(
            f"step h={h[k]:.3g} gives h*sqrt(|kappa|/m)={stiff[k]:.3g} above the RK4 "
            f"stability bound 2*sqrt(2) at t={t[k]:.6g}", t=float(t[k]))
    del stiff

    # RK4 step map I + E of y' = [[0, 1], [-a(t), 0]] y with stage rates
    # a = kappa/m at the step's start, midpoint (twice) and end
    a, am, b = ka / c.m, km / c.m, kb / c.m
    del km, kb
    h2 = h * h
    e = np.zeros((4, t.size))
    e[0, 1:] = -h2 * (a + 2.0 * am) / 6.0 + h2 * h2 * am * a / 24.0
    e[1, 1:] = h - h2 * h * am / 6.0
    e[2, 1:] = -h * (a + 4.0 * am + b) / 6.0 + h2 * h * am * (a + b) / 12.0
    e[3, 1:] = -h2 * (2.0 * am + b) / 6.0 + h2 * h2 * am * b / 24.0
    del a, am, b, h, h2

    # the pair u1 = 1 + P00, u2 = P01, u1' = P10, u2' = 1 + P11
    u1, u2, du1, du2 = _prefix_step_maps(e)
    u1 += 1.0
    du2 += 1.0
    q = c.D**2 / s_start
    with np.errstate(over="ignore", invalid="ignore"):
        s = s_start * u1**2 + q * u2**2
    floor = 1e-16 * s_start
    if not (s.min() > floor and s.max() < np.inf):
        k = int(np.flatnonzero(~(np.isfinite(s) & (s > floor)))[0])
        raise IntegrationError(f"width collapsed or blew up at t={t[k]:.6g}", t=float(t[k]))
    sdot = 2.0 * (s_start * u1 * du1 + q * u2 * du2)
    theta = _gouy_angle(np.arctan2(c.D * u2, s_start * u1))
    del e, u1, u2, du1, du2
    return TrajectoryRecord(
        t=t, s=s, sdot=sdot, alpha=c.m * sdot / (4.0 * c.hbar * s),
        beta=-c.hbar * theta / (4.0 * c.m * c.D),
        energy=energy_of(s, sdot, np.append(ka, kappa_t.values[-1]), c),
        stability_margin=margin)


def wigner_at(x, p, s, alpha, c: PhysConsts):
    """Wigner density of the Gaussian state at phase-space point(s) (x, p).

    W = (1/(pi hbar)) exp(-x^2/(2 s) - (2 s/hbar^2) (p - 2 alpha hbar x)^2);
    normalized to one, Gaussian in both directions, sheared by the phase
    curvature.
    """
    if np.any(np.asarray(s) <= 0.0):
        raise ValueError("variance must be positive")
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    out = (np.exp(-x**2 / (2.0 * s)
                  - (2.0 * s / c.hbar**2) * (p - 2.0 * alpha * c.hbar * x) ** 2)
           / (np.pi * c.hbar))
    return float(out) if out.ndim == 0 else out

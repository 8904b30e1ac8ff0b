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
global phase beta = -hbar theta / (4 m D) needs no quadrature.  Each RK4
step of the linear flow is a 2x2 map, and the maps are composed by a
vectorized prefix scan instead of a per-step loop.  theta is continued
across the branch of atan2 by counting the steps where its raw value drops
by more than pi.  Since theta never decreases, that count is what
np.unwrap would add, as long as every step turns theta by less than pi,
the condition np.unwrap assumes as well.

A call allocates little beyond its record: kappa is sampled at the steps
and at their midpoints as two arrays, and the step maps are built,
scanned and read back in place in the rows of one (4, n + 1) array.
Every expression keeps its association, so the record is bitwise the one
a direct, temporary-per-operation evaluation of the same formulas gives.

Also here: the instantaneous energy of the Gaussian state and its Wigner
phase-space density.  The drift that carries an ensemble in lockstep with
the wavepacket is simulate_nelson's, in swifttrap.montecarlo.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IntegrationError
from .model import PhysConsts, TimeProtocol, _prefix_step_maps

__all__ = [
    "TrajectoryRecord",
    "energy_of",
    "integrate_ermakov",
    "wigner_at",
]


@dataclass
class TrajectoryRecord:
    """Wavepacket history on a uniform time grid."""

    t: np.ndarray
    s: np.ndarray
    sdot: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    energy: np.ndarray

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


def _record_energy(s, sdot, kappa, c: PhysConsts, w: np.ndarray) -> np.ndarray:
    """energy_of on a record's equal-length arrays, s already checked > 0.

    The same expression in the same association, so bitwise equal to
    energy_of, evaluated in place in the result and the two scratch rows
    of w.
    """
    out = np.multiply(s, 4.0)
    np.divide(c.m, out, out=out)
    w0, w1 = w
    np.square(sdot, out=w0)
    w0 *= 0.5
    np.square(s, out=w1)
    w1 *= 2.0
    w1 *= kappa
    w1 /= c.m
    w0 += w1
    w0 += 2.0 * c.D**2
    out *= w0
    return out


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

    Fixed-step RK4 on the linear flow (u, u') of u'' = -(kappa/m) u, with
    kappa(t) linearly interpolated between protocol nodes and sampled at
    the steps and at their midpoints, the even and odd points of the
    half-step grid.  Each step's RK4 map I + E_k is written in closed
    form from its three kappa samples, and the maps are composed by a
    vectorized prefix scan.  The record is rebuilt by the Ermakov-Pinney
    construction from the pair u1 (u1 = 1, u1' = 0) and u2 (u2 = 0,
    u2' = 1), with s0 = s_start and q = D^2/s0:

        s = s0 u1^2 + q u2^2,    sdot = 2 (s0 u1 u1' + q u2 u2'),
        beta = -hbar theta / (4 m D),  theta = atan2(D u2, s0 u1) + 2 pi n,

    theta being the Gouy angle, whose rate is D/s, and n the number of
    branch crossings so far (_gouy_angle).  Starts at variance
    s_start with zero width velocity.  Default step is one ten-thousandth
    of the span; the step actually taken is span / round(span/dt).

    Raises IntegrationError (with the failure time) at the first step with
    a stage sample |kappa| > 8 m / h^2, i.e. h*sqrt(|kappa|/m) > 2*sqrt(2),
    RK4's stability bound on the imaginary axis, and at the first sample
    where s is non-finite or at most 1e-16 * s_start.
    """
    c.require_quantum()
    if kappa_t.kind != "quantum":
        raise ValueError("integrate_ermakov expects a quantum schedule")
    if s_start <= 0.0:
        raise ValueError("starting variance must be positive")
    t0, t1 = kappa_t.span
    span = t1 - t0
    if dt is None:
        dt = span / 1.0e4
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    n_steps = max(1, int(round(span / dt)))
    h = span / n_steps
    t = np.arange(n_steps + 1, dtype=float)
    t *= h
    t += t0

    # kappa at the steps and at their midpoints, the even and odd points
    # t0 + (h/2) i of the half-step grid; RK4 stages need nothing finer.
    # (h/2) 2j is h j exactly, so the steps are t itself; the midpoints are
    # (h/2) times the odd integers
    mid = np.arange(1, 2 * n_steps, 2, dtype=float)
    mid *= 0.5 * h
    mid += t0
    k_step = np.interp(t, kappa_t.t_nodes, kappa_t.values)
    k_mid = np.interp(mid, kappa_t.t_nodes, kappa_t.values)
    del mid

    # h sqrt(|kappa|/m) > 2 sqrt(2) at a stage sample is |kappa| > 8 m / h^2;
    # half-step sample i is a stage of steps (i - 1) // 2 and i // 2, the
    # first of which is reported
    bound = 8.0 * c.m / (h * h)
    if any(np.fmax.reduce(k) > bound or np.fmin.reduce(k) < -bound
           for k in (k_step, k_mid)):
        kap = np.empty(2 * n_steps + 1)
        kap[::2], kap[1::2] = k_step, k_mid
        k = max(int(np.argmax(np.abs(kap) > bound)) - 1, 0) // 2
        stiff = h * np.sqrt(np.max(np.abs(kap[2 * k:2 * k + 3])) / c.m)
        raise IntegrationError(
            f"step h={h:.3g} gives h*sqrt(|kappa|/m)={stiff:.3g} above the RK4 "
            f"stability bound 2*sqrt(2) at t={t[k]:.6g}", t=float(t[k]))

    # RK4 step map I + E of y' = [[0, 1], [-a(t), 0]] y with stage rates
    # a = ka, km, km, kb:
    #   E00 = -h^2 (ka + 2 km) / 6 + h^4 km ka / 24
    #   E01 = h - h^3 km / 6
    #   E10 = -h (ka + 4 km + kb) / 6 + h^3 km (ka + kb) / 12
    #   E11 = -h^2 (2 km + kb) / 6 + h^4 km kb / 24
    # each in that association, built in place in the rows of e, which
    # hold the shared terms (2 km, h^4 km, h^3 km) until their own turn;
    # the record's alpha holds kappa/m at the steps until its own turn
    alpha = np.divide(k_step, c.m, out=np.empty_like(t))
    ka, kb = alpha[:-1], alpha[1:]
    km = k_mid
    km /= c.m
    h2 = h * h
    e = np.empty((4, n_steps + 1))
    e[:, 0] = 0.0
    e00, e01, e10, e11 = e[:, 1:]
    np.multiply(km, 2.0, out=e01)
    np.add(ka, e01, out=e00)
    np.add(e01, kb, out=e11)
    for row in (e00, e11):
        row *= -h2
        row /= 6.0
    np.multiply(km, h2 * h2, out=e01)
    np.multiply(e01, ka, out=e10)
    e10 /= 24.0
    e00 += e10
    e01 *= kb
    e01 /= 24.0
    e11 += e01
    np.multiply(km, h2 * h, out=e01)
    np.add(ka, kb, out=e10)
    e10 *= e01
    e10 /= 12.0
    km *= 4.0
    km += ka
    km += kb
    km *= -h
    km /= 6.0
    e10 += km
    e01 /= 6.0
    np.subtract(h, e01, out=e01)
    del ka, kb, km, k_mid

    # the pair u1 = 1 + P00, u2 = P01, u1' = P10, u2' = 1 + P11 in the
    # rows of e; each row is reused as scratch once it has been read for
    # the last time, so the record's arrays are the only ones made
    p = _prefix_step_maps(e)
    p[0] += 1.0
    p[3] += 1.0
    u1, u2, du1, du2 = p
    q = c.D**2 / s_start
    sdot = np.empty_like(t)
    with np.errstate(over="ignore", invalid="ignore"):
        # s = s0 u1^2 + q u2^2
        s = np.square(u1)
        s *= s_start
        np.square(u2, out=sdot)
        sdot *= q
        s += sdot
    floor = 1e-16 * s_start
    if not (s.min() > floor and s.max() < np.inf):
        k = int(np.flatnonzero(~(np.isfinite(s) & (s > floor)))[0])
        raise IntegrationError(f"width collapsed or blew up at t={t[k]:.6g}", t=float(t[k]))
    # sdot = 2 ((s0 u1) u1' + (q u2) u2')
    np.multiply(u1, s_start, out=sdot)
    sdot *= du1
    np.multiply(u2, q, out=alpha)
    alpha *= du2
    sdot += alpha
    sdot *= 2.0
    # beta = (-hbar theta) / (4 m D), theta = atan2(D u2, s0 u1) continued
    np.multiply(u2, c.D, out=du2)
    np.multiply(u1, s_start, out=du1)
    beta = _gouy_angle(np.arctan2(du2, du1, out=u1))
    beta *= -c.hbar
    beta /= 4.0 * c.m * c.D
    # alpha = (m sdot) / (4 hbar s)
    np.multiply(sdot, c.m, out=alpha)
    np.multiply(s, 4.0 * c.hbar, out=u2)
    alpha /= u2
    energy = _record_energy(s, sdot, k_step, c, p[2:])
    return TrajectoryRecord(t=t, s=s, sdot=sdot, alpha=alpha, beta=beta, energy=energy)


def wigner_at(x, p, s, alpha, c: PhysConsts):
    """Wigner density of the Gaussian state at phase-space point(s) (x, p).

    W = (1/(pi hbar)) exp(-x^2/(2 s) - (2 s/hbar^2) (p - 2 alpha hbar x)^2);
    normalized to one, Gaussian in both directions, sheared by the phase
    curvature.
    """
    c.require_quantum()
    if np.any(np.asarray(s) <= 0.0):
        raise ValueError("variance must be positive")
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    out = (np.exp(-x**2 / (2.0 * s)
                  - (2.0 * s / c.hbar**2) * (p - 2.0 * alpha * c.hbar * x) ** 2)
           / (np.pi * c.hbar))
    return float(out) if out.ndim == 0 else out

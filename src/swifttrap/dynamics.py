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

Also here: the instantaneous energy of the Gaussian state, its Wigner
phase-space density, the squeeze-tilt angle, and the osmotic drift that
reproduces the same statistics as an overdamped diffusion.
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
    "nelson_drift",
    "tilt_angle",
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


def _gouy_angle(raw: np.ndarray) -> np.ndarray:
    """The continuous Gouy angle theta from its atan2 samples raw.

    theta never decreases (its rate is D/s > 0), so the branch of atan2 is
    crossed only upward, where raw drops by nearly 2 pi; theta is raw plus
    2 pi times the number of such drops so far.  A drop counts only when
    it exceeds pi, so rounding noise on a nearly flat theta adds nothing.
    This is np.unwrap, to rounding, as long as every step turns theta by
    less than pi, which np.unwrap assumes too.
    """
    turns = np.zeros(raw.size)
    np.cumsum(np.diff(raw) < -np.pi, dtype=float, out=turns[1:])
    return raw + 2.0 * np.pi * turns


def integrate_ermakov(kappa_t: TimeProtocol, s_start: float, c: PhysConsts,
                      dt: float | None = None) -> TrajectoryRecord:
    """Integrate the width equation under a quantum schedule, from rest.

    Fixed-step RK4 on the linear flow (u, u') of u'' = -(kappa/m) u, with
    kappa(t) linearly interpolated between protocol nodes and sampled on
    the half-step grid.  Each step's RK4 map I + E_k is written in closed
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
    t = t0 + h * np.arange(n_steps + 1)

    # kappa at the half-step grid; RK4 stages never need anything finer
    kap = np.interp(t0 + 0.5 * h * np.arange(2 * n_steps + 1),
                    kappa_t.t_nodes, kappa_t.values)
    ka, km, kb = kap[:-1:2] / c.m, kap[1::2] / c.m, kap[2::2] / c.m

    # h sqrt(|kappa|/m) > 2 sqrt(2) at a stage sample is |kappa| > 8 m / h^2;
    # sample i is a stage of steps (i - 1) // 2 and i // 2, the first of
    # which is reported
    over = np.abs(kap) > 8.0 * c.m / (h * h)
    if over.any():
        k = max(int(np.argmax(over)) - 1, 0) // 2
        stiff = h * np.sqrt(np.max(np.abs(kap[2 * k:2 * k + 3])) / c.m)
        raise IntegrationError(
            f"step h={h:.3g} gives h*sqrt(|kappa|/m)={stiff:.3g} above the RK4 "
            f"stability bound 2*sqrt(2) at t={t[k]:.6g}", t=float(t[k]))

    # RK4 step map I + E of y' = [[0, 1], [-a(t), 0]] y with stage rates
    # a = ka, km, km, kb
    h2 = h * h
    e = np.empty((4, n_steps + 1))
    e[:, 0] = 0.0
    e[0, 1:] = -h2 * (ka + 2.0 * km) / 6.0 + h2 * h2 * km * ka / 24.0
    e[1, 1:] = h - h2 * h * km / 6.0
    e[2, 1:] = -h * (ka + 4.0 * km + kb) / 6.0 + h2 * h * km * (ka + kb) / 12.0
    e[3, 1:] = -h2 * (2.0 * km + kb) / 6.0 + h2 * h2 * km * kb / 24.0
    p = _prefix_step_maps(e)
    u1, du1, u2, du2 = 1.0 + p[0], p[2], p[1], 1.0 + p[3]

    q = c.D**2 / s_start
    with np.errstate(over="ignore", invalid="ignore"):
        s = s_start * u1**2 + q * u2**2
    bad = np.flatnonzero(~(np.isfinite(s) & (s > 1e-16 * s_start)))
    if bad.size:
        k = int(bad[0])
        raise IntegrationError(f"width collapsed or blew up at t={t[k]:.6g}", t=float(t[k]))
    sdot = 2.0 * (s_start * u1 * du1 + q * u2 * du2)
    theta = _gouy_angle(np.arctan2(c.D * u2, s_start * u1))
    beta = -c.hbar * theta / (4.0 * c.m * c.D)
    alpha = c.m * sdot / (4.0 * c.hbar * s)
    energy = energy_of(s, sdot, kap[::2], c)
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


def tilt_angle(alpha, c: PhysConsts, omega_i: float) -> float:
    """Phase-space shear angle: tan(theta) = 2 alpha hbar / (m omega_i)."""
    if omega_i <= 0.0:
        raise ValueError("omega_i must be positive")
    return float(np.arctan2(2.0 * alpha * c.hbar, c.m * omega_i))


def nelson_drift(x, s, alpha, c: PhysConsts):
    """Osmotic-plus-current drift reproducing the wavepacket statistics.

    b(x) = (hbar/m) * (2 alpha - 1/(2 s)) * x; a diffusion dx = b dt +
    sqrt(2 D) dW with D = hbar/(2m) keeps a Gaussian ensemble in lockstep
    with the Gaussian state (s, alpha).
    """
    if np.any(np.asarray(s) <= 0.0):
        raise ValueError("variance must be positive")
    x = np.asarray(x, dtype=float)
    out = (c.hbar / c.m) * (2.0 * alpha - 1.0 / (2.0 * s)) * x
    return float(out) if out.ndim == 0 else out

"""Reference schedules the optimizer is compared against.

* step_protocol: a tanh-smoothed stiffness step for the classical trap;
  the workhorse for showing how fast a plain quench settles.
* chen_polynomial: the standard frictionless-ramp construction built from
  a quintic scale-factor interpolation; exact endpoint matching, fixed
  total time chosen by the caller.
* adiabatic_reference: instantaneous-equilibrium stiffness along a slow
  quintic variance ramp; the baseline a shortcut is supposed to beat.
"""

from __future__ import annotations

import numpy as np

from .model import PhysConsts, TimeProtocol

__all__ = ["adiabatic_reference", "chen_polynomial", "step_protocol"]


def step_protocol(kbar_start: float, kbar_end: float, tau: float, eps: float,
                  span: tuple[float, float], n: int = 2001) -> TimeProtocol:
    """Smoothed classical stiffness step centered at tau with width eps.

    kbar(t) = (kbar_end + kbar_start)/2 + (kbar_end - kbar_start)/2
              * tanh((t - tau)/eps), sampled on n uniform nodes across span.
    """
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    t0, t1 = float(span[0]), float(span[1])
    if not t1 > t0:
        raise ValueError("span must be an increasing interval")
    if n < 2:
        raise ValueError("need at least 2 samples")
    t = np.linspace(t0, t1, n)
    mid = 0.5 * (kbar_end + kbar_start)
    amp = 0.5 * (kbar_end - kbar_start)
    return TimeProtocol(t, mid + amp * np.tanh((t - tau) / eps), "classical")


def _quintic(T):
    return 6.0 * T**5 - 15.0 * T**4 + 10.0 * T**3


def chen_polynomial(kappa_start: float, kappa_end: float, t_final: float,
                    c: PhysConsts, n: int = 2001) -> tuple[TimeProtocol, np.ndarray]:
    """Frictionless quantum ramp from a quintic width interpolation.

    The width scale factor q(t) interpolates 1 -> (kappa_start/kappa_end)^(1/4)
    with the quintic 6T^5 - 15T^4 + 10T^3 (zero slope and curvature at both
    ends), and the stiffness that transports the packet exactly is

        kappa(t) = kappa_start / q^4 - m * qddot / q.

    Endpoint values kappa(0) = kappa_start and kappa(t_final) = kappa_end
    hold exactly; in between kappa may leave [kappa_end, kappa_start] and
    can even turn negative for short t_final.  Returns the schedule and q.
    """
    if kappa_start <= 0.0 or kappa_end <= 0.0:
        raise ValueError("endpoint stiffnesses must be positive")
    if t_final <= 0.0:
        raise ValueError("t_final must be positive")
    if n < 2:
        raise ValueError("need at least 2 samples")
    a = (kappa_start / kappa_end) ** 0.25
    t = np.linspace(0.0, t_final, n)
    T = t / t_final
    q = 1.0 + (a - 1.0) * _quintic(T)
    qddot = (a - 1.0) * (120.0 * T**3 - 180.0 * T**2 + 60.0 * T) / t_final**2
    kappa = kappa_start / q**4 - c.m * qddot / q
    return TimeProtocol(t, kappa, "quantum"), q


def adiabatic_reference(s_start: float, s_end: float, t_final: float,
                        c: PhysConsts, n: int = 2001) -> tuple[TimeProtocol, np.ndarray]:
    """Instantaneous-equilibrium stiffness along a slow quintic variance ramp.

    s(t) runs from s_start to s_end through the quintic interpolant and the
    schedule applies kappa(t) = m D^2 / s(t)^2 throughout.  Exact only in
    the t_final -> infinity limit; for finite t_final the packet lags by
    O(1/t_final).  Returns the schedule and the target s(t).
    """
    if s_start <= 0.0 or s_end <= 0.0:
        raise ValueError("endpoint variances must be positive")
    if t_final <= 0.0:
        raise ValueError("t_final must be positive")
    if n < 2:
        raise ValueError("need at least 2 samples")
    t = np.linspace(0.0, t_final, n)
    s = s_start + (s_end - s_start) * _quintic(t / t_final)
    kappa = c.m * c.D**2 / s**2
    return TimeProtocol(t, kappa, "quantum"), s

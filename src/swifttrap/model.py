"""Core types and exact state relations for the harmonic-trap toolkit.

The quantum side is a particle of mass m in a trap of stiffness kappa(t),
prepared in its Gaussian ground state.  The classical side is an overdamped
bead (drag gamma, diffusion constant D) in a trap of stiffness kbar(t).
The two pictures describe the same position statistics when D = hbar/(2m);
everything downstream of that correspondence lives in :mod:`swifttrap.analog`.

This module holds the parameter/state containers and the closed-form
identities that need no integration: equilibrium stiffnesses, the phase
curvature alpha, and the Gaussian position density.  It also holds the
prefix product of 2x2 step maps on which both fixed-step integrators (the
width equation and the variance flow) are built, since each of their RK4
steps is a linear (or affine) map of the state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PhysConsts:
    """Physical constants of the matched quantum/classical pair.

    Defaults are the dimensionless convention used throughout the tests:
    hbar = gamma = 1, m = 1/2, so D = hbar/(2m) = 1.
    """

    hbar: float = 1.0
    m: float = 0.5
    gamma: float = 1.0
    D: float = 1.0

    def __post_init__(self):
        for name in ("hbar", "m", "gamma", "D"):
            v = getattr(self, name)
            if not np.isfinite(v) or v <= 0.0:
                raise ValueError(f"PhysConsts.{name} must be positive, got {v!r}")

    def is_quantum_consistent(self, rtol: float = 1e-12) -> bool:
        """True when D = hbar/(2m) within relative tolerance."""
        return abs(self.D - self.hbar / (2.0 * self.m)) <= rtol * self.D

    def require_quantum(self) -> None:
        """Raise unless the diffusion constant matches hbar/(2m).

        Operations that translate between the classical bead and the
        quantum oscillator only make sense on the matched manifold.
        """
        if not self.is_quantum_consistent():
            raise ValueError(
                "quantum/classical correspondence requires D = hbar/(2m); "
                f"got D={self.D}, hbar/(2m)={self.hbar / (2.0 * self.m)}"
            )


@dataclass
class GaussianState:
    """Variance-parametrized Gaussian wavepacket (s, alpha, beta).

    s is the position variance, alpha the quadratic phase curvature and
    beta the global phase.  The wavefunction it stands for is
    (2*pi*s)^(-1/4) * exp(-x^2/(4s) + i*alpha*x^2 + i*beta).
    """

    s: float
    alpha: float = 0.0
    beta: float = 0.0

    def __post_init__(self):
        if not np.isfinite(self.s) or self.s <= 0.0:
            raise ValueError(f"variance must be positive, got {self.s!r}")


@dataclass
class SGridProtocol:
    """Classical stiffness schedule parametrized by the variance s.

    kbar[j] is the stiffness applied when the ensemble variance passes
    through s_nodes[j].  Nodes run from the initial variance to the target,
    so they decrease for a compression.
    """

    s_nodes: np.ndarray
    kbar: np.ndarray
    orientation: str

    def __post_init__(self):
        self.s_nodes = np.asarray(self.s_nodes, dtype=float)
        self.kbar = np.asarray(self.kbar, dtype=float)
        if self.s_nodes.ndim != 1 or self.s_nodes.shape != self.kbar.shape:
            raise ValueError("s_nodes and kbar must be 1-d arrays of equal length")
        if self.s_nodes.size < 3:
            raise ValueError("need at least 3 nodes")
        if np.any(self.s_nodes <= 0.0):
            raise ValueError("variance nodes must be positive")
        d = np.diff(self.s_nodes)
        if self.orientation == "expansion":
            if not np.all(d > 0.0):
                raise ValueError("expansion requires strictly increasing s_nodes")
        elif self.orientation == "compression":
            if not np.all(d < 0.0):
                raise ValueError("compression requires strictly decreasing s_nodes")
        else:
            raise ValueError(f"orientation must be 'expansion' or 'compression', got {self.orientation!r}")

    @classmethod
    def from_samples(cls, s_nodes, kbar) -> "SGridProtocol":
        """Build a protocol, inferring orientation from the node order."""
        s_nodes = np.asarray(s_nodes, dtype=float)
        orientation = "expansion" if s_nodes[-1] > s_nodes[0] else "compression"
        return cls(s_nodes, np.asarray(kbar, dtype=float), orientation)

    @property
    def s_start(self) -> float:
        return float(self.s_nodes[0])

    @property
    def s_end(self) -> float:
        return float(self.s_nodes[-1])

    @property
    def direction(self) -> float:
        """+1 for expansion, -1 for compression."""
        return 1.0 if self.orientation == "expansion" else -1.0


@dataclass
class TimeProtocol:
    """Stiffness schedule on a time grid.

    kind tells which trap the values drive: "classical" for the overdamped
    bead stiffness kbar(t), "quantum" for the oscillator stiffness kappa(t).
    """

    t_nodes: np.ndarray
    values: np.ndarray
    kind: str

    def __post_init__(self):
        self.t_nodes = np.asarray(self.t_nodes, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.t_nodes.ndim != 1 or self.t_nodes.shape != self.values.shape:
            raise ValueError("t_nodes and values must be 1-d arrays of equal length")
        if self.t_nodes.size < 2:
            raise ValueError("need at least 2 nodes")
        if not np.all(np.diff(self.t_nodes) > 0.0):
            raise ValueError("t_nodes must be strictly increasing")
        if self.kind not in ("classical", "quantum"):
            raise ValueError(f"kind must be 'classical' or 'quantum', got {self.kind!r}")

    @property
    def span(self) -> tuple[float, float]:
        return float(self.t_nodes[0]), float(self.t_nodes[-1])

    def __call__(self, t):
        """Linear interpolation of the schedule (clamped at the ends)."""
        return np.interp(t, self.t_nodes, self.values)


_COSTS = ("energy", "phase", "work")


@dataclass
class OptimizationProblem:
    """Variational protocol search: which cost, multipliers, and endpoints.

    lam weights the physical cost functional against duration; mu weights
    the smoothing penalty on dkbar/ds.
    """

    cost: str
    lam: float
    mu: float
    s_i: float
    s_f: float
    n_grid: int = 2001

    def __post_init__(self):
        if self.cost not in _COSTS:
            raise ValueError(f"cost must be one of {_COSTS}, got {self.cost!r}")
        if self.lam < 0.0 or not np.isfinite(self.lam):
            raise ValueError("lam must be finite and nonnegative")
        if self.mu < 0.0 or not np.isfinite(self.mu):
            raise ValueError("mu must be finite and nonnegative")
        for name in ("s_i", "s_f"):
            v = getattr(self, name)
            if not np.isfinite(v) or v <= 0.0:
                raise ValueError(f"{name} must be positive")
        if self.s_i == self.s_f:
            raise ValueError("s_i and s_f must differ")
        if self.n_grid < 101:
            raise ValueError("n_grid must be at least 101")


@dataclass
class EnsembleStats:
    """Moment summaries of a simulated ensemble at checkpoint times.

    h and n_steps are the Euler-Maruyama step actually used and the number
    of steps over the span; stability_margin is h * max|drift rate| over
    those steps, which stays below 1 for a stable chain.
    """

    times: np.ndarray
    mean: np.ndarray
    variance: np.ndarray
    excess_kurtosis: np.ndarray
    stderr_variance: np.ndarray
    n_particles: int = 0
    h: float = 0.0
    n_steps: int = 0
    stability_margin: float = 0.0

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        for name in ("mean", "variance", "excess_kurtosis", "stderr_variance"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=float))
            if getattr(self, name).shape != self.times.shape:
                raise ValueError(f"{name} must match times in shape")


def _compose_step_maps(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(I + A)(I + B) - I = A + B + AB for stacked 2x2 maps, A the later."""
    n = a.shape[1]
    a = a.reshape(2, 2, n)
    b = b.reshape(2, 2, n)
    ab = a[:, 0, None] * b[0, None] + a[:, 1, None] * b[1, None]
    return (a + b + ab).reshape(4, n)


def _prefix_step_maps(e: np.ndarray) -> np.ndarray:
    """Inclusive prefix products of the 2x2 step maps I + E_k, in I + E form.

    e has shape (4, n): rows E00, E01, E10, E11 of each step, in time
    order.  Column k of the result holds P_k - I, where
    P_k = (I + E_k) ... (I + E_0).  The scan is Blelloch's work-efficient
    one (Prefix sums and their applications, CMU-CS-90-190, 1990): compose
    neighbouring pairs (I + E_2k+1)(I + E_2k), scan that half-length
    sequence recursively, which gives every odd-indexed product, and
    finish each even-indexed one with a single composition, about 2n
    compositions in all.  Each composition combines a later product A
    with an earlier one B as (I + A)(I + B) = I + A + B + AB, so no entry
    is ever rounded next to 1, and maps with a zero second row (affine
    ones) keep it exactly zero.  Overflow is left to the caller, which
    checks its reconstructed state for non-finite values.
    """
    p = np.asarray(e, dtype=float)
    n = p.shape[1]
    out = np.empty_like(p)
    out[:, 0] = p[:, 0]
    if n > 1:
        with np.errstate(over="ignore", invalid="ignore"):
            out[:, 1::2] = _prefix_step_maps(
                _compose_step_maps(p[:, 1::2], p[:, 0:n - 1:2]))
            out[:, 2::2] = _compose_step_maps(p[:, 2::2], out[:, 1:n - 1:2])
    return out


# ---------------------------------------------------------------------------
# closed-form relations
# ---------------------------------------------------------------------------

def equilibrium_kbar(s, c: PhysConsts):
    """Classical stiffness holding the overdamped ensemble at variance s.

    Stationarity of the variance flow gives kbar_eq = D*gamma/s.
    """
    s = np.asarray(s, dtype=float)
    if np.any(s <= 0.0):
        raise ValueError("variance must be positive")
    out = c.D * c.gamma / s
    return float(out) if out.ndim == 0 else out


def equilibrium_kappa(s, c: PhysConsts):
    """Quantum stiffness whose ground state has position variance s.

    Equals m*D^2/s^2 on the matched manifold D = hbar/(2m); identical to
    (m/gamma^2) * equilibrium_kbar(s)^2.
    """
    c.require_quantum()
    s = np.asarray(s, dtype=float)
    if np.any(s <= 0.0):
        raise ValueError("variance must be positive")
    out = c.m * c.D**2 / s**2
    return float(out) if out.ndim == 0 else out


def alpha_of(s, sdot, c: PhysConsts):
    """Phase curvature of the Gaussian state: alpha = (m/(4*hbar)) * sdot/s."""
    s = np.asarray(s, dtype=float)
    if np.any(s <= 0.0):
        raise ValueError("variance must be positive")
    sdot = np.asarray(sdot, dtype=float)
    out = c.m * sdot / (4.0 * c.hbar * s)
    return float(out) if out.ndim == 0 else out


def density_at(x, state: GaussianState):
    """Born position density of the Gaussian state: N(0, s) evaluated at x."""
    x = np.asarray(x, dtype=float)
    out = np.exp(-(x**2) / (2.0 * state.s)) / np.sqrt(2.0 * np.pi * state.s)
    return float(out) if out.ndim == 0 else out

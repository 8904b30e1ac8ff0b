"""Core types and exact state relations for the harmonic-trap toolkit.

The quantum side is a particle of mass m in a trap of stiffness kappa(t),
prepared in its Gaussian ground state.  The classical side is an overdamped
bead (drag gamma, diffusion constant D) in a trap of stiffness kbar(t).
The two pictures describe the same position statistics when D = hbar/(2m),
so PhysConsts derives D from hbar and m instead of taking it as an input;
everything downstream of that correspondence lives in :mod:`swifttrap.analog`.

This module holds the parameter and protocol containers and the
closed-form identities that need no integration: equilibrium stiffnesses
and the phase curvature alpha.  It also holds what both fixed-step
integrators (the width equation and the variance flow) are built on: the
layout of their substeps on a schedule's nodes, and the prefix product of
2x2 step maps, since each of their RK4 steps is a linear (or affine) map
of the state; the scan runs in place on the maps it is given.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class PhysConsts:
    """Physical constants of the matched quantum/classical pair.

    Defaults are the dimensionless convention used throughout the tests:
    hbar = gamma = 1, m = 1/2.  The diffusion constant is not an input:
    the correspondence fixes D = hbar/(2m) (Nelson, Phys. Rev. 150, 1079
    (1966)), so it is derived here, 1 for the defaults.
    """

    hbar: float = 1.0
    m: float = 0.5
    gamma: float = 1.0
    D: float = field(init=False)

    def __post_init__(self):
        for name in ("hbar", "m", "gamma"):
            v = getattr(self, name)
            if not np.isfinite(v) or v <= 0.0:
                raise ValueError(f"PhysConsts.{name} must be positive, got {v!r}")
        d = self.hbar / (2.0 * self.m)
        if not np.isfinite(d) or d <= 0.0:
            raise ValueError(f"PhysConsts.D = hbar/(2m) must be positive, got {d!r}")
        object.__setattr__(self, "D", d)


@dataclass
class SGridProtocol:
    """Classical stiffness schedule parametrized by the variance s.

    kbar[j] is the stiffness applied when the ensemble variance passes
    through s_nodes[j].  Nodes run from the initial variance to the target,
    so they decrease for a compression; direction reads the node order.
    """

    s_nodes: np.ndarray
    kbar: np.ndarray
    # (key, cells) of the last duration-cell pass over this schedule, kept
    # by analog._schedule_cells; the key holds the nodes' and kbar's bytes
    _cells: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.s_nodes = np.asarray(self.s_nodes, dtype=float)
        self.kbar = np.asarray(self.kbar, dtype=float)
        if self.s_nodes.ndim != 1 or self.s_nodes.shape != self.kbar.shape:
            raise ValueError("s_nodes and kbar must be 1-d arrays of equal length")
        if self.s_nodes.size < 3:
            raise ValueError("need at least 3 nodes")
        if np.any(self.s_nodes <= 0.0):
            raise ValueError("variance nodes must be positive")
        d = np.diff(self.s_nodes) * self.direction
        if not np.all(d > 0.0):
            raise ValueError("s_nodes must be strictly increasing (expansion) "
                             "or strictly decreasing (compression)")

    @property
    def s_start(self) -> float:
        return float(self.s_nodes[0])

    @property
    def s_end(self) -> float:
        return float(self.s_nodes[-1])

    @property
    def direction(self) -> float:
        """+1 for expansion, -1 for compression."""
        return 1.0 if self.s_nodes[-1] > self.s_nodes[0] else -1.0


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


@dataclass
class OptimizationProblem:
    """Variational protocol search: which cost, multipliers, and endpoints.

    cost names an entry of swifttrap.costs.LAGRANGIANS.  lam weights the
    physical cost functional against duration; mu weights the smoothing
    penalty on dkbar/ds.
    """

    cost: str
    lam: float
    mu: float
    s_i: float
    s_f: float
    n_grid: int = 2001

    def __post_init__(self):
        from .costs import LAGRANGIANS  # costs builds on this module

        if self.cost not in LAGRANGIANS:
            raise ValueError(f"cost must be one of {tuple(LAGRANGIANS)}, got {self.cost!r}")
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

    @property
    def direction(self) -> float:
        """+1 for expansion (s_f > s_i), -1 for compression."""
        return 1.0 if self.s_f > self.s_i else -1.0


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


def _node_substeps(proto: TimeProtocol, dt: float):
    """Equal substeps of at most dt that never straddle a node of proto.

    A cell of length L takes ceil(L/dt) equal substeps, so the schedule,
    linear inside each cell, is smooth over every substep and RK4 keeps its
    fourth order.  Returns (ta, h, ends, va, vm, vb), each flattened over
    all substeps in time order: the substep's start time ta and length h,
    the cumulative substep count at the end of each cell (node j + 1 ends
    substep ends[j] - 1), and the schedule's value at the start, midpoint
    and end of the substep, from its cell's own line (no search).  A
    substep starting at a node has ta and va equal to the node's own time
    and value.
    """
    t_nodes, values = proto.t_nodes, proto.values
    cells = np.diff(t_nodes)
    m_sub = np.maximum(1, np.ceil(cells / dt).astype(int))
    ends = np.cumsum(m_sub)
    # substep i of cell j, flattened over all cells
    j = np.repeat(np.arange(cells.size), m_sub)
    i = np.arange(ends[-1]) - (ends - m_sub)[j]
    t0 = t_nodes[j]
    h = (cells / m_sub)[j]
    v0 = values[j]
    slope = (np.diff(values) / cells)[j]
    ta = t0 + i * h
    va = v0 + slope * (ta - t0)
    vm = v0 + slope * (ta + 0.5 * h - t0)
    vb = v0 + slope * (ta + h - t0)
    return ta, h, ends, va, vm, vb


def _compose_step_maps(a: np.ndarray, b: np.ndarray, ab: np.ndarray,
                       tmp: np.ndarray) -> None:
    """a <- (a + b) + ab for stacked 2x2 maps of shape (2, 2, m), A the later.

    (I + A)(I + B) - I = A + B + AB, written into a through out=; ab and
    tmp are (2, 2, m) scratch.  Each entry is rounded as in the expression
    (a + b) + (a[i, 0] b[0, j] + a[i, 1] b[1, j]).
    """
    np.multiply(a[:, 0, None], b[0, None], out=ab)
    np.multiply(a[:, 1, None], b[1, None], out=tmp)
    ab += tmp
    a += b
    a += ab


def _prefix_step_maps(e: np.ndarray) -> np.ndarray:
    """Inclusive prefix products of the 2x2 step maps I + E_k, in I + E form.

    e has shape (4, n): rows E00, E01, E10, E11 of each step, in time
    order.  Column k of the result holds P_k - I, where
    P_k = (I + E_k) ... (I + E_0).  The scan overwrites e and returns it:
    both integrators build e for the scan alone.

    The scan is Blelloch's work-efficient one (Prefix sums and their
    applications, CMU-CS-90-190, 1990), about 2n compositions, run in
    place.  The up-sweep, for strides d = 1, 2, 4, ..., composes
    x[2d-1::2d] <- x[2d-1::2d] o x[d-1::2d], after which column
    2d (j + 1) - 1 holds the product of the 2d steps ending there; the
    down-sweep, for the same strides from the largest down, completes the
    columns in between, x[3d-1::2d] <- x[3d-1::2d] o x[2d-1::2d].  That
    is the tree of the recursive form (compose neighbouring pairs, scan
    the half-length sequence, finish each even-indexed product with one
    more composition) with the same operand order, so every product is
    the same float.  The scratch is two (2, 2, n // 2) arrays per call.
    numpy copies a multi-dimensional strided operand into its ufunc buffer
    whenever the whole operand fits there (every level with n // 2d <= 2048
    at the default 8192 elements), so the scan runs with the smallest
    buffer numpy allows and then restores the caller's size.  Each
    composition combines a later product A with an earlier one B as
    (I + A)(I + B) = I + A + B + AB, so no entry is ever rounded next to
    1, and maps with a zero second row (affine ones) keep it exactly zero.
    Overflow is left to the caller, which checks its reconstructed state
    for non-finite values.
    """
    x = np.asarray(e, dtype=float)
    n = x.shape[1]
    v = x.reshape(2, 2, n)
    ab = np.empty((2, 2, n // 2))
    tmp = np.empty_like(ab)
    d = 1
    bufsize = np.setbufsize(16)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            while 2 * d <= n:
                m = n // (2 * d)
                _compose_step_maps(v[..., 2 * d - 1::2 * d], v[..., d - 1::2 * d][..., :m],
                                   ab[..., :m], tmp[..., :m])
                d *= 2
            while d > 1:
                d //= 2
                later = v[..., 3 * d - 1::2 * d]
                m = later.shape[-1]
                _compose_step_maps(later, v[..., 2 * d - 1::2 * d][..., :m],
                                   ab[..., :m], tmp[..., :m])
    finally:
        np.setbufsize(bufsize)
    return x


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

    Equals m*D^2/s^2, with D = hbar/(2m); identical to
    (m/gamma^2) * equilibrium_kbar(s)^2.
    """
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

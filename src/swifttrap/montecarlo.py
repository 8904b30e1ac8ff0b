"""Stochastic ensemble verification of stiffness schedules.

Two Euler-Maruyama simulations share one diffusion constant D:

* classical: an overdamped bead in the driven trap,
  dx = -(kbar(t)/gamma) x dt + sqrt(2 D) dW;
* wavepacket-matched diffusion: particles ride the drift
  b(x, t) = (hbar/m)(2 alpha(t) - 1/(2 s(t))) x built from an integrated
  wavepacket record, and their ensemble density should track the Born
  density N(0, s(t)) at all times.

Checkpoint statistics come back as EnsembleStats; verify_born turns them
into z-scores against a reference variance curve (variance against the
Gaussian standard error s*sqrt(2/(N-1)), excess kurtosis against
sqrt(24/N)).

The drift is linear in x, so the Euler-Maruyama chain
x_{k+1} = g_k x_k + sqrt(2 D h) xi_k, g_k = 1 + rate_k h, is sampled exactly
at its checkpoint steps instead of being stepped (Gillespie, Phys. Rev. E
54, 2084 (1996)): between checkpoint steps a < b, x_b = G x_a + sqrt(V) eta
with G = prod g_k and V from the scalar recursion V <- g_k^2 V + 2 D h.  The
joint law at the checkpoints is the one stepping gives, so the step h, its
stability bound and the checkpoint rounding keep their meaning.

Randomness is one sequential SFC64 stream per ensemble (ensemble_stream),
seeded through SeedSequence.  The draw order is fixed: the initial
positions, then one row of N normals per checkpoint interval, drawn into
one reused buffer that the chain update consumes in place; an interval of
zero steps draws nothing.  Results are therefore a pure function of
(inputs, seed, particle count).  SeedSequence hashes the seed into the
generator's whole state, so neighbouring seeds, such as the seed + 1 that
drives a classical twin next to a Born ensemble, give streams that are
independent for every practical purpose rather than shifted copies of one
another.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import TrajectoryRecord
from .model import EnsembleStats, PhysConsts, TimeProtocol

__all__ = [
    "BIT_GENERATOR",
    "BornReport",
    "McConfig",
    "ensemble_stream",
    "simulate_classical",
    "simulate_nelson",
    "verify_born",
]


@dataclass
class McConfig:
    """Ensemble size, step, seed and observation times."""

    n_particles: int
    seed: int
    checkpoints: np.ndarray
    dt: float | None = None

    def __post_init__(self):
        if self.n_particles < 100:
            raise ValueError("need at least 100 particles for moment estimates")
        self.checkpoints = np.asarray(self.checkpoints, dtype=float)
        if self.checkpoints.ndim != 1 or self.checkpoints.size == 0:
            raise ValueError("checkpoints must be a non-empty 1-d array")
        if np.any(np.diff(self.checkpoints) <= 0.0):
            raise ValueError("checkpoints must be strictly increasing")
        if self.dt is not None and self.dt <= 0.0:
            raise ValueError("dt must be positive")


# looked up by name when a stream is built, so that importing the package
# does not load numpy.random (about 6 MB resident) for runs with no ensemble
BIT_GENERATOR = "SFC64"


def ensemble_stream(seed: int) -> np.random.Generator:
    """The ensemble's random stream: BIT_GENERATOR seeded through SeedSequence."""
    bit_generator = getattr(np.random, BIT_GENERATOR)
    return np.random.Generator(bit_generator(np.random.SeedSequence(seed)))


def _resolve_dt(cfg: McConfig, rate_bound: float, span: float) -> float:
    """Default step: a tenth of min(stability bound, span/10^4)."""
    if cfg.dt is not None:
        return float(cfg.dt)
    return min(rate_bound, span / 1.0e4) / 10.0


def _checkpoint_steps(cfg: McConfig, t0: float, h: float, n_steps: int) -> np.ndarray:
    idx = np.rint((cfg.checkpoints - t0) / h).astype(int)
    if np.any(idx < 0) or np.any(idx > n_steps):
        raise ValueError("checkpoints must lie within the protocol support")
    return idx


def _moments(x: np.ndarray) -> tuple[float, float, float]:
    """Mean, unbiased variance and excess kurtosis from one centred pass."""
    n = x.size
    mean = float(x.mean())
    d2 = x - mean
    d2 *= d2
    m2 = float(d2.sum()) / n
    m4 = float(np.dot(d2, d2)) / n
    var = m2 * n / (n - 1)
    kurt = m4 / (m2 * m2) - 3.0
    return mean, var, kurt


def _run_em(rates: np.ndarray, h: float, t0: float, s_start: float,
            cfg: McConfig, c: PhysConsts, n_steps: int) -> EnsembleStats:
    """Sample x <- (1 + rate_k h) x + sqrt(2 D h) xi exactly at the checkpoints."""
    idx = _checkpoint_steps(cfg, t0, h, n_steps)
    rng = ensemble_stream(cfg.seed)
    x = rng.standard_normal(cfg.n_particles)
    x *= np.sqrt(s_start)
    eta = np.empty_like(x)

    growth = (1.0 + rates * h).tolist()
    step_var = 2.0 * c.D * h

    n_cp = idx.size
    mean = np.empty(n_cp)
    var = np.empty(n_cp)
    kurt = np.empty(n_cp)
    done = 0
    for j, b in enumerate(idx.tolist()):
        if b > done:
            gain, noise_var = 1.0, 0.0
            for g in growth[done:b]:
                gain *= g
                noise_var = g * g * noise_var + step_var
            rng.standard_normal(out=eta)
            eta *= np.sqrt(noise_var)
            x *= gain
            x += eta
            done = b
        mean[j], var[j], kurt[j] = _moments(x)

    stderr = var * np.sqrt(2.0 / (cfg.n_particles - 1))
    return EnsembleStats(times=t0 + idx * h, mean=mean, variance=var,
                         excess_kurtosis=kurt, stderr_variance=stderr,
                         n_particles=cfg.n_particles, h=h, n_steps=n_steps,
                         stability_margin=h * float(np.max(np.abs(rates))))


def simulate_classical(kbar_t: TimeProtocol, s_start: float, cfg: McConfig,
                       c: PhysConsts) -> EnsembleStats:
    """Euler-Maruyama ensemble under the classical trap schedule."""
    if kbar_t.kind != "classical":
        raise ValueError("expected a classical schedule")
    if s_start <= 0.0:
        raise ValueError("starting variance must be positive")
    t0, t1 = kbar_t.span
    span = t1 - t0
    kmax = float(np.max(np.abs(kbar_t.values)))
    bound = c.gamma / kmax if kmax > 0.0 else np.inf
    dt = _resolve_dt(cfg, bound, span)
    n_steps = max(1, int(round(span / dt)))
    h = span / n_steps
    if h >= bound:
        raise ValueError(f"step h={h:.3g} (dt={dt:.3g}) violates the stability bound "
                         f"gamma/|kbar|max={bound:.3g}")
    kb = np.interp(t0 + h * np.arange(n_steps), kbar_t.t_nodes, kbar_t.values)
    rates = -kb / c.gamma
    return _run_em(rates, h, t0, s_start, cfg, c, n_steps)


def simulate_nelson(run: TrajectoryRecord, cfg: McConfig, c: PhysConsts) -> EnsembleStats:
    """Euler-Maruyama ensemble riding the wavepacket drift of a record."""
    t0 = float(run.t[0])
    span = float(run.t[-1] - run.t[0])
    rate_nodes = (c.hbar / c.m) * (2.0 * run.alpha - 0.5 / run.s)
    rmax = float(np.max(np.abs(rate_nodes)))
    bound = 1.0 / rmax if rmax > 0.0 else np.inf
    dt = _resolve_dt(cfg, bound, span)
    n_steps = max(1, int(round(span / dt)))
    h = span / n_steps
    if h >= bound:
        raise ValueError(f"step h={h:.3g} (dt={dt:.3g}) violates the stability bound "
                         f"1/|drift rate|max={bound:.3g}")
    rates = np.interp(t0 + h * np.arange(n_steps), run.t, rate_nodes)
    return _run_em(rates, h, t0, float(run.s[0]), cfg, c, n_steps)


@dataclass
class BornReport:
    """z-score verdict of an ensemble against a reference variance curve."""

    passed: bool
    z_variance: np.ndarray
    z_kurtosis: np.ndarray
    worst_abs_z: float
    threshold: float = 3.0


def verify_born(stats: EnsembleStats, reference_s: np.ndarray,
                threshold: float = 3.0) -> BornReport:
    """Check checkpoint moments against the Born prediction N(0, s(t)).

    z_variance compares the empirical variance to reference_s in units of
    the Gaussian standard error; z_kurtosis compares the excess kurtosis
    to zero in units of sqrt(24/N).  Passing means every |z| is within
    the threshold.
    """
    reference_s = np.asarray(reference_s, dtype=float)
    if reference_s.shape != stats.times.shape:
        raise ValueError("reference_s must match the checkpoint grid")
    if stats.n_particles < 2:
        raise ValueError("stats must carry the ensemble size")
    z_var = (stats.variance - reference_s) / stats.stderr_variance
    z_kurt = stats.excess_kurtosis / np.sqrt(24.0 / stats.n_particles)
    worst = float(max(np.max(np.abs(z_var)), np.max(np.abs(z_kurt))))
    return BornReport(passed=bool(worst <= threshold),
                      z_variance=z_var, z_kurtosis=z_kurt,
                      worst_abs_z=worst, threshold=threshold)

"""Stochastic ensemble verification of stiffness schedules.

Two ensembles share one diffusion constant D:

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

Both SDEs read dx = r(t) x dt + sqrt(2 D) dW, linear in x, so neither is
stepped: between checkpoints a < b, x_b = G x_a + sqrt(V) eta exactly
(Gillespie, Phys. Rev. E 54, 2084 (1996)), with G^2 = exp(2 int_a^b r) and
V the value at b of V' = 2 r V + 2 D from V(a) = 0.  That is the variance
flow under the stiffness -gamma r, so G^2 and V are its law over the nodes
with the checkpoints inserted (analog._variance_law, which evolve_variance
telescopes).  McConfig.dt only caps the law's RK4 substeps, as dt does for
evolve_variance, and a substep past RK4's stability bound raises there.

Randomness: each ensemble is sampled as N_BLOCKS = 2 fixed particle blocks of
floor(N/2) and N - floor(N/2) particles.  Block k draws from its own
stream, BIT_GENERATOR seeded with SeedSequence(seed).spawn(2)[k]
(ensemble_streams), and runs its whole chain on its own: the caller's
thread runs block 0 and one worker thread runs block 1.  The normal draws
and numpy's reductions release the GIL, so the two blocks overlap.  Each
block's draw order is fixed: its initial positions, then one row per
checkpoint interval, drawn into one reused buffer that the chain update
consumes in place; a checkpoint at the start draws nothing.  At each
checkpoint a block keeps its mean and centred sums M2, M3 and M4, and the
two blocks' sums are merged with the pairwise update formulas (Chan, Golub
& LeVeque, 1979; Pebay, SAND2008-6212) into the mean, the unbiased variance
and the excess kurtosis.  The blocks share no state and the merge has a
fixed order, so results are a pure function of (inputs, seed, particle
count), whatever the thread scheduling.  SeedSequence hashes the seed and
the block's spawn key into the generator's whole state, so the two blocks
of one seed, and neighbouring seeds, such as the seed + 1 that drives a
classical twin next to a Born ensemble, give streams that are independent
for every practical purpose rather than shifted copies of one another.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from .analog import _variance_law
from .dynamics import TrajectoryRecord
from .errors import IntegrationError
from .model import EnsembleStats, PhysConsts, TimeProtocol

__all__ = [
    "BIT_GENERATOR",
    "BornReport",
    "McConfig",
    "ensemble_streams",
    "simulate_classical",
    "simulate_nelson",
    "verify_born",
]


@dataclass
class McConfig:
    """Ensemble size, seed, observation times and the law's substep cap dt."""

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
        if self.dt is not None and not self.dt > 0.0:
            raise ValueError(f"dt must be positive, got {self.dt!r}")


# looked up by name when a stream is built, so that importing the package
# does not load numpy.random (about 6 MB resident) for runs with no ensemble
BIT_GENERATOR = "SFC64"

# a constant, not read from the host, so that results depend only on
# (inputs, seed, particle count); block 0 runs on the caller's thread and
# block 1 on one worker thread
N_BLOCKS = 2


def ensemble_streams(seed: int) -> list[np.random.Generator]:
    """The ensemble's random streams, one per particle block.

    Block k draws from BIT_GENERATOR seeded with SeedSequence(seed).spawn(N_BLOCKS)[k].
    """
    bit_generator = getattr(np.random, BIT_GENERATOR)
    return [np.random.Generator(bit_generator(child))
            for child in np.random.SeedSequence(seed).spawn(N_BLOCKS)]


def _centred_sums(x: np.ndarray, work: np.ndarray) -> tuple[float, float, float, float]:
    """Mean and the centred sums M2, M3, M4 of one block, from one centred pass.

    work is a (2, x.size) scratch array; its rows become d = x - mean and
    d^2, and M2 = d.d, M3 = d.d^2 and M4 = d^2.d^2 are three dot products.
    Each step is one numpy call that releases the GIL, so the other
    block's thread runs meanwhile.
    """
    mean = float(np.add.reduce(x)) / x.size
    d, d2 = work
    np.subtract(x, mean, out=d)
    np.multiply(d, d, out=d2)
    return mean, float(d @ d), float(d @ d2), float(d2 @ d2)


def _merged_moments(n_a: int, a: np.ndarray, n_b: int,
                    b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mean, unbiased variance and excess kurtosis of two blocks together.

    a and b hold (mean, M2, M3, M4) along their last axis; the centred sums
    combine by the pairwise updates of Chan, Golub & LeVeque (1979) for M2
    and Pebay (SAND2008-6212) for M4.
    """
    n = n_a + n_b
    delta = b[..., 0] - a[..., 0]
    mean = a[..., 0] + delta * (n_b / n)
    m2 = a[..., 1] + b[..., 1] + delta**2 * (n_a * n_b / n)
    m4 = (a[..., 3] + b[..., 3]
          + delta**4 * (n_a * n_b * (n_a * n_a - n_a * n_b + n_b * n_b) / n**3)
          + 6.0 * delta**2 * (n_a * n_a * b[..., 1] + n_b * n_b * a[..., 1]) / n**2
          + 4.0 * delta * (n_a * b[..., 2] - n_b * a[..., 2]) / n)
    return mean, m2 / (n - 1), n * m4 / (m2 * m2) - 3.0


def _sample_block(rng: np.random.Generator, n: int, sd_start: float,
                  plan: list[tuple[float, float] | None]) -> np.ndarray:
    """One block's chain: (mean, M2, M3, M4) at each checkpoint.

    plan holds each checkpoint interval's (gain G, noise sd sqrt(V)), or
    None for a checkpoint at the start, which draws nothing.
    """
    x = rng.standard_normal(n)
    x *= sd_start
    eta = np.empty_like(x)
    work = np.empty((2, n))
    sums = np.empty((len(plan), 4))
    for j, step in enumerate(plan):
        if step is not None:
            gain, sd = step
            rng.standard_normal(out=eta)
            eta *= sd
            x *= gain
            x += eta
        sums[j] = _centred_sums(x, work)
    return sums


def _run_ensemble(t_nodes: np.ndarray, kbar: np.ndarray, s_start: float,
                  cfg: McConfig, c: PhysConsts) -> EnsembleStats:
    """Sample x_b = G x_a + sqrt(V) eta at the checkpoints under the stiffness kbar.

    kbar is linear between t_nodes, so np.interp is exact at the
    checkpoints inserted among them.  G^2 and V of each checkpoint
    interval are the variance flow's law on that grid
    (analog._variance_law), which keeps its relative precision however far
    the variance has contracted since t0.  Both particle blocks read the
    (G, sqrt(V)) table.  A substep past RK4's stability bound raises
    IntegrationError at its start, and a law that is not positive and
    finite at b.
    """
    ckpts = cfg.checkpoints
    if ckpts[0] < t_nodes[0] or ckpts[-1] > t_nodes[-1]:
        raise ValueError("checkpoints must lie within the protocol support")
    t = np.union1d(t_nodes, ckpts)
    # a checkpoint at t0 draws nothing
    j = np.searchsorted(t, ckpts)
    start = int(j[0] == 0)
    gain2, noise_var = _variance_law(
        TimeProtocol(t, np.interp(t, t_nodes, kbar), "classical"), c, cfg.dt, j[start:])
    bad = np.flatnonzero(~(np.isfinite(gain2) & np.isfinite(noise_var)
                           & (gain2 > 0.0) & (noise_var > 0.0)))
    if bad.size:
        k, t_bad = bad[0], float(ckpts[bad[0] + start])
        raise IntegrationError(f"ensemble law G^2={gain2[k]:.6g}, V={noise_var[k]:.6g} "
                               f"is not positive and finite at t={t_bad:.6g}", t=t_bad)
    plan = [None] * start + list(zip(np.sqrt(gain2).tolist(), np.sqrt(noise_var).tolist()))

    n_a = cfg.n_particles // 2
    sizes = (n_a, cfg.n_particles - n_a)
    streams = ensemble_streams(cfg.seed)
    sd_start = float(np.sqrt(s_start))
    out: list = [None, None]

    def block_1():
        try:
            out[1] = _sample_block(streams[1], sizes[1], sd_start, plan)
        except BaseException as exc:  # re-raised on the caller's thread after the join
            out[1] = exc

    worker = threading.Thread(target=block_1, name="swifttrap-ensemble-block-1")
    worker.start()
    try:
        out[0] = _sample_block(streams[0], sizes[0], sd_start, plan)
    finally:
        worker.join()
    if isinstance(out[1], BaseException):
        raise out[1]
    mean, var, kurt = _merged_moments(sizes[0], out[0], sizes[1], out[1])

    stderr = var * np.sqrt(2.0 / (cfg.n_particles - 1))
    return EnsembleStats(times=ckpts.copy(), mean=mean, variance=var,
                         excess_kurtosis=kurt, stderr_variance=stderr,
                         n_particles=cfg.n_particles)


def simulate_classical(kbar_t: TimeProtocol, s_start: float, cfg: McConfig,
                       c: PhysConsts) -> EnsembleStats:
    """Ensemble of overdamped beads under the classical trap schedule."""
    if kbar_t.kind != "classical":
        raise ValueError("expected a classical schedule")
    if s_start <= 0.0:
        raise ValueError("starting variance must be positive")
    return _run_ensemble(kbar_t.t_nodes, kbar_t.values, s_start, cfg, c)


def simulate_nelson(run: TrajectoryRecord, cfg: McConfig, c: PhysConsts) -> EnsembleStats:
    """Ensemble riding the wavepacket drift of a record.

    The drift is b(x) = (hbar/m) (2 alpha - 1/(2 s)) x, with s and alpha
    from the record: a diffusion dx = b dt + sqrt(2 D) dW, D = hbar/(2m),
    keeps a Gaussian ensemble in lockstep with the Gaussian state
    (s, alpha), so its density tracks the Born density N(0, s(t)).  The
    rate is taken linear between the record's samples and acts as the
    classical stiffness -gamma * rate.
    """
    rate = (c.hbar / c.m) * (2.0 * run.alpha - 0.5 / run.s)
    return _run_ensemble(run.t, -c.gamma * rate, float(run.s[0]), cfg, c)


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

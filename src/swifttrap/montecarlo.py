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

Randomness: each ensemble is sampled as N_BLOCKS = 2 fixed particle blocks of
floor(N/2) and N - floor(N/2) particles.  Block k draws from its own
stream, BIT_GENERATOR seeded with SeedSequence(seed).spawn(2)[k]
(ensemble_streams), and runs its whole chain on its own: the caller's
thread runs block 0 and one worker thread runs block 1.  The normal draws
and numpy's reductions release the GIL, so the two blocks overlap.  Each
block's draw order is fixed: its initial positions, then one row per
checkpoint interval, drawn into one reused buffer that the chain update
consumes in place; an interval of zero steps draws nothing.  At each
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

from .dynamics import TrajectoryRecord
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


def _centred_sums(x: np.ndarray, work: np.ndarray) -> tuple[float, float, float, float]:
    """Mean and the centred sums M2, M3, M4 of one block, from one centred pass.

    work is a (2, x.size) scratch array; its rows become d = x - mean and
    d^2, whose Gram matrix [[M2, M3], [M3, M4]] is one BLAS call.  Each
    step is one numpy call that releases the GIL, so the other block's
    thread runs meanwhile.
    """
    mean = float(np.add.reduce(x)) / x.size
    d, d2 = work
    np.subtract(x, mean, out=d)
    np.multiply(d, d, out=d2)
    gram = work @ work.T
    return mean, float(gram[0, 0]), float(gram[0, 1]), float(gram[1, 1])


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
    None for an interval of zero steps, which draws nothing.
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


def _run_em(t_nodes: np.ndarray, values: np.ndarray, divisor: float, bound_name: str,
            s_start: float, cfg: McConfig, c: PhysConsts) -> EnsembleStats:
    """Sample x <- (1 + rate_k h) x + sqrt(2 D h) xi exactly at the checkpoints.

    The drift rate is values / divisor, linear in t between t_nodes; its
    stability bound is |divisor| / max|values|, which bound_name spells
    out in the error.  The step h = span / round(span / dt) must lie below
    that bound, and the rate is sampled at each step's start.  Each
    interval's (G, sqrt(V)) is formed once, serially, and both particle
    blocks read it.
    """
    t0 = float(t_nodes[0])
    span = float(t_nodes[-1] - t_nodes[0])
    vmax = float(np.max(np.abs(values)))
    bound = abs(divisor) / vmax if vmax > 0.0 else np.inf
    dt = _resolve_dt(cfg, bound, span)
    n_steps = max(1, int(round(span / dt)))
    h = span / n_steps
    if h >= bound:
        raise ValueError(f"step h={h:.3g} (dt={dt:.3g}) violates the stability bound "
                         f"{bound_name}={bound:.3g}")
    rates = np.interp(t0 + h * np.arange(n_steps), t_nodes, values) / divisor

    idx = _checkpoint_steps(cfg, t0, h, n_steps)

    growth = (1.0 + rates * h).tolist()
    step_var = 2.0 * c.D * h
    plan: list[tuple[float, float] | None] = []
    done = 0
    for b in idx.tolist():
        if b > done:
            gain, noise_var = 1.0, 0.0
            for g in growth[done:b]:
                gain *= g
                noise_var = g * g * noise_var + step_var
            plan.append((gain, float(np.sqrt(noise_var))))
            done = b
        else:
            plan.append(None)

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
    # rate -kbar/gamma; kbar / (-gamma) is that quotient to the bit
    return _run_em(kbar_t.t_nodes, kbar_t.values, -c.gamma, "gamma/|kbar|max",
                   s_start, cfg, c)


def simulate_nelson(run: TrajectoryRecord, cfg: McConfig, c: PhysConsts) -> EnsembleStats:
    """Euler-Maruyama ensemble riding the wavepacket drift of a record.

    The drift is b(x) = (hbar/m) (2 alpha - 1/(2 s)) x, with s and alpha
    from the record: a diffusion dx = b dt + sqrt(2 D) dW, D = hbar/(2m),
    keeps a Gaussian ensemble in lockstep with the Gaussian state
    (s, alpha), so its density tracks the Born density N(0, s(t)).
    """
    rate_nodes = (c.hbar / c.m) * (2.0 * run.alpha - 0.5 / run.s)
    return _run_em(run.t, rate_nodes, 1.0, "1/|drift rate|max", float(run.s[0]), cfg, c)


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

"""The benchmark's three workloads: generated inputs, ops and output checks.

Every input is a pure function of (workload, seed, cycle index): strata are
fixed here and the seed only picks values inside them.  A run repeats whole
cycles, so every run sees each stratum in the same proportion.

Op outcomes:

* success;
* failed: the package raised one of the exceptions of ``swifttrap.errors``,
  a synthesized schedule missed the landing tolerance, or a CLI command
  exited non-zero / reported a failed check.  Failures are counted, with
  their type, and are expected today;
* incorrect: an output violates a check that no working program can fail
  (an unexpected exception, a malformed artifact, an ensemble z-value past
  the family-wise bound).  Any incorrect op makes the run ``correct: false``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import resource
import shutil
import subprocess
import sys
import time
from statistics import NormalDist
from types import SimpleNamespace

import swifttrap  # before numpy, so the import probe sees the package's whole cost
import swifttrap.cli
import swifttrap.errors
import numpy as np

from tracing import LIB_NAMES

LANDING_TOL = 1e-3
N_GRID = 2001

# every exception class that swifttrap.errors defines counts as a failed op
PACKAGE_ERRORS = tuple(
    obj for obj in vars(swifttrap.errors).values()
    if isinstance(obj, type) and issubclass(obj, Exception)
    and obj.__module__ == swifttrap.errors.__name__)


class OpFailed(Exception):
    """The op ran but produced no verified result; counted as failed."""

    def __init__(self, kind: str, detail: str = ""):
        super().__init__(f"{kind}: {detail}" if detail else kind)
        self.kind = kind


class CheckFailed(Exception):
    """An output that no correct program can produce; marks the run incorrect."""


def _rng(workload: str, seed: int, *path) -> random.Random:
    # str seeds hash through sha512, so streams are stable across processes
    return random.Random(":".join(str(p) for p in (workload, seed) + path))


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return 10.0 ** (lo if lo == hi else rng.uniform(lo, hi))


def library() -> SimpleNamespace:
    """The traced entry points, looked up once; tracing swaps the attributes."""
    return SimpleNamespace(**{name: getattr(swifttrap, name) for name in LIB_NAMES})


def _landing(run, s_target: float) -> tuple[float, float]:
    return abs(float(run.s[-1]) - s_target), abs(float(run.sdot[-1]))


# ---------------------------------------------------------------------------
# synthesize: solve, emit, cost, width-equation landing check
# ---------------------------------------------------------------------------

# (cost, lam, s_i, s_f, log10 mu lo, log10 mu hi).  lo == hi pins a point.
# The solver's sweep count is erratic in mu once it needs thousands of
# sweeps (a 10% change of mu can double it, or turn a 2 s failure into an
# 8 s one), so those strata are pinned points: a seed-picked mu there would
# make the run's op mix, and every latency, a lottery.  The first points
# are the cases the roadmap's solver item names.
SYNTH_STRATA = (
    # slowest converging solve (about 9.9k sweeps) and the false divergences
    ("energy", 10.0, 1.0, 2.0, math.log10(0.003), math.log10(0.003)),
    ("energy", 10.0, 1.0, 2.0, -3.0, -3.0),
    ("energy", 10.0, 1.0, 5.0, -3.0, -3.0),
    ("work", 10.0, 1.0, 5.0, -3.0, -3.0),
    # compressions, every cost and lambda over the whole mu range
    ("energy", 1.0, 2.0, 1.0, -3.0, 0.0),
    ("energy", 10.0, 2.0, 1.0, -3.0, 0.0),
    ("phase", 1.0, 2.0, 1.0, -3.0, 0.0),
    ("phase", 10.0, 2.0, 1.0, -3.0, 0.0),
    ("work", 1.0, 2.0, 1.0, -3.0, 0.0),
    ("work", 10.0, 2.0, 1.0, -3.0, 0.0),
    # solves of three to five thousand sweeps
    ("work", 10.0, 1.0, 5.0, -0.5, -0.5),
    ("work", 10.0, 1.0, 2.0, -2.0, -2.0),
    ("work", 1.0, 1.0, 5.0, -2.0, -2.0),
    ("energy", 10.0, 1.0, 2.0, -2.0, -2.0),
    ("energy", 10.0, 1.0, 5.0, -0.5, -0.5),
    # solves of tens to hundreds of sweeps; the width equation dominates
    ("energy", 1.0, 1.0, 2.0, -2.0, -1.9),
    ("energy", 1.0, 1.0, 2.0, -1.0, -0.9),
    ("energy", 1.0, 1.0, 2.0, -0.1, 0.0),
    ("energy", 10.0, 1.0, 2.0, -0.5, -0.4),
    ("energy", 10.0, 1.0, 2.0, -0.1, 0.0),
    ("energy", 1.0, 1.0, 5.0, -0.5, -0.4),
    ("phase", 1.0, 1.0, 2.0, -3.0, -2.9),
    ("phase", 1.0, 1.0, 2.0, -1.0, -0.9),
    ("phase", 10.0, 1.0, 2.0, -3.0, -2.9),
    ("phase", 10.0, 1.0, 2.0, -1.5, -1.4),
    ("phase", 1.0, 1.0, 5.0, -3.0, -2.9),
    ("phase", 1.0, 1.0, 5.0, -2.0, -1.9),
    ("phase", 1.0, 1.0, 5.0, -0.1, 0.0),
    ("phase", 10.0, 1.0, 5.0, -2.0, -1.9),
    ("phase", 10.0, 1.0, 5.0, -1.5, -1.4),
    ("phase", 10.0, 1.0, 5.0, -0.1, 0.0),
    ("work", 1.0, 1.0, 2.0, -1.0, -0.9),
    ("work", 10.0, 1.0, 2.0, -0.1, 0.0),
    ("work", 1.0, 1.0, 5.0, -0.5, -0.4),
    ("work", 1.0, 1.0, 5.0, -0.1, 0.0),
    ("energy", 1.0, 1.0, 5.0, -1.0, -0.9),
)


def synth_problems(seed: int, cycle: int) -> list:
    rng = _rng("synthesize", seed, cycle)
    return [swifttrap.OptimizationProblem(cost, lam, _log_uniform(rng, lo, hi), s_i, s_f, N_GRID)
            for cost, lam, s_i, s_f, lo, hi in SYNTH_STRATA]


class Synthesize:
    name = "synthesize"

    def __init__(self, seed: int):
        self.seed = seed
        self.c = swifttrap.PhysConsts()
        self.lib = library()
        # warm-up: one cheap op, so lazy imports and first-call costs land
        # in set-up rather than in the first timed op
        self._op(self.lib, synth_problems(seed, 0)[-1])

    def cycle(self, k: int):
        return [(f"{p.cost} lam={p.lam:g} mu={p.mu:.4g} {p.s_i:g}->{p.s_f:g}",
                 lambda lib, p=p: self._op(lib, p))
                for p in synth_problems(self.seed, k)]

    def _op(self, lib, prob) -> dict:
        c = self.c
        res = lib.solve_bvp(prob, c)
        emitted = lib.to_time_domain(res.protocol, c, n_t=prob.n_grid)
        report = lib.j_total(res.protocol, prob, c)
        run = lib.integrate_ermakov(emitted.quantum, prob.s_i, c)
        if not (math.isfinite(report.j_total) and report.duration > 0.0):
            raise CheckFailed(f"objective not finite or duration not positive: {report}")
        if not math.isclose(report.duration, emitted.duration, rel_tol=1e-9):
            raise CheckFailed(f"duration {report.duration!r} != emitted span {emitted.duration!r}")
        err_s, err_sdot = _landing(run, prob.s_f)
        if not (err_s <= LANDING_TOL and err_sdot <= LANDING_TOL):
            raise OpFailed("LandingMiss", f"|ds|={err_s:.2e} |sdot|={err_sdot:.2e}")
        return {}


# ---------------------------------------------------------------------------
# verify: width equation plus the two ensembles, as `verify --method both`
# ---------------------------------------------------------------------------

# (cost, s_f, log10 mu lo, hi); lam = 1, s_i = 1.  Windows of 0.1 decade
# where the sweep count is regular (at most about 2x across the window), so
# the seed moves setup_s by noise rather than by the op mix.
VERIFY_STRATA = (
    ("energy", 2.0, -1.0, -0.9),
    ("phase", 5.0, -0.5, -0.4),
    ("work", 2.0, -1.0, -0.9),
    ("energy", 5.0, -0.1, 0.0),
)
N_PARTICLES = 20_000
N_CHECKPOINTS = 20
STEPS_PER_SPAN = 2000
# three families of N_CHECKPOINTS z-values: Born variance, Born kurtosis, twin
N_Z = 3 * N_CHECKPOINTS
# family-wise error per op; Bonferroni over all N_Z two-sided z-values
FAMILY_ALPHA = 1e-6
Z_FAMILY = NormalDist().inv_cdf(1.0 - FAMILY_ALPHA / (2 * N_Z))


def ensemble_gate(z) -> float:
    """The worst |z| of one op's N_Z z-values; CheckFailed past the family-wise bound."""
    z = np.abs(np.asarray(z, dtype=float))
    if z.size != N_Z or not np.all(np.isfinite(z)):
        raise CheckFailed(f"expected {N_Z} finite z-values, got {z.size}")
    worst = float(np.max(z))
    if worst > Z_FAMILY:
        raise CheckFailed(f"worst |z| {worst:.2f} past the family-wise bound {Z_FAMILY:.2f}")
    return worst


def verify_problems(seed: int) -> list:
    rng = _rng("verify", seed, "schedules")
    return [swifttrap.OptimizationProblem(cost, 1.0, _log_uniform(rng, lo, hi), 1.0, s_f, N_GRID)
            for cost, s_f, lo, hi in VERIFY_STRATA]


def verify_ensemble_seeds(seed: int, cycle: int) -> list[int]:
    rng = _rng("verify", seed, cycle)
    return [rng.randrange(2**31 - 2) for _ in VERIFY_STRATA]


class Verify:
    name = "verify"

    def __init__(self, seed: int):
        self.seed = seed
        self.c = swifttrap.PhysConsts()
        self.lib = library()
        self.prepare(self.lib)
        # warm-up of the ensemble code path at minimal size
        prob, emitted = self.schedules[0]
        run = swifttrap.integrate_ermakov(emitted.quantum, prob.s_i, self.c)
        warm = swifttrap.McConfig(100, 0, run.t[-1:], run.duration / STEPS_PER_SPAN)
        swifttrap.simulate_nelson(run, warm, self.c)

    def prepare(self, lib) -> None:
        """Solve and emit the schedules; the only solver work of this workload."""
        self.schedules = []
        for prob in verify_problems(self.seed):
            res = lib.solve_bvp(prob, self.c)
            self.schedules.append((prob, lib.to_time_domain(res.protocol, self.c, n_t=N_GRID)))

    def cycle(self, k: int):
        return [(f"{prob.cost} mu={prob.mu:.4g} {prob.s_i:g}->{prob.s_f:g} seed={mc_seed}",
                 lambda lib, prob=prob, em=em, mc_seed=mc_seed: self._op(lib, prob, em, mc_seed))
                for (prob, em), mc_seed in zip(self.schedules, verify_ensemble_seeds(self.seed, k))]

    def _op(self, lib, prob, emitted, mc_seed: int) -> dict:
        c = self.c
        run = lib.integrate_ermakov(emitted.quantum, prob.s_i, c)
        err_s, err_sdot = _landing(run, prob.s_f)
        if not (err_s <= LANDING_TOL and err_sdot <= LANDING_TOL):
            raise OpFailed("LandingMiss", f"|ds|={err_s:.2e} |sdot|={err_sdot:.2e}")
        t = emitted.quantum.t_nodes
        dt = float(t[-1] - t[0]) / STEPS_PER_SPAN
        ckpts = np.linspace(t[0], t[-1], N_CHECKPOINTS + 1)[1:]
        stats = lib.simulate_nelson(run, swifttrap.McConfig(N_PARTICLES, mc_seed, ckpts, dt), c)
        born = swifttrap.verify_born(stats, np.interp(ckpts, run.t, run.s))
        twin = lib.simulate_classical(emitted.classical, prob.s_i,
                                      swifttrap.McConfig(N_PARTICLES, mc_seed + 1, ckpts, dt), c)
        joint = (np.abs(stats.variance - twin.variance)
                 / np.hypot(stats.stderr_variance, twin.stderr_variance))
        worst = ensemble_gate(np.concatenate((born.z_variance, born.z_kurtosis, joint)))
        return {"born_passed": bool(born.passed), "worst_abs_z": worst}


# ---------------------------------------------------------------------------
# cli: the four subcommands as a user runs them
# ---------------------------------------------------------------------------

COMPARE_MUS = "0.01,0.1"
SWEEP_RANGE = "0.003:0.3:12"


def run_child(argv: list[str], env: dict, stderr_path: str) -> dict:
    """Spawn, wait, and return wall time (spawn to exit) and the child's rusage."""
    with open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, stderr=err)
        _, status, ru = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "rc": proc.returncode, "user_s": ru.ru_utime,
            "sys_s": ru.ru_stime, "maxrss_kb": ru.ru_maxrss}


def cli_argvs(seed: int, cycle: int, d: str) -> dict[str, list[str]]:
    """The cycle's four command lines; d is the output directory."""
    rng = _rng("cli", seed, cycle)
    cost = rng.choice(("energy", "phase", "work"))
    mu = _log_uniform(rng, -1.0, 0.0)
    s_f = rng.choice((2.0, 5.0))
    return {
        "optimize": ["optimize", "--cost", cost, "--lambda", "1", "--mu", repr(mu),
                     "--si", "1", "--sf", repr(s_f), "--out", f"{d}/optimize"],
        "verify": ["verify", "--protocol", f"{d}/optimize/protocol_t.csv",
                   "--method", "ermakov", "--out", f"{d}/verify"],
        "compare": ["compare", "--cost", "phase", "--lambda", "10", "--mu-list", COMPARE_MUS,
                    "--si", "1", "--sf", "2", "--out", f"{d}/compare"],
        "sweep": ["sweep", "--cost", "energy", "--lambda", "10", "--mu-range", SWEEP_RANGE,
                  "--si", "1", "--sf", "2", "--out", f"{d}/sweep"],
    }


def _dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


class Cli:
    name = "cli"

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir  # relative to the checkout root, which is the cwd
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.abspath("src"), os.environ.get("PYTHONPATH")) if p)
        os.makedirs(workdir, exist_ok=True)

    def argvs(self, cycle: int) -> dict[str, list[str]]:
        return cli_argvs(self.seed, cycle, self.workdir)

    def _fresh(self):
        shutil.rmtree(self.workdir, ignore_errors=True)
        os.makedirs(self.workdir)

    def cycle(self, k: int):
        return [(f"cycle {k}", lambda lib, k=k: self.run_subprocess(k))]

    def run_subprocess(self, k: int) -> dict:
        """One cycle of `python -m swifttrap.cli` children; per-command records."""
        self._fresh()
        prefix = [sys.executable, "-m", "swifttrap.cli"]
        per_cmd = {}
        for cmd, argv in self.argvs(k).items():
            stderr_path = os.path.join(self.workdir, f"{cmd}.stderr")
            rec = run_child(prefix + argv, self.env, stderr_path)
            with open(stderr_path, encoding="utf-8", errors="replace") as fh:
                rec["stderr"] = fh.read()
            os.remove(stderr_path)
            per_cmd[cmd] = rec
        return self._check(per_cmd)

    def run_inprocess(self, k: int, tracer=None) -> dict:
        """The same cycle through swifttrap.cli.main(argv) in this process."""
        self._fresh()
        per_cmd = {}
        for cmd, argv in self.argvs(k).items():
            sink = io.StringIO()
            span = tracer.span(f"cli.{cmd}") if tracer is not None else contextlib.nullcontext()
            t0 = time.perf_counter()
            with span, contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                rc = swifttrap.cli.main(argv)
            per_cmd[cmd] = {"wall_s": time.perf_counter() - t0, "rc": rc, "stderr": sink.getvalue()}
        return self._check(per_cmd)

    def _check(self, per_cmd: dict) -> dict:
        d = self.workdir
        expected = {
            "optimize": ("protocol_s.csv", "protocol_t.csv", "report.json", "manifest.json"),
            "verify": ("verify.json", "manifest.json"),
            "compare": ("tradeoff.csv", "manifest.json"),
            "sweep": ("sweep.csv", "sweep.json", "manifest.json"),
        }
        failures = []
        for cmd, rec in per_cmd.items():
            stderr = rec.pop("stderr").strip()
            if rec["rc"] != 0:
                failures.append(f"{cmd}:exit{rec['rc']} {stderr.splitlines()[-1:] or ''}")
                continue
            for fname in expected[cmd]:
                path = os.path.join(d, cmd, fname)
                if not os.path.isfile(path) or os.path.getsize(path) == 0:
                    raise CheckFailed(f"{cmd} exited 0 without {path}")
        if "verify" in per_cmd and per_cmd["verify"]["rc"] == 0:
            with open(os.path.join(d, "verify", "verify.json")) as fh:
                if json.load(fh).get("passed") is not True:
                    raise CheckFailed("verify exited 0 but verify.json is not passed")
        if "compare" in per_cmd and per_cmd["compare"]["rc"] == 0:
            with open(os.path.join(d, "compare", "tradeoff.csv")) as fh:
                rows = fh.read().splitlines()
            if len(rows) != 1 + 2 * len(COMPARE_MUS.split(",")):
                raise CheckFailed(f"tradeoff.csv has {len(rows)} lines")
        if "sweep" in per_cmd and per_cmd["sweep"]["rc"] == 0:
            with open(os.path.join(d, "sweep", "sweep.json")) as fh:
                sw = json.load(fh)
            if sw["n_converged"] != sw["n_requested"]:
                failures.append(f"sweep:{sw['n_requested'] - sw['n_converged']}unconverged")
        info = {"commands": per_cmd, "artifact_bytes": _dir_bytes(d)}
        if failures:
            err = OpFailed("CommandFailed", ",".join(failures))
            err.info = info
            raise err
        return info


def make(workload: str, seed: int, workdir: str):
    if workload == "synthesize":
        return Synthesize(seed)
    if workload == "verify":
        return Verify(seed)
    return Cli(seed, workdir)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

"""Command-line surface: synthesize, verify, compare, and sweep schedules.

Subcommands
-----------
optimize
    Solve one variational schedule and emit its s-grid and time-grid
    tables plus a cost/convergence report.
verify
    Check a protocol file by Ermakov forward integration and/or a
    Nelson-diffusion ensemble against the Born-rule prediction.
compare
    Optimal family over a list of mu values against duration-matched
    quintic baseline protocols; one trade-off table.
sweep
    One solve per mu over a log-spaced range; aggregated summary table.

All artifacts are CSV (header row, %.12e fields, LF endings) and JSON
(sorted keys, no NaN; failures encoded as strings), so reruns with the
same flags and seed are byte-identical.  The default output directory is
taken from the SWIFTTRAP_OUT environment variable, falling back to the
working directory.

Exit codes: 0 success, 2 usage error, 3 solver failure, 4 verification
failure, 5 file error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict

import numpy as np

from . import __version__
from .analog import to_time_domain, variance_rate
from .baselines import chen_polynomial
from .costs import LAGRANGIANS, j_total
from .dynamics import energy_of, integrate_ermakov
from .errors import (
    ConvergenceError,
    InfeasibleProtocolError,
    IntegrationError,
    SingularManifoldError,
)
from .model import (
    OptimizationProblem,
    PhysConsts,
    TimeProtocol,
    alpha_of,
    equilibrium_kappa,
)
from .montecarlo import (
    BIT_GENERATOR,
    McConfig,
    simulate_classical,
    simulate_nelson,
    verify_born,
)
from .solver import analytic_work_optimal, solve_bvp

__all__ = ["main"]

OUT_ENV = "SWIFTTRAP_OUT"
ENDPOINT_TOL = 1e-3
N_CHECKPOINTS = 20
# two-sided level of one 3-sigma test, held by each block of z-values as a family
VERIFY_ALPHA = 2.7e-3


class UsageError(Exception):
    """Bad flag combination or value; maps to exit code 2."""


class ProtocolParseError(Exception):
    """Unreadable or malformed protocol file; maps to exit code 5."""


# ---------------------------------------------------------------------------
# artifact plumbing
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    return "%.12e" % float(x)


def _write_csv(path: str, header: list[str], lines: list[str]) -> None:
    """Write a header and data lines whose fields are already comma-joined."""
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join([",".join(header), *lines]) + "\n")


def _numeric_rows(columns) -> list[str]:
    """One line per row of the equal-length columns, every field _fmt'ed."""
    line = ",".join(["%.12e"] * len(columns))
    return [line % row
            for row in zip(*(np.asarray(col, dtype=float).tolist() for col in columns))]


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        return x if np.isfinite(x) else repr(x)
    return obj


def _write_json(path: str, obj) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(_jsonable(obj), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _resolve_outdir(args) -> str:
    out = args.out or os.environ.get(OUT_ENV) or "."
    os.makedirs(out, exist_ok=True)
    return out


def _consts_from_args(args) -> PhysConsts:
    overrides = (args.hbar, args.m, args.gamma, args.D)
    if args.units == "paper":
        if any(v is not None for v in overrides):
            raise UsageError("--hbar/--m/--gamma/--D require --units custom")
        return PhysConsts()
    if args.hbar is None or args.m is None or args.gamma is None:
        raise UsageError("--units custom requires --hbar, --m and --gamma")
    c = PhysConsts(hbar=args.hbar, m=args.m, gamma=args.gamma)
    # --D only cross-checks the user's input: PhysConsts derives it
    if args.D is not None and abs(args.D - c.D) > 1e-12 * abs(c.D):
        raise UsageError(
            "inconsistent --D: the quantum/classical correspondence fixes "
            f"D = hbar/(2m) = {c.D!r}")
    return c


def _write_manifest(outdir: str, command: str, parameters: dict,
                    outputs: list[str], seed: int) -> None:
    _write_json(os.path.join(outdir, "manifest.json"), {
        "command": command,
        "parameters": parameters,
        "outputs": sorted(outputs + ["manifest.json"]),
        "versions": f"swifttrap {__version__}; numpy {np.__version__}",
        "seed": int(seed),
    })


def _flag_params(args, names: tuple[str, ...]) -> dict:
    params = {name: getattr(args, name) for name in names}
    params["units"] = args.units
    if args.units == "custom":
        params.update(hbar=args.hbar, m=args.m, gamma=args.gamma)
    return params


# ---------------------------------------------------------------------------
# protocol file parsing
# ---------------------------------------------------------------------------

_REQUIRED_COLUMNS = ("t", "s", "kbar", "kappa")


def _read_protocol(path: str) -> dict[str, np.ndarray]:
    """Read a protocol table (any column order; t/s/kbar/kappa required)."""
    try:
        with open(path, "r", newline="") as fh:
            lines = fh.read().splitlines()
    except FileNotFoundError:
        raise ProtocolParseError(f"{path}: no such file") from None
    if not lines:
        raise ProtocolParseError(f"{path}: line 1: empty file")
    header = [h.strip() for h in lines[0].split(",")]
    for j, name in enumerate(header):
        if name in header[:j]:
            raise ProtocolParseError(f"{path}: line 1: duplicate column {name!r}")
    for name in _REQUIRED_COLUMNS:
        if name not in header:
            raise ProtocolParseError(f"{path}: line 1: missing column {name!r}")
    data: dict[str, list[float]] = {name: [] for name in header}
    row_lines: list[int] = []  # file line of each data row
    for ln, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        row_lines.append(ln)
        parts = line.split(",")
        if len(parts) != len(header):
            raise ProtocolParseError(
                f"{path}: line {ln}: expected {len(header)} fields, got {len(parts)}")
        for name, tok in zip(header, parts):
            try:
                v = float(tok)
            except ValueError:
                raise ProtocolParseError(
                    f"{path}: line {ln}: not a number: {tok.strip()!r}") from None
            if not math.isfinite(v):
                raise ProtocolParseError(f"{path}: line {ln}: non-finite value")
            data[name].append(v)
    cols = {name: np.asarray(vals, dtype=float) for name, vals in data.items()}
    if cols["t"].size < 3:
        raise ProtocolParseError(f"{path}: need at least 3 data rows")
    bad = np.nonzero(np.diff(cols["t"]) <= 0.0)[0]
    if bad.size:
        raise ProtocolParseError(
            f"{path}: line {row_lines[bad[0] + 1]}: time column not strictly increasing")
    if np.any(cols["s"] <= 0.0):
        raise ProtocolParseError(f"{path}: variance column must be positive")
    return cols


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _history_records(history) -> list[dict]:
    """A solver trace of (objective, decrement, step, damping) records as JSON."""
    return [{"objective": j, "decrement": decrement, "step": step, "damping": damping}
            for j, decrement, step, damping in history]


def _cmd_optimize(args) -> int:
    c = _consts_from_args(args)
    outdir = _resolve_outdir(args)
    prob = OptimizationProblem(cost=args.cost, lam=args.lam, mu=args.mu,
                               s_i=args.si, s_f=args.sf, n_grid=args.grid)

    if args.cost == "work" and args.mu == 0.0:
        p, emitted = analytic_work_optimal(args.lam, args.si, args.sf, c, n=args.grid)
        meta = {"method": "analytic", "iterations": 0, "decrement": 0.0,
                "rejections": 0, "history": [],
                "duration_closed_form": emitted.duration}
    else:
        try:
            result = solve_bvp(prob, c)
        except ConvergenceError as err:
            _write_json(os.path.join(outdir, "report.json"), {
                "error": str(err),
                "iterations": err.iterations,
                "history": _history_records(err.history),
            })
            print(f"optimize: {err}", file=sys.stderr)
            return 3
        p = result.protocol
        emitted = to_time_domain(p, c)
        meta = {"method": "bvp", "iterations": result.iterations,
                "decrement": result.decrement, "rejections": result.rejections,
                "history": _history_records(result.history)}

    t, s_t = emitted.classical.t_nodes, emitted.s
    kbar_t, kappa_t = emitted.classical.values, emitted.quantum.values
    sdot_t = variance_rate(s_t, kbar_t, c)
    alpha_t = alpha_of(s_t, sdot_t, c)
    energy_t = energy_of(s_t, sdot_t, kappa_t, c)

    # the schedule's own nodes are the rows of the emitted table whose s is a node
    nodes = np.isin(s_t, p.s_nodes)
    _write_csv(os.path.join(outdir, "protocol_s.csv"), ["s", "kbar", "kappa", "t"],
               _numeric_rows((p.s_nodes, p.kbar, kappa_t[nodes], t[nodes])))
    _write_csv(os.path.join(outdir, "protocol_t.csv"),
               ["t", "s", "kbar", "kappa", "alpha", "energy"],
               _numeric_rows((t, s_t, kbar_t, kappa_t, alpha_t, energy_t)))

    report = asdict(j_total(p, prob, c))
    report.update(meta)
    report.update(s_i=args.si, s_f=args.sf, n_grid=args.grid, units=args.units)
    _write_json(os.path.join(outdir, "report.json"), report)

    params = _flag_params(args, ("cost", "lam", "mu", "si", "sf", "grid"))
    _write_manifest(outdir, "optimize", params,
                    ["protocol_s.csv", "protocol_t.csv", "report.json"], seed=0)
    print(f"duration {report['duration']:.6f}  (artifacts in {outdir})")
    return 0


def _family_bound(n: int) -> float:
    """Bonferroni |z| bound of n z-values at family-wise level VERIFY_ALPHA."""
    from statistics import NormalDist  # imported here: only verify needs it
    return NormalDist().inv_cdf(1.0 - VERIFY_ALPHA / (2 * n))


def _cmd_verify(args) -> int:
    if args.seed < 0:
        raise UsageError(f"--seed must be a non-negative integer, got {args.seed}")
    c = _consts_from_args(args)
    outdir = _resolve_outdir(args)
    cols = _read_protocol(args.protocol)
    t = cols["t"]
    s_start = float(cols["s"][0])
    s_target = float(cols["s"][-1])
    kappa_q = TimeProtocol(t, cols["kappa"], "quantum")
    run = integrate_ermakov(kappa_q, s_start, c)

    checks: dict[str, dict] = {}
    if args.method in ("ermakov", "both"):
        err_s = abs(float(run.s[-1]) - s_target)
        err_sdot = abs(float(run.sdot[-1]))
        checks["ermakov"] = {
            "err_s_end": err_s,
            "err_sdot_end": err_sdot,
            "n_steps": run.t.size - 1,
            "max_step": float(np.max(np.diff(run.t))),
            "stability_margin": run.stability_margin,
            "tolerance": ENDPOINT_TOL,
            "passed": err_s <= ENDPOINT_TOL and err_sdot <= ENDPOINT_TOL,
        }

    if args.method in ("nelson", "both"):
        ckpts = np.linspace(t[0], t[-1], N_CHECKPOINTS + 1)[1:]
        cfg = McConfig(n_particles=args.particles, seed=args.seed, checkpoints=ckpts)
        stats = simulate_nelson(run, cfg, c)
        reference = np.interp(ckpts, run.t, run.s)
        born = verify_born(stats, reference, threshold=_family_bound(2 * ckpts.size))
        checks["born"] = {
            "z_variance": born.z_variance,
            "z_kurtosis": born.z_kurtosis,
            "worst_abs_z": born.worst_abs_z,
            "threshold": born.threshold,
            "n_particles": args.particles,
            "seed": args.seed,
            "rng": BIT_GENERATOR,
            "passed": born.passed,
        }
        if args.method == "both":
            kbar_cl = TimeProtocol(t, cols["kbar"], "classical")
            cfg_twin = McConfig(n_particles=args.particles, seed=args.seed + 1,
                                checkpoints=ckpts)
            twin = simulate_classical(kbar_cl, s_start, cfg_twin, c)
            joint = (np.abs(stats.variance - twin.variance)
                     / np.hypot(stats.stderr_variance, twin.stderr_variance))
            bound = _family_bound(ckpts.size)
            checks["twin"] = {
                "max_joint_z": float(np.max(joint)),
                "threshold": bound,
                "seed": args.seed + 1,
                "rng": BIT_GENERATOR,
                "passed": bool(np.max(joint) <= bound),
            }

    passed = all(block["passed"] for block in checks.values())
    verdict = {"protocol": args.protocol, "method": args.method, "passed": passed}
    verdict.update(checks)
    _write_json(os.path.join(outdir, "verify.json"), verdict)
    _write_manifest(outdir, "verify",
                    _flag_params(args, ("protocol", "method", "particles")),
                    ["verify.json"], seed=args.seed)
    print(f"verify {args.method}: {'pass' if passed else 'FAIL'}")
    return 0 if passed else 4


def _parse_mu_list(text: str) -> list[float]:
    try:
        mus = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise UsageError(f"bad --mu-list {text!r}") from None
    if not mus or not all(np.isfinite(mu) and mu > 0.0 for mu in mus):
        raise UsageError(f"--mu-list needs one or more positive finite values, got {text!r}")
    return sorted(mus)


def _cmd_compare(args) -> int:
    c = _consts_from_args(args)
    outdir = _resolve_outdir(args)
    mus = _parse_mu_list(args.mu_list)
    kap_i = equilibrium_kappa(args.si, c)
    kap_f = equilibrium_kappa(args.sf, c)
    f_of_run = LAGRANGIANS[args.cost].from_run

    rows = []
    for mu in mus:
        prob = OptimizationProblem(cost=args.cost, lam=args.lam, mu=mu,
                                   s_i=args.si, s_f=args.sf, n_grid=args.grid)
        result = solve_bvp(prob, c)
        emitted = to_time_domain(result.protocol, c)
        dur = emitted.duration
        run_opt = integrate_ermakov(emitted.quantum, args.si, c)
        chen, _ = chen_polynomial(kap_i, kap_f, dur, c, n=args.grid)
        run_chen = integrate_ermakov(chen, args.si, c)
        rows.append(",".join(["optimal", _fmt(mu), _fmt(dur), _fmt(f_of_run(run_opt, c))]))
        rows.append(",".join(["chen", _fmt(mu), _fmt(dur), _fmt(f_of_run(run_chen, c))]))

    _write_csv(os.path.join(outdir, "tradeoff.csv"),
               ["protocol_kind", "mu", "duration", "f_value"], rows)
    params = _flag_params(args, ("cost", "lam", "si", "sf", "grid"))
    params["mu_list"] = mus
    params["duration_matching"] = "each baseline t_final set to the matching optimal duration"
    _write_manifest(outdir, "compare", params, ["tradeoff.csv"], seed=0)
    print(f"compare: {len(mus)} mu values, table in {outdir}/tradeoff.csv")
    return 0


def _parse_mu_range(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError("--mu-range must look like lo:hi:steps")
    try:
        lo, hi, steps = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise UsageError(f"bad --mu-range {text!r}") from None
    if steps < 1 or not (np.isfinite(lo) and np.isfinite(hi) and lo > 0.0 and hi > 0.0):
        raise UsageError(f"--mu-range needs positive finite bounds and steps >= 1, got {text!r}")
    return np.sort(np.geomspace(lo, hi, steps))


def _cmd_sweep(args) -> int:
    c = _consts_from_args(args)
    outdir = _resolve_outdir(args)
    mus = _parse_mu_range(args.mu_range)

    rows: list[str] = []
    failures: list[dict] = []
    for mu in mus:
        prob = OptimizationProblem(cost=args.cost, lam=args.lam, mu=float(mu),
                                   s_i=args.si, s_f=args.sf, n_grid=args.grid)
        try:
            rep = j_total(solve_bvp(prob, c).protocol, prob, c)
        except (ConvergenceError, InfeasibleProtocolError,
                SingularManifoldError, ValueError) as err:
            failures.append({"mu": float(mu), "error": str(err)})
            continue
        rows.append(",".join([_fmt(mu), _fmt(rep.duration), _fmt(rep.f_absorbed),
                              _fmt(rep.g_penalty), _fmt(rep.j_total)]))

    _write_csv(os.path.join(outdir, "sweep.csv"),
               ["mu", "duration", "f_value", "g_penalty", "j_total"], rows)
    _write_json(os.path.join(outdir, "sweep.json"), {
        "cost": args.cost, "lam": args.lam,
        "n_requested": int(mus.size), "n_converged": len(rows),
        "failures": failures,
    })
    params = _flag_params(args, ("cost", "lam", "si", "sf", "grid"))
    params["mu_range"] = args.mu_range
    _write_manifest(outdir, "sweep", params, ["sweep.csv", "sweep.json"], seed=0)
    print(f"sweep: {len(rows)}/{mus.size} solves converged, table in {outdir}/sweep.csv")
    return 0 if rows else 3


# ---------------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", default=None,
                   help=f"output directory (default: ${OUT_ENV} or '.')")
    p.add_argument("--units", choices=("paper", "custom"), default="paper",
                   help="'paper' fixes hbar=gamma=1, m=1/2, D=1")
    p.add_argument("--hbar", type=float, default=None)
    p.add_argument("--m", type=float, default=None)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--D", type=float, default=None,
                   help="optional cross-check; must equal hbar/(2m)")


def _add_problem(p: argparse.ArgumentParser, costs: tuple[str, ...]) -> None:
    p.add_argument("--cost", choices=costs, required=True)
    p.add_argument("--lambda", dest="lam", type=float, required=True,
                   help="weight of the physical cost functional")
    p.add_argument("--si", type=float, required=True, help="initial variance")
    p.add_argument("--sf", type=float, required=True, help="target variance")
    p.add_argument("--grid", type=int, default=2001, help="number of s-grid nodes")


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="swifttrap",
        description="Fast stiffness-ramp synthesis for harmonic traps, with "
                    "independent dynamical and stochastic verification.")
    sub = ap.add_subparsers(dest="command", required=True)

    opt = sub.add_parser("optimize", help="solve one schedule and emit artifacts")
    _add_problem(opt, tuple(LAGRANGIANS))
    opt.add_argument("--mu", type=float, required=True,
                     help="weight of the smoothing penalty")
    _add_common(opt)
    opt.set_defaults(func=_cmd_optimize)

    ver = sub.add_parser("verify", help="check a protocol file")
    ver.add_argument("--protocol", required=True, help="protocol CSV (needs t,s,kbar,kappa)")
    ver.add_argument("--method", choices=("ermakov", "nelson", "both"), required=True)
    ver.add_argument("--particles", type=int, default=100000)
    ver.add_argument("--seed", type=int, default=0)
    _add_common(ver)
    ver.set_defaults(func=_cmd_verify)

    cmp_ = sub.add_parser("compare", help="optimal family vs duration-matched baselines")
    _add_problem(cmp_, tuple(LAGRANGIANS))
    cmp_.add_argument("--mu-list", dest="mu_list", required=True,
                      help="comma-separated mu values")
    _add_common(cmp_)
    cmp_.set_defaults(func=_cmd_compare)

    swp = sub.add_parser("sweep", help="one solve per mu over a log-spaced range")
    _add_problem(swp, tuple(LAGRANGIANS))
    swp.add_argument("--mu-range", dest="mu_range", required=True,
                     help="lo:hi:steps, log-spaced")
    _add_common(swp)
    swp.set_defaults(func=_cmd_sweep)
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as err:
        print(f"swifttrap: {err}", file=sys.stderr)
        return 2
    except ConvergenceError as err:
        print(f"swifttrap: solver failed: {err}", file=sys.stderr)
        return 3
    except (InfeasibleProtocolError, SingularManifoldError) as err:
        print(f"swifttrap: infeasible schedule: {err}", file=sys.stderr)
        return 3
    except IntegrationError as err:
        print(f"swifttrap: dynamics blew up: {err}", file=sys.stderr)
        return 4
    except ProtocolParseError as err:
        print(f"swifttrap: {err}", file=sys.stderr)
        return 5
    except ValueError as err:
        print(f"swifttrap: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"swifttrap: {err}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    raise SystemExit(main())

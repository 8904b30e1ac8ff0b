"""swifttrap benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload {synthesize,verify,cli} --seed N \
        --seconds S --trace {0,1}

Run it from anywhere inside a source checkout; the package is imported from
the checkout's ``src`` directory.  The loop is closed with one caller in one
process: the next op starts when the previous one has returned.

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` is a separate run that records spans around the calls into
each package module and reports the per-layer metrics, self times and the
tracing overhead.  Either way the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the lines before it are a readable report.  The full result (environment
record, failures by type, per-command breakdown) and, for traced runs, the
span list are written under ``.perfbench/`` in the checkout.

See perfbench/README.md for the workloads, the metrics and which layer
metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")

WORKLOADS = ("synthesize", "verify", "cli")
CLI_COMMANDS = ("optimize", "verify", "compare", "sweep")
SETUP_SAMPLES = 3
TAIL_PCT = 90
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "GOTO_NUM_THREADS")


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)  # child mode: run set-up only, then exit
    return ap.parse_args(argv)


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def _quantile(xs: list[float], q: float) -> float:
    """Linear interpolation between the order statistics of sorted xs."""
    h = (len(xs) - 1) * q
    lo = math.floor(h)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (h - lo) * (xs[hi] - xs[lo])


def latency_summary(records: list[dict]) -> dict:
    """Median and tail of op times.

    The median ranks failed ops slower than every successful op.  The tail
    is TAIL_PCT of the successful ops; failures are counted by ok_frac.
    """
    ok = sorted(r["seconds"] for r in records if r["outcome"] == "ok")
    n, n_ok = len(records), len(ok)
    if n_ok == 0:
        return {"p50": math.nan, "tail": math.nan, "tail_pct": TAIL_PCT, "n": n, "n_ok": 0}
    # 1-based rank (n+1)/2 of the combined ranking, failures above all successes
    mid = (n + 1) / 2.0
    lo, hi = min(math.floor(mid), n_ok), min(math.ceil(mid), n_ok)
    p50 = 0.5 * (ok[lo - 1] + ok[hi - 1])
    tail = _quantile(ok, TAIL_PCT / 100.0)
    return {"p50": p50, "p50_on_failure": math.ceil(mid) > n_ok, "tail": tail,
            "tail_pct": TAIL_PCT, "ops_beyond_tail": sum(t > tail for t in ok),
            "n": n, "n_ok": n_ok}


def _median(xs):
    xs = [x for x in xs if x is not None]
    return statistics.median(xs) if xs else math.nan


# ---------------------------------------------------------------------------
# ops
# ---------------------------------------------------------------------------

def run_op(label: str, fn, lib, errors) -> dict:
    from workloads import CheckFailed, OpFailed, PACKAGE_ERRORS
    rec = {"label": label}
    t0 = time.perf_counter()
    try:
        rec["info"] = fn(lib)
        rec["outcome"] = "ok"
    except PACKAGE_ERRORS as err:
        rec.update(outcome="failed", kind=type(err).__name__, detail=str(err)[:200])
    except OpFailed as err:
        rec.update(outcome="failed", kind=err.kind, detail=str(err)[:200],
                   info=getattr(err, "info", {}))
    except CheckFailed as err:
        rec.update(outcome="incorrect", kind="CheckFailed", detail=str(err)[:500])
    except Exception as err:  # a crash of the program under test is recorded, not fatal
        rec.update(outcome="incorrect", kind=type(err).__name__,
                   detail=traceback.format_exc(limit=4)[-800:])
    rec["seconds"] = time.perf_counter() - t0
    if rec["outcome"] == "incorrect":
        errors.append(f"{label}: {rec['detail']}")
    return rec


def run_cycles(wl, lib, errors, *, seconds=None, first=0, cycles=None, tracer=None):
    """Whole cycles from `first` on, until `seconds` have passed or `cycles` ran."""
    records, k = [], first
    t_start = time.perf_counter()
    while (k - first < cycles) if cycles is not None else (time.perf_counter() - t_start < seconds):
        for label, fn in wl.cycle(k):
            if tracer is None:
                rec = run_op(label, fn, lib, errors)
            else:
                with tracer.op("op"):
                    rec = run_op(label, fn, lib, errors)
            rec["cycle"] = k
            records.append(rec)
        k += 1
    return records, time.perf_counter() - t_start, k - first


# ---------------------------------------------------------------------------
# set-up probes and import timing
# ---------------------------------------------------------------------------

def parse_importtime(stderr: str) -> dict:
    """Cumulative import seconds of swifttrap and scipy.interpolate."""
    out = {"swifttrap": 0.0, "scipy.interpolate": 0.0}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3:
            continue
        name = parts[2].strip()
        if name in out:
            try:
                out[name] = int(parts[1]) / 1e6
            except ValueError:
                pass
    return out


def setup_probes(args, importtime: bool) -> list[dict]:
    """Time SETUP_SAMPLES fresh set-ups, each from spawn to exit."""
    from workloads import run_child
    samples = []
    for i in range(SETUP_SAMPLES):
        argv = [sys.executable] + (["-X", "importtime"] if importtime else []) + [
            os.path.abspath(__file__), "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--setup-probe"]
        stderr_path = os.path.join(OUT, f"probe-{args.workload}-{args.seed}-{i}.stderr")
        rec = run_child(argv, dict(os.environ), stderr_path)
        with open(stderr_path, encoding="utf-8", errors="replace") as fh:
            err = fh.read()
        os.remove(stderr_path)
        if rec["rc"] != 0:
            raise RuntimeError(f"set-up probe exited {rec['rc']}:\n{err[-2000:]}")
        rec["imports"] = parse_importtime(err) if importtime else {}
        samples.append(rec)
    return samples


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------

def environment() -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except Exception as err:  # show_config layout differs across numpy versions
        blas = {"error": repr(err)}
    commit = None
    try:
        top, head = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                                   capture_output=True, text=True, timeout=10).stdout.split()
        if os.path.realpath(top) == os.path.realpath(ROOT):  # not an enclosing repository
            commit = head
    except (OSError, subprocess.SubprocessError, ValueError):
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "loadavg": os.getloadavg(),
        "commit": commit,
    }


# ---------------------------------------------------------------------------
# timed run
# ---------------------------------------------------------------------------

def command_stats(records) -> dict:
    """Per CLI command: median wall, user and sys seconds, and the largest maxrss."""
    per_cmd: dict[str, list] = {}
    for r in records:
        for cmd, c in r.get("info", {}).get("commands", {}).items():
            per_cmd.setdefault(cmd, []).append(c)
    return {cmd: {"wall_s": _median(c["wall_s"] for c in cs),
                  "user_s": _median(c["user_s"] for c in cs),
                  "sys_s": _median(c["sys_s"] for c in cs),
                  "maxrss_kb": max(c["maxrss_kb"] for c in cs), "n": len(cs)}
            for cmd, cs in per_cmd.items()}


def failures_by_kind(records) -> dict:
    out: dict[str, int] = {}
    for r in records:
        if r["outcome"] != "ok":
            out[r["kind"]] = out.get(r["kind"], 0) + 1
    return out


def timed_run(args, wl, errors):
    import workloads
    records, elapsed, cycles = run_cycles(wl, getattr(wl, "lib", None), errors,
                                          seconds=args.seconds)
    lat = latency_summary(records)
    n_ok = sum(r["outcome"] == "ok" for r in records)
    peak = workloads.peak_rss_mb()
    detail = {"latency": lat, "cycles": cycles, "elapsed_s": elapsed,
              "fail_frac": (len(records) - n_ok) / len(records),
              "failures_by_kind": failures_by_kind(records), "ops": records}
    if args.workload == "cli":
        detail["commands"] = command_stats(records)
        peak = max([peak] + [c["maxrss_kb"] / 1024.0 for c in detail["commands"].values()])
    if args.workload == "verify":
        infos = [r["info"] for r in records if r["outcome"] == "ok"]
        detail["born_pass_frac"] = sum(i["born_passed"] for i in infos) / max(1, len(infos))
        detail["worst_abs_z"] = max((i["worst_abs_z"] for i in infos), default=math.nan)
    metrics = {
        "op_s_p50": (lat["p50"], "s"),
        "op_s_tail": (lat["tail"], "s"),
        "ops_per_s": (n_ok / elapsed, "1/s"),
        "ok_frac": (n_ok / len(records), "ratio"),
        "peak_rss_mb": (peak, "MB"),
    }
    return metrics, detail, records


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------

COUNT_UNITS = ("count", "bytes")  # exactly repeatable for a seed


def per_layer_units() -> dict:
    """The per-layer metric names and units that BENCHMARK.json declares."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


def layer_metrics(spans) -> dict:
    """Per-layer totals over one traced cycle's spans."""
    from tracing import self_times
    selfs = self_times(spans)
    by = {}
    for s in spans:
        by.setdefault(s.name, []).append(s)

    def busy(name):
        return sum(s.duration for s in by.get(name, ()))

    def count(name, key):
        return sum(s.counts.get(key, 0) for s in by.get(name, ()))

    solves = by.get("solve_bvp", [])
    m = {
        "solver.busy_s": busy("solve_bvp"),
        "solver.calls": len(solves),
        "solver.iterations": count("solve_bvp", "iterations"),
        "solver.rejections": count("solve_bvp", "rejections"),
        "solver.converged_frac": (count("solve_bvp", "converged") / len(solves)) if solves else 0.0,
        "analog.emit_busy_s": busy("to_time_domain"),
        "costs.j_total_busy_s": busy("j_total"),
        "dynamics.ermakov_busy_s": busy("integrate_ermakov"),
        "dynamics.rk4_steps": count("integrate_ermakov", "rk4_steps"),
        "montecarlo.nelson_busy_s": busy("simulate_nelson"),
        "montecarlo.classical_busy_s": busy("simulate_classical"),
        "montecarlo.normals_drawn": count("simulate_nelson", "normals")
        + count("simulate_classical", "normals"),
        "baselines.chen_busy_s": busy("chen_polynomial"),
        "bench.op_self_s": sum(selfs[s.id] for s in by.get("op", ())),
    }
    mc_busy = m["montecarlo.nelson_busy_s"] + m["montecarlo.classical_busy_s"]
    m["montecarlo.normals_per_s"] = m["montecarlo.normals_drawn"] / mc_busy if mc_busy else 0.0
    for cmd in CLI_COMMANDS:
        spans_cmd = by.get(f"cli.{cmd}", [])
        if spans_cmd:
            m[f"cli.{cmd}.self_s"] = sum(selfs[s.id] for s in spans_cmd)
    sweep_ids = {s.id for s in by.get("cli.sweep", ())}
    if sweep_ids:
        m["cli.sweep_solve_busy_s"] = sum(s.duration for s in solves if s.parent in sweep_ids)
    return m


def traced_run(args, wl, errors, setup_samples):
    import workloads
    from tracing import Tracer, span_records
    units = per_layer_units()
    metrics = {name: 0.0 for name in units}  # a bypassed layer reads 0
    detail = {}
    all_spans, t_origin = [], time.perf_counter()
    cycle_metrics, untraced, traced = [], [], []

    if args.workload == "cli":
        # spawn to exit and rusage of real child processes, as in the timed
        # run: cycles until the time is up, per command the median
        subs, _, _ = run_cycles(wl, None, errors, seconds=args.seconds)
        detail["commands"] = command_stats(subs)
        for cmd, c in detail["commands"].items():
            metrics[f"cli.{cmd}.wall_s"] = c["wall_s"]
            metrics[f"cli.{cmd}.child_user_s"] = c["user_s"]
            metrics[f"cli.{cmd}.child_sys_s"] = c["sys_s"]
        metrics["cli.artifact_bytes"] = subs[0].get("info", {}).get("artifact_bytes", 0)
        # the same cycle in process through swifttrap.cli.main, untraced then traced
        untraced.append(run_op("in-process cycle", lambda lib: wl.run_inprocess(0), None, errors))
        tracer = Tracer()
        with tracer.installed(workloads.swifttrap.cli), tracer.op("op"):
            rec = run_op("in-process traced cycle", lambda lib: wl.run_inprocess(0, tracer),
                         None, errors)
        traced.append(rec)
        if rec.get("info", {}).get("artifact_bytes") != metrics["cli.artifact_bytes"]:
            errors.append("artifact bytes differ between the subprocess and in-process cycles")
        cycle_metrics.append(layer_metrics(tracer.spans))
        all_spans += tracer.spans
        records = subs + untraced + traced
    else:
        setup_spans = []
        if hasattr(wl, "prepare"):  # set-up work of a layer the timed ops bypass
            tracer = Tracer()
            with tracer.installed(wl.lib), tracer.op("setup"):
                wl.prepare(wl.lib)
            setup_spans = tracer.spans
            all_spans += setup_spans
        # pairs of the same cycle, untraced then traced, until the time is up
        t_start, k = time.perf_counter(), 0
        while time.perf_counter() - t_start < args.seconds:
            recs, _, _ = run_cycles(wl, wl.lib, errors, first=k, cycles=1)
            untraced += recs
            tracer = Tracer()
            with tracer.installed(wl.lib):
                recs, _, _ = run_cycles(wl, wl.lib, errors, first=k, cycles=1, tracer=tracer)
            traced += recs
            cycle_metrics.append(layer_metrics(setup_spans + tracer.spans))
            all_spans += tracer.spans
            k += 1
        records = untraced + traced

    imports = [s["imports"] for s in setup_samples]
    metrics["import.total_s"] = _median(i["swifttrap"] for i in imports)
    metrics["import.scipy_interpolate_s"] = _median(i["scipy.interpolate"] for i in imports)
    # counts from the first traced cycle (exactly repeatable); times as the
    # median over traced cycles
    for name in cycle_metrics[0]:
        vals = [cm[name] for cm in cycle_metrics if name in cm]
        metrics[name] = vals[0] if units[name] in COUNT_UNITS else _median(vals)
    infos = [r["info"] for r in records
             if r["outcome"] == "ok" and "born_passed" in r.get("info", {})]
    if infos:
        metrics["montecarlo.born_pass_frac"] = sum(i["born_passed"] for i in infos) / len(infos)
        metrics["montecarlo.worst_abs_z"] = max(i["worst_abs_z"] for i in infos)
    p50_u = latency_summary(untraced)["p50"]
    p50_t = latency_summary(traced)["p50"]
    metrics["trace.overhead_s"] = p50_t - p50_u
    detail.update(untraced_p50_s=p50_u, traced_p50_s=p50_t,
                  traced_cycles=len(cycle_metrics), per_cycle_layer_metrics=cycle_metrics,
                  failures_by_kind=failures_by_kind(records))
    spans_path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.json")
    with open(spans_path, "w") as fh:
        json.dump(span_records(all_spans, t_origin), fh, indent=1)
    detail["spans_file"] = os.path.relpath(spans_path, ROOT)
    undeclared = sorted(set(metrics) - set(units))
    if undeclared:
        raise RuntimeError(f"metrics not declared in BENCHMARK.json: {undeclared}")
    out = {name: (value, units[name]) for name, value in metrics.items()}
    return out, detail, records


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    args = _parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "swifttrap", "__init__.py")):
        print(f"perfbench: no package source at {SRC}/swifttrap; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, SRC)
    sys.path.insert(1, HERE)
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.relpath(os.path.join(OUT, f"work-{args.workload}-seed{args.seed}"), ROOT)

    if args.setup_probe:
        import workloads
        workloads.make(args.workload, args.seed, workdir)
        return 0

    # set-up samples first, in fresh processes, so the timed process is warm
    # only from its own set-up
    samples = setup_probes(args, importtime=bool(args.trace))
    import workloads
    wl = workloads.make(args.workload, args.seed, workdir)
    errors: list[str] = []
    if args.trace:
        metrics, detail, records = traced_run(args, wl, errors, samples)
    else:
        metrics, detail, records = timed_run(args, wl, errors)
        metrics["setup_s"] = (statistics.median(s["wall_s"] for s in samples), "s")
    if args.workload == "cli":
        import shutil
        shutil.rmtree(workdir, ignore_errors=True)

    n_failed = sum(r["outcome"] != "ok" for r in records)
    for name, (value, _) in metrics.items():
        if not math.isfinite(value):
            errors.append(f"metric {name} is not finite")
    metrics = {k: (v if math.isfinite(v) else None, u) for k, (v, u) in metrics.items()}
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "setup_samples_s": [s["wall_s"] for s in samples],
        "environment": environment(), "errors": errors,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "detail": detail,
    }
    path = os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(result, fh, indent=1, default=str)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"ops {len(records)}  failed {n_failed}  -> {os.path.relpath(path, ROOT)}")
    env = result["environment"]
    print(f"env nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
          f"scipy={env['scipy']} commit={env['commit']}")
    if "latency" in detail:
        lat = detail["latency"]
        print(f"median over {lat['n']} ops, failed ranked slowest; tail = p{lat['tail_pct']} "
              f"of {lat['n_ok']} successful ops, {lat['ops_beyond_tail']} beyond it")
    for cmd, c in detail.get("commands", {}).items():
        print(f"command {cmd}: median {c['wall_s']:.4g} s spawn to exit over {c['n']} runs, "
              f"user {c['user_s']:.4g} s, sys {c['sys_s']:.4g} s")
    fk = detail.get("failures_by_kind", {})
    print(f"fail_frac {n_failed}/{len(records)} attempted ops: "
          + (", ".join(f"{k}={v}" for k, v in sorted(fk.items())) or "none"))
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value if value is None else format(value, '.6g')} {unit}")
    for e in errors:
        print(f"INCORRECT: {e}")
    print(json.dumps({
        "correct": not errors,
        "attempted": len(records),
        "failed": n_failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

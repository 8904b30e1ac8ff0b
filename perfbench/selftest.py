"""Self-test of the benchmark itself (not of the package).

    python3 perfbench/selftest.py

1. The generated inputs are a pure function of the seed: two processes with
   different hash seeds generate identical inputs, and another seed gives
   different ones.
2. Two traced runs with the same seed report identical exact counts on
   every workload.
3. The ensemble gate sits at the Bonferroni bound, accepts the worst |z| of
   a known chance 3-sigma failure of a correct sampler and rejects a 6-sigma
   one.

Exits 0 when every check passes.  It takes about four minutes on 2 cores,
most of it in the two traced `cli` runs.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7
# worst |z| that `verify --method both` gives for phase lam=1 mu=0.5 1->2 with
# 20 000 particles and seed 3: a 3-sigma FAIL of a correct sampler, by chance
# (1.44 at 100 000 particles)
CHANCE_Z = 3.27

EXACT = ("solver.calls", "solver.iterations", "solver.rejections", "dynamics.rk4_steps",
         "montecarlo.normals_drawn", "cli.artifact_bytes")
# which exact counts each workload must exercise (non-zero)
EXERCISED = {
    "synthesize": ("solver.iterations", "solver.rejections", "dynamics.rk4_steps"),
    "verify": ("dynamics.rk4_steps", "montecarlo.normals_drawn"),
    "cli": ("solver.iterations", "dynamics.rk4_steps", "cli.artifact_bytes"),
}

_DESCRIBE = """
import json, sys
sys.path[:0] = [{src!r}, {here!r}]
import workloads as w
seed = int(sys.argv[1])
print(json.dumps({{
    "synthesize": [[(p.cost, p.lam, p.mu, p.s_i, p.s_f) for p in w.synth_problems(seed, k)]
                   for k in range(3)],
    "verify": [[(p.cost, p.lam, p.mu, p.s_i, p.s_f) for p in w.verify_problems(seed)]]
              + [w.verify_ensemble_seeds(seed, k) for k in range(3)],
    "cli": [w.cli_argvs(seed, k, "out") for k in range(3)],
}}))
"""


def describe(seed: int, hashseed: str) -> dict:
    code = _DESCRIBE.format(src=os.path.join(ROOT, "src"), here=HERE)
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    out = subprocess.run([sys.executable, "-c", code, str(seed)], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    return json.loads(out.stdout)


def traced_counts(workload: str, seed: int) -> dict:
    out = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                          "--seed", str(seed), "--seconds", "1", "--trace", "1"],
                         check=True, capture_output=True, text=True, timeout=300)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise AssertionError(f"{workload}: traced run reported incorrect output:\n{out.stdout}")
    return {k: result["metrics"][k]["value"] for k in EXACT}


def gate_checks() -> list[str]:
    """The family-wise ensemble gate, checked against its definition."""
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import numpy as np
    from scipy.stats import norm
    from workloads import N_Z, Z_FAMILY, CheckFailed, ensemble_gate
    failures = []
    bonferroni = norm.isf(1e-6 / (2 * 60))
    if N_Z != 60 or abs(Z_FAMILY - bonferroni) > 1e-9:
        failures.append(f"gate {Z_FAMILY!r} over {N_Z} z-values, expected {bonferroni!r} over 60")
    for worst, accept in ((CHANCE_Z, True), (-CHANCE_Z, True), (6.0, False), (-6.0, False)):
        z = np.full(N_Z, 0.5)
        z[N_Z // 2] = worst
        try:
            accepted = ensemble_gate(z) == abs(worst)
        except CheckFailed:
            accepted = False
        if accepted != accept:
            failures.append(f"worst z {worst} {'rejected' if accept else 'accepted'}")
    try:
        ensemble_gate(np.zeros(N_Z - 1))
        failures.append(f"{N_Z - 1} z-values accepted")
    except CheckFailed:
        pass
    return failures


def main() -> int:
    failures = []

    a, b = describe(SEED, "1"), describe(SEED, "2")
    other = describe(SEED + 1, "1")
    for wl in a:
        if a[wl] != b[wl]:
            failures.append(f"{wl}: inputs differ between two processes with the same seed")
        if a[wl] == other[wl]:
            failures.append(f"{wl}: seeds {SEED} and {SEED + 1} give the same inputs")
    print(f"input purity: {'ok' if not failures else 'FAILED'}")

    for wl, needed in EXERCISED.items():
        first, second = traced_counts(wl, SEED), traced_counts(wl, SEED)
        bad = [k for k in EXACT if first[k] != second[k]]
        unused = [k for k in needed if not first[k]]
        if bad:
            failures.append(f"{wl}: counts differ between runs: "
                            + ", ".join(f"{k} {first[k]} vs {second[k]}" for k in bad))
        if unused:
            failures.append(f"{wl}: expected non-zero {', '.join(unused)}")
        print(f"exact counts {wl}: {'ok' if not (bad or unused) else 'FAILED'} {first}")

    gate = gate_checks()
    failures += [f"ensemble gate: {f}" for f in gate]
    print(f"ensemble gate: {'ok' if not gate else 'FAILED'}")

    for f in failures:
        print(f"FAIL: {f}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

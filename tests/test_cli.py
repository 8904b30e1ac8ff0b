"""Command-line interface: artifacts, exit codes, determinism hooks."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import swifttrap
from swifttrap import TimeProtocol, adiabatic_reference, analog, equilibrium_kbar, solver
from swifttrap.cli import _numeric_rows, main
from swifttrap.costs import _simpson
from swifttrap.model import _node_substeps

ROOT2 = np.sqrt(2.0)


def _optimize_args(out, cost="work", lam="1", mu="0.01", grid="501"):
    return ["optimize", "--cost", cost, "--lambda", lam, "--mu", mu,
            "--si", "1", "--sf", "2", "--grid", grid, "--out", str(out)]


def _read_csv_header(path):
    return path.read_text().splitlines()[0].split(",")


def test_optimize_emits_artifacts(tmp_path):
    assert main(_optimize_args(tmp_path)) == 0
    for name in ("protocol_s.csv", "protocol_t.csv", "report.json", "manifest.json"):
        assert (tmp_path / name).exists(), name
    assert _read_csv_header(tmp_path / "protocol_s.csv") == ["s", "kbar", "kappa", "t"]
    assert _read_csv_header(tmp_path / "protocol_t.csv") == \
        ["t", "s", "kbar", "kappa", "alpha", "energy"]
    # protocol_s.csv is the schedule's 501 nodes with the s-domain kappa at
    # their transfer times; protocol_t.csv holds them too, plus the
    # sub-nodes that split long pinned end cells
    s_rows = (tmp_path / "protocol_s.csv").read_text().splitlines()[1:]
    t_rows = (tmp_path / "protocol_t.csv").read_text().splitlines()[1:]
    prob = swifttrap.OptimizationProblem("work", 1.0, 0.01, 1.0, 2.0, 501)
    c = swifttrap.PhysConsts()
    p = swifttrap.solve_bvp(prob, c).protocol
    assert [row.split(",") for row in s_rows] == [
        ["%.12e" % x for x in row] for row in zip(
            p.s_nodes, p.kbar, swifttrap.quantum_from_classical_s(p, c),
            swifttrap.time_of_s(p, c))]
    # as (t, s, kbar, kappa)
    node_rows = {(t, s, kbar, kappa) for s, kbar, kappa, t in (r.split(",") for r in s_rows)}
    table_rows = {tuple(r.split(",")[:4]) for r in t_rows}
    assert len(t_rows) >= 501 and node_rows <= table_rows

    report = json.loads((tmp_path / "report.json").read_text())
    assert report["method"] == "bvp"
    assert report["units"] == "paper"
    for key in ("duration", "f_energy", "f_alpha", "g_penalty", "work",
                "j_total", "iterations", "decrement"):
        assert key in report, key
    # one trace entry per Newton iteration
    assert len(report["history"]) == report["iterations"]
    assert set(report["history"][0]) == {"objective", "decrement", "step", "damping"}

    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["command"] == "optimize"
    assert "protocol_t.csv" in manifest["outputs"]
    assert manifest["parameters"]["mu"] == 0.01


def test_optimize_work_mu_zero_uses_closed_form(tmp_path):
    assert main(_optimize_args(tmp_path, mu="0")) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["method"] == "analytic"
    assert report["duration_closed_form"] == pytest.approx(ROOT2 - 1.0, abs=1e-12)
    assert report["duration"] == pytest.approx(ROOT2 - 1.0, abs=1e-6)
    # both tables are the returned pair's arrays, as formatted
    p, emitted = swifttrap.analytic_work_optimal(1.0, 1.0, 2.0, swifttrap.PhysConsts(), n=501)
    assert report["duration_closed_form"] == emitted.duration

    def columns(name):
        rows = (tmp_path / name).read_text().splitlines()[1:]
        return [list(col) for col in zip(*(row.split(",") for row in rows))]

    def formatted(*arrays):
        return [["%.12e" % x for x in a] for a in arrays]

    assert columns("protocol_s.csv") == formatted(
        p.s_nodes, p.kbar, emitted.quantum.values, emitted.classical.t_nodes)
    assert columns("protocol_t.csv")[:4] == formatted(
        emitted.classical.t_nodes, emitted.s, emitted.classical.values,
        emitted.quantum.values)


def test_output_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("SWIFTTRAP_OUT", str(tmp_path / "envdir"))
    args = _optimize_args(tmp_path)
    args = args[:args.index("--out")]          # drop the explicit --out
    assert main(args) == 0
    assert (tmp_path / "envdir" / "report.json").exists()


def test_verify_ermakov_passes_on_emitted_protocol(tmp_path):
    assert main(_optimize_args(tmp_path, cost="phase", mu="0.5", grid="2001")) == 0
    out2 = tmp_path / "verify"
    rc = main(["verify", "--protocol", str(tmp_path / "protocol_t.csv"),
               "--method", "ermakov", "--out", str(out2)])
    assert rc == 0
    verdict = json.loads((out2 / "verify.json").read_text())
    assert verdict["passed"] is True
    assert verdict["ermakov"]["err_s_end"] <= 1e-3
    # the width equation steps on the emitted nodes, splitting only cells
    # longer than its default step, each step far inside RK4's bound
    t, kappa = np.loadtxt(tmp_path / "protocol_t.csv", delimiter=",", skiprows=1,
                          usecols=(0, 3), unpack=True)
    _, h, ends, *_ = _node_substeps(TimeProtocol(t, kappa, "quantum"))
    assert verdict["ermakov"]["n_steps"] == ends[-1] >= t.size - 1 >= 2000
    assert verdict["ermakov"]["max_step"] == pytest.approx(np.max(h), rel=1e-9)
    assert 0.0 < verdict["ermakov"]["stability_margin"] < 0.01


def test_verify_both_runs_ensembles(tmp_path):
    assert main(_optimize_args(tmp_path, cost="phase", mu="0.5", grid="2001")) == 0
    out2 = tmp_path / "verify"
    rc = main(["verify", "--protocol", str(tmp_path / "protocol_t.csv"),
               "--method", "both", "--particles", "20000", "--seed", "3",
               "--out", str(out2)])
    verdict = json.loads((out2 / "verify.json").read_text())
    assert set(verdict) >= {"ermakov", "born", "twin", "passed"}
    assert rc == (0 if verdict["passed"] else 4)
    assert verdict["born"]["rng"] == verdict["twin"]["rng"] == "SFC64"
    assert verdict["ermakov"]["passed"] is True
    # the ensembles sample their exact law and take no step to report
    for block in ("born", "twin"):
        assert not {"dt", "n_steps", "stability_margin"} & set(verdict[block])
    assert "dt" not in json.loads((out2 / "manifest.json").read_text())["parameters"]


def test_verify_flags_lagging_protocol(tmp_path, consts):
    # an adiabatic ramp at modest ramp time misses the endpoint test
    proto, s_ref = adiabatic_reference(1.0, 2.0, 5.0, consts, n=501)
    kbar = equilibrium_kbar(s_ref, consts)
    path = tmp_path / "lagging.csv"
    lines = ["t,s,kbar,kappa"] + [
        f"{t},{s},{kb},{kp}"
        for t, s, kb, kp in zip(proto.t_nodes, s_ref, kbar, proto.values)]
    path.write_text("\n".join(lines) + "\n")
    rc = main(["verify", "--protocol", str(path), "--method", "ermakov",
               "--out", str(tmp_path / "v")])
    assert rc == 4
    verdict = json.loads((tmp_path / "v" / "verify.json").read_text())
    assert verdict["passed"] is False


def test_solver_failure_exit_code(tmp_path, capsys, monkeypatch):
    # the real solver fails: this compression needs 5 iterations, and the
    # cap, read at call time, allows 2
    monkeypatch.setattr(solver, "_MAX_ITER", 2)
    rc = main(["optimize", "--cost", "energy", "--lambda", "10", "--mu", "0.001",
               "--si", "2", "--sf", "1", "--grid", "501",
               "--out", str(tmp_path)])
    assert rc == 3
    assert "optimize:" in capsys.readouterr().err
    report = json.loads((tmp_path / "report.json").read_text())
    assert "error" in report and report["iterations"] > 0
    # the failed solve's whole trace, one record per iteration
    assert len(report["history"]) == report["iterations"]


def test_compression_is_synthesized_and_verified(tmp_path):
    # a compression solves, emits and lands: verify passes on both routes
    assert main(["optimize", "--cost", "energy", "--lambda", "1", "--mu", "0.1",
                 "--si", "2", "--sf", "1", "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["iterations"] <= 6 and report["rejections"] == 0
    out2 = tmp_path / "verify"
    rc = main(["verify", "--protocol", str(tmp_path / "protocol_t.csv"),
               "--method", "both", "--particles", "20000", "--seed", "3",
               "--out", str(out2)])
    verdict = json.loads((out2 / "verify.json").read_text())
    assert rc == 0 and verdict["passed"] is True
    assert verdict["ermakov"]["passed"] is True


def test_usage_errors_exit_two(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["optimize", "--cost", "energy", "--si", "1", "--sf", "2"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(_optimize_args(tmp_path, cost="speed"))
    assert exc.value.code == 2
    capsys.readouterr()

    # units plumbing is stricter than argparse can express
    rc = main(_optimize_args(tmp_path) + ["--units", "custom", "--hbar", "1"])
    assert rc == 2
    rc = main(_optimize_args(tmp_path) + ["--hbar", "2"])   # override sans custom
    assert rc == 2
    rc = main(_optimize_args(tmp_path)
              + ["--units", "custom", "--hbar", "1", "--m", "0.5",
                 "--gamma", "1", "--D", "7"])               # inconsistent D
    assert rc == 2
    rc = main(_optimize_args(tmp_path)
              + ["--units", "custom", "--hbar", "1", "--m", "0", "--gamma", "1"])
    assert rc == 2                                          # D = hbar/(2m) undefined
    capsys.readouterr()


def test_custom_units_accepted(tmp_path):
    rc = main(_optimize_args(tmp_path)
              + ["--units", "custom", "--hbar", "2", "--m", "1", "--gamma", "2"])
    assert rc == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["units"] == "custom"
    # the run uses D = hbar/(2m) = 1, derived by PhysConsts
    c = swifttrap.PhysConsts(2.0, 1.0, 2.0)
    prob = swifttrap.OptimizationProblem(cost="work", lam=1.0, mu=0.01,
                                         s_i=1.0, s_f=2.0, n_grid=501)
    expected = swifttrap.j_total(swifttrap.solve_bvp(prob, c).protocol, prob, c)
    assert (report["duration"], report["j_total"]) == (expected.duration, expected.j_total)


@pytest.mark.parametrize("content,fragment", [
    ("t,s,kbar\n0,1,1\n1,1.5,0.8\n2,2,0.5\n", "missing column"),
    ("t,s,kbar,kappa\n0,1,1\n", "expected 4 fields"),
    ("t,s,kbar,kappa\n0,1,1,0.5\n2,2,0.5,0.125\n", "at least 3"),
    ("t,s,kbar,kappa\n0,1,1,.5\n2,2,.5,.2\n1,1.5,.8,.3\n", "not strictly increasing"),
    ("t,s,kbar,kappa\n0,1,1,.5\n1,-2,.5,.2\n2,1.5,.8,.3\n", "must be positive"),
    # a repeated name would interleave two columns into one
    ("t,s,kbar,kappa,t\n0,1,1,.5,0\n1,1.5,.8,.3,1\n2,2,.5,.2,2\n",
     "line 1: duplicate column 't'"),
    # blank lines are skipped, but the message names the row's own line
    ("t,s,kbar,kappa\n0,1,1,.5\n\n\n1,1.5,.8,.3\n0.5,1.2,.9,.4\n2,2,.5,.2\n",
     "line 6: time column not strictly increasing"),
])
def test_protocol_parse_errors_exit_five(tmp_path, capsys, content, fragment):
    path = tmp_path / "bad.csv"
    path.write_text(content)
    rc = main(["verify", "--protocol", str(path), "--method", "ermakov",
               "--out", str(tmp_path)])
    assert rc == 5
    assert fragment in capsys.readouterr().err


def test_negative_seed_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "ramp.csv"
    path.write_text("t,s,kbar,kappa\n0,1,1,.5\n1,1.5,.8,.3\n2,2,.5,.2\n")
    rc = main(["verify", "--protocol", str(path), "--method", "nelson",
               "--seed", "-1", "--out", str(tmp_path)])
    assert rc == 2
    assert "--seed must be a non-negative integer" in capsys.readouterr().err


def test_missing_protocol_file_exit_five(tmp_path, capsys):
    rc = main(["verify", "--protocol", str(tmp_path / "nope.csv"),
               "--method", "ermakov", "--out", str(tmp_path)])
    assert rc == 5
    capsys.readouterr()


def test_compare_tabulates_both_kinds(tmp_path):
    rc = main(["compare", "--cost", "energy", "--lambda", "1",
               "--mu-list", "0.1,0.5", "--si", "1", "--sf", "2",
               "--grid", "2001", "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "tradeoff.csv").read_text().splitlines()
    assert lines[0] == "protocol_kind,mu,duration,f_value"
    assert len(lines) == 5                      # header + 2 mus x 2 kinds
    kinds = [ln.split(",")[0] for ln in lines[1:]]
    assert kinds == ["optimal", "chen", "optimal", "chen"]
    # matched durations: each pair shares the duration column
    for j in (1, 3):
        assert lines[j].split(",")[2] == lines[j + 1].split(",")[2]


def test_compare_runs_the_work_cost(tmp_path):
    # every cost has its time twin, so compare takes work too
    rc = main(["compare", "--cost", "work", "--lambda", "1",
               "--mu-list", "0.1,0.5", "--si", "1", "--sf", "2", "--out", str(tmp_path)])
    assert rc == 0
    rows = [ln.split(",") for ln in (tmp_path / "tradeoff.csv").read_text().splitlines()[1:]]
    assert [row[:2] for row in rows] == [["optimal", "1.000000000000e-01"],
                                         ["chen", "1.000000000000e-01"],
                                         ["optimal", "5.000000000000e-01"],
                                         ["chen", "5.000000000000e-01"]]
    for j in (0, 2):
        assert rows[j][2] == rows[j + 1][2]
    assert all(np.isfinite(float(row[3])) for row in rows)


def test_compare_phase_values_are_the_integral_of_alpha_squared(tmp_path):
    # the benchmark's compare command: the twin of the phase cost, f = alpha^2,
    # prints the Simpson rule of alpha^2 over each run to every digit shown
    rc = main(["compare", "--cost", "phase", "--lambda", "10", "--mu-list", "0.01,0.1",
               "--si", "1", "--sf", "2", "--out", str(tmp_path)])
    assert rc == 0
    rows = [ln.split(",") for ln in (tmp_path / "tradeoff.csv").read_text().splitlines()[1:]]
    c = swifttrap.PhysConsts()
    kap_i, kap_f = swifttrap.equilibrium_kappa(1.0, c), swifttrap.equilibrium_kappa(2.0, c)
    want = []
    for mu in (0.01, 0.1):
        prob = swifttrap.OptimizationProblem("phase", 10.0, mu, 1.0, 2.0)
        emitted = swifttrap.to_time_domain(swifttrap.solve_bvp(prob, c).protocol, c)
        chen, _ = swifttrap.chen_polynomial(kap_i, kap_f, emitted.duration, c, n=2001)
        for kappa_t in (emitted.quantum, chen):
            run = swifttrap.integrate_ermakov(kappa_t, 1.0, c)
            want.append("%.12e" % _simpson(run.alpha**2, run.t))
    assert [row[3] for row in rows] == want


def test_compare_rejects_bad_mu_list(tmp_path, capsys):
    rc = main(["compare", "--cost", "energy", "--lambda", "1",
               "--mu-list", "x,y", "--si", "1", "--sf", "2",
               "--out", str(tmp_path)])
    assert rc == 2
    capsys.readouterr()


@pytest.mark.parametrize("mus", ["0.1,inf", "nan", "0.1,-inf"])
def test_compare_rejects_non_finite_mu_list(tmp_path, capsys, mus):
    rc = main(["compare", "--cost", "energy", "--lambda", "1",
               "--mu-list", mus, "--si", "1", "--sf", "2",
               "--out", str(tmp_path)])
    assert rc == 2
    assert "--mu-list" in capsys.readouterr().err
    assert not (tmp_path / "tradeoff.csv").exists()


@pytest.mark.parametrize("mus", ["1:inf:3", "nan:1:3", "0.1:nan:2"])
def test_sweep_rejects_non_finite_mu_range(tmp_path, capsys, mus):
    rc = main(["sweep", "--cost", "work", "--lambda", "1",
               "--mu-range", mus, "--si", "1", "--sf", "2",
               "--out", str(tmp_path)])
    assert rc == 2
    assert "--mu-range" in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists()


def test_sweep_over_mu_range(tmp_path):
    rc = main(["sweep", "--cost", "work", "--lambda", "1",
               "--mu-range", "0.01:0.1:3", "--si", "1", "--sf", "2",
               "--grid", "501", "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[0] == "mu,duration,f_value,g_penalty,j_total"
    assert len(lines) == 4
    meta = json.loads((tmp_path / "sweep.json").read_text())
    assert meta["n_converged"] == 3 and not meta["failures"]


def test_artifacts_identical_cold_warm_and_cleared(tmp_path, capsys):
    # the grid and quadrature memos may change speed only: a run that
    # builds every grid afresh, one that finds them all in the memos and
    # one after clearing them write the same bytes
    commands = {
        "optimize": ["optimize", "--cost", "energy", "--lambda", "1", "--mu", "0.3",
                     "--si", "1", "--sf", "5", "--grid", "501"],
        "compare": ["compare", "--cost", "phase", "--lambda", "10", "--mu-list", "0.01,0.1",
                    "--si", "1", "--sf", "2", "--grid", "501"],
        "sweep": ["sweep", "--cost", "energy", "--lambda", "10", "--mu-range", "0.003:0.3:4",
                  "--si", "1", "--sf", "2", "--grid", "501"],
    }
    runs = []
    for label in ("cold", "warm", "cleared"):
        if label != "warm":
            solver._solver_grid.cache_clear()
            analog._cell_geometry.cache_clear()
        files = {}
        for cmd, argv in commands.items():
            out = tmp_path / label / cmd
            assert main(argv + ["--out", str(out)]) == 0, (label, cmd)
            files.update({f"{cmd}/{f.name}": f.read_bytes() for f in out.iterdir()})
        runs.append(files)
    capsys.readouterr()
    assert solver._solver_grid.cache_info().hits > 0
    assert analog._cell_geometry.cache_info().hits > 0
    assert len(runs[0]) == 9
    assert runs[0] == runs[1] == runs[2]


def test_sweep_all_failures_exit_three(tmp_path, capsys, monkeypatch):
    # every solve fails at an iteration cap of 2 (see test_solver_failure_exit_code)
    monkeypatch.setattr(solver, "_MAX_ITER", 2)
    rc = main(["sweep", "--cost", "energy", "--lambda", "10",
               "--mu-range", "0.0008:0.001:2", "--si", "2", "--sf", "1",
               "--grid", "501", "--out", str(tmp_path)])
    assert rc == 3
    meta = json.loads((tmp_path / "sweep.json").read_text())
    assert meta["n_converged"] == 0 and len(meta["failures"]) == 2
    capsys.readouterr()


def test_cli_import_skips_scipy_interpolate():
    # every command pays the cold import of swifttrap.cli; the runtime is
    # numpy-only, and importing any part of scipy would add about 0.3 s
    # (scipy.linalg) to 0.4 s (scipy.interpolate) on a 2-core host;
    # numpy.random (about 6 MB resident) loads only when an ensemble runs;
    # the ensembles' second thread comes from threading, which the package
    # loads anyway, not from concurrent.futures
    src = os.path.dirname(os.path.dirname(swifttrap.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    for module in ("swifttrap", "swifttrap.cli"):
        code = (f"import sys, {module}; "
                "print(sorted(m for m in sys.modules if m.startswith('scipy') "
                "or m in ('numpy.random', 'concurrent.futures')))")
        out = subprocess.run([sys.executable, "-c", code],
                             env=dict(os.environ, PYTHONPATH=path),
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]", module


def test_numeric_rows_match_per_field_format():
    # one "%.12e,..." line per row must give the bytes that formatting
    # each field with "%.12e" % float(x) and joining on commas gives
    columns = ([-0.0, 1e-300, 3, np.int64(-7)],
               np.array([0.1, -1e300, 2.5e-12, np.pi]),
               [np.float32(0.1), np.float64(-0.0), 12345678901234, np.int32(0)])
    want = [",".join("%.12e" % float(x) for x in row) for row in zip(*columns)]
    assert _numeric_rows(columns) == want
    assert want[0].startswith("-0.000000000000e+00,")
    assert "1.000000000000e-300" in want[1]


def test_verify_holds_each_block_to_its_family_bound(tmp_path):
    # the README's schedule and seed: the worst Born z-value, 3.18 on an
    # excess kurtosis, is past 3 sigma but inside the Bonferroni bound of
    # the block's 40 z-values at the level of one 3-sigma test
    assert main(["optimize", "--cost", "energy", "--lambda", "1", "--mu", "0.5",
                 "--si", "1", "--sf", "2", "--out", str(tmp_path)]) == 0
    out = tmp_path / "verify"
    rc = main(["verify", "--protocol", str(tmp_path / "protocol_t.csv"),
               "--method", "both", "--particles", "20000", "--seed", "3", "--out", str(out)])
    verdict = json.loads((out / "verify.json").read_text())
    assert rc == 0 and verdict["passed"] is True
    assert verdict["born"]["threshold"] == pytest.approx(3.985, abs=1e-3)
    assert verdict["twin"]["threshold"] == pytest.approx(3.817, abs=1e-3)
    assert 3.0 < verdict["born"]["worst_abs_z"] <= verdict["born"]["threshold"]

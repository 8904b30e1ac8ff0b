"""Stochastic ensemble simulators and the Born-statistics verdict."""

import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

from swifttrap import (
    EnsembleStats,
    IntegrationError,
    McConfig,
    TimeProtocol,
    equilibrium_kappa,
    evolve_variance,
    integrate_ermakov,
    simulate_classical,
    simulate_nelson,
    verify_born,
)
from swifttrap import montecarlo
from swifttrap.model import _node_substeps
from swifttrap.montecarlo import _centred_sums, _merged_moments, ensemble_streams


def _hold_protocol(span=2.0, n=201, kbar=1.0):
    t = np.linspace(0.0, span, n)
    return TimeProtocol(t, np.full(n, kbar), "classical")


def test_config_validation():
    ck = np.array([0.5, 1.0])
    McConfig(n_particles=100, seed=0, checkpoints=ck)
    with pytest.raises(ValueError):
        McConfig(n_particles=50, seed=0, checkpoints=ck)
    with pytest.raises(ValueError):
        McConfig(n_particles=100, seed=0, checkpoints=ck[::-1])
    with pytest.raises(ValueError):
        McConfig(n_particles=100, seed=0, checkpoints=np.array([]))
    for dt in (0.0, -0.1, np.nan):
        with pytest.raises(ValueError, match="dt must be positive"):
            McConfig(n_particles=100, seed=0, checkpoints=ck, dt=dt)


def test_same_seed_reproduces_exactly(consts):
    cfg = McConfig(n_particles=2000, seed=11, checkpoints=np.array([1.0, 2.0]), dt=1e-3)
    a = simulate_classical(_hold_protocol(), 1.0, cfg, consts)
    b = simulate_classical(_hold_protocol(), 1.0, cfg, consts)
    for field in ("times", "mean", "variance", "excess_kurtosis", "stderr_variance"):
        assert np.array_equal(getattr(a, field), getattr(b, field))
    other = McConfig(n_particles=2000, seed=12, checkpoints=np.array([1.0, 2.0]), dt=1e-3)
    c2 = simulate_classical(_hold_protocol(), 1.0, other, consts)
    assert not np.array_equal(a.variance, c2.variance)


def test_stream_reproduces_and_neighbouring_seeds_decorrelate():
    n = 100_000
    for s in (0, 11, 2**31 - 3):
        blocks = [g.standard_normal(n) for g in ensemble_streams(s)]
        assert len(blocks) == montecarlo.N_BLOCKS == 2
        for a, b in zip(blocks, (g.standard_normal(n) for g in ensemble_streams(s))):
            assert np.array_equal(a, b)
        # the two blocks of one seed, and each of them against each block of
        # seed + 1, which drives the classical twin next to the Born ensemble
        twin = [g.standard_normal(n) for g in ensemble_streams(s + 1)]
        pairs = {"0, 1": (blocks[0], blocks[1])}
        pairs.update({f"{j}, {k} of seed + 1": (blocks[j], twin[k])
                      for j in (0, 1) for k in (0, 1)})
        for label, (a, b) in pairs.items():
            r = np.corrcoef(a, b)[0, 1]
            assert abs(r) < 5.0 / np.sqrt(n), f"seed {s} blocks {label}: r = {r:.2e}"


@pytest.mark.parametrize("sample", ["offset", "student_t"])
def test_moments_match_two_pass_reference(sample):
    # a large offset punishes a one-pass E[x^2] - E[x]^2; Student-t (5 dof)
    # puts most of the fourth moment in a few tail points; an odd count
    # splits into unequal blocks, as _run_ensemble splits the particles
    rng = np.random.default_rng(7)
    n = 20_001
    if sample == "offset":
        x = 1.0e3 + 1.0e-2 * rng.standard_normal(n)
    else:
        x = rng.standard_t(5, n)
    n_a = n // 2
    a, b = (np.array(_centred_sums(part, np.empty((2, part.size))))
            for part in (x[:n_a], x[n_a:]))
    mean, var, kurt = _merged_moments(n_a, a, n - n_a, b)
    d = x - x.mean()
    assert mean == pytest.approx(x.mean(), rel=1e-15)
    assert var == pytest.approx(np.var(x, ddof=1), rel=1e-12)
    assert kurt + 3.0 == pytest.approx(np.mean(d**4) / np.var(x) ** 2, rel=1e-12)


def test_concurrent_callers_match_serial_calls(consts):
    # two callers at once put four sampling threads on the host; each
    # result must still be a function of its own inputs alone, bit for bit
    span, n = 2.0, 201
    t = np.linspace(0.0, span, n)
    protos = (_hold_protocol(), TimeProtocol(t, 2.0 + np.sin(np.pi * t), "classical"))
    cfgs = (McConfig(2001, 11, np.array([0.5, 1.0, 2.0]), dt=1e-3),
            McConfig(3000, 12, np.array([0.25, 1.5, 2.0]), dt=2e-3))
    serial = [simulate_classical(p, 1.0, cfg, consts) for p, cfg in zip(protos, cfgs)]
    got = [None, None]

    def call(i):
        got[i] = simulate_classical(protos[i], 1.0, cfgs[i], consts)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            callers = [threading.Thread(target=call, args=(i,)) for i in (0, 1)]
            for th in callers:
                th.start()
            for th in callers:
                th.join(timeout=30.0)
            assert not any(th.is_alive() for th in callers)
            for want, have in zip(serial, got):
                for field in ("times", "mean", "variance", "excess_kurtosis",
                              "stderr_variance"):
                    assert np.array_equal(getattr(want, field), getattr(have, field)), field
            got[:] = (None, None)
    finally:
        sys.setswitchinterval(interval)


def test_block_1_error_reaches_the_caller(consts, monkeypatch):
    sample_block = montecarlo._sample_block

    def failing_block_1(rng, *args):
        if rng.bit_generator.seed_seq.spawn_key == (1,):
            raise RuntimeError("block 1 failed")
        return sample_block(rng, *args)

    monkeypatch.setattr(montecarlo, "_sample_block", failing_block_1)
    threads = threading.active_count()
    cfg = McConfig(n_particles=500, seed=0, checkpoints=np.array([1.0]), dt=1e-2)
    with pytest.raises(RuntimeError, match="block 1 failed"):
        simulate_classical(_hold_protocol(), 1.0, cfg, consts)
    assert threading.active_count() == threads


def _recorded_plans(monkeypatch) -> list:
    """Record the (sd_start, plan) that each particle block samples."""
    plans = []
    sample_block = montecarlo._sample_block

    def recording(rng, n, sd_start, plan):
        plans.append((sd_start, plan))
        return sample_block(rng, n, sd_start, plan)

    monkeypatch.setattr(montecarlo, "_sample_block", recording)
    return plans


def _law(sd_start, plan):
    """The variance at each checkpoint that a plan's (G, sqrt(V)) steps give."""
    s, out = sd_start**2, []
    for step in plan:
        if step is not None:
            gain, sd = step
            s = gain * gain * s + sd * sd
        out.append(s)
    return np.array(out)


def test_zero_noise_ratio_is_the_rk4_factor(consts):
    # with the injected noise made negligible (hbar = 1e-30 gives
    # D = hbar/(2m) = 1e-30) every walker contracts by G, so the variance
    # ratio between checkpoints is G^2: the product of the variance flow's
    # RK4 factors 1 + z + z^2/2 + z^3/6 + z^4/24, z = -2 kbar h / gamma,
    # over the substeps between them, which is e^-2 to RK4's error
    ck = np.array([1.0, 2.0])
    cfg = McConfig(n_particles=2000, seed=11, checkpoints=ck, dt=1e-3)
    st = simulate_classical(_hold_protocol(), 1.0, cfg, replace(consts, hbar=1e-30))
    t = np.union1d(_hold_protocol().t_nodes, ck)
    ta, h, *_ = _node_substeps(TimeProtocol(t, np.ones(t.size), "classical"), cfg.dt)
    z = -2.0 * h[ta >= 1.0]
    factor = np.prod(1.0 + z + z**2 / 2.0 + z**3 / 6.0 + z**4 / 24.0)
    assert st.variance[1] / st.variance[0] == pytest.approx(factor, rel=1e-10)
    assert factor == pytest.approx(np.exp(-2.0), rel=1e-10)
    assert st.variance[0] == pytest.approx(np.exp(-2.0), rel=0.05)


# solved schedules: an expansion, a thin-layer expansion and a compression,
# each at the benchmark's substep cap (span/2000) and at the default
LAW_CASES = [pytest.param("energy", 0.5, 1.0, 1.0, 2.0, 2000.0, id="energy-1to2"),
             pytest.param("work", 1e-3, 10.0, 1.0, 5.0, None, id="work-1to5"),
             pytest.param("energy", 0.1, 1.0, 2.0, 1.0, 2000.0, id="energy-2to1"),
             pytest.param("phase", 0.01, 10.0, 1.0, 5.0, None, id="phase-1to5")]


@pytest.mark.parametrize("cost, mu, lam, s_i, s_f, per_span", LAW_CASES)
def test_twin_law_matches_evolve_variance(cache, consts, monkeypatch,
                                          cost, mu, lam, s_i, s_f, per_span):
    # the twin's law telescoped from s_i is evolve_variance's s(t) on the
    # same grid (the nodes with the checkpoints inserted) and the same cap
    td = cache.timedomain(cost, mu, lam, s_i, s_f)
    t0, t1 = td.classical.span
    ck = np.linspace(t0, t1, 21)[1:]
    dt = None if per_span is None else (t1 - t0) / per_span
    plans = _recorded_plans(monkeypatch)
    st = simulate_classical(td.classical, s_i, McConfig(100, 3, ck, dt), consts)
    assert np.array_equal(st.times, ck)
    (sd_a, plan_a), (sd_b, plan_b) = plans
    assert sd_a == sd_b == np.sqrt(s_i) and plan_a == plan_b
    t = np.union1d(td.classical.t_nodes, ck)
    ref = evolve_variance(TimeProtocol(t, td.classical(t), "classical"), s_i, consts, dt)
    want = ref.s[np.searchsorted(t, ck)]
    assert np.max(np.abs(_law(sd_a, plan_a) / want - 1.0)) <= 1e-12


@pytest.mark.parametrize("cost, mu, lam, s_i, s_f, per_span", LAW_CASES)
def test_nelson_law_matches_record(cache, consts, monkeypatch,
                                   cost, mu, lam, s_i, s_f, per_span):
    # the Nelson law is the record's own s at the checkpoints, up to the
    # rate being taken linear between the record's samples
    run = cache.ermakov(cost, mu, lam, s_i, s_f)
    ck = np.linspace(run.t[0], run.t[-1], 21)[1:]
    dt = None if per_span is None else (run.t[-1] - run.t[0]) / per_span
    plans = _recorded_plans(monkeypatch)
    simulate_nelson(run, McConfig(100, 3, ck, dt), consts)
    want = np.interp(ck, run.t, run.s)
    assert np.max(np.abs(_law(*plans[0]) / want - 1.0)) <= 1e-5


def test_law_keeps_its_precision_after_a_long_contraction(consts, monkeypatch):
    # a 60-long hold at kbar = gamma contracts the variance injected at t0
    # by e^-120, far below the rounding of 1; the last intervals' law must
    # still be exact: G^2 = e^-2 per unit time, and from s = 1 = D gamma /
    # kbar the variance stays at 1, as evolve_variance has it
    proto = _hold_protocol(span=60.0, n=601)
    ck = np.array([58.0, 59.0, 60.0])
    plans = _recorded_plans(monkeypatch)
    simulate_classical(proto, 1.0, McConfig(100, 3, ck, dt=2e-3), consts)
    sd, plan = plans[0]
    assert [gain**2 for gain, _ in plan[1:]] == pytest.approx([np.exp(-2.0)] * 2, rel=1e-10)
    want = evolve_variance(proto, 1.0, consts, 2e-3).s[np.searchsorted(proto.t_nodes, ck)]
    assert np.max(np.abs(_law(sd, plan) / want - 1.0)) <= 1e-12


def test_checkpoint_at_start_reports_initial_draws(consts):
    # a checkpoint at the schedule's start draws nothing: it reports the
    # initial positions, and the later checkpoints see the same stream
    dup = McConfig(2000, 11, np.array([0.0, 1.0, 2.0]))
    plain = McConfig(2000, 11, np.array([1.0, 2.0]))
    a = simulate_classical(_hold_protocol(), 2.0, dup, consts)
    b = simulate_classical(_hold_protocol(), 2.0, plain, consts)
    for field in ("times", "mean", "variance", "excess_kurtosis", "stderr_variance"):
        assert np.array_equal(getattr(a, field)[1:], getattr(b, field))
    assert a.times[0] == 0.0
    x = np.concatenate([np.sqrt(2.0) * g.standard_normal(1000) for g in ensemble_streams(11)])
    d = x - x.mean()
    assert a.mean[0] == pytest.approx(x.mean(), rel=1e-12)
    assert a.variance[0] == pytest.approx(np.var(x, ddof=1), rel=1e-12)
    assert a.excess_kurtosis[0] == pytest.approx(np.mean(d**4) / np.var(x) ** 2 - 3.0,
                                                 rel=1e-10)


def test_failed_law_raises_with_its_time(consts):
    # kbar = -400 grows the variance like e^(800 t): the laws of the first
    # two intervals hold, the one from t = 1 to 2 overflows
    cfg = McConfig(n_particles=500, seed=0, checkpoints=np.array([0.5, 1.0, 2.0]))
    with pytest.raises(IntegrationError, match=r"t=2\b") as err:
        simulate_classical(_hold_protocol(kbar=-400.0), 1.0, cfg, consts)
    assert err.value.t == 2.0
    outside = McConfig(n_particles=500, seed=0, checkpoints=np.array([1.0, 2.5]))
    with pytest.raises(ValueError, match="support"):
        simulate_classical(_hold_protocol(), 1.0, outside, consts)


def test_law_past_the_rk4_bound_raises_at_its_substep(consts):
    # the ensembles read the variance flow's RK4 substeps, so a stiff hold
    # at dt = 0.005 (h (2/gamma) kbar = 4) fails at its first substep, not
    # once its law has gone wrong (G^2 = 2.5e14 with V < 0 at t = 0.5)
    cfg = McConfig(n_particles=500, seed=0, checkpoints=np.array([0.5, 1.0, 2.0]), dt=0.005)
    with pytest.raises(IntegrationError, match="stability") as err:
        simulate_classical(_hold_protocol(kbar=400.0), 2.0 / 400.0, cfg, consts)
    assert err.value.t == 0.0


def test_classical_hold_matches_born(consts):
    ck = np.array([0.5, 1.0, 2.0])
    cfg = McConfig(n_particles=20000, seed=11, checkpoints=ck, dt=1e-3)
    stats = simulate_classical(_hold_protocol(), 1.0, cfg, consts)
    report = verify_born(stats, np.ones(3))
    assert report.passed
    assert report.worst_abs_z < 3.0
    assert stats.n_particles == 20000


def test_nelson_hold_matches_born(consts):
    t = np.linspace(0.0, 2.0, 201)
    kappa = TimeProtocol(t, np.full(201, equilibrium_kappa(1.0, consts)), "quantum")
    run = integrate_ermakov(kappa, 1.0, consts)
    ck = np.array([0.5, 1.0, 2.0])
    cfg = McConfig(n_particles=20000, seed=21, checkpoints=ck, dt=1e-3)
    stats = simulate_nelson(run, cfg, consts)
    report = verify_born(stats, np.interp(ck, run.t, run.s))
    assert report.passed, f"worst |z| = {report.worst_abs_z:.2f}"


def test_classical_rejects_quantum_schedule(consts):
    t = np.linspace(0.0, 1.0, 11)
    cfg = McConfig(n_particles=500, seed=0, checkpoints=np.array([1.0]), dt=1e-3)
    with pytest.raises(ValueError):
        simulate_classical(TimeProtocol(t, np.ones(11), "quantum"), 1.0, cfg, consts)


def test_verify_born_mechanics():
    times = np.array([1.0, 2.0])
    n = 10000
    se = np.sqrt(2.0 / (n - 1))
    stats = EnsembleStats(times=times, mean=np.zeros(2),
                          variance=np.array([1.0 + 2.0 * se, 1.0]),
                          excess_kurtosis=np.array([0.0, 0.0]),
                          stderr_variance=np.full(2, se), n_particles=n)
    report = verify_born(stats, np.ones(2))
    assert report.passed
    assert report.worst_abs_z == pytest.approx(2.0, rel=1e-12)
    assert np.allclose(report.z_kurtosis, 0.0)

    stats_bad = EnsembleStats(times=times, mean=np.zeros(2),
                              variance=np.array([1.0 + 4.0 * se, 1.0]),
                              excess_kurtosis=np.zeros(2),
                              stderr_variance=np.full(2, se), n_particles=n)
    assert not verify_born(stats_bad, np.ones(2)).passed
    # a fat-tailed ensemble fails on kurtosis even with the right variance
    kz = 5.0 * np.sqrt(24.0 / n)
    stats_kurt = EnsembleStats(times=times, mean=np.zeros(2),
                               variance=np.ones(2),
                               excess_kurtosis=np.array([kz, 0.0]),
                               stderr_variance=np.full(2, se), n_particles=n)
    report_kurt = verify_born(stats_kurt, np.ones(2))
    assert not report_kurt.passed
    assert report_kurt.worst_abs_z == pytest.approx(5.0, rel=1e-12)


def test_verify_born_guards():
    stats = EnsembleStats(times=np.array([1.0]), mean=np.zeros(1),
                          variance=np.ones(1), excess_kurtosis=np.zeros(1),
                          stderr_variance=np.ones(1), n_particles=1000)
    with pytest.raises(ValueError):
        verify_born(stats, np.ones(3))
    bare = EnsembleStats(times=np.array([1.0]), mean=np.zeros(1),
                         variance=np.ones(1), excess_kurtosis=np.zeros(1),
                         stderr_variance=np.ones(1), n_particles=0)
    with pytest.raises(ValueError):
        verify_born(bare, np.ones(1))

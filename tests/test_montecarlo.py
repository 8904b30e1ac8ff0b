"""Stochastic ensemble simulators and the Born-statistics verdict."""

import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

from swifttrap import (
    EnsembleStats,
    McConfig,
    TimeProtocol,
    equilibrium_kappa,
    integrate_ermakov,
    simulate_classical,
    simulate_nelson,
    verify_born,
)
from swifttrap import montecarlo
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
    with pytest.raises(ValueError):
        McConfig(n_particles=100, seed=0, checkpoints=ck, dt=-0.1)


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
    # splits into unequal blocks, as _run_em splits the particles
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


def test_zero_noise_reduces_to_discrete_drift(consts):
    # with the injected noise made negligible (hbar = 1e-30 gives
    # D = hbar/(2m) = 1e-30) every walker contracts by the exact Euler
    # factor (1 - kbar h / gamma) per step, so the variance ratio between
    # checkpoints is that factor to the step count
    h = 1e-3
    cfg = McConfig(n_particles=2000, seed=11,
                   checkpoints=np.array([1.0, 2.0]), dt=h)
    st = simulate_classical(_hold_protocol(), 1.0, cfg, replace(consts, hbar=1e-30))
    factor = (1.0 - h) ** 2000
    assert st.variance[1] / st.variance[0] == pytest.approx(factor, rel=1e-10)
    assert st.variance[0] == pytest.approx(np.exp(-2.0), rel=0.05)


def _stepping_reference(rates, h, s_start, n, steps, D, seed):
    """Euler-Maruyama stepped one step at a time, moments at the given steps."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    x = np.sqrt(s_start) * rng.standard_normal(n)
    snaps = [x] * int(np.count_nonzero(steps == 0))
    for k in range(steps[-1]):
        x = (1.0 + rates[k] * h) * x + np.sqrt(2.0 * D * h) * rng.standard_normal(n)
        snaps += [x] * int(np.count_nonzero(steps == k + 1))
    var = np.array([v.var(ddof=1) for v in snaps])
    kurt = np.array([np.mean((v - v.mean()) ** 4) / v.var() ** 2 - 3.0 for v in snaps])
    return EnsembleStats(times=steps * h, mean=np.array([v.mean() for v in snaps]),
                         variance=var, excess_kurtosis=kurt,
                         stderr_variance=var * np.sqrt(2.0 / (n - 1)), n_particles=n)


def test_exact_sampler_matches_stepping_reference(consts):
    # kbar swings between 0.2 and 3.8 and the step is coarse (40 steps, up to
    # a fifth of the stability bound), so the discrete law is far from the
    # continuous one and every step's own growth factor matters
    span, dt = 2.0, 0.05
    t = np.linspace(0.0, span, 401)
    proto = TimeProtocol(t, 2.0 + 1.8 * np.sin(3.0 * np.pi * t / span), "classical")
    ck = np.array([0.25, 0.5, 1.0, 1.5, 2.0])
    exact = simulate_classical(proto, 1.0, McConfig(200_000, 5, ck, dt), consts)

    n_steps = 40
    h = span / n_steps
    rates = -np.interp(h * np.arange(n_steps), t, proto.values) / consts.gamma
    steps = np.rint(ck / h).astype(int)
    ref = _stepping_reference(rates, h, 1.0, 100_000, steps, consts.D, seed=6)

    s_disc, s = [], 1.0
    for k in range(n_steps):
        s = (1.0 + rates[k] * h) ** 2 * s + 2.0 * consts.D * h
        if k + 1 in steps:
            s_disc.append(s)
    assert (exact.h, exact.n_steps) == (h, n_steps)
    assert exact.stability_margin == pytest.approx(h * np.max(np.abs(rates)), rel=1e-12)
    assert np.array_equal(exact.times, ref.times)
    for st in (exact, ref):
        report = verify_born(st, np.array(s_disc), threshold=4.0)
        assert report.passed, f"worst |z| = {report.worst_abs_z:.2f}"
    joint = (np.abs(exact.variance - ref.variance)
             / np.hypot(exact.stderr_variance, ref.stderr_variance))
    assert np.max(joint) <= 4.0


def test_checkpoints_on_one_step_share_moments(consts):
    # at dt = 0.1, checkpoints 0 and 0.01 round to step 0 (the initial
    # positions) and 1.0 and 1.04 to step 10; an interval of zero steps
    # draws nothing, so the remaining checkpoints see the same stream
    dup = McConfig(2000, 11, np.array([0.0, 0.01, 1.0, 1.04, 2.0]), dt=0.1)
    plain = McConfig(2000, 11, np.array([1.0, 2.0]), dt=0.1)
    a = simulate_classical(_hold_protocol(), 1.0, dup, consts)
    b = simulate_classical(_hold_protocol(), 1.0, plain, consts)
    for field in ("times", "mean", "variance", "excess_kurtosis", "stderr_variance"):
        got = getattr(a, field)
        assert got[0] == got[1] and got[2] == got[3]
        assert np.array_equal(got[[2, 4]], getattr(b, field))
    assert a.times[0] == 0.0


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


def test_stability_bound_enforced(consts):
    cfg = McConfig(n_particles=500, seed=0, checkpoints=np.array([1.0]), dt=1.5)
    with pytest.raises(ValueError, match="stability"):
        simulate_classical(_hold_protocol(), 1.0, cfg, consts)


def test_stability_bound_checks_step_taken(consts):
    # on a 2-long hold dt = 0.99 passes for the bound 1 but rounds to two
    # steps of h = 1.0, where g = 1 - h = 0 and the chain forgets its start
    # (variance 2 against the Born value 1); the step taken is what counts
    cfg = McConfig(n_particles=500, seed=0, checkpoints=np.array([2.0]), dt=0.99)
    with pytest.raises(ValueError, match=r"h=1 .*stability"):
        simulate_classical(_hold_protocol(kbar=consts.gamma), 1.0, cfg, consts)
    t = np.linspace(0.0, 2.0, 201)
    kappa = TimeProtocol(t, np.full(201, equilibrium_kappa(1.0, consts)), "quantum")
    run = integrate_ermakov(kappa, 1.0, consts)
    # drift rate (hbar/m)(2 alpha - 1/(2 s)) = -1 at rest at s = 1: bound 1
    with pytest.raises(ValueError, match=r"h=1 .*stability"):
        simulate_nelson(run, cfg, consts)
    # three steps of h = 2/3 are inside the bound, and both ensembles run
    ok = McConfig(n_particles=500, seed=0, checkpoints=np.array([2.0]), dt=2.0 / 3.0)
    assert simulate_classical(_hold_protocol(kbar=consts.gamma), 1.0, ok, consts).h < 1.0
    assert simulate_nelson(run, ok, consts).h < 1.0


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

"""Core value types: constants, protocols, problem definitions."""

import numpy as np
import pytest

from swifttrap import (
    EnsembleStats,
    OptimizationProblem,
    PhysConsts,
    SGridProtocol,
    TimeProtocol,
    alpha_of,
    equilibrium_kappa,
    equilibrium_kbar,
)


def test_default_constants_are_matched():
    c = PhysConsts()
    assert (c.hbar, c.m, c.gamma, c.D) == (1.0, 0.5, 1.0, 1.0)
    assert PhysConsts(hbar=2.0, m=0.25, gamma=3.0).D == 2.0 / (2.0 * 0.25)


@pytest.mark.parametrize("field", ["hbar", "m", "gamma"])
def test_constants_reject_nonpositive(field):
    with pytest.raises(ValueError):
        PhysConsts(**{field: 0.0})
    with pytest.raises(ValueError):
        PhysConsts(**{field: -1.0})


def test_mismatched_diffusion_is_flagged():
    # D is derived from hbar/(2m), so a mismatched one cannot be passed
    with pytest.raises(TypeError):
        PhysConsts(hbar=1.0, m=0.5, D=1.5)
    with pytest.raises(ValueError, match="D = hbar"):
        PhysConsts(hbar=1e300, m=1e-300)  # hbar/(2m) overflows


def test_equilibrium_branches(consts):
    s = np.array([0.25, 1.0, 2.0, 7.5])
    assert np.allclose(equilibrium_kbar(s, consts) * s, 1.0, rtol=1e-15)
    assert np.allclose(equilibrium_kappa(s, consts) * s**2, 0.5, rtol=1e-15)


def test_alpha_of_matches_width_velocity(consts):
    # alpha = m sdot / (4 hbar s); zero at rest, sign follows sdot
    assert alpha_of(1.0, 0.0, consts) == 0.0
    a = alpha_of(2.0, 1.6, consts)
    assert a == pytest.approx(0.5 * 1.6 / (4.0 * 1.0 * 2.0), rel=1e-15)
    assert alpha_of(2.0, -1.6, consts) == -a


def test_s_grid_protocol_orientation():
    s = np.linspace(1.0, 2.0, 11)
    p = SGridProtocol(s, np.ones(11))
    assert p.direction == 1.0
    assert (p.s_start, p.s_end) == (1.0, 2.0)
    q = SGridProtocol(s[::-1], np.ones(11))
    assert q.direction == -1.0


def test_s_grid_protocol_validation():
    s = np.linspace(1.0, 2.0, 11)
    with pytest.raises(ValueError):
        SGridProtocol(s, np.ones(10))
    with pytest.raises(ValueError):
        SGridProtocol(s[:2], np.ones(2))
    with pytest.raises(ValueError):
        SGridProtocol(s - 1.0, np.ones(11))  # hits zero
    with pytest.raises(ValueError):
        SGridProtocol(s[[0, 2, 1, *range(3, 11)]], np.ones(11))  # wrong order
    with pytest.raises(ValueError):
        SGridProtocol(np.r_[s, 1.0], np.ones(12))  # turns back to its start


def test_time_protocol_interpolation_and_span():
    t = np.array([0.0, 1.0, 3.0])
    p = TimeProtocol(t, np.array([0.0, 2.0, 2.0]), "classical")
    assert p.span == (0.0, 3.0)
    assert p(0.5) == 1.0
    assert p(2.0) == 2.0
    # clamped outside the span
    assert p(-1.0) == 0.0 and p(9.0) == 2.0


def test_time_protocol_validation():
    t = np.array([0.0, 1.0, 2.0])
    with pytest.raises(ValueError):
        TimeProtocol(t[::-1], np.zeros(3), "classical")
    with pytest.raises(ValueError):
        TimeProtocol(t[:1], np.zeros(1), "classical")
    with pytest.raises(ValueError):
        TimeProtocol(t, np.zeros(3), "overdamped")


def test_problem_validation():
    ok = dict(cost="energy", lam=1.0, mu=0.1, s_i=1.0, s_f=2.0)
    OptimizationProblem(**ok)
    for bad in (dict(cost="speed"), dict(lam=-1.0), dict(mu=-0.5),
                dict(s_i=0.0), dict(s_f=-2.0), dict(s_f=1.0),
                dict(n_grid=51)):
        with pytest.raises(ValueError):
            OptimizationProblem(**{**ok, **bad})


def test_ensemble_stats_carries_particle_count():
    t = np.array([1.0, 2.0])
    st = EnsembleStats(times=t, mean=np.zeros(2), variance=np.ones(2),
                       excess_kurtosis=np.zeros(2),
                       stderr_variance=np.full(2, 0.01), n_particles=500)
    assert st.n_particles == 500
    assert st.variance.dtype == float

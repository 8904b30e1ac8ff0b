"""Core value types: constants, protocols, problem definitions."""

import tracemalloc

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
from swifttrap.model import _prefix_step_maps


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


# ---------------------------------------------------------------------------
# prefix product of step maps
# ---------------------------------------------------------------------------

def _sequential_products(e):
    """P_k = (I + E_k) ... (I + E_0), multiplied left to right in time."""
    out = np.empty((e.shape[1], 2, 2))
    p = np.eye(2)
    for k in range(e.shape[1]):
        p = (np.eye(2) + e[:, k].reshape(2, 2)) @ p
        out[k] = p
    return out


@pytest.mark.parametrize("sizes", [list(range(1, 71)), [1023, 1024, 1025, 10001]],
                         ids=["1-70", "large"])
def test_prefix_step_maps_match_sequential_product(sizes):
    rng = np.random.default_rng(5)
    for n in sizes:
        # steps small enough that the product stays of order one
        e = rng.normal(scale=0.5 / np.sqrt(n), size=(4, n))
        want = _sequential_products(e)
        got = _prefix_step_maps(e)
        assert got.shape == (4, n)
        got_full = np.eye(2) + got.T.reshape(n, 2, 2)
        scale = np.max(np.abs(want))
        assert np.max(np.abs(got_full - want)) <= 1e-13 * scale, n


def test_prefix_step_maps_keep_affine_maps_affine():
    rng = np.random.default_rng(6)
    for n in (1, 2, 37, 1025):
        e = np.zeros((4, n))
        e[:2] = rng.normal(scale=0.5 / np.sqrt(n), size=(2, n))
        got = _prefix_step_maps(e.copy())
        assert np.all(got[2:] == 0.0), n
        want = _sequential_products(e)
        assert np.max(np.abs(1.0 + got[0] - want[:, 0, 0])) <= 1e-13 * np.max(np.abs(want))
        assert np.max(np.abs(got[1] - want[:, 0, 1])) <= 1e-13 * np.max(np.abs(want))


def _recursive_compose(a, b):
    """(I + A)(I + B) - I = A + B + AB for stacked maps, A the later."""
    a, b = a.reshape(2, 2, -1), b.reshape(2, 2, -1)
    ab = a[:, 0, None] * b[0, None] + a[:, 1, None] * b[1, None]
    return (a + b + ab).reshape(4, -1)


def _recursive_scan(e):
    """The scan in its recursive form, one fresh array per level: compose
    neighbouring pairs, scan them, finish the even-indexed products."""
    n = e.shape[1]
    out = np.empty_like(e)
    out[:, 0] = e[:, 0]
    if n > 1:
        with np.errstate(over="ignore", invalid="ignore"):
            out[:, 1::2] = _recursive_scan(_recursive_compose(e[:, 1::2], e[:, 0:n - 1:2]))
            out[:, 2::2] = _recursive_compose(e[:, 2::2], out[:, 1:n - 1:2])
    return out


def same_bits(a, b):
    """Bitwise equality of two float arrays (tells -0.0 from 0.0)."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("affine", [False, True], ids=["general", "affine"])
def test_in_place_scan_is_the_recursive_scan_to_the_bit(affine):
    rng = np.random.default_rng(7)
    for n in [*range(1, 71), 1023, 1024, 1025, 10001]:
        e = rng.normal(scale=0.5 / np.sqrt(n), size=(4, n))
        if affine:
            e[2:] = 0.0
        want = _recursive_scan(e)
        got = _prefix_step_maps(e)
        assert got is e, n
        assert same_bits(got, want), n


def test_scan_allocates_only_its_scratch():
    # two (2, 2, n // 2) scratch arrays, the input's size; the recursive
    # form allocates about three times that.  The scan shrinks numpy's ufunc
    # buffer while it runs and must hand the caller's size back
    e = np.random.default_rng(8).normal(scale=0.005, size=(4, 10001))
    bufsize = np.getbufsize()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        _prefix_step_maps(e)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 1.05 * e.nbytes
    assert np.getbufsize() == bufsize

"""Stationarity right-hand sides and the damped tridiagonal solver."""

import dataclasses
import itertools
import warnings

import numpy as np
import pytest

from swifttrap import (
    ConvergenceError,
    OptimizationProblem,
    PhysConsts,
    SGridProtocol,
    SingularManifoldError,
    TimeDomainProtocols,
    analytic_work_optimal,
    LAGRANGIANS,
    duration,
    el_rhs,
    g_penalty,
    solve_bvp,
)

from swifttrap import analog, solver
from swifttrap.analog import _GAUSS_W
from swifttrap.solver import (
    BvpResult,
    _DIRECT_SIZE,
    _solve_tridiagonal,
    _solver_grid,
)

from conftest import REFERENCE_DURATIONS
from test_dynamics import same_bits

# durations produced by the implemented equations at the reference settings,
# frozen as regression pins (the externally stated values are asserted, and
# currently missed, in the acceptance suite).  These are converged values:
# the solve refines at second order and moves them by about 1e-6 from
# n = 2001 to n = 4001.
SOLVED_DURATIONS = {
    ("energy", 0.1): 0.713757,
    ("energy", 0.5): 1.097602,
    ("energy", 1.0): 1.357709,
    ("phase", 0.1): 0.808432,
    ("phase", 0.5): 1.398884,
    ("phase", 1.0): 1.776925,
}


def _prob(cost, lam=1.0, mu=0.1):
    return OptimizationProblem(cost=cost, lam=lam, mu=mu, s_i=1.0, s_f=2.0)


# ---------------------------------------------------------------------------
# right-hand sides
# ---------------------------------------------------------------------------

_CUSTOM_CONSTS = PhysConsts(hbar=2.0, m=0.25, gamma=3.0)


def _printed_rhs_terms(cost, s, kbar, prob, c):
    """The right-hand sides as they were printed per cost, before the table.

    Returns the value, in the printed association, and the sum of the
    magnitudes of its additive terms, the scale its rounding is measured
    against.
    """
    g = c.D * c.gamma - s * kbar
    lam, mu = prob.lam, prob.mu
    if cost == "energy":
        num = c.gamma**2 * s + 3.0 * c.D**2 * c.gamma**2 * lam - s**2 * kbar**2 * lam
        value = (num / g**2 - 2.0 * s * kbar * lam / g - 3.0 * lam) / (2.0 * mu * c.gamma)
        terms = [c.gamma**2 * s / g**2, 3.0 * c.D**2 * c.gamma**2 * lam / g**2,
                 s**2 * kbar**2 * lam / g**2, 2.0 * s * kbar * lam / g, 3.0 * lam]
        return value, sum(np.abs(t) for t in terms) / (2.0 * mu * c.gamma)
    cost_term = (c.m**2 * lam / (8.0 * c.gamma * c.hbar**2 * s) if cost == "phase"
                 else lam)
    value = (c.gamma * s / g**2 - cost_term) / (2.0 * mu)
    return value, (c.gamma * s / g**2 + np.abs(cost_term)) / (2.0 * mu)


def _printed_rhs_slope(cost, s, kbar, prob, c):
    """d(printed rhs)/d(kbar) as it was written per cost, and its term scale."""
    g = c.D * c.gamma - s * kbar
    if cost == "energy":
        lam = prob.lam
        num = c.gamma**2 * s + 3.0 * c.D**2 * c.gamma**2 * lam - s**2 * kbar**2 * lam
        value = (-2.0 * s**2 * kbar * lam / g**2
                 + 2.0 * s * num / g**3
                 - 2.0 * s * lam * (g + s * kbar) / g**2) / (2.0 * prob.mu * c.gamma)
        terms = [2.0 * s**2 * kbar * lam / g**2, 2.0 * c.gamma**2 * s**2 / g**3,
                 6.0 * s * c.D**2 * c.gamma**2 * lam / g**3,
                 2.0 * s**3 * kbar**2 * lam / g**3, 2.0 * s * lam * (g + s * kbar) / g**2]
        return value, sum(np.abs(t) for t in terms) / (2.0 * prob.mu * c.gamma)
    value = c.gamma * s**2 / (prob.mu * g**3)
    return value, np.abs(value)


def _running_slope(s, kbar, prob, c):
    """d(el_rhs)/d(kbar) from the table's w = gamma + lam a: sgn w s^2 / (mu gap^3).

    Over 2 mu, this is the density that the running term's share of J_h's
    Hessian integrates cell by cell (solver._evaluate sums 2 w c s^2 /
    gap^3 over each cell's Gauss points).
    """
    g = c.D * c.gamma - s * kbar
    w, _, _ = solver._coefficients(s, prob, c)
    return prob.direction * w * s**2 / (prob.mu * g**3)


@pytest.mark.parametrize("c", [PhysConsts(), _CUSTOM_CONSTS], ids=["paper", "custom"])
@pytest.mark.parametrize("cost", ["energy", "phase", "work"])
def test_table_reproduces_printed_equations(cost, c):
    # el_rhs and the density of the Newton matrix's running term, formed
    # from the table's coefficients, agree with the hand-written per-cost
    # equations to 4 ulp of their terms
    s = np.linspace(1.0, 5.0, 9)[:, None]
    gap = c.D * c.gamma * np.array([1e-3, 0.01, 0.1, 0.5, 0.9, 1.5])
    s, kbar = np.broadcast_arrays(s, (c.D * c.gamma - gap) / s)
    eps = np.finfo(float).eps
    for lam in (0.0, 0.1, 1.0, 10.0, 1000.0):
        for mu in (1e-3, 0.1, 1.0):
            prob = OptimizationProblem(cost=cost, lam=lam, mu=mu, s_i=1.0, s_f=5.0)
            want, scale = _printed_rhs_terms(cost, s, kbar, prob, c)
            assert np.all(np.abs(el_rhs(s, kbar, prob, c) - want) <= 4.0 * eps * scale)
            want, scale = _printed_rhs_slope(cost, s, kbar, prob, c)
            got = _running_slope(s, kbar, prob, c)
            assert np.all(np.abs(got - want) <= 4.0 * eps * scale), (lam, mu)


@pytest.mark.parametrize("cost,s,mu,want,tol", [
    # bracket: 1.5/0.0625 + 3/0.0625 - 1.5^2*0.25/0.0625 = 63; minus
    # 2*1.5*0.5/0.25 = 6; minus 3; over 2*mu*gamma = 0.2 -> 270
    ("energy", 1.5, 0.1, 270.0, 1e-9),
    ("phase", 1.5, 0.1, (24.0 - 1.0 / 48.0) / 0.2, 1e-9),
    ("work", 1.0, 0.5, 3.0, 1e-12),
], ids=["energy", "phase", "work"])
def test_el_rhs_hand_value(consts, cost, s, mu, want, tol):
    got = el_rhs(s, 0.5, _prob(cost, mu=mu), consts)
    assert got == pytest.approx(want, abs=tol)


def test_rhs_lambda_zero_is_positive(consts):
    s = np.linspace(1.0, 2.0, 17)
    kbar = 0.3 * np.ones(17)
    for cost in LAGRANGIANS:
        vals = el_rhs(s, kbar, _prob(cost, lam=0.0), consts)
        assert np.all(vals > 0.0)


def test_rhs_singular_manifold_raises(consts):
    for cost in LAGRANGIANS:
        with pytest.raises(SingularManifoldError):
            el_rhs(2.0, 0.5, _prob(cost), consts)


def test_rhs_rejects_mu_zero(consts):
    with pytest.raises(ValueError, match="mu"):
        el_rhs(1.5, 0.5, _prob("energy", mu=0.0), consts)


def test_rhs_work_zero_at_flow_balance(consts):
    # gamma s / gap^2 = lam exactly when gap = sqrt(gamma s / lam)
    s = 1.3
    kbar = (1.0 - np.sqrt(s)) / s
    assert el_rhs(s, kbar, _prob("work", mu=0.5), consts) == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# solve quality on the reference family
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("cost,mu", sorted(REFERENCE_DURATIONS))
def test_solution_quality(cache, cost, mu):
    c = cache.c
    res = cache.bvp(cost, mu)
    prob = _prob(cost, mu=mu)
    # boundary nodes pinned to the equilibrium values exactly
    assert res.kbar[0] == 1.0
    assert res.kbar[-1] == 0.5
    assert res.iterations >= 1
    # the Newton decrement of the last iterate is at J_h's rounding
    objective, decrement, _, _ = res.history[-1]
    assert abs(decrement) == abs(res.decrement) <= 8.0 * np.finfo(float).eps * abs(objective)
    # expansion requires a strictly positive gap at interior nodes
    gap = 1.0 - res.s_nodes * res.kbar
    assert np.all(gap[1:-1] > 0.0)
    # the schedule dips below the equilibrium branch, never above
    assert np.all((1.0 / res.s_nodes - res.kbar)[1:-1] > 0.0)
    # frozen regression pin on the produced duration
    assert duration(res.protocol, c) == pytest.approx(
        SOLVED_DURATIONS[(cost, mu)], abs=1e-4)


@pytest.mark.parametrize("cost", ["energy", "phase"])
def test_smoothing_weight_flattens_schedule(cache, cost):
    slopes = []
    for mu in (0.1, 0.5, 1.0):
        p = cache.bvp(cost, mu).protocol
        slopes.append(np.max(np.abs(np.gradient(p.kbar, p.s_nodes, edge_order=2))))
    assert slopes[0] > slopes[1] > slopes[2]
    durs = [duration(cache.bvp(cost, mu).protocol, cache.c)
            for mu in (0.1, 0.5, 1.0)]
    assert durs[0] < durs[1] < durs[2]


def test_solution_independent_of_relaxation(cache, consts, monkeypatch):
    # the converged schedule does not depend on the iteration path: a
    # different starting iterate, with the outer root scaled by 0.15,
    # takes different steps and reaches the same kbar
    # (B^-4 = (Q / P)^2, so Q scaled by 0.15^-2)
    baseline = cache.bvp("phase", 0.5)
    start = solver._start
    monkeypatch.setattr(solver, "_start", lambda grid, P, Q, prob, c: start(
        grid, P, Q / 0.15**2, prob, c))
    redone = solve_bvp(_prob("phase", mu=0.5), consts)
    assert redone.history != baseline.history
    assert np.max(np.abs(redone.kbar - baseline.kbar)) <= 1e-8


def test_work_solution_approaches_closed_form(consts):
    target = analytic_work_optimal(1.0, 1.0, 2.0, consts)[1].duration

    def gap_to_closed(mu):
        res = solve_bvp(_prob("work", mu=mu), consts)
        sn = res.s_nodes
        kb_closed = 1.0 / sn - np.sqrt(1.0 / sn)
        central = (sn >= 1.25) & (sn <= 1.75)
        return (abs(duration(res.protocol, consts) - target),
                np.max(np.abs((res.kbar - kb_closed)[central])))

    d_coarse, k_coarse = gap_to_closed(0.1)
    d_fine, k_fine = gap_to_closed(0.01)
    # smoothing vanishes: both the duration and the central part of the
    # schedule move toward the unsmoothed closed form
    assert d_fine < d_coarse
    assert k_fine < k_coarse
    assert k_fine < 0.05


@pytest.mark.parametrize("case", [("work", 100.0, 1e3, 1.0, 20.0),
                                  ("phase", 1e4, 1e3, 20.0, 1.0),
                                  ("energy", 0.01, 1e3, 1.0, 20.0),
                                  ("energy", 1e4, 1e-8, 20.0, 1.0),
                                  ("phase", 0.01, 1e-8, 1.0, 1.001),
                                  ("work", 1e4, 1e-5, 1.0, 1.001)])
def test_extreme_problems_converge_far_below_the_cap(consts, case):
    # lam from 0.01 to 1e4, mu from 1e-8 to 1e3, a twentyfold expansion and
    # compression and a 0.1 % step: Newton converges in 4 to 8 iterations,
    # a tenth of the cap
    res = solve_bvp(OptimizationProblem(*case), consts)
    assert res.iterations <= 10, case
    assert abs(res.decrement) <= 8.0 * np.finfo(float).eps * abs(res.history[-1][0])


def test_divergent_problem_raises(consts, monkeypatch):
    # a solve that has not converged when its iteration cap runs out; the
    # cap sits below what Newton needs on this (solvable) problem
    prob = OptimizationProblem(cost="energy", lam=10.0, mu=0.001,
                               s_i=1.0, s_f=2.0, n_grid=501)
    needed = solve_bvp(prob, consts).iterations
    assert needed >= 3
    monkeypatch.setattr(solver, "_MAX_ITER", needed - 1)
    with pytest.raises(ConvergenceError) as exc:
        solve_bvp(prob, consts)
    assert exc.value.iterations == needed - 1
    # the full trace travels with the failure, one record per iteration
    assert len(exc.value.history) == needed - 1


def test_line_search_failure_raises_with_its_trace(consts, monkeypatch):
    # an objective that disagrees with the equations Newton solves: its
    # running term carries -Q kbar where the gradient and Hessian carry Q,
    # so the Newton step does not lower it and the line search halves below
    # 1e-12 and gives up (a table entry alone cannot disagree with itself)
    evaluate = solver._evaluate

    def mismatched(g, kbar, grid, terms, prob, c):
        j, grad, diag, off = evaluate(g, kbar, grid, terms, prob, c)
        _, q_trap, _ = terms
        return j - 2.0 * float(np.sum(q_trap * kbar)), grad, diag, off

    monkeypatch.setattr(solver, "_evaluate", mismatched)
    prob = OptimizationProblem(cost="work", lam=10.0, mu=0.1, s_i=1.0, s_f=2.0, n_grid=501)
    with pytest.raises(ConvergenceError, match="line search") as exc:
        solve_bvp(prob, consts)
    # the trace travels with the failure; its last record is the step the
    # line search gave up on, scaled by the last damping tried
    assert exc.value.iterations == len(exc.value.history) >= 1
    _, decrement, step, damping = exc.value.history[-1]
    assert decrement > 0.0 and step > 0.0 and 0.0 < damping < 1e-12


@pytest.mark.parametrize("gamma", [1e6, 1e7])
@pytest.mark.parametrize("cost", ["energy", "phase", "work"])
def test_stiff_units_converge(cost, gamma):
    # |kbar| reaches D gamma = gamma here; the stop reads J_h's relative
    # rounding, so it needs no tolerance in the units of kbar.  With
    # D = 1, gamma enters the equations only through kbar = gamma u,
    # mu' = mu gamma^2 and, for work (ell = -kbar), lam' = lam gamma: the
    # solve is the gamma = 1 solve of those multipliers, scaled
    c = PhysConsts(hbar=1.0, m=0.5, gamma=gamma)
    res = solve_bvp(OptimizationProblem(cost=cost, lam=1.0, mu=0.1, s_i=1.0, s_f=2.0), c)
    unit = solve_bvp(OptimizationProblem(
        cost=cost, lam=gamma if cost == "work" else 1.0, mu=0.1 * gamma**2,
        s_i=1.0, s_f=2.0), PhysConsts(hbar=1.0, m=0.5, gamma=1.0))
    assert res.iterations == unit.iterations <= 12
    assert np.max(np.abs(res.kbar / gamma - unit.kbar)) <= 4.0 * np.finfo(float).eps


@pytest.mark.parametrize("cost,s_i,s_f", [
    ("energy", 1.0, 2.0), ("phase", 1.0, 5.0), ("work", 1.0, 5.0), ("energy", 5.0, 1.0)])
def test_scale_symmetry(consts, cost, s_i, s_f):
    # s = a sigma and kbar = q / a carry the problem (s_i, s_f, lam, mu) onto
    # (a s_i, a s_f, lam a, mu a^4), the phase cost's lam as a^2 (its b and k
    # carry one more 1/s), with every duration times a: gap, running term
    # and penalty density are unchanged per unit sigma, and the graded
    # nodes scale with the endpoints.  The solves agree to their rounding
    # and the Newton stop, with no reference value
    base = OptimizationProblem(cost=cost, lam=1.0, mu=0.1, s_i=s_i, s_f=s_f)
    ref = solve_bvp(base, consts)
    for a in (3.0, 8.0):
        prob = OptimizationProblem(cost=cost, lam=base.lam * a ** (2 if cost == "phase" else 1),
                                   mu=base.mu * a**4, s_i=a * s_i, s_f=a * s_f)
        res = solve_bvp(prob, consts)
        assert res.iterations == ref.iterations
        assert duration(res.protocol, consts) == pytest.approx(
            a * duration(ref.protocol, consts), rel=1e-13)
        assert np.max(np.abs(a * res.kbar - ref.kbar)) <= 1e-10 * np.max(np.abs(ref.kbar))


def test_solution_satisfies_public_el_rhs():
    # the solve and the public el_rhs share one definition of the printed
    # equation: on the returned schedule, kbar'' by three-point differences
    # meets el_rhs away from the ends, and the gap shrinks with the grid,
    # in both orientations, where el_rhs carries the orientation's sign
    for s_i, s_f in ((1.0, 5.0), (5.0, 1.0)):
        for c, cost in itertools.product((PhysConsts(), _CUSTOM_CONSTS),
                                         ("energy", "phase", "work")):
            gaps = []
            for n in (501, 1001, 2001):
                prob = OptimizationProblem(cost=cost, lam=1.0, mu=0.1, s_i=s_i, s_f=s_f,
                                           n_grid=n)
                res = solve_bvp(prob, c)
                s, k = res.s_nodes, res.kbar
                h0, h1 = s[1:-1] - s[:-2], s[2:] - s[1:-1]
                second = 2.0 * (h0 * k[2:] - (h0 + h1) * k[1:-1] + h1 * k[:-2]) / (
                    h0 * h1 * (h0 + h1))
                rhs = el_rhs(s[1:-1], k[1:-1], prob, c)
                inner = np.minimum(np.abs(s[1:-1] - s_i), np.abs(s[1:-1] - s_f)) \
                    >= 0.1 * abs(s_f - s_i)
                gaps.append(np.max(np.abs(second - rhs)[inner]) / np.max(np.abs(rhs[inner])))
            assert gaps[-1] <= 1e-3, (s_i, cost, c)
            assert gaps[1] <= 0.6 * gaps[0] and gaps[2] <= 0.6 * gaps[1], (s_i, cost, c, gaps)


def _perturbed(prob, consts):
    """A feasible schedule off prob's optimum, on its solver grid."""
    kbar = solve_bvp(prob, consts).kbar
    s = _solver_grid(prob.s_i, prob.s_f, prob.n_grid).s
    x = (s - prob.s_i) / (prob.s_f - prob.s_i)
    # pushed away from the manifold, so the schedule stays feasible
    return kbar - prob.direction * 0.05 * np.sin(np.pi * x)


def test_gradient_and_hessian_of_the_discrete_objective(consts):
    # J_h is 2 duration + lam F + mu G on the Ritz trial space, the gap
    # linear in tau^(2/3) in every cell: the w/gap term by the Gauss cells
    # with the gap 0 at both ends, b + k kbar by the trapezoid and G as
    # g_penalty integrates it.  Its analytic
    # gradient and its symmetric tridiagonal Hessian match central
    # differences, in both orientations, at nodes near the ends and inside
    for s_i, s_f in ((1.0, 2.0), (2.0, 1.0)):
        grid = _solver_grid(s_i, s_f, 501)
        s = grid.s
        frac, three_u2, half, _ = analog._cell_geometry(s.tobytes(), True, True)
        for cost in LAGRANGIANS:
            prob = OptimizationProblem(cost=cost, lam=1.0, mu=0.1, s_i=s_i, s_f=s_f,
                                       n_grid=501)
            terms = solver._terms(grid, *solver._coefficients(s, prob, consts))
            lag = LAGRANGIANS[cost]
            w = np.broadcast_to(consts.gamma + lag.a(s, consts), s.shape)

            def objective(k):
                g = consts.D * consts.gamma - s * k
                g[[0, -1]] = 0.0
                gq = g[:-1, None] + np.diff(g)[:, None] * frac
                wq = w[:-1, None] + np.diff(w)[:, None] * frac
                running = np.sum(half * ((three_u2 * wq / gq) @ _GAUSS_W))
                rest = np.trapezoid(lag.b(s, consts) + lag.k(s, consts) * k, s)
                penalty = g_penalty(SGridProtocol(s, k), consts)
                return running + prob.lam * rest + prob.mu * penalty

            def evaluate(k):
                return solver._evaluate(solver._gap(k, grid, prob, consts), k, grid,
                                        terms, prob, consts)

            kbar = _perturbed(prob, consts)
            j_h, grad, diag, off = evaluate(kbar)
            assert j_h == pytest.approx(objective(kbar), rel=1e-13)
            for j in (1, 3, 40, 250, 400, 497, 499):
                h = 1e-4 * abs(consts.D * consts.gamma - s[j] * kbar[j]) / s[j]
                up, down = kbar.copy(), kbar.copy()
                up[j] += h
                down[j] -= h
                central = (evaluate(up)[0] - evaluate(down)[0]) / (2.0 * h)
                # next to a pinned end the gradient is a difference of terms
                # far larger than itself, below what central differences resolve
                if 1 < j < s.size - 2:
                    assert central == pytest.approx(grad[j - 1], rel=2e-5), (s_i, cost, j)
                column = (evaluate(up)[1] - evaluate(down)[1]) / (2.0 * h)
                assert column[j - 1] == pytest.approx(diag[j - 1], rel=2e-5)
                # node j couples to j - 1 and j + 1 through the cells it bounds
                if j > 1:
                    assert column[j - 2] == pytest.approx(off[j - 2], rel=2e-5)
                if j < s.size - 2:
                    assert column[j] == pytest.approx(off[j - 1], rel=2e-5)


@pytest.mark.parametrize("cost,s_i,s_f", [
    ("energy", 1.0, 2.0), ("phase", 1.0, 5.0), ("work", 1.0, 5.0), ("energy", 5.0, 1.0)])
def test_duration_is_the_solvers_duration(consts, cost, s_i, s_f):
    # the first interior node at each end sits on the gap's tau^(2/3) line
    # through the second, so the end exponent analog fits there reads 2/3
    # and the reported duration is the duration J_h integrates, the gap
    # linear in tau^(2/3) in every cell
    prob = OptimizationProblem(cost=cost, lam=10.0, mu=1e-3, s_i=s_i, s_f=s_f)
    res = solve_bvp(prob, consts)
    g = analog.flow_gap(res.protocol, consts)
    for end in (0, -1):
        assert analog._layer_exponent(res.s_nodes, g, end) == pytest.approx(2.0 / 3.0, abs=1e-10)
    grid = _solver_grid(s_i, s_f, prob.n_grid)
    g[[0, -1]] = 0.0
    cells = np.sum(grid.gauss / (g[:-1] + np.diff(g) * grid.shape[1]), axis=0)
    assert duration(res.protocol, consts) == pytest.approx(
        0.5 * consts.gamma * np.sum(cells), rel=1e-12)


def test_reference_solves_converge_quickly(cache):
    # the start iterate carries the tau^(2/3) end layers and the outer
    # root, so Newton runs in its quadratic basin from the first steps
    # (6 iterations or fewer measured; a smooth start needs 20 or more)
    for cost, mu in sorted(REFERENCE_DURATIONS):
        assert cache.bvp(cost, mu).iterations <= 7, (cost, mu)


@pytest.mark.parametrize("cost", ["energy", "phase", "work"])
def test_start_converges_quickly_across_multipliers(consts, cost):
    # the start's interior and end layers come from this cost's own
    # balances, so the count stays flat from lam = 0 to lam = 1000
    # (a lam-blind start with the phase/work layer needed up to 16)
    for lam in (0.0, 10.0, 1000.0):
        for mu in (1e-3, 1.0):
            for s_f in (2.0, 20.0):
                prob = OptimizationProblem(cost=cost, lam=lam, mu=mu,
                                           s_i=1.0, s_f=s_f)
                with warnings.catch_warnings():
                    if lam == 0.0:
                        # lam = 0 has no outer root: no division by zero
                        warnings.simplefilter("error", RuntimeWarning)
                    res = solve_bvp(prob, consts)
                assert res.iterations <= 7, (lam, mu, s_f)


_SMALL_HBAR_CONSTS = PhysConsts(hbar=1e-3, m=7.0, gamma=0.2)


@pytest.mark.parametrize("c", [_CUSTOM_CONSTS, _SMALL_HBAR_CONSTS],
                         ids=["custom", "small-hbar"])
@pytest.mark.parametrize("cost", ["energy", "phase", "work"])
def test_start_converges_in_other_units(cost, c):
    # the outer root carries the units, so the start stays in Newton's
    # basin where a gamma-and-lam-only interior scale is off by orders of
    # magnitude (phase with hbar = 1e-3 trapped against the manifold)
    for lam in (1.0, 100.0):
        for mu in (1e-3, 1.0):
            prob = OptimizationProblem(cost=cost, lam=lam, mu=mu, s_i=1.0, s_f=5.0)
            assert solve_bvp(prob, c).iterations <= 10, (lam, mu)


@pytest.mark.parametrize("c", [PhysConsts(), _CUSTOM_CONSTS],
                         ids=["paper", "custom"])
@pytest.mark.parametrize("cost", ["energy", "phase", "work"])
def test_outer_gap_is_root_of_rhs(cost, c):
    # the start's outer root, g_out^-4 = (Q / P)^2, zeroes P / gap^2 + Q
    s = np.linspace(1.0, 5.0, 9)
    for lam in (0.1, 1.0, 10.0, 1000.0):
        prob = OptimizationProblem(cost=cost, lam=lam, mu=0.1, s_i=1.0, s_f=5.0)
        w, Q, _ = solver._coefficients(s, prob, c)
        g = ((Q / (w * s)) ** 2) ** -0.25
        kbar = (c.D * c.gamma - g) / s
        # the Newton correction to kbar that would zero the right-hand
        # side is a few ulps of the terms kbar is formed from
        correction = el_rhs(s, kbar, prob, c) / _running_slope(s, kbar, prob, c)
        ulp = np.finfo(float).eps * (c.D * c.gamma / s + np.abs(kbar))
        assert np.all(np.abs(correction) <= 4.0 * ulp), lam


def test_outer_gap_of_work_is_closed_form(consts):
    # the work cost's outer root is Schmiedl-Seifert's sqrt(gamma s / lam)
    for lam, s_f in ((0.5, 2.0), (10.0, 5.0), (1000.0, 20.0)):
        closed, _ = analytic_work_optimal(lam, 1.0, s_f, consts, n=101)
        prob = OptimizationProblem(cost="work", lam=lam, mu=0.1, s_i=1.0, s_f=s_f)
        w, Q, _ = solver._coefficients(closed.s_nodes, prob, consts)
        g = ((Q / (w * closed.s_nodes)) ** 2) ** -0.25
        assert np.max(np.abs(g - np.sqrt(consts.gamma * closed.s_nodes / lam))
                      / g) <= 4.0 * np.finfo(float).eps
        kbar = (consts.D * consts.gamma - g) / closed.s_nodes
        assert np.max(np.abs(kbar - closed.kbar)) <= 1e-14 * np.max(np.abs(closed.kbar))


def test_counts_are_read_from_the_trace():
    # iterations is the number of records; each damping is 2^-k, k the
    # halvings of that step, and rejections sums the k exactly
    history = [(3.0, 1.0, 0.5, 1.0), (2.0, 0.5, 0.1, 0.25), (1.5, 1e-16, 1e-13, 2.0**-40)]
    res = BvpResult(protocol=SGridProtocol(np.array([1.0, 1.5, 2.0]), np.ones(3)),
                    history=history)
    assert (res.iterations, res.rejections, res.decrement) == (3, 42, 1e-16)
    err = ConvergenceError("stalled", history=history + [(1.5, np.nan, np.inf, 0.0)])
    assert err.iterations == 4
    assert ConvergenceError("no trace").iterations == 0


def test_fine_grid_converges_at_its_rounding_floor(consts):
    # at n = 8001 J_h reaches its rounding floor while kbar still moves by
    # about 1e-10 per step: the decrement stop takes that last step instead
    # of halving it against an objective that cannot fall
    prob = OptimizationProblem(cost="energy", lam=1.0, mu=0.1, s_i=1.0, s_f=2.0,
                               n_grid=8001)
    res = solve_bvp(prob, consts)
    assert res.iterations <= 6
    assert res.rejections == 0
    coarse = solve_bvp(dataclasses.replace(prob, n_grid=4001), consts)
    assert duration(res.protocol, consts) == pytest.approx(
        duration(coarse.protocol, consts), abs=1e-6)


def test_history_traces_every_iteration(cache):
    res = cache.bvp("phase", 0.5)
    assert len(res.history) == res.iterations
    objective, decrement, steps, damping = (np.array(col) for col in zip(*res.history))
    assert np.all((damping > 0.0) & (damping <= 1.0))
    # every accepted step lowers the objective and the decrement it started from
    assert np.all(np.diff(objective) < 0.0)
    assert np.all(np.diff(decrement) < 0.0)


def test_grid_memo_is_read_only_and_isolated(consts):
    prob = OptimizationProblem(cost="phase", lam=1.0, mu=0.3, s_i=1.0, s_f=3.0, n_grid=301)
    first = solve_bvp(prob, consts)
    grid = solver._solver_grid(prob.s_i, prob.s_f, prob.n_grid)
    for a in grid:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0.0
    # the protocol owns its nodes: writing into them leaves the memo, and
    # the next solve on this grid, as they were
    nodes, kbar = first.s_nodes.copy(), first.kbar.copy()
    first.protocol.s_nodes[:] = 0.0
    again = solve_bvp(prob, consts)
    assert again.s_nodes.tobytes() == nodes.tobytes()
    assert again.kbar.tobytes() == kbar.tobytes()
    assert again.s_nodes is not grid.s and again.s_nodes.flags.writeable


# ---------------------------------------------------------------------------
# tridiagonal solve
# ---------------------------------------------------------------------------

def _spd_system(rng, n):
    # assembled as J_h's Hessians are, from a positive definite 2 x 2 block
    # per cell with a coupling of either sign, the end cells' outer nodes
    # pinned; cell sizes spread over decades, so rows need not be dominant
    scale = 10.0 ** rng.uniform(-3.0, 3.0, n + 1)
    a, b = scale * rng.uniform(0.5, 2.0, n + 1), scale * rng.uniform(0.5, 2.0, n + 1)
    c = rng.choice([-1.0, 1.0], n + 1) * np.sqrt(a * b) * rng.uniform(0.0, 0.99, n + 1)
    # cell i joins nodes i - 1 and i; nodes -1 and n are pinned
    diag = b[:-1] + a[1:]
    return diag, c[1:-1]


def test_solve_tridiagonal_matches_dense():
    # odd and even sizes, on both sides of the hand-over to the Thomas sweep
    rng = np.random.default_rng(11)
    sizes = list(range(1, 141)) + [1023, 1024, 1025]
    assert sizes[0] <= _DIRECT_SIZE < sizes[-1]
    dominant = []
    for n in sizes:
        diag, off = _spd_system(rng, n)
        dense = np.diag(diag) + np.diag(off, -1) + np.diag(off, 1)
        # cholesky raises exactly when the matrix is not positive definite
        np.linalg.cholesky(dense)
        rows = np.abs(np.concatenate(([0.0], off))) + np.abs(np.concatenate((off, [0.0])))
        dominant.append(np.all(diag > rows))
        rhs = rng.normal(size=n)
        x = _solve_tridiagonal(diag, off, rhs)
        assert x.shape == (n,)
        scaled = np.max(np.abs(dense @ x - rhs)) / (
            np.max(np.abs(dense)) * np.max(np.abs(x)) + np.max(np.abs(rhs)))
        assert scaled <= 1e-14, n
        want = np.linalg.solve(dense, rhs)
        assert np.max(np.abs(x - want)) <= 1e-12 * np.max(np.abs(want)), n
    # the draws reach systems without diagonal dominance
    assert not all(dominant)


def _padded_reduction(diag, off, rhs):
    """The reduction in its iterative form: padding with decoupled rows to
    q 2^L - 1 rows, a stack of levels and a zero-padded back-substitution."""
    n = np.size(rhs)
    levels = 0
    while n + 1 > (_DIRECT_SIZE + 1) * 2**levels:
        levels += 1
    block = 2**levels
    size = block * -(-(n + 1) // block) - 1
    C, b, d = np.zeros(size), np.ones(size), np.zeros(size)
    np.negative(off, out=C[:n - 1])
    b[:n] = diag
    d[:n] = rhs
    stack = []
    for _ in range(levels):
        stack.append((C, b, d))
        Ce, be, de = C[0::2], b[0::2], d[0::2]
        left = Ce[:-1] / be[:-1]
        right = C[1::2] / be[1:]
        C, b, d = (right * Ce[1:],
                   b[1::2] - left * Ce[:-1] - right * C[1::2],
                   d[1::2] + left * de[:-1] + right * de[1:])
    C, b, d = C.tolist(), b.tolist(), d.tolist()
    for i in range(1, len(b)):
        w = C[i - 1] / b[i - 1]
        b[i] -= w * C[i - 1]
        d[i] += w * d[i - 1]
    x = [0.0] * len(b)
    x[-1] = d[-1] / b[-1]
    for i in range(len(b) - 2, -1, -1):
        x[i] = (d[i] + C[i] * x[i + 1]) / b[i]
    for C, b, d in reversed(stack):
        p = np.zeros(b.size + 2)
        p[2:-1:2] = x
        outer = p[0::2]
        left = np.concatenate(([0.0], C[1::2]))
        p[1::2] = (d[0::2] + left * outer[:-1] + C[0::2] * outer[1:]) / b[0::2]
        x = p[1:-1]
    return np.asarray(x)[:n]


def test_recursion_is_the_padded_reduction_to_the_bit():
    # a decoupled row's products are exact zeros, so one parity row per
    # level leaves the coupled rows the arithmetic that padding to q 2^L - 1
    # rows gives them; 1997 is the solver's own size on the default grid
    rng = np.random.default_rng(12)
    for n in [*range(1, 141), 1023, 1024, 1025, 1997, 2400]:
        diag, off = _spd_system(rng, n)
        rhs = rng.normal(size=n)
        assert same_bits(_solve_tridiagonal(diag, off, rhs),
                         _padded_reduction(diag, off, rhs)), n


def test_newton_jacobians_diagonally_dominant(consts, monkeypatch):
    # cyclic reduction does not pivot; it is stable because every Hessian
    # Newton hands it is positive definite.  On the Hessians the solves
    # actually form, every row is strictly diagonally dominant as well
    margins = []

    def checked(diag, off, rhs):
        right = np.abs(np.concatenate((off, [0.0])))
        rows = right + np.concatenate(([0.0], right[:-1]))
        margins.append(float(np.min((diag - rows) / rows)))
        return _solve_tridiagonal(diag, off, rhs)

    monkeypatch.setattr(solver, "_solve_tridiagonal", checked)
    problems = [_prob(cost, mu=mu) for cost, mu in sorted(REFERENCE_DURATIONS)]
    problems.append(OptimizationProblem(cost="energy", lam=10.0, mu=1e-3,
                                        s_i=1.0, s_f=5.0))
    # compressions: the orientation's sign keeps the running term positive
    problems += [OptimizationProblem(cost=cost, lam=lam, mu=0.1, s_i=2.0, s_f=1.0)
                 for cost in ("energy", "phase", "work") for lam in (1.0, 10.0)]
    for prob in problems:
        margins.clear()
        res = solve_bvp(prob, consts)
        assert len(margins) == res.iterations
        assert min(margins) > 0.0, (prob.cost, prob.lam, prob.mu, prob.s_f)


@pytest.mark.parametrize("c", [PhysConsts(), _CUSTOM_CONSTS], ids=["paper", "custom"])
@pytest.mark.parametrize("cost", ["energy", "phase", "work"])
def test_lagrangians_keep_the_objective_convex(cost, c):
    # a(s) >= 0 and Q = lam k < 0 for every entry: lam d^2(ell)/d(kbar)^2 =
    # 2 lam a s^2 / gap^3 then has the sign of the orientation at every
    # feasible point, so every cell's w/gap term is convex in its two gaps
    # and J_h's Hessian is positive definite at random feasible iterates,
    # in both orientations
    rng = np.random.default_rng(5)
    entry = LAGRANGIANS[cost]
    for s_i, s_f in ((1.0, 5.0), (5.0, 1.0)):
        grid = _solver_grid(s_i, s_f, 201)
        s = rng.uniform(1.0, 5.0, 200)
        a = np.broadcast_to(entry.a(s, c), s.shape)
        assert np.all(a >= 0.0)
        for lam in (1e-3, 1.0, 1e3):
            prob = OptimizationProblem(cost=cost, lam=lam, mu=0.1, s_i=s_i, s_f=s_f)
            _, Q, _ = solver._coefficients(s, prob, c)
            assert np.all(np.broadcast_to(Q, s.shape) < 0.0)
            gap = prob.direction * c.D * c.gamma * rng.uniform(1e-4, 3.0, s.size)
            d2l = 2.0 * lam * a * s**2 / gap**3
            assert np.all(prob.direction * d2l >= 0.0)
            kbar = (c.D * c.gamma - gap) / s
            assert np.all(_running_slope(s, kbar, prob, c) > 0.0), (lam, s_i)
            g = np.zeros(grid.s.size)
            g[1:-1] = prob.direction * c.D * c.gamma * rng.uniform(1e-4, 3.0, g.size - 2)
            k = (c.D * c.gamma - g) / grid.s
            terms = solver._terms(grid, *solver._coefficients(grid.s, prob, c))
            _, _, diag, off = solver._evaluate(g, k, grid, terms, prob, c)
            hessian = np.diag(diag) + np.diag(off, -1) + np.diag(off, 1)
            assert np.min(np.linalg.eigvalsh(hessian)) > 0.0, (lam, s_i)


# ---------------------------------------------------------------------------
# closed-form minimum-work schedule
# ---------------------------------------------------------------------------

def test_work_bundle_views_consistent(consts):
    p, emitted = analytic_work_optimal(1.0, 1.0, 2.0, consts)
    assert isinstance(p, SGridProtocol)
    assert isinstance(emitted, TimeDomainProtocols)
    assert p.direction == 1.0
    assert emitted.classical.kind == "classical"
    assert emitted.quantum.kind == "quantum"
    # the emission is the node table: the schedule's nodes at the times
    # where the closed-form path s(t) = (1 + t)^2 passes through them
    t = emitted.classical.t_nodes
    assert np.array_equal(emitted.s, p.s_nodes)
    assert np.array_equal(emitted.classical.values, p.kbar)
    assert np.max(np.abs((1.0 + t) ** 2 - emitted.s)) <= 1e-6
    assert t[-1] == pytest.approx(np.sqrt(2.0) - 1.0, rel=1e-12)


def test_work_bundle_compression_direction(consts):
    p, emitted = analytic_work_optimal(1.0, 2.0, 1.0, consts)
    assert p.direction == -1.0
    assert np.all(np.diff(emitted.s) < 0.0)
    assert emitted.duration == pytest.approx(np.sqrt(2.0) - 1.0, abs=1e-12)


def test_work_bundle_validation(consts):
    with pytest.raises(ValueError):
        analytic_work_optimal(0.0, 1.0, 2.0, consts)
    with pytest.raises(ValueError):
        analytic_work_optimal(1.0, 1.0, 1.0, consts)
    with pytest.raises(ValueError):
        analytic_work_optimal(1.0, 1.0, 2.0, consts, n=2)

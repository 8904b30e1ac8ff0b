"""Variational schedule synthesis: Euler-Lagrange boundary-value solves.

The duration/cost trade-off is posed on the variance axis: find kbar(s)
between the equilibrium endpoint values kbar(s_i) = D*gamma/s_i and
kbar(s_f) = D*gamma/s_f minimizing J = 2 duration + lam F + mu G, the
objective costs.j_total reports:

    J = integral of (gamma/gap + lam ell(s, kbar)) ds + mu integral of (dkbar/ds)^2 |ds|

from s_i to s_f, gap = D*gamma - s*kbar, ell = a(s)/gap + b(s) + k(s) kbar
the cost's Lagrangian, derived from its time integrand in
swifttrap.costs.LAGRANGIANS.  The running term is w/gap + R + Q kbar with
w = gamma + lam a, Q = lam k and R = lam b, all functions of s alone, and
stationarity (Gelfand & Fomin, Calculus of Variations, 1963) gives one
two-point boundary problem for every cost,

    2 mu kbar'' = sgn (w s / gap^2 + Q),

sgn = sign(s_f - s_i); el_rhs evaluates its right-hand side over 2 mu.

At an equilibrium-pinned end the gap grows like C tau^(2/3),
tau = |s - s_end|, followed by tau^(4/3) ln(tau) terms.  The nodes are
graded like tau ~ xi^3 toward both ends (xi uniform, interior spacing
within 16 percent of uniform), and J is discretized by the Ritz method
(Strang & Fix, An Analysis of the Finite Element Method, 1973) on the cell
model of analog's fitted cells: the gap linear in phi = tau^(2/3) of the
nearer end in every cell, 0 at both ends, and kbar = (D gamma - gap) / s.
w/gap is the 4-point Gauss rule of analog._cell_geometry, b + k kbar the
trapezoid of costs._integral, and G the same Gauss rule, one quadratic
form in the two gaps per cell (costs.g_penalty).  The first interior node
at each end is tied to the second (_tie), so the end exponent analog fits
there reads 2/3.  J_h is thus the J that j_total reports on the solved
schedule, to rounding (Hager, Numer. Math. 87, 247 (2000)), and duration,
F and G refine at second order.

solve_bvp is Newton's method on J_h with backtracking, stopped by the
Newton decrement (Boyd & Vandenberghe, Convex Optimization, 2004, section
9.5), one path with no per-call options; each step solves H delta =
-grad J_h with J_h's gradient and symmetric tridiagonal Hessian H, formed
in closed form with J_h in one pass over the cells (_evaluate), and the
module constant _MAX_ITER (100), read at call time, caps the iterations:
the solves of a grid of extreme problems (every cost, lam from 0.01 to
1e4, mu from 1e-8 to 1e3, expansion, compression and s_f/s_i = 1.001)
take 4 to 8, so a solve that cannot converge fails within milliseconds.
Every cost has A(s) >= 0, so a >= 0, w > 0 and each cell's w/gap is
convex in its two gaps where sgn gap > 0: J_h is strictly convex on the
feasible set and rises to +inf at the manifold D*gamma = s*kbar, so each
problem with mu > 0 has one discrete minimizer in either orientation.
The start (_start) blends the two leading balances of the right-hand
side: the outer (mu -> 0) root g_out^-4 = (Q / P)^2, P = w s (for work
the Schmiedl-Seifert optimum of analytic_work_optimal), and the end layer
gap ~ C tau^(2/3), C^3 = (9/2) s P / (2 mu), so Newton runs in its
quadratic basin from the first steps.  Each step's system is solved by
odd-even cyclic reduction in numpy (_solve_tridiagonal), without
pivoting: H is symmetric positive definite on the feasible set.

What depends on the grid (s_i, s_f, n) alone is memoized by
_solver_grid, a functools.lru_cache of at most 16 grids (about 0.5 MB
each at n = 2001), so a mu sweep on one endpoint pair builds it once; the
arrays are read-only, and each BvpResult owns a copy of its nodes.

The work cost with mu = 0 has a closed-form optimum (no smoothing, free
endpoint jumps).  `analytic_work_optimal` returns it as the pair every
solved optimum comes as, an SGridProtocol and its TimeDomainProtocols,
and doubles as an oracle for the numerical machinery.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .analog import _GAUSS_W, TimeDomainProtocols, _cell_geometry, _kappa
from .costs import LAGRANGIANS
from .errors import ConvergenceError, SingularManifoldError
from .model import OptimizationProblem, PhysConsts, SGridProtocol, TimeProtocol

__all__ = [
    "BvpResult",
    "analytic_work_optimal",
    "el_rhs",
    "solve_bvp",
]


def _coefficients(s, prob: OptimizationProblem, c: PhysConsts):
    """w = gamma + lam a, Q = lam k and R = lam b of prob.cost at s."""
    lag = LAGRANGIANS[prob.cost]
    return (c.gamma + prob.lam * lag.a(s, c), prob.lam * lag.k(s, c),
            prob.lam * lag.b(s, c))


def el_rhs(s, kbar, prob: OptimizationProblem, c: PhysConsts):
    """kbar'' demanded by stationarity: sgn (w s / gap^2 + Q) / (2 mu).

    sgn = sign(s_f - s_i): the running terms integrate along the schedule,
    the penalty over |ds|.  w = gamma + lam a and Q = lam k come from
    prob.cost's Lagrangian (swifttrap.costs.LAGRANGIANS).  Only valid for
    mu > 0; the mu = 0 work optimum is analytic_work_optimal.
    """
    if prob.mu == 0.0:
        raise ValueError("mu = 0 has no smoothing term; the EL equation degenerates")
    s = np.asarray(s, dtype=float)
    kbar = np.asarray(kbar, dtype=float)
    g = c.D * c.gamma - s * kbar
    if np.any(g == 0.0):
        raise SingularManifoldError(
            "evaluation on the singular manifold D*gamma = s*kbar")
    w, Q, _ = _coefficients(s, prob, c)
    out = prob.direction * (w * s / g**2 + Q) / (2.0 * prob.mu)
    return float(out) if out.ndim == 0 else out


def _start(grid, P, Q, prob, c):
    """The initial iterate: gap (L^-4 + B^-4)^(-1/4) at the interior nodes.

    P = w s and Q at the interior nodes.  L = C tau^(2/3) is the end layer,
    where kbar'' balances P / (2 mu gap^2) alone, C^3 = (9/2) s P / (2 mu);
    B is the outer root of P / gap^2 + Q, B^-4 = (Q / P)^2, so that lam = 0
    (Q = 0) gives gap = L.
    """
    s_int = grid.s[1:-1]
    layer = np.cbrt(4.5 * s_int * P / (2.0 * prob.mu) * grid.tau**2)
    gap0 = (layer**-4 + (Q / P) ** 2) ** -0.25
    Dg = c.D * c.gamma
    kbar = np.empty(grid.s.size)
    kbar[0], kbar[-1] = Dg / prob.s_i, Dg / prob.s_f
    kbar[1:-1] = (Dg - prob.direction * gap0) / s_int
    return kbar


@dataclass
class BvpResult:
    """Converged schedule plus solve diagnostics.

    history holds one (objective, decrement, step, damping) record per
    Newton iteration: J_h and the Newton decrement -grad J_h . delta of the
    iterate the step left from, the largest |change of kbar| the step
    made, and the factor 2^-k the line search scaled it by.  iterations,
    rejections (the k, summed) and decrement (the last record's, at most
    8 eps |J_h| when converged) are read from it.
    """

    protocol: SGridProtocol
    history: list[tuple[float, float, float, float]]

    @property
    def iterations(self) -> int:
        return len(self.history)

    @property
    def rejections(self) -> int:
        return int(sum(-math.log2(damping) for *_, damping in self.history
                       if damping > 0.0))

    @property
    def decrement(self) -> float:
        return self.history[-1][1]

    @property
    def kbar(self) -> np.ndarray:
        return self.protocol.kbar

    @property
    def s_nodes(self) -> np.ndarray:
        return self.protocol.s_nodes


# iteration cap, about ten times the most a solve has been seen to take
_MAX_ITER = 100

# width of the end regions in which the node map grades like tau ~ xi^3
_LAYER_WIDTH = 0.05


def _graded_nodes(s_i: float, s_f: float, n: int) -> np.ndarray:
    """n nodes from s_i to s_f, graded toward both ends.

    The node map s = s_i + (s_f - s_i) P(xi) over uniform xi has
    P'(xi) proportional to r(xi) r(1 - xi), r(x) = x^2 / (x^2 + d^2) with
    d = _LAYER_WIDTH, integrated in closed form.  Within about d of either
    end the distance to that end grows like xi^3, which resolves the
    |s - s_end|^(2/3) boundary layers of pinned schedules; the interior
    spacing stays within 16 percent of uniform.  Each half is measured
    from its own end, so the map is exactly symmetric.
    """
    d = _LAYER_WIDTH
    beta = 1.0 / (1.0 + 4.0 * d * d)

    def antiderivative(x):
        return (x - (d - d**3 * beta) * (np.arctan(x / d) - np.arctan((1.0 - x) / d))
                + d**4 * beta * np.log((x * x + d * d) / ((1.0 - x) ** 2 + d * d)))

    xi = np.linspace(0.0, 1.0, n)
    near = np.minimum(xi, 1.0 - xi)
    p0 = antiderivative(0.0)
    frac = (antiderivative(near) - p0) / (antiderivative(1.0) - p0)
    span = s_f - s_i
    s = np.where(xi <= 0.5, s_i + span * frac, s_f - span * frac)
    s[0], s[-1] = s_i, s_f
    return s


# largest system that cyclic reduction hands over to a Thomas sweep
_DIRECT_SIZE = 64


def _solve_tridiagonal(diag, off, rhs):
    """Solve off[i-1] x[i-1] + diag[i] x[i] + off[i] x[i+1] = rhs[i].

    The system is symmetric; the reduction carries the couplings C = -off.
    Odd-even cyclic reduction (Hockney, J. ACM 12, 95 (1965)) eliminates
    the even-indexed rows, halving the system, until at most _DIRECT_SIZE
    unknowns remain for a Thomas sweep; back-substitution recovers each
    level.  Padding with decoupled rows x = 0 to a size q 2^L - 1 gives
    every level odd size, so each level is a few whole-array operations
    on one coupling array (a Schur complement stays symmetric), its
    diagonal b and right-hand side d.

    Neither stage pivots: both are Gaussian elimination on a symmetric
    permutation of the matrix, which is stable without pivoting when the
    matrix is positive definite.  J_h's Hessians are, on feasible
    schedules: every cell adds a positive semidefinite block of its w/gap
    term (sum_q c w / gap^3 times outer products of the shape functions)
    and of its penalty (a sum of squares), definite with both ends pinned.
    """
    n = np.size(rhs)
    levels = 0
    while n + 1 > (_DIRECT_SIZE + 1) * 2**levels:
        levels += 1
    block = 2**levels
    size = block * -(-(n + 1) // block) - 1
    # C = -off: row i reads diag[i] x[i] - C[i-1] x[i-1] - C[i] x[i+1]
    C, b, d = np.zeros(size), np.ones(size), np.zeros(size)
    np.negative(off, out=C[:n - 1])
    b[:n] = diag
    d[:n] = rhs

    stack = []
    for _ in range(levels):
        stack.append((C, b, d))
        Ce, be, de = C[0::2], b[0::2], d[0::2]
        # row 2i + 1 couples to row 2i through C[2i], to 2i + 2 through C[2i + 1]
        left = Ce[:-1] / be[:-1]
        right = C[1::2] / be[1:]
        C, b, d = (right * Ce[1:],
                   b[1::2] - left * Ce[:-1] - right * C[1::2],
                   d[1::2] + left * de[:-1] + right * de[1:])

    # Thomas sweep on the remaining system
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
        # p[1 + i] = x[i], with x = 0 just outside both ends
        p = np.zeros(b.size + 2)
        p[2:-1:2] = x
        outer = p[0::2]
        # row 2i couples to row 2i - 1 through C[2i - 1] (row 0 to none)
        left = np.concatenate(([0.0], C[1::2]))
        p[1::2] = (d[0::2] + left * outer[:-1] + C[0::2] * outer[1:]) / b[0::2]
        x = p[1:-1]
    return np.asarray(x)[:n]


class _SolverGrid(NamedTuple):
    """What solve_bvp needs of (s_i, s_f, n) alone; 4 rows per Gauss point."""

    s: np.ndarray             # graded nodes
    tau: np.ndarray           # distance of each interior node to the nearer end
    tie: np.ndarray           # phi[1] / phi[2] and phi[-2] / phi[-3], phi = tau^(2/3)
    chain: np.ndarray         # d kbar[1] / d kbar[2] and d kbar[-2] / d kbar[-3] under the tie
    shape: np.ndarray         # (2, 4, n - 1): the shape functions 1 - f and f of each cell
    shape2: np.ndarray        # (3, 4, n - 1): 2 (1 - f)^2, 2 (1 - f) f and 2 f^2
    gauss: np.ndarray         # Gauss weights c of the running term, signed like ds
    penalty: np.ndarray       # (3, n - 1): sum_q beta^2, beta gamma and gamma^2 per cell
    curvature: np.ndarray     # (3, n - 1): the penalty's second derivatives in g_a, g_b over 2
    trap: np.ndarray          # trapezoid weight of each node, signed like ds


# grids kept by _solver_grid; a sweep or a lam search stays on one or a few
_GRID_MEMO_SIZE = 16


@functools.lru_cache(maxsize=_GRID_MEMO_SIZE)
def _solver_grid(s_i: float, s_f: float, n: int) -> _SolverGrid:
    """Nodes and cell geometry of one grid, both ends pinned, read-only.

    The geometry comes from analog._cell_geometry, so the schedules solved
    on the grid find that memo's entry too.
    """
    s = _graded_nodes(s_i, s_f, n)
    frac, three_u2, half, penalty = _cell_geometry(s.tobytes(), True, True)
    f = np.ascontiguousarray(frac.T)
    ds = np.diff(s)
    s_int = s[1:-1]
    tau = np.abs(s[[1, 2, -2, -3]] - s[[0, 0, -1, -1]])  # as _layer_exponent reads them
    tie = np.array([tau[0] / tau[1], tau[2] / tau[3]]) ** (2.0 / 3.0)
    b2, bg, g2 = penalty
    grid = _SolverGrid(
        s=s, tau=np.minimum(np.abs(s_int - s_i), np.abs(s_int - s_f)),
        tie=tie, chain=tie * s[[2, -3]] / s[[1, -2]],
        shape=np.stack((1.0 - f, f)),
        shape2=2.0 * np.stack(((1.0 - f) ** 2, (1.0 - f) * f, f * f)),
        gauss=(half[:, None] * three_u2 * _GAUSS_W).T.copy(),
        penalty=penalty,
        curvature=np.stack((b2 + 2.0 * bg + g2, -(b2 + bg), b2)),
        trap=0.5 * np.concatenate(([ds[0]], ds[:-1] + ds[1:], [ds[-1]])))
    for a in grid:
        a.flags.writeable = False
    return grid


def _tie(kbar, grid, c):
    """Set the gap at node 1 (and n - 2) to grid.tie times the next, in place.

    The gap is then linear in tau^(2/3) across both end cells, so the end
    exponent analog fits there reads 2/3, the power J_h integrates with.
    """
    s, Dg = grid.s, c.D * c.gamma
    kbar[1] = (Dg - grid.tie[0] * (Dg - s[2] * kbar[2])) / s[1]
    kbar[-2] = (Dg - grid.tie[1] * (Dg - s[-3] * kbar[-3])) / s[-2]


def _gap(kbar, grid, prob, c):
    """The gap of kbar, 0 at the pinned ends, or None when kbar is infeasible."""
    g = np.zeros(kbar.size)
    g[1:-1] = c.D * c.gamma - grid.s[1:-1] * kbar[1:-1]
    return g if (g[1:-1] * prob.direction).min() > 0.0 else None


def _evaluate(g, kbar, grid, terms, prob, c):
    """J_h at kbar, its gradient, and its Hessian's diagonal and off-diagonal.

    The derivatives treat every interior node as free.  g is kbar's gap
    (_gap); terms = (wc, qt, r) is what the cost fixes per solve (_terms).
    With g_q = g_a + (g_b - g_a) f at the Gauss points, a cell's running
    term is sum_q w c / g_q, its g-gradient -sum_q w c (1 - f, f) / g_q^2
    and its g-Hessian 2 sum_q w c / g_q^3 times the products of 1 - f and
    f.  Its penalty is the form b2 dg^2 + 2 bg dg e + g2 e^2 of
    grid.penalty, dg = g_b - g_a, e = D gamma - g_a.  dg_j = -s_j dkbar_j
    carries both to kbar.  J_h's sums are numpy's pairwise sums over
    product arrays, which keep its rounding near eps |J_h|, the slack of
    solve_bvp's stop.
    """
    wc, qt, r = terms
    dg = np.diff(g)
    e = c.D * c.gamma - g[:-1]
    rec = dg * grid.shape[1]
    rec += g[:-1]
    np.reciprocal(rec, out=rec)
    v = wc * rec
    b2, bg, g2 = grid.penalty
    # half the penalty's derivatives in dg and e
    pd, pe = dg * b2 + e * bg, dg * bg + e * g2
    j = float(v.sum() + (qt * kbar).sum() + prob.mu * (dg * pd + e * pe).sum()) + r
    two_mu = 2.0 * prob.mu
    v *= rec
    left, right = np.einsum("qc,kqc->kc", v, grid.shape)
    v *= rec
    h = np.einsum("qc,kqc->kc", v, grid.shape2)
    h += two_mu * grid.curvature
    # dJ_h/dg at each cell's left and right node, negated
    left += two_mu * (pd + pe)
    right -= two_mu * pd
    right[:-1] += left[1:]
    s = grid.s[1:-1]
    grad = s * right[:-1]
    grad += qt[1:-1]
    h[2, :-1] += h[0, 1:]
    diag = s * s * h[2, :-1]
    off = s[:-1] * s[1:] * h[1, 1:-1]
    return j, grad, diag, off


def _tied(at, grid):
    """_evaluate's derivatives in the free nodes 2 .. n - 3 under _tie.

    Node 1 moves by rho = grid.chain times node 2, which folds its row in.
    """
    j, grad, diag, off = at
    for end, nxt, rho in zip((0, -1), (1, -2), grid.chain.tolist()):
        grad[nxt] += rho * grad[end]
        diag[nxt] += rho * (2.0 * off[end] + rho * diag[end])
    return j, grad[1:-1], diag[1:-1], off[1:-1]


def _terms(grid, w, Q, R):
    """What the cost's w, Q and R on grid fix for _evaluate: (w c, Q trap, trap of R)."""
    if np.ndim(w):
        w = w[:-1] + np.diff(w) * grid.shape[1]
    return grid.gauss * w, Q * grid.trap, float(np.sum(R * grid.trap))


def solve_bvp(prob: OptimizationProblem, c: PhysConsts) -> BvpResult:
    """Solve the Euler-Lagrange boundary problem for prob.cost.

    prob.n_grid nodes from s_i to s_f (_graded_nodes), both ends pinned to
    the equilibrium stiffness, J discretized by the Ritz method (module
    docstring) with node 1 and n - 2 tied (_tie).  The coefficients depend
    on s alone and are formed once; _start builds the first iterate.

    Newton's method on J_h: each iterate is evaluated once (_evaluate), and
    each step solves H delta = -grad J_h by one _solve_tridiagonal call.
    A step is halved until it stays feasible and
    J_h(new) <= J_h + 1e-4 r grad J_h . delta + 8 eps |J_h|, r the damping;
    once the decrement |grad J_h . delta| is at most 8 eps |J_h|, the
    feasible full step is taken and the solve stops.  Raises
    ConvergenceError, with the trace, when the start is infeasible, a step
    is not finite, the line search halves below 1e-12, or _MAX_ITER
    iterations are reached.
    """
    if prob.mu == 0.0:
        raise ValueError("mu = 0 is only solvable for the work cost, in closed form; "
                         "use analytic_work_optimal")
    grid = _solver_grid(prob.s_i, prob.s_f, prob.n_grid)
    w, Q, R = _coefficients(grid.s, prob, c)
    terms = _terms(grid, w, Q, R)
    kbar = _start(grid, (w * grid.s)[1:-1], Q[1:-1] if np.ndim(Q) else Q, prob, c)
    _tie(kbar, grid, c)
    g = _gap(kbar, grid, prob, c)
    if g is None:
        raise ConvergenceError("initial iterate is infeasible")
    j, grad, diag, off = _tied(_evaluate(g, kbar, grid, terms, prob, c), grid)

    history: list[tuple[float, float, float, float]] = []
    while True:
        if len(history) >= _MAX_ITER:
            raise ConvergenceError(f"no convergence within {_MAX_ITER} iterations "
                                   f"(last step {history[-1][2]:.3e})", history=history)
        delta = _solve_tridiagonal(diag, off, -grad)
        step = float(np.max(np.abs(delta)))
        # Newton decrement -grad J_h . delta
        decrement = -float(np.sum(grad * delta))
        if not np.isfinite(step):
            # recorded with damping 0: the step was not taken
            history.append((j, decrement, step, 0.0))
            raise ConvergenceError("Newton step blew up", history=history)
        slack = 8.0 * np.finfo(float).eps * abs(j)
        # a full step that cannot lower J_h by more than its rounding is
        # the last one, taken as it is when feasible
        last = abs(decrement) <= slack
        r = 1.0
        while True:
            cand = kbar.copy()
            cand[2:-2] += r * delta
            _tie(cand, grid, c)
            g = _gap(cand, grid, prob, c)
            if g is not None:
                if last:
                    break
                at = _evaluate(g, cand, grid, terms, prob, c)
                if at[0] <= j - 1.0e-4 * r * decrement + slack:
                    break
            last = False
            r *= 0.5
            if r < 1e-12:
                history.append((j, decrement, r * step, r))
                raise ConvergenceError(f"line search cannot lower J_h (decrement "
                                       f"{decrement:.3e} after {len(history)} iterations)",
                                       history=history)
        history.append((j, decrement, r * step, r))
        kbar = cand
        if last:
            break
        j, grad, diag, off = _tied(at, grid)

    return BvpResult(protocol=SGridProtocol(grid.s.copy(), kbar), history=history)


# ---------------------------------------------------------------------------
# closed-form work optimum (mu = 0)
# ---------------------------------------------------------------------------

def analytic_work_optimal(lam: float, s_i: float, s_f: float, c: PhysConsts,
                          n: int = 2001) -> tuple[SGridProtocol, TimeDomainProtocols]:
    """Closed-form minimum-work schedule between variances s_i and s_f.

    Returns the schedule on n uniform s-nodes and its emission, the pair
    solve_bvp and to_time_domain give: the node table, each node at its
    closed-form time t = sqrt(gamma lam) |sqrt(s) - sqrt(s_i)|.  The
    optimality condition (Schmiedl & Seifert, PRL 98, 108301 (2007)) pins
    s kbar(s) = D gamma - sign sqrt(gamma s / lam), sign = sign(s_f - s_i),
    so the flow always moves toward the target; the endpoints jump away
    from equilibrium.  The variance path is
    s(t) = (sqrt(s_i) + sign t / sqrt(gamma lam))^2 and the duration is
    sqrt(gamma lam) |sqrt(s_f) - sqrt(s_i)|.  The quantum image collapses
    to kappa(s) = m D^2 / s^2, so as a schedule of rescaled time
    t / duration, kappa is independent of lam.  kappa is evaluated by
    substituting the closed-form kbar(s) and its analytic derivative into
    the s-domain map, so that collapse is exercised rather than assumed.
    """
    if lam <= 0.0 or not np.isfinite(lam):
        raise ValueError("lam must be positive")
    if s_i <= 0.0 or s_f <= 0.0 or s_i == s_f:
        raise ValueError("endpoint variances must be positive and distinct")
    if n < 3:
        raise ValueError("need at least 3 samples")
    sign = 1.0 if s_f > s_i else -1.0
    root_gl = np.sqrt(c.gamma * lam)

    def kbar_of(s):
        return c.D * c.gamma / s - sign * np.sqrt(c.gamma / (lam * s))

    def kappa_of(s):
        kbp = -c.D * c.gamma / s**2 + sign * 0.5 * np.sqrt(c.gamma / lam) * s**-1.5
        gap = sign * np.sqrt(c.gamma * s / lam)
        return _kappa(s, kbar_of(s), (2.0 * c.m / c.gamma**2) * gap * kbp, c)

    s = np.linspace(s_i, s_f, n)
    # linspace stores its stop as the last node, so the emission's
    # duration is the closed form exactly
    t = root_gl * np.abs(np.sqrt(s) - np.sqrt(s_i))
    emitted = TimeDomainProtocols(
        classical=TimeProtocol(t, kbar_of(s), "classical"),
        quantum=TimeProtocol(t, kappa_of(s), "quantum"), s=s)
    return SGridProtocol(s, kbar_of(s)), emitted

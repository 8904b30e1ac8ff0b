"""Variational schedule synthesis: Euler-Lagrange boundary-value solves.

The duration/cost trade-off is posed on the variance axis: find kbar(s)
between the equilibrium endpoint values kbar(s_i) = D*gamma/s_i and
kbar(s_f) = D*gamma/s_f minimizing the integral of
gamma/gap + lam ell(s, kbar) from s_i to s_f plus mu (dkbar/ds)^2 over
|ds|, gap = D*gamma - s*kbar.  The first term integrates to twice the
duration; ell = a(s)/gap + b(s) + k(s) kbar is the cost's Lagrangian,
its coefficients given by swifttrap.costs.LAGRANGIANS, and its integral
is the F that j_total reports (j_total counts the duration once).  The
running term is then P/(s gap) + R + Q kbar with

    P = (gamma + lam a) s,   Q = lam k,   R = lam b,

all three functions of s alone, and stationarity (Gelfand & Fomin,
Calculus of Variations, 1963) gives one second-order two-point boundary
problem for every cost,

    2 mu kbar'' = sgn (P / gap^2 + Q),

sgn = sign(s_f - s_i).  el_rhs evaluates the right-hand side over 2 mu,
sign included; reported residuals are 2 mu (kbar'' - el_rhs), in the
units of the equation above.

At an equilibrium-pinned end the equation has a regular singular point:
the gap grows like C tau^(2/3), tau = |s - s_end|, followed by
tau^(4/3) ln(tau) terms.  A uniform grid with the three-point stencil
leaves an O(1) relative error at the first nodes, and solved durations
then converge far slower than first order.  The solver therefore grades
its nodes like tau ~ xi^3 toward both ends (xi uniform, interior spacing
within 16 percent of uniform) and discretizes with finite volumes whose
flux and source are exact for kbar = a + b tau^(2/3); away from the ends
this is the ordinary three-point scheme.  Durations then refine at
second order.

The discrete equations are the stationarity conditions of one discrete
objective, J_h = sum_j W_j (P_j/(s_j gap_j) + R_j + Q_j K_j) + mu sum_f
|flux_f| (dK_f)^2, W_j the fitted control volumes (signed like ds) and
flux_f the face coefficients: grad J_h = -2 mu |W| residual, and the |W|-scaled
Newton matrix is J_h's Hessian.  solve_bvp is Newton's method on J_h
with backtracking, stopped by the Newton decrement (Boyd & Vandenberghe,
Convex Optimization, 2004, section 9.5), one path with no per-call
options; the module constant _MAX_ITER (50000), read at call time, caps
the iterations.  Every cost has a(s) >= 0, so P > 0 and the running term's
second kbar-derivative 2 P s / gap^3 has the sign of the orientation on
the feasible set: J_h is strictly convex there and rises to +inf at the
manifold D*gamma = s*kbar, so each problem with mu > 0 has one discrete
minimizer in either orientation.  The initial iterate (_start) is built
from the two leading balances of the right-hand side.  With kbar''
dropped, setting it to zero leaves the outer (mu -> 0) root g_out, with
g_out^-4 = (Q / P)^2; for work that is g_out = sqrt(gamma s / lam), the
Schmiedl-Seifert optimum that analytic_work_optimal returns.  At a pinned
end the gap vanishes and P / (2 mu gap^2) balances kbar'' alone, so
gap ~ C tau^(2/3) with C^3 = (9/2) s P / (2 mu).  The start blends the
two, and Newton runs in its quadratic basin from the first steps instead
of repairing the layers or the interior level with damped steps.

Each Newton step solves one tridiagonal system, by odd-even cyclic
reduction in numpy (`_solve_tridiagonal`), so the runtime needs no scipy.
The reduction does not pivot; that is safe on the Jacobians of feasible
schedules, which are strictly diagonally dominant (see
`_solve_tridiagonal`).

What depends on the grid (s_i, s_f, n) alone is built once per grid and
memoized by `_solver_grid`, a functools.lru_cache of at most 16 grids
(about 130 kB each at n = 2001): the graded nodes, the fitted stencil,
the residual weights, the distances to the ends and the padded, negated
off-diagonals the reduction starts from.  A mu sweep or a lam search on
one endpoint pair builds them once.  The memoized arrays are read-only,
and each BvpResult owns a copy of its nodes.

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

from .analog import TimeDomainProtocols, _kappa
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
    """P = (gamma + lam a) s, Q = lam k and R = lam b of prob.cost at s."""
    lag = LAGRANGIANS[prob.cost]
    return ((c.gamma + prob.lam * lag.a(s, c)) * s, prob.lam * lag.k(s, c),
            prob.lam * lag.b(s, c))


def _el_rhs(P, Q, g, prob):
    """sgn (P / g^2 + Q) / (2 mu) at the gap g, sgn = prob.direction."""
    return prob.direction * (P / g**2 + Q) / (2.0 * prob.mu)


def el_rhs(s, kbar, prob: OptimizationProblem, c: PhysConsts):
    """kbar'' demanded by stationarity: sgn (P / gap^2 + Q) / (2 mu).

    sgn = sign(s_f - s_i): the running terms integrate along the schedule,
    the penalty over |ds|.  P = (gamma + lam a) s and Q = lam k come from
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
    P, Q, _ = _coefficients(s, prob, c)
    out = _el_rhs(P, Q, g, prob)
    return float(out) if out.ndim == 0 else out


def _el_rhs_slope(P, s, g, prob):
    """d(el_rhs)/d(kbar) at the gap g, the Newton Jacobian's diagonal term:
    P s / (mu (sgn g)^3), positive on feasible schedules; g^3 / sgn is
    formed as (sgn g)^3, since pow is about 30x slower on a negative base."""
    return P * s / (prob.mu * (prob.direction * g) ** 3)


def _running(P, Q, R, s, kbar, g):
    """The running term gamma/gap + lam ell = P / (s gap) + R + Q kbar."""
    return P / (s * g) + R + Q * kbar


def _start(grid, P, Q, prob, c):
    """The initial iterate: gap (L^-4 + B^-4)^(-1/4) at the interior nodes.

    L = C tau^(2/3) is the end layer, where kbar'' balances P / (2 mu gap^2)
    alone, so C^3 = (9/2) s P / (2 mu); B is the outer root of
    P / gap^2 + Q, B^-4 = (Q / P)^2, formed directly so that lam = 0
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

    residual is the largest residual of the printed equation with row j
    weighted by ds[j-1] ds[j] / h^2, h = |s_f - s_i| / (n_grid - 1).  In
    the interior, where the spacing stays within 16 percent of h, this is
    the pointwise residual; at the graded end nodes the weight cancels the
    growth of the pointwise rounding floor eps |kbar| / (ds[j-1] ds[j]), so
    a converged solve reads near 2 mu eps |kbar| / h^2, as on a uniform
    grid.

    history holds one (residual, step, damping) triple per Newton
    iteration: the weighted residual, in the units of residual, of the
    iterate the step was taken from, the largest |change of kbar| the
    step made, and the factor 2^-k the line search scaled the full step
    by.  iterations, rejections (the halvings k, summed) and final_update
    (the last step) are read from it.
    """

    protocol: SGridProtocol
    residual: float
    history: list[tuple[float, float, float]]

    @property
    def iterations(self) -> int:
        return len(self.history)

    @property
    def rejections(self) -> int:
        return int(sum(-math.log2(damping) for _, _, damping in self.history
                       if damping > 0.0))

    @property
    def final_update(self) -> float:
        return self.history[-1][1]

    @property
    def kbar(self) -> np.ndarray:
        return self.protocol.kbar

    @property
    def s_nodes(self) -> np.ndarray:
        return self.protocol.s_nodes


# iteration cap
_MAX_ITER = 50000

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


def _fitted_stencil(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Finite volumes fitted to kbar = a + b tau^(2/3) at the pinned ends.

    With phi = tau^(2/3), tau the distance to the nearer end, the flux
    through a face is phi'(face) (K[j+1] - K[j]) / (phi[j+1] - phi[j]) and
    the control-volume integral of the right-hand side is
    f[j] (phi'(s[j+1/2]) - phi'(s[j-1/2])) / phi''(s[j]); both are exact
    for a + b phi, and for cells small against tau they reduce to the
    ordinary three-point scheme.  Returns the control volumes at the
    interior nodes, signed like ds, and the faces' |flux| coefficients;
    lower, upper = flux[:-1], flux[1:] over |weight| give the pointwise
    form kbar''[j] ~ upper[j] (K[j+1] - K[j]) - lower[j] (K[j] - K[j-1]).
    """
    s_i, s_f = s[0], s[-1]
    faces = 0.5 * (s[:-1] + s[1:])

    def nearer_end(x):
        return np.where(np.abs(x - s_i) <= np.abs(x - s_f), s_i, s_f)

    def dphi(x, end):
        return (2.0 / 3.0) / np.cbrt(x - end)

    # flux coefficients, one per face, in the face's own layer coordinate
    end_f = nearer_end(faces)
    flux = dphi(faces, end_f) / (np.abs(s[1:] - end_f) ** (2.0 / 3.0)
                                 - np.abs(s[:-1] - end_f) ** (2.0 / 3.0))
    # control-volume weights at the interior nodes, in the node's coordinate
    end_n = nearer_end(s[1:-1])
    tau = np.abs(s[1:-1] - end_n)
    weight = (dphi(faces[1:], end_n) - dphi(faces[:-1], end_n)) / (
        -(2.0 / 9.0) * tau ** (-4.0 / 3.0))
    return weight, np.abs(flux)


# largest system that cyclic reduction hands over to a Thomas sweep
_DIRECT_SIZE = 64


def _reduction_layout(lower, upper):
    """The fixed part of _solve_tridiagonal's input: (A, C, levels).

    A = -lower and C = -upper, each padded with zeros to the size
    q 2^levels - 1 at which every reduction level has odd size; lower[0]
    and upper[-1] are dropped.  The arrays are read-only, so one layout
    can serve every solve that shares the off-diagonals.
    """
    n = np.size(lower)
    levels = 0
    while n + 1 > (_DIRECT_SIZE + 1) * 2**levels:
        levels += 1
    block = 2**levels
    size = block * -(-(n + 1) // block) - 1
    A, C = np.zeros(size), np.zeros(size)
    A[1:n] = np.negative(lower[1:])
    C[:n - 1] = np.negative(upper[:-1])
    A.flags.writeable = C.flags.writeable = False
    return A, C, levels


def _solve_tridiagonal(layout, diag, rhs):
    """Solve lower[i] x[i-1] + diag[i] x[i] + upper[i] x[i+1] = rhs[i].

    layout = _reduction_layout(lower, upper) carries the off-diagonals.
    Odd-even cyclic reduction (Hockney, J. ACM 12, 95 (1965)) eliminates
    the even-indexed rows, which leaves a tridiagonal system in the
    odd-indexed unknowns of about half the size, until at most _DIRECT_SIZE
    unknowns remain; a Thomas sweep solves those, and back-substitution
    recovers each eliminated level.  The system is padded with decoupled
    rows x = 0 to a size q 2^L - 1, so that every level has odd size and
    its eliminated rows bracket every surviving row; each level is then a
    dozen whole-array operations.  The off-diagonals are carried negated,
    A = -lower and C = -upper.

    Neither stage pivots.  Both are stable on strictly row diagonally
    dominant systems, and a reduced system inherits the dominance of the
    one it came from.  The Newton Jacobians of solve_bvp are dominant on
    feasible schedules: their off-diagonals lower, upper > 0 and their
    diagonal is -(lower + upper) - df/dkbar, f = sgn (P / gap^2 + Q) / (2 mu)
    the EL right-hand side, and df/dkbar = P s / (mu (sgn gap)^3) > 0
    whenever sgn gap > 0, since every cost has P > 0.
    """
    A, C, levels = layout
    n = np.size(rhs)
    b, d = np.ones(A.size), np.zeros(A.size)
    b[:n] = diag
    d[:n] = rhs

    stack = []
    for _ in range(levels):
        stack.append((A, b, C, d))
        Ae, be, Ce, de = A[0::2], b[0::2], C[0::2], d[0::2]
        left = A[1::2] / be[:-1]
        right = C[1::2] / be[1:]
        A, b, C, d = (left * Ae[:-1],
                      b[1::2] - left * Ce[:-1] - right * Ae[1:],
                      right * Ce[1:],
                      d[1::2] + left * de[:-1] + right * de[1:])

    # Thomas sweep on the remaining system
    A, b, C, d = A.tolist(), b.tolist(), C.tolist(), d.tolist()
    for i in range(1, len(b)):
        w = A[i] / b[i - 1]
        b[i] -= w * C[i - 1]
        d[i] += w * d[i - 1]
    x = [0.0] * len(b)
    x[-1] = d[-1] / b[-1]
    for i in range(len(b) - 2, -1, -1):
        x[i] = (d[i] + C[i] * x[i + 1]) / b[i]

    for A, b, C, d in reversed(stack):
        # p[1 + i] = x[i], with x = 0 just outside both ends
        p = np.zeros(b.size + 2)
        p[2:-1:2] = x
        outer = p[0::2]
        p[1::2] = (d[0::2] + A[0::2] * outer[:-1] + C[0::2] * outer[1:]) / b[0::2]
        x = p[1:-1]
    return np.asarray(x)[:n]


class _SolverGrid(NamedTuple):
    """Everything solve_bvp needs that depends on (s_i, s_f, n) alone."""

    s: np.ndarray             # graded nodes
    weight: np.ndarray        # signed control volumes at the interior nodes
    flux: np.ndarray          # |flux coefficient| at each face
    lower: np.ndarray         # fitted stencil at the interior nodes
    upper: np.ndarray
    stencil_diag: np.ndarray  # -lower - upper
    row_weight: np.ndarray    # ds[j-1] ds[j] / h^2
    tau: np.ndarray           # distance of each interior node to the nearer end
    layout: tuple             # _reduction_layout(lower, upper)


# grids kept by _solver_grid; a sweep or a lam search stays on one or a few
_GRID_MEMO_SIZE = 16


@functools.lru_cache(maxsize=_GRID_MEMO_SIZE)
def _solver_grid(s_i: float, s_f: float, n: int) -> _SolverGrid:
    """Nodes, stencil, residual weights and reduction layout of one grid.

    Memoized: solves that share (s_i, s_f, n), as a mu sweep does, build
    them once.  Every array is read-only, since each caller shares them.
    """
    s = _graded_nodes(s_i, s_f, n)
    weight, flux = _fitted_stencil(s)
    volume = np.abs(weight)
    lower, upper = flux[:-1] / volume, flux[1:] / volume
    s_int = s[1:-1]
    # row j weighted by ds[j-1] ds[j] / h^2, h the mean spacing: the
    # equation in the uniform grid coordinate, whose rounding floor is
    # eps |kbar| / h^2 at every node, as on a uniform grid
    h = (s_f - s_i) / (n - 1)
    ds = np.diff(s)
    grid = _SolverGrid(
        s=s, weight=weight, flux=flux, lower=lower, upper=upper,
        stencil_diag=-lower - upper,
        row_weight=ds[:-1] * ds[1:] / h**2,
        tau=np.minimum(np.abs(s_int - s_i), np.abs(s_int - s_f)),
        layout=_reduction_layout(lower, upper))
    for a in grid[:-1]:
        a.flags.writeable = False
    return grid


def solve_bvp(prob: OptimizationProblem, c: PhysConsts) -> BvpResult:
    """Solve the Euler-Lagrange boundary problem for prob.cost.

    prob.n_grid nodes from s_i to s_f, graded toward both ends by
    _graded_nodes; boundary values are pinned to the equilibrium stiffness
    at both ends, and the equation is discretized by _fitted_stencil.  The
    Lagrangian's coefficients P, Q and R depend on s alone and are formed
    once; _start builds the initial iterate from them, on the correct side
    of the singular manifold.  Each Newton step is one _solve_tridiagonal
    call.

    Iteration is Newton's method on J_h (module docstring).  A step is
    halved until it stays feasible and J_h(new) <= J_h + 1e-4 r
    grad J_h . delta + 8 eps |J_h|, r the damping; once the decrement
    |grad J_h . delta| is at most 8 eps |J_h|, the feasible full step is
    taken and the solve stops.  Each iterate's gap is formed once; its
    feasibility, J_h, residual and next Jacobian diagonal read that array.
    Raises ConvergenceError, with the trace, when the start is infeasible,
    a step is not finite, the line search halves below 1e-12, or
    _MAX_ITER iterations are reached.
    """
    if prob.mu == 0.0:
        raise ValueError("mu = 0 is only solvable for the work cost, in closed form; "
                         "use analytic_work_optimal")
    grid = _solver_grid(prob.s_i, prob.s_f, prob.n_grid)
    s, lower, upper = grid.s, grid.lower, grid.upper
    sgn = prob.direction
    Dg = c.D * c.gamma
    s_int = s[1:-1]
    # the Lagrangian's coefficients depend on s alone
    P, Q, R = _coefficients(s_int, prob, c)
    kbar = _start(grid, P, Q, prob, c)

    def gap(k):
        return Dg - s_int * k[1:-1]

    def feasible(g):
        return bool(np.all(g * sgn > 0.0))

    def residual(k, g):
        # difference-of-differences form: no O(|K|) cancellation
        dk = np.diff(k)
        return upper * dk[1:] - lower * dk[:-1] - _el_rhs(P, Q, g, prob)

    def objective(k, g):
        # J_h; pairwise sums keep its rounding near eps |J_h|
        return float(np.sum(grid.weight * _running(P, Q, R, s_int, k[1:-1], g))
                     + prob.mu * np.sum(grid.flux * np.diff(k) ** 2))

    def weighted_max(r):
        return 2.0 * prob.mu * float(np.max(np.abs(grid.row_weight * r)))

    g = gap(kbar)
    if not feasible(g):
        raise ConvergenceError("initial iterate is infeasible")

    volume = sgn * grid.weight  # |weight|: grad J_h = -2 mu volume residual
    history: list[tuple[float, float, float]] = []
    resid = residual(kbar, g)
    j = objective(kbar, g)
    while True:
        if len(history) >= _MAX_ITER:
            raise ConvergenceError(f"no convergence within {_MAX_ITER} iterations "
                                   f"(last update {history[-1][1]:.3e})", history=history)
        norm = weighted_max(resid)
        diag = grid.stencil_diag - _el_rhs_slope(P, s_int, g, prob)
        delta = _solve_tridiagonal(grid.layout, diag, -resid)
        step = float(np.max(np.abs(delta)))
        if not np.isfinite(step):
            # recorded with damping 0: the step was not taken
            history.append((norm, step, 0.0))
            raise ConvergenceError("Newton step blew up", history=history)
        # Newton decrement -grad J_h . delta
        decrement = 2.0 * prob.mu * float(np.sum(volume * resid * delta))
        slack = 8.0 * np.finfo(float).eps * abs(j)
        # a full step that cannot lower J_h by more than its rounding is
        # the last one, taken as it is when feasible
        last = abs(decrement) <= slack
        r = 1.0
        while True:
            cand = kbar.copy()
            cand[1:-1] += r * delta
            cand_g = gap(cand)
            if feasible(cand_g):
                if last:
                    break
                cand_j = objective(cand, cand_g)
                if cand_j <= j - 1.0e-4 * r * decrement + slack:
                    break
            last = False
            r *= 0.5
            if r < 1e-12:
                history.append((norm, r * step, r))
                raise ConvergenceError(f"line search cannot lower J_h (decrement "
                                       f"{decrement:.3e} after {len(history)} iterations)",
                                       history=history)
        history.append((norm, r * step, r))
        kbar, g = cand, cand_g
        resid = residual(kbar, g)
        if last:
            break
        j = cand_j

    return BvpResult(protocol=SGridProtocol(s.copy(), kbar), residual=weighted_max(resid),
                     history=history)


# ---------------------------------------------------------------------------
# closed-form work optimum (mu = 0)
# ---------------------------------------------------------------------------

def analytic_work_optimal(lam: float, s_i: float, s_f: float, c: PhysConsts,
                          n: int = 2001) -> tuple[SGridProtocol, TimeDomainProtocols]:
    """Closed-form minimum-work schedule between variances s_i and s_f.

    Returns the s-grid schedule and its time-domain emission, the pair
    solve_bvp and to_time_domain give, both on n uniform samples.  The
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
    # linspace stores its stop as the last sample, so the emission's
    # duration is the closed form exactly
    t = np.linspace(0.0, float(root_gl * abs(np.sqrt(s_f) - np.sqrt(s_i))), n)
    s_t = (np.sqrt(s_i) + sign * t / root_gl) ** 2
    emitted = TimeDomainProtocols(
        classical=TimeProtocol(t, kbar_of(s_t), "classical"),
        quantum=TimeProtocol(t, kappa_of(s_t), "quantum"),
        s=s_t, t_nodes=root_gl * np.abs(np.sqrt(s) - np.sqrt(s_i)),
        kappa_nodes=kappa_of(s))
    return SGridProtocol(s, kbar_of(s)), emitted

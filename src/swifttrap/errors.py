"""Exception types shared across the package."""


class InfeasibleProtocolError(ValueError):
    """A stiffness protocol violates the feasibility condition.

    The overdamped variance flow only moves toward the target while
    sign(D*gamma - s*kbar) matches sign(s_f - s_i) at interior nodes; a
    protocol breaking that makes the duration integral undefined or
    divergent.
    """

    def __init__(self, message, node=None, s=None):
        super().__init__(message)
        self.node = node
        self.s = s


class SingularManifoldError(ValueError):
    """Pointwise evaluation exactly on the manifold D*gamma = s*kbar."""


class ConvergenceError(RuntimeError):
    """The boundary-value solve found no minimizer of its objective.

    solve_bvp raises it for an infeasible start, a non-finite Newton step,
    a line search that halves below 1e-12, or the iteration cap.  history
    holds one (objective, decrement, step, damping) record per iteration,
    as BvpResult.history does; a non-finite step is recorded with damping
    0.  iterations, the number of records, is read from it.
    """

    def __init__(self, message, history=None):
        super().__init__(message)
        self.history = list(history) if history is not None else []

    @property
    def iterations(self) -> int:
        return len(self.history)


class IntegrationError(RuntimeError):
    """Forward integration failed.

    The width equation raises it when a step breaks RK4's stability bound
    h*sqrt(|kappa|/m) <= 2*sqrt(2) (its linear flow cannot collapse, so an
    under-resolved schedule is caught by its step instead), or when the
    variance rebuilt from the flow is non-finite or negligible.  The
    variance flow, which the ensembles' laws read too, raises it when a
    substep breaks RK4's real-axis bound h*(2/gamma)*kbar <= 2.785 or when
    s leaves (0, inf), and an ensemble when the law of a checkpoint
    interval is not positive and finite.  The time of failure is stored on
    the exception.
    """

    def __init__(self, message, t=None):
        super().__init__(message)
        self.t = t

"""swifttrap: faster-than-adiabatic stiffness ramps for harmonic traps.

The package designs stiffness schedules kappa(t) that carry a harmonic
oscillator's Gaussian ground state from one width to another in finite
time, by working in an exactly equivalent overdamped classical picture,
solving a variational two-point boundary problem there, and mapping the
result back.  Independent verification is provided by direct wavepacket
integration and by stochastic ensemble simulation.
"""

from .errors import (
    ConvergenceError,
    InfeasibleProtocolError,
    IntegrationError,
    SingularManifoldError,
)
from .model import (
    EnsembleStats,
    OptimizationProblem,
    PhysConsts,
    SGridProtocol,
    TimeProtocol,
    alpha_of,
    equilibrium_kappa,
    equilibrium_kbar,
)
from .analog import (
    TimeDomainProtocols,
    VarianceTrajectory,
    duration,
    evolve_variance,
    flow_gap,
    quantum_from_classical_s,
    quantum_from_classical_t,
    time_of_s,
    to_time_domain,
    variance_rate,
)
from .solver import (
    BvpResult,
    analytic_work_optimal,
    el_rhs,
    solve_bvp,
)
from .dynamics import (
    TrajectoryRecord,
    energy_of,
    integrate_ermakov,
    wigner_at,
)
from .montecarlo import (
    BornReport,
    McConfig,
    simulate_classical,
    simulate_nelson,
    verify_born,
)
from .baselines import adiabatic_reference, chen_polynomial, step_protocol
from .costs import (
    LAGRANGIANS,
    CostReport,
    Lagrangian,
    f_alpha,
    f_alpha_from_run,
    f_energy,
    f_energy_from_run,
    g_penalty,
    j_total,
    work_classical,
    work_from_schedule,
)

__version__ = "0.1.0"

__all__ = [
    "LAGRANGIANS",
    "BornReport",
    "BvpResult",
    "ConvergenceError",
    "CostReport",
    "EnsembleStats",
    "InfeasibleProtocolError",
    "IntegrationError",
    "Lagrangian",
    "McConfig",
    "OptimizationProblem",
    "PhysConsts",
    "SGridProtocol",
    "SingularManifoldError",
    "TimeDomainProtocols",
    "TimeProtocol",
    "TrajectoryRecord",
    "VarianceTrajectory",
    "adiabatic_reference",
    "alpha_of",
    "analytic_work_optimal",
    "chen_polynomial",
    "duration",
    "el_rhs",
    "energy_of",
    "equilibrium_kappa",
    "equilibrium_kbar",
    "evolve_variance",
    "flow_gap",
    "f_alpha",
    "f_alpha_from_run",
    "f_energy",
    "f_energy_from_run",
    "g_penalty",
    "integrate_ermakov",
    "j_total",
    "quantum_from_classical_s",
    "quantum_from_classical_t",
    "simulate_classical",
    "simulate_nelson",
    "solve_bvp",
    "step_protocol",
    "time_of_s",
    "to_time_domain",
    "variance_rate",
    "verify_born",
    "wigner_at",
    "work_classical",
    "work_from_schedule",
]

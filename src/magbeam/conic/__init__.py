"""Self-contained dense conic solvers (SDP with trace inequalities, LP)."""

from .kernel import INFEASIBLE, NUMERICAL_FAILURE, OPTIMAL, UNBOUNDED
from .linalg import numerical_rank, psd_eigendecomposition
from .problems import (GE, LE, ConicSolution, LpProblem, SdpConstraint,
                       SdpProblem, Tolerances, solve_lp, solve_sdp)

__all__ = [
    "OPTIMAL", "INFEASIBLE", "UNBOUNDED", "NUMERICAL_FAILURE",
    "GE", "LE",
    "SdpProblem", "SdpConstraint", "LpProblem", "ConicSolution", "Tolerances",
    "solve_sdp", "solve_lp",
    "psd_eigendecomposition", "numerical_rank",
]

"""Self-contained dense conic solver: SDPs with trace constraints, and LPs."""

from .kernel import INFEASIBLE, NUMERICAL_FAILURE, OPTIMAL, UNBOUNDED
from .linalg import numerical_rank, psd_eigendecomposition
from .problems import GE, LE, ConicSolution, SdpProblem, Tolerances, solve_sdp

__all__ = [
    "OPTIMAL", "INFEASIBLE", "UNBOUNDED", "NUMERICAL_FAILURE",
    "GE", "LE",
    "SdpProblem", "ConicSolution", "Tolerances",
    "solve_sdp",
    "psd_eigendecomposition", "numerical_rank",
]

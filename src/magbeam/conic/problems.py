"""The public problem form and its solver entry point.

``solve_sdp`` handles trace-constrained SDPs over real symmetric or complex
Hermitian variables, optionally joined by a block of nonnegative scalar
variables (the mixed PSD+orthant form, one kernel call either way).  The
kernel runs in the dtype of the data, so a Hermitian problem of dimension
n is solved as an n x n complex block.  A problem of dimension 0 is an LP:
the same kernel restricted to the orthant, i.e. the diagonal-barrier
specialization.
"""

from dataclasses import dataclass, field

import numpy as np

from . import kernel
from .kernel import OPTIMAL

GE = ">="
LE = "<="
EQ = "=="
# the coefficient of each sense's unit slack column; an equality has none
_SLACK_SIGN = {LE: 1.0, GE: -1.0, EQ: 0.0}


@dataclass(frozen=True)
class Tolerances:
    rel_gap: float = 1e-8
    feasibility: float = 1e-8
    max_iterations: int = 100


DEFAULT_TOLERANCES = Tolerances()


@dataclass(frozen=True)
class SdpProblem:
    """minimize 0.5*Tr(objective @ X) + linear_objective . u  subject to
    Tr(matrices[i] @ X) + linear[i] . u  (sense[i])  rhs[i]  for each row i,
    X PSD and u >= 0.

    ``objective`` is n x n and ``matrices`` k x n x n, all symmetric (real)
    or Hermitian (complex); mixing is allowed and makes X complex Hermitian.
    Dimension n = 0 is an LP in u.  ``sense`` holds k entries of ``GE``,
    ``LE`` or ``EQ``.  ``linear_objective`` sets the number p of scalar
    variables ``u`` (none by default), and ``linear`` (k x p) their row
    coefficients, zeros by default.
    """

    objective: np.ndarray
    matrices: np.ndarray
    sense: tuple
    rhs: np.ndarray
    linear_objective: np.ndarray = ()
    linear: np.ndarray = None

    def __post_init__(self):
        objective = np.asarray(self.objective)
        matrices = np.asarray(self.matrices)
        k = len(matrices)
        if k == 0:
            raise ValueError("at least one constraint is required")
        n = objective.shape[0] if objective.ndim == 2 else -1
        if objective.shape != (n, n) or matrices.shape != (k, n, n):
            raise ValueError("matrix dimensions do not match the problem")
        sense = tuple(self.sense)
        if any(s not in _SLACK_SIGN for s in sense):
            raise ValueError(f"each sense must be '>=', '<=' or '==', got {sense!r}")
        rhs = np.asarray(self.rhs, dtype=float)
        c_u = np.asarray(self.linear_objective, dtype=float)
        linear = np.zeros((k, c_u.size)) if self.linear is None \
            else np.asarray(self.linear, dtype=float)
        if len(sense) != k or rhs.shape != (k,):
            raise ValueError("sense and rhs must have one entry per constraint")
        if c_u.ndim != 1 or linear.shape != (k, c_u.size):
            raise ValueError("linear coefficients do not match linear_objective")
        for name, value in (("objective", objective), ("matrices", matrices),
                            ("sense", sense), ("rhs", rhs),
                            ("linear_objective", c_u), ("linear", linear)):
            object.__setattr__(self, name, value)
        if not all(np.all(np.isfinite(a)) for a in (objective, matrices, rhs, c_u, linear)):
            raise ValueError("problem data must be finite")
        mats = np.concatenate([objective[None], matrices])
        skew = np.linalg.norm(mats - mats.conj().transpose(0, 2, 1), axis=(1, 2))
        if np.any(skew > 1e-9 * np.maximum(1.0, np.linalg.norm(mats, axis=(1, 2)))):
            raise ValueError("matrices must be symmetric/Hermitian")


@dataclass
class ConicSolution:
    """Solver outcome: the primal matrix ``x`` (0 x 0 for an LP) and scalars ``u``.

    ``iterate`` is the kernel's final ``(x, u, y, z_psd, z_lin)`` in its own
    scaled form, the ``start`` of a later solve with the same rows.
    """

    status: str
    value: float
    x: np.ndarray
    duals: np.ndarray
    rel_gap: float
    iterations: int
    primal_infeas: float = 0.0
    dual_infeas: float = 0.0
    u: np.ndarray = field(default_factory=lambda: np.zeros(0))
    iterate: tuple = None

    @property
    def is_optimal(self):
        return self.status == OPTIMAL


def solve_sdp(problem: SdpProblem, tolerances: Tolerances = DEFAULT_TOLERANCES,
              start: ConicSolution = None) -> ConicSolution:
    """Solve a trace-constrained SDP or LP; see :class:`SdpProblem` for the form.

    ``start`` is an earlier solution of a problem with the same constraint
    rows, typically with another objective; the kernel starts from its
    final iterate moved into the interior, not from the identity.  A start
    whose dimension, row count or number of scalar variables differs
    raises ``ValueError``.  The kernel logs each iteration at DEBUG on
    the ``magbeam.conic`` logger.
    """
    dtype = complex if np.any(problem.objective.imag) or np.any(problem.matrices.imag) else float
    # the kernel weighs a Hermitian block's trace products by this factor,
    # so its data goes in divided by it and its norms grow by the root
    weight = kernel.HERMITIAN_WEIGHT if dtype is complex else 1.0
    root_weight = np.sqrt(weight)
    objective, mats = (np.asarray(m if dtype is complex else m.real, dtype=dtype)
                       for m in (problem.objective, problem.matrices))
    c_u, linear, rhs = problem.linear_objective, problem.linear, problem.rhs
    signs = np.array([_SLACK_SIGN[s] for s in problem.sense])

    # orthant block: the problem's own scalar variables, then one unit
    # slack per inequality row
    obj_scale = max(float(np.hypot(np.linalg.norm(objective) / root_weight,
                                   np.linalg.norm(c_u))), 1e-300)
    # each row's own data norm in the kernel's geometry, taken before its
    # unit slack is appended
    scales = np.hypot(np.linalg.norm(mats, axis=(1, 2)) / root_weight,
                      np.linalg.norm(linear, axis=1))
    scales = np.maximum(np.maximum(scales, np.abs(rhs)), 1e-300)
    a_psd = (mats + mats.conj().transpose(0, 2, 1)) / (2.0 * weight * scales[:, None, None])
    # np.compress, unlike a boolean index, keeps the slack columns C-ordered;
    # the kernel's BLAS products round differently on another layout
    a_lin = np.hstack([linear / scales[:, None], np.compress(signs, np.diag(signs), axis=1)])
    res = kernel.solve_mixed_cone(
        c_psd=objective / (2.0 * weight * obj_scale),
        c_lin=np.concatenate([c_u, np.zeros(a_lin.shape[1] - c_u.size)]) / obj_scale,
        a_psd=a_psd, a_lin=a_lin, b=rhs / scales,
        gap_tol=tolerances.rel_gap, feas_tol=tolerances.feasibility,
        max_iter=tolerances.max_iterations,
        start=None if start is None else start.iterate)

    u = res.u[:c_u.size]
    value = 0.5 * float(np.sum(objective.conj() * res.x).real) + float(c_u @ u)
    duals = res.y * obj_scale / scales
    return ConicSolution(status=res.status, value=value, x=res.x, duals=duals,
                         rel_gap=res.rel_gap, iterations=res.iterations,
                         primal_infeas=res.primal_infeas, dual_infeas=res.dual_infeas,
                         u=u, iterate=(res.x, res.u, res.y, res.z_psd, res.z_lin))

"""Public problem containers and solver entry points.

``solve_sdp`` handles trace-inequality-constrained SDPs over real symmetric
or complex Hermitian variables, optionally joined by a block of nonnegative
scalar variables (the mixed PSD+orthant form, one kernel call either way).
The kernel runs in the dtype of the data, so a Hermitian problem of
dimension n is solved as an n x n complex block.

``solve_lp`` reuses the same interior-point kernel restricted to the
orthant (no PSD block), i.e. the diagonal-barrier specialization.
"""

from dataclasses import dataclass, field

import numpy as np

from . import kernel
from .kernel import INFEASIBLE, NUMERICAL_FAILURE, OPTIMAL, UNBOUNDED

GE = ">="
LE = "<="


@dataclass(frozen=True)
class Tolerances:
    rel_gap: float = 1e-8
    feasibility: float = 1e-8
    max_iterations: int = 100


DEFAULT_TOLERANCES = Tolerances()


@dataclass(frozen=True)
class SdpConstraint:
    """One inequality  Tr(matrix @ X) + linear . u  (>=|<=) rhs.

    ``linear`` holds the coefficients of the problem's nonnegative scalar
    variables ``u`` and may be omitted when the row does not involve them.
    """

    matrix: np.ndarray
    sense: str
    rhs: float
    linear: tuple = ()

    def __post_init__(self):
        if self.sense not in (GE, LE):
            raise ValueError(f"sense must be '>=' or '<=', got {self.sense!r}")


@dataclass(frozen=True)
class SdpProblem:
    """minimize 0.5*Tr(objective @ X) + linear_objective . u
    s.t. the constraint rows, X PSD, u >= 0.

    ``objective`` and all constraint matrices must be symmetric (real) or
    Hermitian (complex); mixing is allowed and makes X complex Hermitian.
    ``linear_objective`` sets the number of scalar variables ``u`` (none by
    default).
    """

    dimension: int
    objective: np.ndarray
    constraints: list
    linear_objective: tuple = ()
    _matrices: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.constraints:
            raise ValueError("at least one constraint is required")
        n_lin = len(self.linear_objective)
        if any(len(c.linear) not in (0, n_lin) for c in self.constraints):
            raise ValueError("linear coefficients do not match linear_objective")
        mats = [self.objective] + [c.matrix for c in self.constraints]
        if any(np.shape(m) != (self.dimension, self.dimension) for m in mats):
            raise ValueError("matrix dimensions do not match the problem")
        mats = np.stack(mats)           # objective first: (k+1, n, n)
        object.__setattr__(self, "_matrices", mats)
        if not np.all(np.isfinite(mats)):
            raise ValueError("matrices must be finite")
        skew = np.linalg.norm(mats - mats.conj().transpose(0, 2, 1), axis=(1, 2))
        if np.any(skew > 1e-9 * np.maximum(1.0, np.linalg.norm(mats, axis=(1, 2)))):
            raise ValueError("matrices must be symmetric/Hermitian")

    @property
    def is_complex(self):
        return bool(np.any(self._matrices.imag))


@dataclass(frozen=True)
class LpProblem:
    """minimize c.x  s.t.  a_ub x <= b_ub,  a_eq x = b_eq,  x >= lower_bounds.

    ``lower_bounds`` defaults to zero; >=-rows should be passed negated.
    """

    objective: np.ndarray
    a_ub: np.ndarray = None
    b_ub: np.ndarray = None
    a_eq: np.ndarray = None
    b_eq: np.ndarray = None
    lower_bounds: np.ndarray = None


@dataclass
class ConicSolution:
    """Solver outcome; ``x`` is the primal matrix (SDP) or vector (LP).

    ``u`` holds the nonnegative scalar variables of a mixed SDP.
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
              trace=None, start: ConicSolution = None) -> ConicSolution:
    """Solve a trace-constrained SDP; see :class:`SdpProblem` for the form.

    ``start`` is an earlier solution of a problem with the same constraint
    rows, typically with another objective; the kernel starts from its
    final iterate moved into the interior, not from the identity.  A start
    whose dimension, row count or number of scalar variables differs
    raises ``ValueError``.
    """
    k = len(problem.constraints)
    dtype = complex if problem.is_complex else float
    # the kernel weighs a Hermitian block's trace products by this factor,
    # so its data goes in divided by it and its norms grow by the root
    weight = kernel.HERMITIAN_WEIGHT if dtype is complex else 1.0
    root_weight = np.sqrt(weight)
    stack = problem._matrices
    stack = np.asarray(stack if dtype is complex else stack.real, dtype=dtype)
    objective, mats = stack[0], stack[1:]
    c_u = np.asarray(problem.linear_objective, dtype=float)
    linear = np.array([c.linear if len(c.linear) else np.zeros(c_u.size)
                       for c in problem.constraints], dtype=float)
    rhs = np.array([c.rhs for c in problem.constraints], dtype=float)
    signs = np.array([1.0 if c.sense == LE else -1.0 for c in problem.constraints])

    # orthant block: the problem's own scalar variables, then one unit
    # slack per row
    obj_scale = max(float(np.hypot(np.linalg.norm(objective) / root_weight,
                                   np.linalg.norm(c_u))), 1e-300)
    # each row's own data norm in the kernel's geometry, taken before its
    # unit slack is appended
    scales = np.hypot(np.linalg.norm(mats, axis=(1, 2)) / root_weight,
                      np.linalg.norm(linear, axis=1))
    scales = np.maximum(np.maximum(scales, np.abs(rhs)), 1e-300)
    a_psd = (mats + mats.conj().transpose(0, 2, 1)) / (2.0 * weight * scales[:, None, None])
    a_lin = np.hstack([linear / scales[:, None], np.diag(signs)])
    res = kernel.solve_mixed_cone(
        c_psd=objective / (2.0 * weight * obj_scale),
        c_lin=np.concatenate([c_u, np.zeros(k)]) / obj_scale,
        a_psd=a_psd, a_lin=a_lin, b=rhs / scales,
        gap_tol=tolerances.rel_gap, feas_tol=tolerances.feasibility,
        max_iter=tolerances.max_iterations, trace=trace,
        start=None if start is None else start.iterate)

    u = res.u[:c_u.size]
    value = 0.5 * float(np.sum(objective.conj() * res.x).real) + float(c_u @ u)
    duals = res.y * obj_scale / scales
    return ConicSolution(status=res.status, value=value, x=res.x, duals=duals,
                         rel_gap=res.rel_gap, iterations=res.iterations,
                         primal_infeas=res.primal_infeas, dual_infeas=res.dual_infeas,
                         u=u, iterate=(res.x, res.u, res.y, res.z_psd, res.z_lin))


def solve_lp(problem: LpProblem, tolerances: Tolerances = DEFAULT_TOLERANCES,
             trace=None) -> ConicSolution:
    """Solve a dense LP with the orthant-only interior-point kernel."""
    c = np.atleast_1d(np.asarray(problem.objective, dtype=float))
    nv = c.size
    lb = np.zeros(nv) if problem.lower_bounds is None \
        else np.asarray(problem.lower_bounds, dtype=float)
    if lb.shape != (nv,) or not np.all(np.isfinite(lb)):
        raise ValueError("lower_bounds must be a finite vector matching the objective")

    a_ub = np.zeros((0, nv)) if problem.a_ub is None \
        else np.atleast_2d(np.asarray(problem.a_ub, dtype=float))
    b_ub = np.zeros(0) if problem.b_ub is None \
        else np.atleast_1d(np.asarray(problem.b_ub, dtype=float))
    a_eq = np.zeros((0, nv)) if problem.a_eq is None \
        else np.atleast_2d(np.asarray(problem.a_eq, dtype=float))
    b_eq = np.zeros(0) if problem.b_eq is None \
        else np.atleast_1d(np.asarray(problem.b_eq, dtype=float))
    if a_ub.shape[1] != nv or a_eq.shape[1] != nv:
        raise ValueError("constraint row length does not match the objective")
    m_ub, m_eq = a_ub.shape[0], b_eq.size
    if m_ub + m_eq == 0:
        raise ValueError("at least one constraint row is required")

    # shift to x' = x - lb >= 0, equilibrate each row by its own data norm
    # (before slacks are appended, so badly scaled rows keep their meaning),
    # then add one unit slack per inequality row
    raw = np.vstack([a_ub, a_eq])
    b_all = np.concatenate([b_ub - a_ub @ lb, b_eq - a_eq @ lb])
    scales = np.maximum(np.linalg.norm(raw, axis=1), np.abs(b_all))
    scales = np.maximum(scales, 1e-300)
    slack_cols = np.vstack([np.eye(m_ub), np.zeros((m_eq, m_ub))])
    rows = np.hstack([raw / scales[:, None], slack_cols])
    c_all = np.concatenate([c, np.zeros(m_ub)])

    obj_scale = max(float(np.linalg.norm(c)), 1e-300)
    res = kernel.solve_mixed_cone(
        c_psd=None, c_lin=c_all / obj_scale,
        a_psd=None, a_lin=rows, b=b_all / scales,
        gap_tol=tolerances.rel_gap, feas_tol=tolerances.feasibility,
        max_iter=tolerances.max_iterations, trace=trace)

    x = res.u[:nv] + lb
    return ConicSolution(status=res.status, value=float(c @ x),
                         x=x, duals=res.y * obj_scale / scales,
                         rel_gap=res.rel_gap, iterations=res.iterations,
                         primal_infeas=res.primal_infeas, dual_infeas=res.dual_infeas,
                         iterate=(res.x, res.u, res.y, res.z_psd, res.z_lin))

"""Public problem containers and solver entry points.

``solve_sdp`` handles trace-inequality-constrained SDPs over real symmetric
or complex Hermitian variables, optionally joined by a block of nonnegative
scalar variables (the mixed PSD+orthant form, one kernel call either way);
Hermitian data is routed through the 2n x 2n real embedding (single kernel
code path) and projected back, with the trace scaling fixed so that
objective value, constraint senses and dual multipliers are preserved
exactly.

``solve_lp`` reuses the same interior-point kernel restricted to the
orthant (no PSD block), i.e. the diagonal-barrier specialization.
"""

from dataclasses import dataclass, field

import numpy as np

from . import kernel
from .kernel import INFEASIBLE, NUMERICAL_FAILURE, OPTIMAL, UNBOUNDED
from .linalg import embed_hermitian, project_embedded

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
    Hermitian (complex); mixing is allowed and promotes the whole problem
    to the complex path.  ``linear_objective`` sets the number of scalar
    variables ``u`` (none by default).
    """

    dimension: int
    objective: np.ndarray
    constraints: list
    linear_objective: tuple = ()

    def __post_init__(self):
        if not self.constraints:
            raise ValueError("at least one constraint is required")
        n_lin = len(self.linear_objective)
        if any(len(c.linear) not in (0, n_lin) for c in self.constraints):
            raise ValueError("linear coefficients do not match linear_objective")
        mats = [self.objective] + [c.matrix for c in self.constraints]
        for m in mats:
            m = np.asarray(m)
            if m.shape != (self.dimension, self.dimension):
                raise ValueError("matrix dimensions do not match the problem")
            if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
                raise ValueError("matrices must be finite")
            if np.linalg.norm(m - m.conj().T) > 1e-9 * max(1.0, np.linalg.norm(m)):
                raise ValueError("matrices must be symmetric/Hermitian")

    @property
    def is_complex(self):
        mats = [self.objective] + [c.matrix for c in self.constraints]
        return any(np.iscomplexobj(m) and np.abs(np.imag(m)).max() > 0 for m in mats)


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

    @property
    def is_optimal(self):
        return self.status == OPTIMAL


def _row_scales(matrices, linear, rhs):
    # each row's own data norm, taken before its unit slack is appended
    scales = np.empty(len(matrices))
    for i, m in enumerate(matrices):
        data = np.hypot(np.linalg.norm(m), np.linalg.norm(linear[i]))
        scales[i] = max(float(data), abs(rhs[i]), 1e-300)
    return scales


def solve_sdp(problem: SdpProblem, tolerances: Tolerances = DEFAULT_TOLERANCES,
              trace=None) -> ConicSolution:
    """Solve a trace-constrained SDP; see :class:`SdpProblem` for the form."""
    if problem.is_complex:
        return _solve_sdp_complex(problem, tolerances, trace)
    return _solve_sdp_real(problem, tolerances, trace)


def _solve_sdp_real(problem, tolerances, trace):
    k = len(problem.constraints)
    objective = np.asarray(problem.objective, dtype=float)
    c_u = np.asarray(problem.linear_objective, dtype=float)
    mats = [np.asarray(c.matrix, dtype=float) for c in problem.constraints]
    linear = np.zeros((k, c_u.size))
    for i, c in enumerate(problem.constraints):
        if len(c.linear):
            linear[i] = c.linear
    rhs = np.array([c.rhs for c in problem.constraints], dtype=float)
    signs = np.array([1.0 if c.sense == LE else -1.0 for c in problem.constraints])

    # orthant block: the problem's own scalar variables, then one unit
    # slack per row
    obj_scale = max(float(np.hypot(np.linalg.norm(objective), np.linalg.norm(c_u))),
                    1e-300)
    scales = _row_scales(mats, linear, rhs)
    a_psd = np.stack([(m + m.T) / (2.0 * s) for m, s in zip(mats, scales)])
    a_lin = np.hstack([linear / scales[:, None], np.diag(signs)])
    res = kernel.solve_mixed_cone(
        c_psd=objective / (2.0 * obj_scale),
        c_lin=np.concatenate([c_u, np.zeros(k)]) / obj_scale,
        a_psd=a_psd, a_lin=a_lin, b=rhs / scales,
        gap_tol=tolerances.rel_gap, feas_tol=tolerances.feasibility,
        max_iter=tolerances.max_iterations, trace=trace)

    x = (res.x + res.x.T) / 2.0
    u = res.u[:c_u.size]
    value = 0.5 * float(np.sum(objective * x)) + float(c_u @ u)
    duals = res.y * obj_scale / scales
    return ConicSolution(status=res.status, value=value, x=x, duals=duals,
                         rel_gap=res.rel_gap, iterations=res.iterations,
                         primal_infeas=res.primal_infeas, dual_infeas=res.dual_infeas,
                         u=u)


def _solve_sdp_complex(problem, tolerances, trace):
    # real embedding doubles every trace inner product, so halving the
    # embedded data preserves objective value, senses, rhs and duals
    embedded = SdpProblem(
        dimension=2 * problem.dimension,
        objective=embed_hermitian(problem.objective) / 2.0,
        constraints=[
            SdpConstraint(matrix=embed_hermitian(c.matrix) / 2.0, sense=c.sense,
                          rhs=c.rhs, linear=c.linear)
            for c in problem.constraints
        ],
        linear_objective=problem.linear_objective,
    )
    res = _solve_sdp_real(embedded, tolerances, trace)
    x = project_embedded(res.x)
    value = 0.5 * float(np.real(np.sum(np.asarray(problem.objective).conj() * x))) \
        + float(np.asarray(problem.linear_objective, dtype=float) @ res.u)
    return ConicSolution(status=res.status, value=value, x=x, duals=res.duals,
                         rel_gap=res.rel_gap, iterations=res.iterations,
                         primal_infeas=res.primal_infeas, dual_infeas=res.dual_infeas,
                         u=res.u)


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
                         primal_infeas=res.primal_infeas, dual_infeas=res.dual_infeas)

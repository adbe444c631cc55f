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

    ``objective`` is n x n, symmetric (real) or Hermitian (complex).
    ``matrices`` has one entry per row: the row's n x n symmetric or
    Hermitian matrix, or a length-n vector a standing for the rank-one
    matrix a a^H (the delivery, peak-voltage and peak-current rows of the
    beamforming problems are given so).  A k x n x n array is k matrices, a
    k x n array k vectors, and a list may mix both.  After construction
    ``matrices`` is the k x n x n stack, each vector row's matrix formed
    from its vector, and ``vectors`` the k x n array of the rows' vectors,
    zeros for a row given as a matrix; the solver builds a vector row's part
    of the normal matrix from its vector.
    Real and complex data may mix, which makes X complex Hermitian.
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
    vectors: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        objective = np.asarray(self.objective)
        rows = [np.asarray(m) for m in self.matrices]
        k = len(rows)
        if k == 0:
            raise ValueError("at least one constraint is required")
        n = objective.shape[0] if objective.ndim == 2 else -1
        if objective.shape != (n, n) or \
                any(m.shape != ((n,) if m.ndim == 1 else (n, n)) for m in rows):
            raise ValueError("matrix dimensions do not match the problem")
        is_vec = np.array([m.ndim == 1 for m in rows], dtype=bool)
        vecs = np.reshape([m for m in rows if m.ndim == 1], (is_vec.sum(), n))
        dense = np.reshape([m for m in rows if m.ndim == 2], (k - is_vec.sum(), n, n))
        matrices = np.empty((k, n, n), np.result_type(vecs, dense))
        matrices[is_vec] = vecs[:, :, None] @ vecs.conj()[:, None, :]
        matrices[~is_vec] = dense
        vectors = np.zeros((k, n), vecs.dtype)
        vectors[is_vec] = vecs
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
                            ("vectors", vectors), ("sense", sense), ("rhs", rhs),
                            ("linear_objective", c_u), ("linear", linear)):
            object.__setattr__(self, name, value)
        if not all(np.all(np.isfinite(a)) for a in (objective, matrices, rhs, c_u, linear)):
            raise ValueError("problem data must be finite")
        # a vector row's a a^H is Hermitian by construction
        mats = np.concatenate([objective[None], dense])
        skew = np.linalg.norm(mats - mats.conj().transpose(0, 2, 1), axis=(1, 2))
        if np.any(skew > 1e-9 * np.maximum(1.0, np.linalg.norm(mats, axis=(1, 2)))):
            raise ValueError("matrices must be symmetric/Hermitian")


@dataclass
class ConicSolution:
    """Solver outcome: the primal matrix ``x`` (0 x 0 for an LP) and scalars ``u``.

    ``iterate`` is the kernel's final ``(x, u, y, z_psd, z_lin)`` in its own
    scaled form, without the rows that constrain nothing, the ``start`` of
    a later solve with the same rows.
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

    A row whose matrix, ``linear`` row and rhs are all zero constrains
    nothing; it does not reach the kernel and its dual reads 0 (a problem
    of such rows only raises ``ValueError``).  Vector rows reach the kernel
    with their vectors.
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
    scales = np.maximum(np.hypot(np.linalg.norm(mats, axis=(1, 2)) / root_weight,
                                 np.linalg.norm(linear, axis=1)), np.abs(rhs))
    # rows that constrain nothing stay out of the kernel
    live = scales > 0.0
    mats, linear, rhs, signs, scales = (a[live] for a in (mats, linear, rhs, signs, scales))
    scales = np.maximum(scales, 1e-300)
    a_psd = (mats + mats.conj().transpose(0, 2, 1)) / (2.0 * weight * scales[:, None, None])
    a_vectors = problem.vectors[live] / np.sqrt(weight * scales)[:, None]
    # np.compress, unlike a boolean index, keeps the slack columns C-ordered;
    # the kernel's BLAS products round differently on another layout
    a_lin = np.hstack([linear / scales[:, None], np.compress(signs, np.diag(signs), axis=1)])
    res = kernel.solve_mixed_cone(
        c_psd=objective / (2.0 * weight * obj_scale),
        c_lin=np.concatenate([c_u, np.zeros(a_lin.shape[1] - c_u.size)]) / obj_scale,
        a_psd=a_psd, a_lin=a_lin, b=rhs / scales, a_vectors=a_vectors,
        gap_tol=tolerances.rel_gap, feas_tol=tolerances.feasibility,
        max_iter=tolerances.max_iterations,
        start=None if start is None else start.iterate)

    u = res.u[:c_u.size]
    value = 0.5 * float(np.sum(objective.conj() * res.x).real) + float(c_u @ u)
    duals = np.zeros(live.size)
    duals[live] = res.y * obj_scale / scales
    return ConicSolution(status=res.status, value=value, x=res.x, duals=duals,
                         rel_gap=res.rel_gap, iterations=res.iterations,
                         primal_infeas=res.primal_infeas, dual_infeas=res.dual_infeas,
                         u=u, iterate=(res.x, res.u, res.y, res.z_psd, res.z_lin))

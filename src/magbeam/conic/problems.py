"""The public problem form and its solver entry point.

``solve_sdp`` handles trace-constrained SDPs over real symmetric or complex
Hermitian variables, optionally joined by a block of nonnegative scalar
variables (the mixed PSD+orthant form, one kernel call either way).  The
kernel runs in the dtype of the data, so a Hermitian problem of dimension
n is solved as an n x n complex block.  A problem of dimension 0 is an LP:
the same kernel restricted to the orthant, i.e. the diagonal-barrier
specialization.
"""

import math
import operator
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import kernel
from .kernel import OPTIMAL
from .linalg import frobenius_norm

GE = ">="
LE = "<="
# the coefficient of each sense's unit slack column
_SLACK_SIGN = {LE: 1.0, GE: -1.0}


@dataclass(frozen=True)
class SdpProblem:
    """minimize 0.5*Tr(objective @ X) + linear_objective . u  subject to
    Tr(A_i @ X) + linear[i] . u  (sense[i])  rhs[i]  for each row i,
    X PSD and u >= 0.

    ``objective`` is n x n, symmetric (real) or Hermitian (complex).  Each
    row's matrix A_i is given by its PSD factor: ``factors`` has one entry
    per row, a length-n vector a standing for a a^H (the delivery,
    peak-voltage and peak-current rows of the beamforming problems) or an
    r x n block F standing for sum_j f_j f_j^H over its rows f_j (P0's power
    cap).  A k x n array is k vectors, a k x r x n array k blocks, and a
    list may mix both.  After construction ``factors`` is a tuple of one
    2-D block per row (a vector becomes a 1 x n block, a 2-D array is kept
    as the same object), so the fields build the same problem again:
    ``dataclasses.replace(problem, rhs=...)`` or ``objective=...`` keeps
    the rows, block for block, as a warm start checks.  Real and complex
    data may mix, which makes X complex Hermitian.  Dimension n = 0 is an
    LP in u.  ``sense`` holds k entries of ``GE`` or ``LE``.
    ``linear_objective`` sets the number p of scalar variables ``u`` (none
    by default), and ``linear`` (k x p) their row coefficients, zeros by
    default.
    """

    objective: np.ndarray
    factors: tuple
    sense: tuple
    rhs: np.ndarray
    linear_objective: np.ndarray = ()
    linear: np.ndarray = None

    def __post_init__(self):
        objective = np.asarray(self.objective)
        # a 2-D array stays the same object, as np.atleast_2d keeps it, without the call
        factors = tuple(f if isinstance(f, np.ndarray) and f.ndim == 2 else np.atleast_2d(f)
                        for f in self.factors)
        k = len(factors)
        if k == 0:
            raise ValueError("at least one constraint is required")
        n = objective.shape[0] if objective.ndim == 2 else -1
        if objective.shape != (n, n) or any(f.ndim != 2 or f.shape[1] != n for f in factors):
            raise ValueError("matrix dimensions do not match the problem")
        sense = tuple(self.sense)
        if any(s not in _SLACK_SIGN for s in sense):
            raise ValueError(f"each sense must be '>=' or '<=', got {sense!r}")
        rhs = np.asarray(self.rhs, dtype=float)
        c_u = np.asarray(self.linear_objective, dtype=float)
        linear = np.zeros((k, c_u.size)) if self.linear is None \
            else np.asarray(self.linear, dtype=float)
        if len(sense) != k or rhs.shape != (k,):
            raise ValueError("sense and rhs must have one entry per constraint")
        if c_u.ndim != 1 or linear.shape != (k, c_u.size):
            raise ValueError("linear coefficients do not match linear_objective")
        for name, value in (("objective", objective), ("factors", factors), ("sense", sense),
                            ("rhs", rhs), ("linear_objective", c_u), ("linear", linear)):
            object.__setattr__(self, name, value)
        # the shapes agree, so every number of the problem fits in one vector
        data = (np.concatenate((objective, *factors)), rhs, c_u, linear)
        if not np.isfinite(np.concatenate([a.ravel() for a in data])).all():
            raise ValueError("problem data must be finite")
        # every row's sum of f f^H is Hermitian by construction
        if frobenius_norm(objective - objective.conj().T) > 1e-9 * frobenius_norm(objective):
            raise ValueError("the objective must be symmetric/Hermitian")


class _Rows(NamedTuple):
    """A problem's rows as :func:`solve_sdp` passes them to the kernel, before
    they are scaled.

    A cold solve prepares them and its :class:`ConicSolution` carries them.
    ``factors`` and ``sense`` are the rows they were prepared from; the
    other fields are the kernel's ``dtype``, each row's Gram norm
    ``psd_norms`` (|A_i|_F, whatever its scale), the ``live`` rows (those
    that constrain something), the live rows' factor ``columns`` stacked in
    row order with the kernel row of each (``column_rows``) and their unit
    ``slacks``.
    """

    factors: tuple
    sense: tuple
    dtype: type
    psd_norms: np.ndarray
    live: np.ndarray
    columns: np.ndarray
    column_rows: np.ndarray
    slacks: np.ndarray

    def of(self, problem, complex_objective):
        """True if these are the problem's rows: its own factor blocks (as
        objects) and senses, in the dtype it takes."""
        factors = problem.factors
        return (self.sense == problem.sense and len(self.factors) == len(factors)
                and all(map(operator.is_, self.factors, factors))
                and (self.dtype is complex) == (complex_objective
                                                or bool(self.columns.imag.any())))


def _scales(problem, psd_norms, dtype):
    """Each row's data norm in the kernel's geometry, taken before its unit
    slack is appended: the larger of |(A_i, linear_i)| and |rhs_i|."""
    linear = problem.linear
    # the data goes in divided by the block's weight and the kernel's norms
    # grow by its root; np.linalg.norm(linear, axis=1) as that function sums
    # it, without its wrapper
    return np.maximum(np.hypot(psd_norms / math.sqrt(kernel.block_weight(dtype)),
                               np.sqrt((linear * linear).sum(axis=1))),
                      np.abs(problem.rhs))


def _prepare(problem, complex_objective):
    """The :class:`_Rows` of a problem whose objective is complex or not."""
    factors, k = np.concatenate(problem.factors), len(problem.factors)
    rows = np.repeat(np.arange(k), [len(f) for f in problem.factors])
    dtype = complex if complex_objective or factors.imag.any() else float
    factors = np.asarray(factors if dtype is complex else factors.real, dtype=dtype)
    # |A_i|_F is that of its columns' Gram matrix
    same_row = rows[:, None] == rows[None, :]
    gram2 = np.abs(factors.conj() @ factors.T) ** 2
    psd_norms = np.sqrt(np.bincount(rows, (gram2 * same_row).sum(axis=1), k))
    # rows that constrain nothing stay out of the kernel
    live = _scales(problem, psd_norms, dtype) > 0.0
    live_cols = live[rows]
    column_rows = (np.cumsum(live) - 1)[rows[live_cols]]
    signs = np.array([_SLACK_SIGN[s] for s in problem.sense])[live]
    return _Rows(problem.factors, problem.sense, dtype, psd_norms, live, factors[live_cols],
                 column_rows, np.diag(signs))


@dataclass
class ConicSolution:
    """Solver outcome: the primal matrix ``x`` (0 x 0 for an LP) and scalars ``u``.

    ``iterate`` is the kernel's final ``(x, u, y, z_psd, z_lin)`` in its own
    scaled form, without the rows that constrain nothing, and ``rows`` the
    problem's rows as the solve prepared them: together the ``start`` of a
    later solve with the same rows.
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
    rows: _Rows = field(default=None, repr=False)

    @property
    def is_optimal(self):
        return self.status == OPTIMAL


def solve_sdp(problem: SdpProblem, start: ConicSolution = None) -> ConicSolution:
    """Solve a trace-constrained SDP or LP; see :class:`SdpProblem` for the form.

    A row whose matrix, ``linear`` row and rhs are all zero constrains
    nothing; it does not reach the kernel and its dual reads 0 (a problem
    of such rows only raises ``ValueError``).  The kernel gets the other
    rows as their factor columns stacked in row order, each scaled by the
    root of its row's scale, and the row of each column.  It logs each
    iteration at DEBUG on the ``magbeam.conic`` logger.

    ``start`` is an earlier solution of a problem with the same rows,
    typically with another objective or rhs, or another ``linear``: the
    same factor blocks as objects (``dataclasses.replace`` keeps them, and
    so does every relaxation built from one impedance model) and the same
    senses.  The solve then reuses the rows as that solution prepared them
    (their stacked columns and the row of each, Gram norms, live rows and
    slack columns), and the kernel starts from its final iterate moved
    into the interior, not from the identity.  Without a start, or with one
    of other rows or whose rows no longer fit the problem (another dtype,
    other rows that constrain nothing), the solve prepares its rows and
    starts cold; a start of other dimensions raises ``ValueError``.
    """
    complex_objective = problem.objective.dtype.kind == "c" and bool(problem.objective.imag.any())
    rows = None if start is None else start.rows
    if rows is not None and not rows.of(problem, complex_objective):
        rows = None
    scales = None if rows is None else _scales(problem, rows.psd_norms, rows.dtype)
    # rows.of has matched the row count, so the masks have one shape
    if rows is None or not ((scales > 0.0) == rows.live).all():
        rows = _prepare(problem, complex_objective)
        scales = _scales(problem, rows.psd_norms, rows.dtype)
        if start is not None:
            n, k = problem.objective.shape[0], len(rows.slacks)
            p = problem.linear_objective.size + k
            if [np.shape(a) for a in start.iterate] != [(n, n), (p,), (k,), (n, n), (p,)]:
                raise ValueError("start iterate does not match the problem")
            start = None

    dtype, weight = rows.dtype, kernel.block_weight(rows.dtype)
    objective = np.asarray(problem.objective if dtype is complex else problem.objective.real,
                           dtype=dtype)
    c_u, linear, rhs = problem.linear_objective, problem.linear, problem.rhs
    obj_scale = max(float(np.hypot(frobenius_norm(objective) / math.sqrt(weight),
                                   frobenius_norm(c_u))), 1e-300)
    live = rows.live
    linear, rhs, scales = linear[live], rhs[live], scales[live]
    scales = np.maximum(scales, 1e-300)
    a_factors = rows.columns / np.sqrt(weight * scales)[rows.column_rows, None]
    # orthant block: the problem's own scalar variables, then one unit slack
    # per row
    a_lin = np.concatenate([linear / scales[:, None], rows.slacks], axis=1)
    res = kernel.solve_mixed_cone(
        c_psd=objective / (2.0 * weight * obj_scale),
        c_lin=np.concatenate([c_u, np.zeros(a_lin.shape[1] - c_u.size)]) / obj_scale,
        a_factors=a_factors, a_lin=a_lin, b=rhs / scales, rows=rows.column_rows,
        start=None if start is None else start.iterate)

    u = res.u[:c_u.size]
    value = 0.5 * float((objective.conj() * res.x).sum().real) + float(c_u @ u)
    duals = np.zeros(live.size)
    duals[live] = res.y * obj_scale / scales
    # x and u are copies: a caller's edits must not reach a later warm start
    return ConicSolution(status=res.status, value=value, x=res.x.copy(), duals=duals,
                         rel_gap=res.rel_gap, iterations=res.iterations,
                         primal_infeas=res.primal_infeas, dual_infeas=res.dual_infeas,
                         u=u.copy(), iterate=(res.x, res.u, res.y, res.z_psd, res.z_lin),
                         rows=rows)

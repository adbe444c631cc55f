"""Dense primal-dual interior-point kernel over a mixed PSD/orthant cone.

Solves the standard-form problem

    minimize    <C, X> + c.u
    subject to  <A_i, X> + a_i.u = b_i,   i = 1..k
                X  symmetric or Hermitian PSD (n x n, n may be 0)
                u >= 0                    (length p, p may be 0)

with an infeasible start, Nesterov-Todd scaling of the PSD block and a
Mehrotra predictor-corrector step, as in SDPT3 (Toh, Todd & Tutuncu 1999).  As
there, the iterate is one vector per side: the primal [X's reals, u] and the
dual slack [Z's reals, z] are the rows of one array (a direction (dx, dz)
another), with X, u, Z and z as views, and the rows are one (k, reals + p)
operator with a metric vector for the inner product; so residuals, A(.),
A^*(.), the objectives, mu, the affine gap and the updates are each one
mat-vec or dot.  Per iteration: the NT scaling (one batched Cholesky of X and
Z and an SVD give r with r^-1 X r^-H = r^H Z r = diag(d), W = r r^H), its two
frames scaled by d^-1/2 once, so both iterates read I there; the Schur
complement; a Cholesky of it as the positive-definiteness test, then one LU
solve of it per direction.  The row images of W r_d W and d_lin r_d_lin are
hoisted out of the directions; each direction takes its framed pair's
lambda_min from one batched eigvalsh and both orthant ratio tests in one call,
and the Mehrotra term reads the predictor's pair.  The factor's explicit
inverse, applied twice, would be cheaper but rounds worse late in a solve:
with it 6 of the 11 P0 maximizations that solve on the bench's 16-charger
tables ended numerical_failure.

Every row's matrix comes as its PSD factor columns, A_i = sum_j f_j f_j^H: a
delivery, peak-voltage or peak-current row is one column, P0's power cap the
N + Q rows of B-bar's factor.  The Schur complement's PSD part, weight *
Re tr(A_i W A_j W), is built from them, as in DSDP (Benson, Ye & Zhang 2000)
and SDPT3's low-rank path: with V the n x r matrix of all columns, each
iteration forms V^H W V (O(r n^2 + r^2 n)), squares its entries and sums each
row's columns, weight * E |V^H W V|^2 E^T, in place of the batched W A_i W
(O(k n^3 + k^2 n^2)).  At n = 5 an iteration costs its small NumPy calls, not
arithmetic, so LAPACK is called through :mod:`.linalg` without the numpy.linalg
wrappers or a per-call error state, scalars and step lengths stay Python floats,
and the residuals and frames fill per-solve buffers: about 145 us an iteration
and 80 us of set-up a call on a 2-vCPU VM (README).

What the rows are apart from their data, the map from factor columns to
rows and the inner product's metric, is the caller's :class:`RowMap`.  A
re-solve of the same rows under another objective, rhs or row scaling
(``solve_sdp`` from a ``start``) passes the one its cold solve made; only
the scaled operator is built again.

The dual is  max b.y  s.t.  sum_i y_i A_i + Z = C (Z PSD),
a_lin^T y + z = c (z >= 0).  X is real or complex as its data are.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import linalg

# status codes shared with the public wrappers
OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
NUMERICAL_FAILURE = "numerical_failure"

_STEP_FRACTION = 0.99
_MIN_STEP = 1e-10
# a start iterate moves into the interior by this fraction of each cone
# block's mean eigenvalue (Yildirim & Wright 2002); on the 18 rank-penalized
# P0 re-solves of the two-user grid, 0.03, 0.05, 0.1 and 0.2 took 227, 281,
# 179 and 185 iterations
_WARM_START_SHIFT = 0.1

# A complex block keeps the geometry of its real 2n x 2n embedding: inner
# product 2 Re tr(A^H B), norms scaled by sqrt(2), barrier degree 2n, and
# data passed halved.  Over the 41 peak-limited P0 relaxations of the
# two-user region, the natural geometry (Re tr, degree n) took 1270
# iterations against 929.
HERMITIAN_WEIGHT = 2.0


@dataclass
class KernelResult:
    status: str
    x: np.ndarray          # PSD block (n x n), possibly 0 x 0
    u: np.ndarray          # orthant block
    y: np.ndarray          # equality multipliers
    z_psd: np.ndarray      # dual slack, PSD block
    z_lin: np.ndarray      # dual slack, orthant block
    rel_gap: float
    primal_infeas: float
    dual_infeas: float
    iterations: int


def _sym(m):
    return (m + m.conj().swapaxes(-1, -2)) / 2.0


def _minimum(a, b):
    """``np.minimum`` of two floats: NaN if either is NaN, b on a tie."""
    return a if a < b or a != a else b


def _max_step_framed(lam, bound=math.inf):
    """Largest alpha <= ``bound`` with I + alpha*ds PSD, as a float, from ds's
    smallest eigenvalue ``lam`` (inf for a 0 x 0 ds).

    Unbounded where lam >= -1e-14, else -1/lam; combined as ``np.minimum``
    combines, so a NaN lam or bound gives NaN.
    """
    return _minimum(-1.0 / lam if not lam >= -1e-14 else math.inf, bound)


def _max_step_pos(v, dv, work=None):
    """Largest alpha with v + alpha*dv >= 0 (v > 0), as min -v_i/dv_i over dv_i < 0.

    Taken along the last axis, so a stack of pairs gives an array of steps;
    ``work``, when given, is scratch of v's shape.  A bound beyond 1e300
    reads as unbounded (inf).
    """
    ratio = np.empty(v.shape) if work is None else work
    ratio.fill(-np.inf)
    # an entry with |dv_i| <= 1e-300 v_i, whose ratio could overflow, bounds
    # the step only beyond 1e300, which every caller's min(1, .) drops
    np.divide(v, dv, out=ratio, where=dv < -1e-300 * v)
    return -ratio.max(axis=-1, initial=-np.inf)


def _nt_scaling(xz):
    """NT scaling of the PSD block, from the stack ``xz`` = (x, z).

    Returns (r, r_inv, d) with r^{-1} x r^{-H} = r^H z r = diag(d) and the
    scaling matrix w = r r^H satisfying w z w = x.
    """
    factors = linalg.cholesky(xz)
    lx, lz = factors[0], factors[1]     # indexed: unpacking iterates, which costs more
    lz_h = lz.conj().T
    uu, ss, vvh = linalg.svd(lz_h @ lx)
    sqrt_s = np.sqrt(ss)
    r = lx @ (vvh.conj().T / sqrt_s)
    r_inv = (uu.conj().T @ lz_h) / sqrt_s[:, None]
    return r, r_inv, ss


def _debug(message, *args):
    """Log on the ``magbeam.conic`` logger at DEBUG."""
    import logging  # here: `import magbeam` skips its 5 ms
    logging.getLogger("magbeam.conic").debug(message, *args)


def _factor_normal(m):
    """Solver for the (nominally SPD) normal matrix, with escalating jitter.

    A Cholesky only tests m + jitter*I; each right-hand side is one LU solve,
    or a least-squares solve of m where no jitter passes or the LU fails.
    """
    def least_squares(rhs):
        return np.linalg.lstsq(m, rhs, rcond=None)[0]

    jitter = 0.0
    for _ in range(6):
        shifted = m + jitter * np.eye(len(m)) if jitter else m
        try:
            linalg.cholesky(shifted)
        except np.linalg.LinAlgError:
            jitter = jitter * 100.0 if jitter else np.max(np.abs(np.diag(m))) * 1e-14
            continue
        if jitter:
            _debug("normal matrix needs jitter %.1e", jitter)

        def solve(rhs):
            try:
                return linalg.solve(shifted, rhs)
            except np.linalg.LinAlgError:   # Cholesky passed, but LU met a zero pivot
                _debug("normal matrix singular in LU: least squares")
                return least_squares(rhs)
        return solve
    _debug("normal matrix not factored: least squares")
    return least_squares


def _schur_complement(v_rows, e, weight):
    """The normal matrix's PSD part, weight * E |V^H W V|^2 E^T, as a function of W.

    ``v_rows`` holds the columns of V one per array row, and the k x r map
    ``e`` has e[i, j] = 1 where column j is row i's; entry (i, j) sums
    weight * |a^H W b|^2 over row i's columns a and row j's b, since the
    Hermitian g = V^H W V has g_ab g_ba = |g_ab|^2.  A call costs
    O(r n^2 + r^2 n + k r^2).
    """
    v_h, v, we = v_rows.conj(), np.ascontiguousarray(v_rows.T), weight * e

    def schur(w_mat):
        g = v_h @ w_mat @ v
        return we @ (g * g.T).real @ e.T

    return schur


class RowMap(NamedTuple):
    """The rows' part of the kernel's operator that their data leaves alone.

    ``e`` is the k x r map with e[i, j] = 1 where factor column j is row i's,
    and ``metric`` weighs a point's reals (X's, then u's) in the inner
    product.  Neither depends on the columns or on the rows' scales, so the
    re-solves of one problem's rows share one (:func:`row_map`).
    """

    e: np.ndarray
    metric: np.ndarray


def row_map(factor_rows, k, n, p, dtype):
    """The :class:`RowMap` of k rows owning the columns ``factor_rows`` over an
    n x n block of ``dtype`` and p scalars."""
    factor_rows = np.asarray(factor_rows)
    if ((factor_rows < 0) | (factor_rows >= k)).any():
        raise ValueError("factor vectors do not match the rows")
    weight = HERMITIAN_WEIGHT if dtype is complex else 1.0
    nr = (2 if dtype is complex else 1) * n * n
    return RowMap(e=(factor_rows == np.arange(k)[:, None]).astype(float),
                  metric=np.concatenate([np.full(nr, weight), np.ones(p)]))


def solve_mixed_cone(c_psd, c_lin, a_factors, a_lin, b, rows,
                     gap_tol=1e-8, feas_tol=1e-8, max_iter=100, start=None):
    """Run the interior-point iteration; see module docstring for the form.

    Row i's matrix is A_i = sum_j f_j f_j^H over the columns f_j of
    ``a_factors`` (r x n, one column per array row) that ``rows``, the
    :class:`RowMap` from :func:`row_map`, assigns to row i; a caller
    re-solving the same rows under new data or scales makes it once.  An LP
    has ``c_psd`` 0 x 0 and ``a_factors`` r x 0.  Each iteration logs one
    line at DEBUG on ``magbeam.conic``, a child of the ``magbeam`` logger.

    ``start`` is an optional iterate ``(x, u, y, z_psd, z_lin)`` to start
    from instead of the scaled identity, typically the final iterate of a
    problem with the same constraint rows and another objective.  Each of
    its cone blocks is shifted into the interior by ``_WARM_START_SHIFT``
    times its mean eigenvalue, and the multipliers ``y`` restart at zero.
    A start of other dimensions, or complex for real data, raises
    ``ValueError``.  The status is ``infeasible`` only on a Farkas
    certificate within ``feas_tol``; a solve that stalls ends
    ``numerical_failure``.
    """
    b = np.asarray(b, dtype=float)
    k, n = b.size, c_psd.shape[0]
    dtype = complex if np.iscomplexobj(c_psd) or np.iscomplexobj(a_factors) else float
    weight = HERMITIAN_WEIGHT if dtype is complex else 1.0
    c_psd = _sym(np.asarray(c_psd, dtype=dtype))
    c_lin = np.asarray(c_lin, dtype=float)
    p = c_lin.size
    a_factors, a_lin = np.asarray(a_factors, dtype=dtype), np.asarray(a_lin, dtype=float)
    if a_lin.shape != (k, p):
        raise ValueError("constraint data dimensions are inconsistent")
    if n + p == 0 or k == 0:
        raise ValueError("empty problem")
    # a point of the space is one real vector, X's nr reals then u, so that
    # weight * Re tr(A^H B) + a.b is a dot weighed by ``metric``; the rows
    # are one operator, A(v) = a_met @ v and A^*(y) = y @ a_mat
    reals = 2 if dtype is complex else 1
    nr = reals * n * n
    e, metric = rows.e, rows.metric
    if a_factors.shape != (e.shape[1], n) or e.shape[0] != k or metric.size != nr + p:
        raise ValueError("factor vectors do not match the rows")

    schur = _schur_complement(a_factors, e, weight)
    c = np.concatenate([c_psd.ravel().view(float), c_lin])
    outer = a_factors[:, :, None] * a_factors.conj()[:, None, :]
    a_mat = np.concatenate([e @ outer.reshape(len(outer), n * n).view(float), a_lin], axis=1)
    a_met, c_met = a_mat * metric, c * metric
    degree = weight * n + p

    def psd(v):
        """The PSD block of a vector, or of a stack of them, as matrix views."""
        return v[..., :nr].view(dtype).reshape(v.shape[:-1] + (n, n))

    norm_b = 1.0 + math.sqrt(b @ b)
    norm_c = 1.0 + math.sqrt(c @ c_met)

    # the primal [X, u] and dual slack [Z, z] as the rows of one array, a
    # direction (dx, dz) likewise; X, u, Z and z, and their steps, are views
    xz, dxz, v = np.zeros((2, nr + p)), np.empty((2, nr + p)), np.empty(nr + p)
    # (indexed: unpacking an array iterates over it, which costs more)
    xv, zv, xz_m, xz_lin, v_m, v_lin = xz[0], xz[1], psd(xz), xz[:, nr:], psd(v), v[nr:]
    dx, dz, dxz_m, dxz_lin = dxz[0], dxz[1], psd(dxz), dxz[:, nr:]
    x, z_psd, u, z_lin = xz_m[0], xz_m[1], xz_lin[0], xz_lin[1]
    dx_m, dz_m, dx_lin, dz_lin = dxz_m[0], dxz_m[1], dxz_lin[0], dxz_lin[1]
    # the residuals, the NT frames, the orthant ratios and the step lengths are
    # filled in place
    r_p, r_d, ratios, steps = np.empty(k), np.empty(nr + p), np.empty((2, p)), np.empty((2, 1))
    r_d_m, r_d_lin, frame = psd(r_d), r_d[nr:], np.empty((2, n, n), dtype)
    frame_x, frame_z = frame[0], frame[1]
    diag = xz[:, :nr:reals * (n + 1)]   # the real diagonals of X and Z
    if start is None:
        diag[...] = xz_lin[...] = [[max(1.0, float(np.max(np.abs(b))))],
                                   [max(1.0, float(np.max(np.abs(c_psd), initial=0.0)),
                                        float(np.max(np.abs(c_lin), initial=0.0)))]]
    else:
        if [np.shape(m) for m in start] != [(n, n), (p,), (k,), (n, n), (p,)] \
                or (dtype is float and np.iscomplexobj(start[0])):
            raise ValueError("start iterate does not match the problem")
        x[...], u[...], z_psd[...], z_lin[...] = start[0], start[1], start[3], start[4]
        xz_m[...] = _sym(xz_m)
        # each cone block moves by _WARM_START_SHIFT times its mean eigenvalue
        diag += _WARM_START_SHIFT * diag.sum(axis=1, keepdims=True) / max(n, 1)
        xz_lin += _WARM_START_SHIFT * xz_lin.sum(axis=1, keepdims=True) / max(p, 1)
    y = np.zeros(k)

    def residuals(y):
        # r_p and r_d; the objectives, relative gap and scaled infeasibilities
        np.subtract(b, a_met @ xv, out=r_p)
        np.subtract(np.subtract(c, y @ a_mat, out=r_d), zv, out=r_d)
        pobj, dobj = float(c_met @ xv), float(b @ y)
        return (pobj, dobj, abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj)),
                math.sqrt(r_p @ r_p) / norm_b, math.sqrt(r_d @ (metric * r_d)) / norm_c)

    import logging  # here: `import magbeam` skips its 5 ms
    log = logging.getLogger("magbeam.conic")
    debug = log.isEnabledFor(logging.DEBUG)
    status = NUMERICAL_FAILURE
    stall = 0
    it = 0
    for it in range(1, max_iter + 1):
        pobj, dobj, rel_gap, p_inf, d_inf = residuals(y)
        mu = float((xv * metric) @ zv) / degree
        if debug:
            log.debug("iter %3d  pobj % .9e  dobj % .9e  pinf %.2e  dinf %.2e  mu %.2e",
                      it, pobj, dobj, p_inf, d_inf, mu)

        if p_inf <= feas_tol and d_inf <= feas_tol and rel_gap <= gap_tol:
            status = OPTIMAL
            break

        # Farkas certificate of primal infeasibility: find y with b.y > 0 and
        # -A^*(y) in the dual cone.
        if dobj > feas_tol:
            cand = (y / dobj) @ a_mat
            s_cand, v_cand = psd(cand), cand[nr:]
            viol, ref = 0.0, 1.0
            if n:
                viol = max(viol, max(0.0, float(linalg.eigvalsh(_sym(s_cand))[-1])))
                ref = max(ref, math.sqrt(weight) * linalg.frobenius_norm(s_cand))
            if p:
                viol = max(viol, max(0.0, float(np.max(v_cand))))
                ref = max(ref, float(np.max(np.abs(v_cand))))
            if viol / ref <= feas_tol:
                status = INFEASIBLE
                break

        # improving-ray certificate of unboundedness
        ray_scale = weight * float(diag[0].sum()) + float(u.sum())
        if ray_scale > 0 and pobj / ray_scale < -max(1e-6, 100 * feas_tol):
            a_x = b - r_p
            if math.sqrt(a_x @ a_x) / ray_scale <= feas_tol:
                status = UNBOUNDED
                break

        # NT scaling; ``frame`` maps a stack (dx, dz) into the frame where x
        # and z_psd are both I
        try:
            r_mat, r_inv, d_spec = _nt_scaling(xz_m) if n else (x, x, np.zeros(0))
        except np.linalg.LinAlgError:
            break
        r_h = r_mat.conj().T
        w_mat = r_mat @ r_h
        frame_scale = (1.0 / np.sqrt(d_spec))[:, None]
        np.multiply(r_inv, frame_scale, out=frame_x)
        np.multiply(r_h, frame_scale, out=frame_z)
        frame_h = frame.conj().swapaxes(-1, -2)
        d_lin = u / z_lin
        solve_normal = _factor_normal(schur(w_mat) + (a_lin * d_lin) @ a_lin.T)
        # the rows' image of the constant part of every direction (v as work space)
        np.matmul(w_mat @ r_d_m, w_mat, out=v_m)
        np.multiply(d_lin, r_d_lin, out=v_lin)
        rhs = r_p + a_met @ v

        def directions():
            # dxz for the scaled complementarity target v; dy, the framed
            # pair and both sides' largest steps
            dy = solve_normal(rhs - a_met @ v)
            np.subtract(r_d, dy @ a_mat, out=dz)
            np.matmul(w_mat @ dz_m, w_mat, out=dx_m)
            np.multiply(d_lin, dz_lin, out=dx_lin)
            np.subtract(v, dx, out=dx)
            np.add(dx_m, dx_m.conj().T, out=dx_m)
            np.multiply(dx_m, 0.5, out=dx_m)
            framed = frame @ dxz_m @ frame_h
            lams = linalg.eigvalsh(framed)[:, 0].tolist() if n else (math.inf, math.inf)
            bounds = _max_step_pos(xz_lin, dxz_lin, ratios).tolist()
            return dy, framed, (_max_step_framed(lams[0], bounds[0]),
                                _max_step_framed(lams[1], bounds[1]))

        # predictor (affine scaling) direction
        np.negative(xv, out=v)
        _, framed, (step_x, step_z) = directions()
        steps[0, 0], steps[1, 0] = _minimum(1.0, step_x), _minimum(1.0, step_z)
        trial = xz + steps * dxz
        mu_aff = max((trial[0] * metric) @ trial[1], 0.0) / degree
        sigma = min(1.0, (mu_aff / mu) ** 3) if mu > 0 else 0.0

        # corrector with Mehrotra second-order term, in the scaled space (t_mat
        # is exactly Hermitian); framed = S (r^-1 dx r^-H, r^H dz r) S for
        # S = diag(d^-1/2), so their product there is framed[0] D framed[1]
        prod = (framed[0] * d_spec) @ framed[1]
        t_mat = (prod + prod.conj().T) \
            * (-d_spec[:, None] * d_spec / (d_spec[:, None] + d_spec))
        t_mat.reshape(-1)[::n + 1] += sigma * mu - d_spec ** 2
        np.divide(sigma * mu - u * z_lin - dx_lin * dz_lin, z_lin, out=v_lin)
        np.matmul(frame_h[1] @ t_mat, frame_z, out=v_m)

        dy, _, (step_x, step_z) = directions()
        alpha_x = _minimum(1.0, _STEP_FRACTION * step_x)
        alpha_z = _minimum(1.0, _STEP_FRACTION * step_z)
        if alpha_x < _MIN_STEP and alpha_z < _MIN_STEP:
            stall += 1
            if stall >= 2:
                break
        else:
            stall = 0

        # x and each dx are exactly Hermitian, dz only up to rounding: symmetrize z
        steps[0, 0], steps[1, 0] = alpha_x, alpha_z
        xz += steps * dxz
        y = y + alpha_z * dy
        z_psd += z_psd.conj().T
        z_psd *= 0.5
    else:   # each break leaves before the iterate moves, its residuals in hand
        *_, rel_gap, p_inf, d_inf = residuals(y)
    # x, u, z_psd and z_lin are views of this call's own xz
    return KernelResult(status=status, x=x, u=u, y=y, z_psd=z_psd, z_lin=z_lin,
                        rel_gap=rel_gap, primal_infeas=p_inf, dual_infeas=d_inf,
                        iterations=it)

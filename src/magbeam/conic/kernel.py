"""Dense primal-dual interior-point kernel over a mixed PSD/orthant cone.

Solves the standard-form problem

    minimize    <C, X> + c.u
    subject to  <A_i, X> + a_i.u = b_i,   i = 1..k
                X  symmetric or Hermitian PSD (n x n, n may be 0)
                u >= 0                    (length p, p may be 0)

with an infeasible start, Nesterov-Todd scaling of the PSD block and a
Mehrotra predictor-corrector step, as in SDPT3 (Toh, Todd & Tutuncu 1999).
Per iteration: the NT scaling (one batched Cholesky of X and Z and an SVD
give r with r^-1 X r^-H = r^H Z r = diag(d), W = r r^H); the Schur
complement; a Cholesky of it as the positive-definiteness test, then one LU
solve of it per direction; step lengths from lambda_min of both directions
in the NT frame, one batched eigvalsh per step.  The factor's explicit
inverse, applied twice, would be cheaper but rounds worse late in a solve:
with it 6 of the 11 P0 maximizations that solve on the bench's 16-charger
tables ended numerical_failure.

Every row's matrix comes as its PSD factor columns, A_i = sum_j f_j f_j^H:
a delivery, peak-voltage or peak-current row is one column, P0's power cap
the N + Q rows of B-bar's factor.  The Schur complement's PSD part,
weight * Re tr(A_i W A_j W), is built from them, as in DSDP (Benson, Ye &
Zhang 2000) and SDPT3's low-rank path: with V the n x r matrix of all
columns, each iteration forms V^H W V (O(r n^2 + r^2 n)), squares its
entries and sums each row's columns, weight * E |V^H W V|^2 E^T.  The
batched W A_i W it replaced cost O(k n^3 + k^2 n^2); README ("Library
sketch") has the timings.  The rows' (k, n^2) view, formed once per solve from the
columns, serves the residuals and right-hand sides as mat-vecs.  At n = 5
an iteration costs its ~100 NumPy calls, not arithmetic.

The dual is  max b.y  s.t.  sum_i y_i A_i + Z = C (Z PSD),
a_lin^T y + z = c (z >= 0).  X is real or complex as its data are.
"""

import math
from dataclasses import dataclass

import numpy as np

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


def _flat(m):
    """Trailing n x n matrices as rows of reals, so Re tr(A^H B) is a dot."""
    m = np.ascontiguousarray(m)
    return m.reshape(m.shape[:-2] + (math.prod(m.shape[-2:]),)).view(float)


def _max_step_psd(d, ds):
    """Largest alpha with diag(d) + alpha*ds PSD (d > 0: an NT-frame iterate).

    ``ds`` is one Hermitian matrix or a stack (..., n, n) of them sharing one
    batched eigvalsh, which reads only their lower triangles; returns a
    float, or an array over the stack.
    """
    step = np.full(ds.shape[:-2], np.inf)
    if d.size:
        s = 1.0 / np.sqrt(d)
        lam = np.linalg.eigvalsh(ds * (s[:, None] * s))[..., 0]
        np.divide(-1.0, lam, out=step, where=~(lam >= -1e-14))
    return step if step.ndim else float(step)


def _max_step_pos(v, dv):
    """Largest alpha with v + alpha*dv >= 0 (v > 0), as min -v_i/dv_i over dv_i < 0.

    A bound beyond 1e300 reads as unbounded (inf).
    """
    ratio = np.full(v.shape, -np.inf)
    # an entry with |dv_i| <= 1e-300 v_i, whose ratio could overflow, bounds
    # the step only beyond 1e300, which every caller's min(1, .) drops
    np.divide(v, dv, out=ratio, where=dv < -1e-300 * v)
    return -float(ratio.max(initial=-np.inf))


def _nt_scaling(x, z):
    """NT scaling of the PSD block.

    Returns (r, r_inv, d) with r^{-1} x r^{-H} = r^H z r = diag(d) and the
    scaling matrix w = r r^H satisfying w z w = x.
    """
    lx, lz = np.linalg.cholesky(np.array((x, z)))
    uu, ss, vvh = np.linalg.svd(lz.conj().T @ lx)
    sqrt_s = np.sqrt(ss)
    r = lx @ (vvh.conj().T / sqrt_s)
    r_inv = (uu.conj().T @ lz.conj().T) / sqrt_s[:, None]
    return r, r_inv, ss


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
            np.linalg.cholesky(shifted)
        except np.linalg.LinAlgError:
            jitter = jitter * 100.0 if jitter else np.max(np.abs(np.diag(m))) * 1e-14
            continue
        if jitter:
            import logging
            logging.getLogger("magbeam.conic").debug("normal matrix needs jitter %.1e", jitter)

        def solve(rhs):
            try:
                return np.linalg.solve(shifted, rhs)
            except np.linalg.LinAlgError:   # Cholesky passed, but LU met a zero pivot
                import logging
                logging.getLogger("magbeam.conic").debug("normal matrix singular in LU: "
                                                         "least squares")
                return least_squares(rhs)
        return solve
    import logging
    logging.getLogger("magbeam.conic").debug("normal matrix not factored: least squares")
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


def _interior(m):
    """``m`` plus ``_WARM_START_SHIFT`` times its mean eigenvalue (times I for a matrix)."""
    if m.ndim == 1:
        return m + _WARM_START_SHIFT * np.sum(m) / max(m.size, 1)
    return m + _WARM_START_SHIFT * np.trace(m).real / max(len(m), 1) * np.eye(len(m))


def solve_mixed_cone(c_psd, c_lin, a_factors, a_lin, b, factor_rows,
                     gap_tol=1e-8, feas_tol=1e-8, max_iter=100, start=None):
    """Run the interior-point iteration; see module docstring for the form.

    Row i's matrix is A_i = sum_j f_j f_j^H over the columns f_j of
    ``a_factors`` (r x n, one column per array row) whose ``factor_rows``
    entry is i.  An LP has ``c_psd`` 0 x 0 and ``a_factors`` r x 0.  Each
    iteration logs one line at DEBUG on ``magbeam.conic``, a child of the
    ``magbeam`` logger.

    ``start`` is an optional iterate ``(x, u, y, z_psd, z_lin)`` to start
    from instead of the scaled identity, typically the final iterate of a
    problem with the same constraint rows and another objective.  Each of
    its cone blocks is shifted into the interior by ``_WARM_START_SHIFT``
    times its mean eigenvalue, and the multipliers ``y`` restart at zero.
    A start of other dimensions, or complex for real data, raises
    ``ValueError``.
    """
    b = np.asarray(b, dtype=float)
    k = b.size
    n = c_psd.shape[0]
    dtype = complex if np.iscomplexobj(c_psd) or np.iscomplexobj(a_factors) else float
    weight = HERMITIAN_WEIGHT if dtype is complex else 1.0
    c_psd = _sym(np.asarray(c_psd, dtype=dtype))
    c_lin = np.asarray(c_lin, dtype=float)
    p = c_lin.size
    a_factors = np.asarray(a_factors, dtype=dtype)
    factor_rows = np.asarray(factor_rows)
    a_lin = np.asarray(a_lin, dtype=float)
    if a_lin.shape != (k, p):
        raise ValueError("constraint data dimensions are inconsistent")
    if a_factors.shape != (factor_rows.size, n) or np.any((factor_rows < 0) | (factor_rows >= k)):
        raise ValueError("factor vectors do not match the rows")
    if n + p == 0 or k == 0:
        raise ValueError("empty problem")

    e = (factor_rows == np.arange(k)[:, None]).astype(float)
    # the rows' matrices as one (k, n^2) view, for the residuals and rhs
    a_flat = e @ _flat(a_factors[:, :, None] * a_factors.conj()[:, None, :])
    schur = _schur_complement(a_factors, e, weight)
    degree = weight * n + p

    def inner(m1, m2):
        return weight * np.vdot(m1, m2).real

    norm_b = 1.0 + math.sqrt(b @ b)
    norm_c = 1.0 + math.sqrt(inner(c_psd, c_psd) + c_lin @ c_lin)

    rho_p = max(1.0, float(np.max(np.abs(b))))
    rho_d = max(1.0, float(np.max(np.abs(c_psd), initial=0.0)),
                float(np.max(np.abs(c_lin), initial=0.0)))
    if start is None:
        x = rho_p * np.eye(n, dtype=dtype)
        u = rho_p * np.ones(p)
        z_psd = rho_d * np.eye(n, dtype=dtype)
        z_lin = rho_d * np.ones(p)
    else:
        if [np.shape(m) for m in start] != [(n, n), (p,), (k,), (n, n), (p,)] \
                or (dtype is float and np.iscomplexobj(start[0])):
            raise ValueError("start iterate does not match the problem")
        x, u, _, z_psd, z_lin = start
        x, z_psd = (_interior(_sym(np.asarray(m, dtype=dtype))) for m in (x, z_psd))
        u, z_lin = (_interior(np.asarray(m, dtype=float)) for m in (u, z_lin))
    y = np.zeros(k)

    # an empty block (p = 0, or n = 0 for an LP) contributes exact zeros
    def a_op(xm, uv):
        return a_lin @ uv + weight * (a_flat @ _flat(xm))

    def at_op(yv):
        return (yv @ a_flat).view(dtype).reshape(n, n), a_lin.T @ yv

    def residuals(x, u, y, z_psd, z_lin):
        # residuals, objectives, relative gap and scaled infeasibilities
        r_p = b - a_op(x, u)
        aty_psd, aty_lin = at_op(y)
        r_d_psd, r_d_lin = c_psd - aty_psd - z_psd, c_lin - aty_lin - z_lin
        pobj, dobj = inner(c_psd, x) + c_lin @ u, b @ y
        return (r_p, r_d_psd, r_d_lin, pobj, dobj,
                float(abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))),
                math.sqrt(r_p @ r_p) / norm_b,
                math.sqrt(inner(r_d_psd, r_d_psd) + r_d_lin @ r_d_lin) / norm_c)

    import logging  # here: `import magbeam` skips its 5 ms
    log = logging.getLogger("magbeam.conic")
    debug = log.isEnabledFor(logging.DEBUG)
    status = NUMERICAL_FAILURE
    best_cert = np.inf           # best Farkas-certificate residual seen
    stall = 0
    it = 0
    for it in range(1, max_iter + 1):
        r_p, r_d_psd, r_d_lin, pobj, dobj, rel_gap, p_inf, d_inf = \
            residuals(x, u, y, z_psd, z_lin)
        mu = (inner(x, z_psd) + u @ z_lin) / degree
        if debug:
            log.debug("iter %3d  pobj % .9e  dobj % .9e  pinf %.2e  dinf %.2e  mu %.2e",
                      it, pobj, dobj, p_inf, d_inf, mu)

        if p_inf <= feas_tol and d_inf <= feas_tol and rel_gap <= gap_tol:
            status = OPTIMAL
            break

        # Farkas certificate of primal infeasibility: find y with b.y > 0 and
        # -A^*(y) in the dual cone.
        if dobj > feas_tol:
            s_cand, v_cand = at_op(y / dobj)
            viol = 0.0
            ref = 1.0
            if n:
                viol = max(viol, max(0.0, float(np.linalg.eigvalsh(_sym(s_cand))[-1])))
                ref = max(ref, float(np.sqrt(weight) * np.linalg.norm(s_cand)))
            if p:
                viol = max(viol, max(0.0, float(np.max(v_cand))))
                ref = max(ref, float(np.max(np.abs(v_cand))))
            best_cert = min(best_cert, viol / ref)
            if viol / ref <= feas_tol:
                status = INFEASIBLE
                break

        # improving-ray certificate of unboundedness
        ray_scale = weight * x.trace().real + u.sum()
        if ray_scale > 0 and pobj / ray_scale < -max(1e-6, 100 * feas_tol) and \
                np.linalg.norm(b - r_p) / ray_scale <= feas_tol:
            status = UNBOUNDED
            break

        # NT scaling; ``frame`` maps a stack (dx, dz) into the frame where x
        # and z_psd are both diag(d_spec)
        try:
            r_mat, r_inv, d_spec = _nt_scaling(x, z_psd) if n else (x, x, np.zeros(0))
        except np.linalg.LinAlgError:
            break
        r_h = r_mat.conj().T
        frame = np.array((r_inv, r_h))
        frame_h = frame.conj().swapaxes(-1, -2)
        w_mat = r_mat @ r_h
        wrw = w_mat @ r_d_psd @ w_mat
        d_lin = u / z_lin
        solve_normal = _factor_normal(schur(w_mat)
                                      + (a_lin * d_lin) @ a_lin.T)

        def directions(v_psd, v_lin):
            rhs = r_p - weight * (a_flat @ _flat(v_psd - wrw))
            dy = solve_normal(rhs - a_lin @ (v_lin - d_lin * r_d_lin))
            dz_psd_, dz_lin_ = at_op(dy)
            # Hermitian up to rounding: both terms are; z_psd's update symmetrizes
            dz_psd_ = r_d_psd - dz_psd_
            dz_lin_ = r_d_lin - dz_lin_
            dx_ = _sym(v_psd - w_mat @ dz_psd_ @ w_mat)
            return np.array((dx_, dz_psd_)), v_lin - d_lin * dz_lin_, dy, dz_lin_

        # predictor (affine scaling) direction
        dxz_a, du_a, _, dzl_a = directions(-x, -u)
        ddxz = frame @ dxz_a @ frame_h
        step_x, step_z = _max_step_psd(d_spec, ddxz)
        ap_aff = min(1.0, min(step_x, _max_step_pos(u, du_a)))
        ad_aff = min(1.0, min(step_z, _max_step_pos(z_lin, dzl_a)))
        gap_aff = inner(x + ap_aff * dxz_a[0], z_psd + ad_aff * dxz_a[1]) \
            + (u + ap_aff * du_a) @ (z_lin + ad_aff * dzl_a)
        mu_aff = max(gap_aff, 0.0) / degree
        sigma = min(1.0, (mu_aff / mu) ** 3) if mu > 0 else 0.0

        # corrector with Mehrotra second-order term, in the scaled space (t_mat
        # is exactly Hermitian)
        target = -_sym(ddxz[0] @ ddxz[1])
        target.flat[::n + 1] += sigma * mu - d_spec ** 2
        t_mat = 2.0 * target / (d_spec[:, None] + d_spec[None, :])
        v_lin = (sigma * mu - u * z_lin - du_a * dzl_a) / z_lin

        dxz, du, dy, dz_lin = directions(r_mat @ t_mat @ r_h, v_lin)
        step_x, step_z = _max_step_psd(d_spec, frame @ dxz @ frame_h)
        alpha_p = min(1.0, _STEP_FRACTION * min(step_x, _max_step_pos(u, du)))
        alpha_d = min(1.0, _STEP_FRACTION * min(step_z, _max_step_pos(z_lin, dz_lin)))
        if alpha_p < _MIN_STEP and alpha_d < _MIN_STEP:
            stall += 1
            if stall >= 2:
                break
        else:
            stall = 0

        # exactly Hermitian without _sym: so are x's start and every dx
        x = x + alpha_p * dxz[0]
        u = u + alpha_p * du
        y = y + alpha_d * dy
        z_psd = _sym(z_psd + alpha_d * dxz[1])
        z_lin = z_lin + alpha_d * dz_lin

    if status == NUMERICAL_FAILURE and best_cert <= 1e-5:
        # weakly infeasible: the iteration stalled but an approximate dual
        # ray was found along the way
        status = INFEASIBLE

    *_, rel_gap, p_inf, d_inf = residuals(x, u, y, z_psd, z_lin)
    return KernelResult(status=status, x=x, u=u, y=y, z_psd=z_psd, z_lin=z_lin,
                        rel_gap=rel_gap, primal_infeas=p_inf, dual_infeas=d_inf,
                        iterations=it)

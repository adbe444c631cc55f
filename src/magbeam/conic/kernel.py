"""Dense primal-dual interior-point kernel over a mixed PSD/orthant cone.

Solves the standard-form problem

    minimize    <C, X> + c.u
    subject to  <A_i, X> + a_i.u = b_i,   i = 1..k
                X  symmetric or Hermitian PSD (n x n, n may be 0)
                u >= 0                    (length p, p may be 0)

with an infeasible start, Nesterov-Todd scaling of the PSD block and a
Mehrotra predictor-corrector step, as in SDPT3 (Toh, Todd & Tutuncu 1999).
Everything is dense.  Per iteration: the NT scaling (two Choleskys and an
SVD give r with r^-1 X r^-H = r^H Z r = diag(d), W = r r^H); the Schur
complement as a batched matmul W A_i W and one real GEMM of the (k, n^2)
data against it; one Cholesky of it, shared by predictor and corrector;
step lengths from lambda_min of the primal and dual directions in the NT
frame, one batched eigvalsh per step.
``beamforming.solve_p0_sdr`` with peaks, 4 receivers and N chargers
(k = 2N + 5 rows), one OpenBLAS thread on a 2-vCPU Xeon VM, in ms:

    N                     5    10    20     30    64
    single-loop Schur    53    95  1408  12202     -
    GEMM Schur           42    27    44    231  2751  (49/28/28/39/55 iterations)

At N = 30 forming the Schur complement is a third of the solve; with the
constraints' rank-one factors it would cost O(k n^2 + k^2 n), not O(k^2 n^2).

The dual is  max b.y  s.t.  sum_i y_i A_i + Z = C (Z PSD),
a_lin^T y + z = c (z >= 0).  X is real or complex as its data are.
"""

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
    return m.reshape(m.shape[:-2] + (-1,)).view(float)


def _max_step_psd(d, ds):
    """Largest alpha with diag(d) + alpha*ds PSD (d > 0: an NT-frame iterate).

    ``ds`` is one matrix or a stack (..., n, n) sharing one batched eigvalsh;
    returns a float, or an array over the stack.
    """
    step = np.full(ds.shape[:-2], np.inf)
    if d.size:
        s = 1.0 / np.sqrt(d)
        lam = np.linalg.eigvalsh(_sym(ds * np.outer(s, s)))[..., 0]
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
    lx = np.linalg.cholesky(x)
    lz = np.linalg.cholesky(z)
    uu, ss, vvh = np.linalg.svd(lz.conj().T @ lx)
    sqrt_s = np.sqrt(ss)
    r = lx @ (vvh.conj().T / sqrt_s)
    r_inv = (uu.conj().T @ lz.conj().T) / sqrt_s[:, None]
    return r, r_inv, ss


def _factor_normal(m):
    """Solver for the (nominally SPD) normal matrix: one factor, escalating jitter."""
    n = m.shape[0]
    base = np.max(np.abs(np.diag(m))) if n else 1.0
    jitter = 0.0
    for _ in range(6):
        try:
            ell = np.linalg.cholesky(m + jitter * np.eye(n))
            return lambda rhs: np.linalg.solve(ell.T, np.linalg.solve(ell, rhs))
        except np.linalg.LinAlgError:
            jitter = max(base * 1e-14, jitter * 100.0) if jitter else base * 1e-14
    return lambda rhs: np.linalg.lstsq(m, rhs, rcond=None)[0]


def _interior(m):
    """``m`` plus ``_WARM_START_SHIFT`` times its mean eigenvalue (times I for a matrix)."""
    if m.ndim == 1:
        return m + _WARM_START_SHIFT * np.sum(m) / max(m.size, 1)
    return m + _WARM_START_SHIFT * np.trace(m).real / max(len(m), 1) * np.eye(len(m))


def solve_mixed_cone(c_psd, c_lin, a_psd, a_lin, b,
                     gap_tol=1e-8, feas_tol=1e-8, max_iter=100, start=None):
    """Run the interior-point iteration; see module docstring for the form.

    An LP has ``c_psd`` 0 x 0 and ``a_psd`` k x 0 x 0.  Each iteration logs
    one line at DEBUG on ``magbeam.conic``, a child of the ``magbeam`` logger.

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
    dtype = complex if np.iscomplexobj(c_psd) or np.iscomplexobj(a_psd) else float
    weight = HERMITIAN_WEIGHT if dtype is complex else 1.0
    c_psd = _sym(np.asarray(c_psd, dtype=dtype))
    c_lin = np.asarray(c_lin, dtype=float)
    p = c_lin.size
    a_psd = np.asarray(a_psd, dtype=dtype)
    a_lin = np.asarray(a_lin, dtype=float)
    if a_psd.shape != (k, n, n) or a_lin.shape != (k, p):
        raise ValueError("constraint data dimensions are inconsistent")
    if n + p == 0 or k == 0:
        raise ValueError("empty problem")

    a_flat = _flat(a_psd)
    degree = weight * n + p

    def inner(m1, m2):
        return weight * np.sum(m1.conj() * m2).real if n else 0.0

    def norm_psd2(m):
        return weight * np.linalg.norm(m) ** 2

    norm_b = 1.0 + np.linalg.norm(b)
    norm_c = 1.0 + np.sqrt(norm_psd2(c_psd) + np.linalg.norm(c_lin) ** 2)

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
        x, z_psd = (_interior(np.asarray(m, dtype=dtype)) for m in (x, z_psd))
        u, z_lin = (_interior(np.asarray(m, dtype=float)) for m in (u, z_lin))
    y = np.zeros(k)

    # an empty orthant block (p = 0) contributes exact zeros below; an empty
    # PSD block (n = 0, an LP) skips the PSD work
    def a_op(xm, uv):
        return a_lin @ uv + (weight * (a_flat @ _flat(xm)) if n else 0.0)

    def at_op(yv):
        return (yv @ a_flat).view(dtype).reshape(n, n), a_lin.T @ yv

    import logging  # here: `import magbeam` skips its 5 ms
    log = logging.getLogger("magbeam.conic")
    debug = log.isEnabledFor(logging.DEBUG)
    status = NUMERICAL_FAILURE
    best_cert = np.inf           # best Farkas-certificate residual seen
    stall = 0
    it = 0
    for it in range(1, max_iter + 1):
        r_p = b - a_op(x, u)
        aty_psd, aty_lin = at_op(y)
        r_d_psd = c_psd - aty_psd - z_psd
        r_d_lin = c_lin - aty_lin - z_lin

        mu = (inner(x, z_psd) + u @ z_lin) / degree
        pobj = inner(c_psd, x) + c_lin @ u
        dobj = b @ y
        rel_gap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
        p_inf = np.linalg.norm(r_p) / norm_b
        d_inf = np.sqrt(norm_psd2(r_d_psd) + np.linalg.norm(r_d_lin) ** 2) / norm_c
        if debug:
            log.debug("iter %3d  pobj % .9e  dobj % .9e  pinf %.2e  dinf %.2e  mu %.2e",
                      it, pobj, dobj, p_inf, d_inf, mu)

        if p_inf <= feas_tol and d_inf <= feas_tol and rel_gap <= gap_tol:
            status = OPTIMAL
            break

        # Farkas certificate of primal infeasibility: find y with b.y > 0 and
        # -A^*(y) in the dual cone.
        bty = dobj
        if bty > feas_tol:
            s_cand, v_cand = at_op(y / bty)
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
        ray_scale = weight * np.trace(x).real + np.sum(u)
        if ray_scale > 0 and pobj / ray_scale < -max(1e-6, 100 * feas_tol) and \
                np.linalg.norm(a_op(x, u)) / ray_scale <= feas_tol:
            status = UNBOUNDED
            break

        # NT scalings
        if n:
            try:
                r_mat, r_inv, d_spec = _nt_scaling(x, z_psd)
            except np.linalg.LinAlgError:
                status = NUMERICAL_FAILURE
                break
            w_mat = r_mat @ r_mat.conj().T
            wrw = w_mat @ r_d_psd @ w_mat
            gram = weight * (a_flat @ _flat(w_mat @ a_psd @ w_mat).T)
        else:
            r_mat = r_inv = w_mat = wrw = np.zeros((0, 0))
            d_spec = np.zeros(0)
            gram = np.zeros((k, k))
        d_lin = u / z_lin
        solve_normal = _factor_normal(gram + (a_lin * d_lin) @ a_lin.T)

        def directions(v_psd, v_lin):
            rhs = r_p - (weight * (a_flat @ _flat(v_psd - wrw)) if n else 0.0)
            dy = solve_normal(rhs - a_lin @ (v_lin - d_lin * r_d_lin))
            dz_psd_, dz_lin_ = at_op(dy)
            dz_psd_ = _sym(r_d_psd - dz_psd_) if n else dz_psd_
            dz_lin_ = r_d_lin - dz_lin_
            dx_ = _sym(v_psd - w_mat @ dz_psd_ @ w_mat) if n else v_psd
            return dx_, v_lin - d_lin * dz_lin_, dy, dz_psd_, dz_lin_

        def nt_frame(dx_, dz_):
            # PSD directions where x and z_psd are both diag(d_spec)
            if not n:
                return dx_, dz_
            return r_inv @ dx_ @ r_inv.conj().T, r_mat.conj().T @ dz_ @ r_mat

        # predictor (affine scaling) direction
        dx_a, du_a, dy_a, dzp_a, dzl_a = directions(-x, -u)
        ddx, ddz = nt_frame(dx_a, dzp_a)
        step_x, step_z = _max_step_psd(d_spec, np.stack((ddx, ddz)))
        ap_aff = min(1.0, min(step_x, _max_step_pos(u, du_a)))
        ad_aff = min(1.0, min(step_z, _max_step_pos(z_lin, dzl_a)))
        gap_aff = inner(x + ap_aff * dx_a, z_psd + ad_aff * dzp_a) \
            + (u + ap_aff * du_a) @ (z_lin + ad_aff * dzl_a)
        mu_aff = max(gap_aff, 0.0) / degree
        sigma = min(1.0, (mu_aff / mu) ** 3) if mu > 0 else 0.0

        # corrector with Mehrotra second-order term, in the scaled space
        v_psd = ddx                     # the empty block of an LP
        if n:
            target = -_sym(ddx @ ddz)
            target[np.diag_indices(n)] += sigma * mu - d_spec ** 2
            t_mat = 2.0 * target / (d_spec[:, None] + d_spec[None, :])
            v_psd = r_mat @ _sym(t_mat) @ r_mat.conj().T
        v_lin = (sigma * mu - u * z_lin - du_a * dzl_a) / z_lin

        dx, du, dy, dz_psd, dz_lin = directions(v_psd, v_lin)
        step_x, step_z = _max_step_psd(d_spec, np.stack(nt_frame(dx, dz_psd)))
        alpha_p = min(1.0, _STEP_FRACTION * min(step_x, _max_step_pos(u, du)))
        alpha_d = min(1.0, _STEP_FRACTION * min(step_z, _max_step_pos(z_lin, dz_lin)))
        if alpha_p < _MIN_STEP and alpha_d < _MIN_STEP:
            stall += 1
            if stall >= 2:
                status = NUMERICAL_FAILURE
                break
        else:
            stall = 0

        x = _sym(x + alpha_p * dx) if n else x
        u = u + alpha_p * du
        y = y + alpha_d * dy
        z_psd = _sym(z_psd + alpha_d * dz_psd) if n else z_psd
        z_lin = z_lin + alpha_d * dz_lin

    if status == NUMERICAL_FAILURE and best_cert <= 1e-5:
        # weakly infeasible: the iteration stalled but an approximate dual
        # ray was found along the way
        status = INFEASIBLE

    r_p = b - a_op(x, u)
    aty_psd, aty_lin = at_op(y)
    pobj = inner(c_psd, x) + c_lin @ u
    dobj = b @ y
    return KernelResult(
        status=status, x=x, u=u, y=y, z_psd=z_psd, z_lin=z_lin,
        rel_gap=float(abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))),
        primal_infeas=float(np.linalg.norm(r_p) / norm_b),
        dual_infeas=float(np.sqrt(
            norm_psd2(c_psd - aty_psd - z_psd)
            + np.linalg.norm(c_lin - aty_lin - z_lin) ** 2) / norm_c),
        iterations=it,
    )

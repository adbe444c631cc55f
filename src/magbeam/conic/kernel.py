"""Dense primal-dual interior-point kernel over a mixed PSD/orthant cone.

Solves the standard-form problem

    minimize    <C, X> + c.u
    subject to  <A_i, X> + a_i.u = b_i,   i = 1..k
                X  symmetric PSD (n x n, n may be 0)
                u >= 0                    (length p, p may be 0)

with an infeasible start, Nesterov-Todd scaling of the PSD block and a
Mehrotra predictor-corrector step.  Everything is dense: the intended
problem sizes are a handful of variables and a few tens of constraints,
so no sparsity or low-rank machinery is warranted.

The dual is  max b.y  s.t.  sum_i y_i A_i + Z = C (Z PSD),
a_lin^T y + z = c (z >= 0).
"""

from dataclasses import dataclass, field

import numpy as np

# status codes shared with the public wrappers
OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
NUMERICAL_FAILURE = "numerical_failure"

_STEP_FRACTION = 0.99
_MIN_STEP = 1e-10


@dataclass
class KernelResult:
    status: str
    x: np.ndarray          # PSD block (n x n), possibly 0 x 0
    u: np.ndarray          # orthant block
    y: np.ndarray          # equality multipliers
    z_psd: np.ndarray      # dual slack, PSD block
    z_lin: np.ndarray      # dual slack, orthant block
    primal_obj: float
    dual_obj: float
    rel_gap: float
    primal_infeas: float
    dual_infeas: float
    iterations: int
    history: list = field(default_factory=list)


def _sym(m):
    return (m + m.T) / 2.0


def _max_step_psd(m, dm):
    """Largest alpha with m + alpha*dm PSD, for m positive definite."""
    if m.shape[0] == 0:
        return np.inf
    ell = np.linalg.cholesky(m)
    s = np.linalg.solve(ell, np.linalg.solve(ell, dm).T).T
    lam = np.linalg.eigvalsh(_sym(s))[0]
    if lam >= -1e-14:
        return np.inf
    return -1.0 / lam


def _max_step_pos(v, dv):
    neg = dv < 0
    if not np.any(neg):
        return np.inf
    # a denormal step overflows the ratio to +inf, which is the right bound
    with np.errstate(over="ignore"):
        return float(np.min(-v[neg] / dv[neg]))


def _nt_scaling(x, z):
    """NT scaling of the PSD block.

    Returns (r, r_inv, d) with r^{-1} x r^{-T} = r^T z r = diag(d) and the
    scaling matrix w = r r^T satisfying w z w = x.
    """
    lx = np.linalg.cholesky(x)
    lz = np.linalg.cholesky(z)
    uu, ss, vvt = np.linalg.svd(lz.T @ lx)
    sqrt_s = np.sqrt(ss)
    r = lx @ (vvt.T / sqrt_s)
    r_inv = (uu.T @ lz.T) / sqrt_s[:, None]
    return r, r_inv, ss


def _solve_normal(m, rhs):
    """Solve the (nominally SPD) normal system with escalating regularization."""
    n = m.shape[0]
    base = np.max(np.abs(np.diag(m))) if n else 1.0
    jitter = 0.0
    for attempt in range(6):
        try:
            ell = np.linalg.cholesky(m + jitter * np.eye(n))
            return np.linalg.solve(ell.T, np.linalg.solve(ell, rhs))
        except np.linalg.LinAlgError:
            jitter = max(base * 1e-14, jitter * 100.0) if jitter else base * 1e-14
    return np.linalg.lstsq(m, rhs, rcond=None)[0]


def solve_mixed_cone(c_psd, c_lin, a_psd, a_lin, b,
                     gap_tol=1e-8, feas_tol=1e-8, max_iter=100, trace=None):
    """Run the interior-point iteration; see module docstring for the form."""
    b = np.asarray(b, dtype=float)
    k = b.size
    n = 0 if c_psd is None else c_psd.shape[0]
    c_psd = np.zeros((n, n)) if c_psd is None else _sym(np.asarray(c_psd, dtype=float))
    c_lin = np.zeros(0) if c_lin is None else np.asarray(c_lin, dtype=float)
    p = c_lin.size
    a_psd = np.zeros((k, n, n)) if a_psd is None else np.asarray(a_psd, dtype=float)
    a_lin = np.zeros((k, p)) if a_lin is None else np.asarray(a_lin, dtype=float)
    if a_psd.shape != (k, n, n) or a_lin.shape != (k, p):
        raise ValueError("constraint data dimensions are inconsistent")
    if n + p == 0 or k == 0:
        raise ValueError("empty problem")

    norm_b = 1.0 + np.linalg.norm(b)
    norm_c = 1.0 + np.sqrt(np.linalg.norm(c_psd) ** 2 + np.linalg.norm(c_lin) ** 2)
    eye = np.eye(n)

    rho_p = max(1.0, float(np.max(np.abs(b))))
    rho_d = max(1.0, float(np.max(np.abs(c_psd))) if n else 0.0,
                float(np.max(np.abs(c_lin))) if p else 0.0)
    x = rho_p * eye.copy()
    u = rho_p * np.ones(p)
    y = np.zeros(k)
    z_psd = rho_d * eye.copy()
    z_lin = rho_d * np.ones(p)

    def a_op(xm, uv):
        out = a_lin @ uv if p else np.zeros(k)
        if n:
            out = out + np.einsum("kij,ij->k", a_psd, xm)
        return out

    def at_op(yv):
        zm = np.einsum("k,kij->ij", yv, a_psd) if n else np.zeros((0, 0))
        zv = a_lin.T @ yv if p else np.zeros(0)
        return zm, zv

    history = []
    status = NUMERICAL_FAILURE
    best_cert = np.inf           # best Farkas-certificate residual seen
    stall = 0
    it = 0
    for it in range(1, max_iter + 1):
        r_p = b - a_op(x, u)
        aty_psd, aty_lin = at_op(y)
        r_d_psd = c_psd - aty_psd - z_psd if n else np.zeros((0, 0))
        r_d_lin = c_lin - aty_lin - z_lin if p else np.zeros(0)

        gap = (np.sum(x * z_psd) if n else 0.0) + (u @ z_lin if p else 0.0)
        mu = gap / (n + p)
        pobj = (np.sum(c_psd * x) if n else 0.0) + (c_lin @ u if p else 0.0)
        dobj = b @ y
        rel_gap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
        p_inf = np.linalg.norm(r_p) / norm_b
        d_inf = np.sqrt(np.linalg.norm(r_d_psd) ** 2 + np.linalg.norm(r_d_lin) ** 2) / norm_c
        history.append((it, pobj, dobj, p_inf, d_inf, mu))
        if trace is not None:
            trace.write(f"iter {it:3d}  pobj {pobj: .9e}  dobj {dobj: .9e}  "
                        f"pinf {p_inf:.2e}  dinf {d_inf:.2e}  mu {mu:.2e}\n")

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
                ref = max(ref, float(np.linalg.norm(s_cand)))
            if p:
                viol = max(viol, max(0.0, float(np.max(v_cand))))
                ref = max(ref, float(np.max(np.abs(v_cand))))
            best_cert = min(best_cert, viol / ref)
            if viol / ref <= feas_tol:
                status = INFEASIBLE
                break

        # improving-ray certificate of unboundedness
        ray_scale = (np.trace(x) if n else 0.0) + (np.sum(u) if p else 0.0)
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
            w_mat = r_mat @ r_mat.T
            wa = np.einsum("ab,kbc,cd->kad", w_mat, a_psd, w_mat)
            gram = np.einsum("kij,lij->kl", a_psd, wa)
        else:
            r_mat = r_inv = w_mat = None
            d_spec = np.zeros(0)
            wa = None
            gram = np.zeros((k, k))
        if p:
            d_lin = u / z_lin
            gram = gram + (a_lin * d_lin) @ a_lin.T

        def build_rhs(v_psd, v_lin):
            rhs = r_p.copy()
            if n:
                corr = v_psd - w_mat @ r_d_psd @ w_mat
                rhs -= np.einsum("kij,ij->k", a_psd, corr)
            if p:
                rhs -= a_lin @ (v_lin - d_lin * r_d_lin)
            return rhs

        def directions(v_psd, v_lin):
            dy = _solve_normal(gram, build_rhs(v_psd, v_lin))
            dz_psd_, dz_lin_ = at_op(dy)
            dz_psd_ = _sym(r_d_psd - dz_psd_) if n else np.zeros((0, 0))
            dz_lin_ = r_d_lin - dz_lin_ if p else np.zeros(0)
            dx_ = _sym(v_psd - w_mat @ dz_psd_ @ w_mat) if n else np.zeros((0, 0))
            du_ = v_lin - d_lin * dz_lin_ if p else np.zeros(0)
            return dx_, du_, dy, dz_psd_, dz_lin_

        # predictor (affine scaling) direction
        v_psd_aff = -x if n else np.zeros((0, 0))
        v_lin_aff = -u if p else np.zeros(0)
        dx_a, du_a, dy_a, dzp_a, dzl_a = directions(v_psd_aff, v_lin_aff)
        ap_aff = min(1.0, min(_max_step_psd(x, dx_a), _max_step_pos(u, du_a)))
        ad_aff = min(1.0, min(_max_step_psd(z_psd, dzp_a), _max_step_pos(z_lin, dzl_a)))
        gap_aff = (np.sum((x + ap_aff * dx_a) * (z_psd + ad_aff * dzp_a)) if n else 0.0) \
            + ((u + ap_aff * du_a) @ (z_lin + ad_aff * dzl_a) if p else 0.0)
        mu_aff = max(gap_aff, 0.0) / (n + p)
        sigma = min(1.0, (mu_aff / mu) ** 3) if mu > 0 else 0.0

        # corrector with Mehrotra second-order term, in the scaled space
        if n:
            ddx = r_inv @ dx_a @ r_inv.T
            ddz = r_mat.T @ dzp_a @ r_mat
            cross = _sym(ddx @ ddz)
            target = -cross
            target[np.diag_indices(n)] += sigma * mu - d_spec ** 2
            t_mat = 2.0 * target / (d_spec[:, None] + d_spec[None, :])
            v_psd = r_mat @ _sym(t_mat) @ r_mat.T
        else:
            v_psd = np.zeros((0, 0))
        v_lin = (sigma * mu - u * z_lin - du_a * dzl_a) / z_lin if p else np.zeros(0)

        dx, du, dy, dz_psd, dz_lin = directions(v_psd, v_lin)
        alpha_p = min(1.0, _STEP_FRACTION * min(_max_step_psd(x, dx),
                                                _max_step_pos(u, du)))
        alpha_d = min(1.0, _STEP_FRACTION * min(_max_step_psd(z_psd, dz_psd),
                                                _max_step_pos(z_lin, dz_lin)))
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
    pobj = (np.sum(c_psd * x) if n else 0.0) + (c_lin @ u if p else 0.0)
    dobj = b @ y
    return KernelResult(
        status=status,
        x=x, u=u, y=y,
        z_psd=z_psd, z_lin=z_lin,
        primal_obj=float(pobj), dual_obj=float(dobj),
        rel_gap=float(abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))),
        primal_infeas=float(np.linalg.norm(r_p) / norm_b),
        dual_infeas=float(np.sqrt(
            np.linalg.norm(c_psd - aty_psd - z_psd) ** 2
            + np.linalg.norm(c_lin - aty_lin - z_lin) ** 2) / norm_c),
        iterations=it,
        history=history,
    )

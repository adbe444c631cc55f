"""TX current allocation: sum-power maximization via SDR and friends.

The delivered-power maximization for a fixed power-profile vector (P0) is
relaxed once, jointly in the current covariance X and the delivered power
t: maximize t subject to Tr(M_q X) >= d_q t per receiver, the total power
cap and (optionally) the peak limits.  Its value bounds the optimum from
above; a rank-one X, scaled to the largest gain the limits allow, meets
that bound.

The fixed-target TX sum-power minimization (P1) has the same structure
with the delivery floors fixed.  Without peak voltage/current limits its
relaxation is a real SDP whose optimal matrix can always be realized
exactly by time-sharing its scaled eigenvectors.  With peak limits it is a
Hermitian SDP (solved through the real embedding); rank-one solutions are
extracted directly, higher-rank ones are rounded either by a per-slot
rescaled time-sharing LP or by Gaussian randomization.
"""

import math
from dataclasses import dataclass

import numpy as np

from .circuit import (Excitation, build_impedance, constraint_slacks,
                      delivered_powers, tx_total_power)
from .conic import (GE, INFEASIBLE, LE, LpProblem, SdpConstraint, SdpProblem,
                    Tolerances, numerical_rank, psd_eigendecomposition,
                    solve_lp, solve_sdp)
from .conic.problems import DEFAULT_TOLERANCES
from .errors import InfeasibleError, SolverError

METHOD_CLOSED_FORM = "closed_form"
METHOD_SDR_RANK1 = "sdr_rank1"
METHOD_TIME_SHARING = "time_sharing"
METHOD_RANDOMIZATION = "randomization"
METHOD_BENCHMARK = "benchmark"

_SLACK_TOL = 1e-6
# relative shortfall a delivered power may have against its floor
_DELIVERY_REL_TOL = 1e-5


@dataclass(frozen=True)
class PowerProfile:
    """Nonnegative per-RX share of the delivered sum power, summing to one."""

    alpha: np.ndarray

    def __post_init__(self):
        a = np.atleast_1d(np.array(self.alpha, dtype=float))
        if a.ndim != 1 or np.min(a, initial=0.0) < 0.0:
            raise ValueError("profile entries must be nonnegative")
        if abs(a.sum() - 1.0) > 1e-12:
            raise ValueError("profile entries must sum to 1")
        a.setflags(write=False)
        object.__setattr__(self, "alpha", a)

    @classmethod
    def single(cls, q, n_rx):
        a = np.zeros(n_rx)
        a[q] = 1.0
        return cls(a)

    @classmethod
    def uniform(cls, n_rx):
        return cls(np.full(n_rx, 1.0 / n_rx))

    @classmethod
    def normalized(cls, weights):
        """Build a profile from nonnegative weights, rescaled to sum to one."""
        w = np.atleast_1d(np.asarray(weights, dtype=float))
        total = w.sum()
        if total <= 0:
            raise ValueError("weights must have a positive sum")
        return cls(w / total)


@dataclass(frozen=True)
class BeamformingSolution:
    """One or more (excitation, time fraction) slots plus achieved powers."""

    slots: tuple
    achieved_sum_power: float
    tx_power: float
    per_rx_power: np.ndarray
    method: str
    sdr_rank: int = 1

    @property
    def excitation(self):
        """Single-slot current vector; errors on a genuine schedule."""
        if len(self.slots) != 1:
            raise ValueError("solution is a multi-slot schedule")
        return self.slots[0][0]


@dataclass(frozen=True)
class SolveOptions:
    use_peak_constraints: bool = True
    method: str = "auto"
    seed: int = 0
    randomization_draws: int = 4000
    rank_rel_tol: float = 1e-6
    tolerances: Tolerances = DEFAULT_TOLERANCES


DEFAULT_OPTIONS = SolveOptions()


def _model_for(scenario, model):
    return build_impedance(scenario) if model is None else model


def make_solution(scenario, model, slots, method, sdr_rank=1):
    """Assemble a solution record with time-averaged powers."""
    per_rx = np.zeros(scenario.n_rx)
    p_tx = 0.0
    for exc, tau in slots:
        per_rx = per_rx + tau * delivered_powers(scenario, model, exc)
        p_tx += tau * tx_total_power(model, exc)
    return BeamformingSolution(
        slots=tuple(slots), achieved_sum_power=float(per_rx.sum()),
        tx_power=float(p_tx), per_rx_power=per_rx, method=method,
        sdr_rank=int(sdr_rank))


def zero_solution(scenario, model=None, method=METHOD_SDR_RANK1):
    model = _model_for(scenario, model)
    exc = Excitation(np.zeros(scenario.n_tx, dtype=complex))
    return make_solution(scenario, model, [(exc, 1.0)], method, sdr_rank=0)


def delivery_rhs(scenario, profile, target_power):
    """Right-hand sides of the Tr(M_q X) >= . delivery constraints.

    Under load-only accounting the coil quadratic form must exceed
    ``2 r_q^2 alpha_q P / (w^2 r_load,q)`` so that the power reaching the
    load (not the whole coil) meets its share.
    """
    r = scenario.rx_resistance
    rhs = 2.0 * r * profile.alpha * target_power / scenario.omega ** 2
    return rhs / scenario.rx_power_factor


def _check_profile(scenario, profile):
    if profile.alpha.size != scenario.n_rx:
        raise ValueError(
            f"profile has {profile.alpha.size} entries for Q={scenario.n_rx}")


def _uncoupled_demand(scenario, model, profile, target_power):
    """True if some RX with a positive share has no coupling to any TX."""
    if target_power <= 0:
        return False
    norms = np.linalg.norm(model.m_vectors, axis=1)
    return bool(np.any((profile.alpha > 0) & (norms == 0.0)))


def solve_p2_closed_form_single_rx(scenario, target_power, model=None):
    """Single-RX optimum ignoring peak limits: direction R^{-1} m, scaled.

    The binding Lagrangian dual makes ``R + gamma* m m^T`` singular exactly
    at ``gamma* = -1/(m^T R^{-1} m)``, whose null vector is ``R^{-1} m``; for
    identical TX resistances this is the coupling vector itself.
    """
    if scenario.n_rx != 1:
        raise ValueError("closed form applies to the single-RX case only")
    model = _model_for(scenario, model)
    m = model.m_vectors[0]
    if np.linalg.norm(m) == 0.0:
        raise InfeasibleError("receiver is not coupled to any TX")
    direction = m / scenario.tx_resistance
    direction = direction / np.linalg.norm(direction)
    if target_power <= 0.0:
        return zero_solution(scenario, model, method=METHOD_CLOSED_FORM)
    unit = Excitation(direction.astype(complex))
    unit_power = delivered_powers(scenario, model, unit)[0]
    beta = math.sqrt(target_power / unit_power)
    sol = make_solution(scenario, model,
                        [(Excitation(beta * direction.astype(complex)), 1.0)],
                        METHOD_CLOSED_FORM)
    return sol


def _delivery_constraints(model, rhs):
    return [SdpConstraint(matrix=model.rank_one_rx[q], sense=GE, rhs=float(rhs[q]))
            for q in range(rhs.size)]


def _peak_constraints(scenario, model):
    cons = []
    for n in range(scenario.n_tx):
        cons.append(SdpConstraint(matrix=model.rank_one_tx[n], sense=LE,
                                  rhs=float(scenario.peak_voltage[n] ** 2)))
    for n in range(scenario.n_tx):
        w_n = np.zeros((scenario.n_tx, scenario.n_tx))
        w_n[n, n] = 1.0
        cons.append(SdpConstraint(matrix=w_n, sense=LE,
                                  rhs=float(scenario.peak_current[n] ** 2)))
    return cons


def solve_p2_sdr(scenario, profile, target_power, model=None,
                 tolerances=DEFAULT_TOLERANCES, rank_rel_tol=1e-6):
    """Relaxed sum-power minimization without peak limits (real SDP).

    Returns the conic solution and, when the optimal matrix is rank-one,
    the extracted single-slot beamforming solution (otherwise None).
    """
    model = _model_for(scenario, model)
    _check_profile(scenario, profile)
    rhs = delivery_rhs(scenario, profile, target_power)
    problem = SdpProblem(dimension=scenario.n_tx, objective=model.b_bar,
                         constraints=_delivery_constraints(model, rhs))
    conic = solve_sdp(problem, tolerances)
    if not conic.is_optimal:
        return conic, None
    if np.max(rhs, initial=0.0) <= 0.0:
        # nothing to deliver: the zero matrix is the exact optimum
        return conic, zero_solution(scenario, model)
    evals, evecs = psd_eigendecomposition(conic.x)
    rank = numerical_rank(evals, rank_rel_tol)
    extracted = None
    if rank <= 1:
        cur = math.sqrt(max(evals[0], 0.0)) * evecs[:, 0]
        mu = _feasible_rescale(scenario, model, cur, rhs, use_peaks=False)
        if mu is not None:
            cur = mu * cur
        extracted = make_solution(scenario, model, [(Excitation(cur), 1.0)],
                                  METHOD_SDR_RANK1, sdr_rank=max(rank, 0))
    return conic, extracted


def time_sharing_from_sdr(scenario, x_star, model=None, rank_rel_tol=1e-6):
    """Realize an SDR matrix exactly by time-sharing its eigenvectors.

    Slot l runs the scaled eigenvector ``sqrt(sum_k lambda_k) v_l`` for the
    fraction ``lambda_l / sum_k lambda_k``; slot-averaged delivered and TX
    powers then reproduce the matrix traces identically.
    """
    model = _model_for(scenario, model)
    evals, evecs = psd_eigendecomposition(x_star)
    rank = numerical_rank(evals, rank_rel_tol)
    if rank == 0:
        raise ValueError("cannot build a schedule from the zero matrix")
    lam = evals[:rank]
    total = float(lam.sum())
    slots = [(Excitation(math.sqrt(total) * evecs[:, l]), float(lam[l] / total))
             for l in range(rank)]
    return make_solution(scenario, model, slots, METHOD_TIME_SHARING, sdr_rank=rank)


def rank_bound(n_rx, n_tx):
    """Provable cap on the rank of the optimal relaxed solution."""
    return min(n_rx, math.ceil(math.sqrt(n_rx + 2 * n_tx)))


def solve_p1_sdr(scenario, profile, target_power, model=None,
                 tolerances=DEFAULT_TOLERANCES, rank_rel_tol=1e-6):
    """Relaxed sum-power minimization with all peak limits (Hermitian SDP)."""
    model = _model_for(scenario, model)
    _check_profile(scenario, profile)
    rhs = delivery_rhs(scenario, profile, target_power)
    constraints = _delivery_constraints(model, rhs) + _peak_constraints(scenario, model)
    problem = SdpProblem(dimension=scenario.n_tx,
                         objective=model.b_bar.astype(complex),
                         constraints=constraints)
    conic = solve_sdp(problem, tolerances)
    rank = 0
    if conic.is_optimal and np.max(rhs, initial=0.0) > 0.0:
        evals, _ = psd_eigendecomposition(conic.x)
        rank = numerical_rank(evals, rank_rel_tol)
        assert rank <= rank_bound(scenario.n_rx, scenario.n_tx), \
            f"rank {rank} exceeds the provable bound"
    return conic, rank


def _eigen_directions(x_star, rank_rel_tol):
    """Leading eigenvalues and eigenvectors of a relaxed solution (at least one)."""
    evals, evecs = psd_eigendecomposition(x_star)
    rank = max(numerical_rank(evals, rank_rel_tol), 1)
    return evals[:rank], evecs[:, :rank]


def _peak_gain2(scenario, model, y):
    """Largest squared gain per column of ``y`` that keeps every peak limit."""
    q_volt = np.abs(model.b_columns.conj() @ y) ** 2
    q_curr = np.abs(y) ** 2
    with np.errstate(divide="ignore"):
        cap_v = scenario.peak_voltage[:, None] ** 2 / q_volt
        cap_i = scenario.peak_current[:, None] ** 2 / q_curr
    return np.minimum(cap_v.min(axis=0), cap_i.min(axis=0))


def _delivery_gain2(model, y, rhs):
    """Smallest squared gain per column of ``y`` meeting every delivery floor."""
    q_delivery = np.abs(model.m_vectors @ y) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        need = np.where(rhs[:, None] > 0, rhs[:, None] / q_delivery, 0.0)
    return need.max(axis=0, initial=0.0)


def _within_reach(lower, upper):
    """True where the squared-gain need ``lower`` fits under the cap ``upper``.

    A need above the cap by at most the delivery tolerance still fits.
    """
    return np.isfinite(lower) & (lower * (1.0 - _DELIVERY_REL_TOL) <= upper)


def _schedule_peak_gain2(scenario, model, solution):
    """Largest common squared gain keeping every slot within its peak limits."""
    currents = np.stack([exc.currents for exc, _ in solution.slots], axis=1)
    return float(np.min(_peak_gain2(scenario, model, currents)))


def _rescaled(scenario, model, solution, gain2):
    """The schedule with every slot's currents scaled by ``sqrt(gain2)``."""
    mu = math.sqrt(gain2)
    slots = [(Excitation(mu * exc.currents), tau) for exc, tau in solution.slots]
    return make_solution(scenario, model, slots, solution.method,
                         solution.sdr_rank)


def _slot_lp_rows(scenario, model, vecs):
    """Coefficients of the per-slot LP over the fixed directions ``vecs``.

    The LP variables start with ``[phi_1..phi_L, tau_1..tau_L]``: slot l
    runs ``vecs[:, l]`` at squared gain ``phi_l / tau_l`` for the time
    fraction ``tau_l``.  Returns the TX power and per-RX delivery quadratic
    forms of each direction, and the rows keeping every peak limit inside
    each slot (``<= 0``).
    """
    c0 = np.real(np.einsum("il,ij,jl->l", vecs.conj(), model.b_bar, vecs))
    c1 = np.real(np.einsum("il,qij,jl->lq", vecs.conj(), model.rank_one_rx, vecs))
    gains = np.stack([np.abs(model.b_columns.conj() @ vecs) ** 2,
                      np.abs(vecs) ** 2], axis=2)                  # (N, L, 2)
    limits = np.stack([scenario.peak_voltage ** 2,
                       scenario.peak_current ** 2], axis=1)        # (N, 2)
    eye = np.eye(vecs.shape[1])[None, :, None, :]
    peak_rows = np.concatenate([gains[..., None] * eye,
                                -limits[:, None, :, None] * eye], axis=3)
    return c0, c1, peak_rows.reshape(-1, 2 * vecs.shape[1])


def _slot_lp_schedule(lp, scenario, model, vecs, tolerances):
    """Solve a per-slot LP and turn its solution into a schedule."""
    lp_sol = solve_lp(lp, tolerances)
    if lp_sol.status == INFEASIBLE:
        raise InfeasibleError("per-slot peak limits cannot support this delivery")
    if not lp_sol.is_optimal:
        raise SolverError(f"time-sharing LP ended with status {lp_sol.status}")
    n_slots = vecs.shape[1]
    phi = np.maximum(lp_sol.x[:n_slots], 0.0)
    tau = np.maximum(lp_sol.x[n_slots:2 * n_slots], 0.0)
    keep = tau > 1e-9
    idx = np.nonzero(keep)[0]
    theta = phi[keep] / tau[keep]          # per-slot squared gain, peak-safe
    tau_kept = tau[keep] / tau[keep].sum()
    slots = [(Excitation(math.sqrt(max(th, 0.0)) * vecs[:, l]), float(t))
             for th, t, l in zip(theta, tau_kept, idx)]
    return make_solution(scenario, model, slots, METHOD_TIME_SHARING,
                         sdr_rank=n_slots)


def solve_p1_ts_lp(x_star, scenario, profile, target_power, model=None,
                   tolerances=DEFAULT_TOLERANCES, rank_rel_tol=1e-6):
    """Time-sharing rounding of a higher-rank relaxed solution.

    Fixes the eigenvector directions, then jointly optimizes per-slot time
    fractions and power scalings by an LP whose per-slot rows keep every
    peak limit satisfied inside each slot; infeasibility of the LP means
    the target delivery is unreachable by this schedule family.  The LP
    meets the deliveries up to the delivery tolerance; the schedule is then
    scaled back up as far as that tolerance and every slot's peaks allow.
    """
    model = _model_for(scenario, model)
    rhs = delivery_rhs(scenario, profile, target_power) * (1.0 - _DELIVERY_REL_TOL)
    _, vecs = _eigen_directions(x_star, rank_rel_tol)
    n_slots = vecs.shape[1]
    c0, c1, peak_rows = _slot_lp_rows(scenario, model, vecs)
    lp = LpProblem(objective=np.concatenate([c0 / 2.0, np.zeros(n_slots)]),
                   a_ub=np.vstack([np.hstack([-c1.T, np.zeros((rhs.size, n_slots))]),
                                   peak_rows]),
                   b_ub=np.concatenate([-rhs, np.zeros(len(peak_rows))]),
                   a_eq=np.concatenate([np.zeros(n_slots), np.ones(n_slots)])[None, :],
                   b_eq=np.array([1.0]))
    sol = _slot_lp_schedule(lp, scenario, model, vecs, tolerances)
    gain2 = min(1.0 / (1.0 - _DELIVERY_REL_TOL),
                _schedule_peak_gain2(scenario, model, sol))
    return _rescaled(scenario, model, sol, gain2)


def _gaussian_draws(x_star, draws, seed, rank_rel_tol):
    """Complex Gaussian vectors shaped by the eigenstructure of ``x_star``."""
    evals, vecs = _eigen_directions(x_star, rank_rel_tol)
    shaped = vecs * np.sqrt(np.maximum(evals, 0.0))
    rank = vecs.shape[1]
    rng = np.random.default_rng([int(seed), 0x6D72])
    w = (rng.standard_normal((rank, draws)) + 1j * rng.standard_normal((rank, draws)))
    return shaped @ (w / math.sqrt(2.0)), rank             # (N, draws)


def randomization_extract(x_star, scenario, profile, target_power, model=None,
                          draws=4000, seed=0, rank_rel_tol=1e-6):
    """Gaussian rounding of a relaxed solution to a feasible single vector.

    Each draw is shaped by the eigenstructure of the relaxed matrix and then
    rescaled into the feasible interval for its squared gain; the interval's
    lower endpoint minimizes the TX power of that draw.  The best feasible
    draw wins; an empty feasible set means the target is declared
    unreachable.
    """
    model = _model_for(scenario, model)
    _check_profile(scenario, profile)
    rhs = delivery_rhs(scenario, profile, target_power)
    y, rank = _gaussian_draws(x_star, draws, seed, rank_rel_tol)
    lower = _delivery_gain2(model, y, rhs)
    upper = _peak_gain2(scenario, model, y)
    # a draw whose binding delivery meets a binding cap within the delivery
    # tolerance is clipped at the cap
    ok = _within_reach(lower, upper)
    if not np.any(ok):
        raise InfeasibleError("no randomized draw satisfies all constraints")

    mu2 = np.minimum(lower[ok], upper[ok])
    p_tx = 0.5 * mu2 * np.real(np.einsum("id,ij,jd->d", y[:, ok].conj(),
                                         model.b_bar, y[:, ok]))
    best = int(np.argmin(p_tx))
    current = math.sqrt(mu2[best]) * y[:, ok][:, best]
    return make_solution(scenario, model, [(Excitation(current), 1.0)],
                         METHOD_RANDOMIZATION, sdr_rank=rank)


def _feasible_rescale(scenario, model, y, rhs, use_peaks):
    """Best feasible scaling of a candidate vector, or None.

    Returns ``mu`` minimizing TX power such that ``mu*y`` meets every
    delivery floor and (optionally) every peak cap; a need above the caps
    by no more than the delivery tolerance is clipped at the caps.
    """
    lower = _delivery_gain2(model, y[:, None], rhs)[0]
    upper = _peak_gain2(scenario, model, y[:, None])[0] if use_peaks else np.inf
    if not _within_reach(lower, upper):
        return None
    return math.sqrt(min(lower, upper))


def _slot_peaks_ok(scenario, model, solution, tol=_SLACK_TOL):
    for exc, _ in solution.slots:
        rep = constraint_slacks(scenario, model, exc)
        if min(np.min(rep.voltage_slack), np.min(rep.current_slack)) < -tol:
            return False
    return True


def _delivers_target(solution, profile, target_power, rel_tol=_DELIVERY_REL_TOL):
    want = profile.alpha * target_power
    slack = solution.per_rx_power - want
    return bool(np.all(slack >= -rel_tol * np.maximum(want, 1e-9)))


def solve_p1(scenario, profile, target_power, options=DEFAULT_OPTIONS, model=None):
    """Minimize TX sum power subject to per-RX delivery shares.

    Dispatch: without peak limits the real SDR is exact (directly for
    rank one, by time-sharing otherwise).  With peak limits, a rank-one
    relaxed solution is extracted directly; otherwise both the rescaled
    time-sharing LP and Gaussian randomization run and the feasible one
    with lower TX power is returned.
    """
    model = _model_for(scenario, model)
    _check_profile(scenario, profile)
    if target_power <= 0.0:
        return zero_solution(scenario, model)
    if _uncoupled_demand(scenario, model, profile, target_power):
        raise InfeasibleError("positive share assigned to an uncoupled receiver")

    if options.method == METHOD_CLOSED_FORM:
        if options.use_peak_constraints:
            raise ValueError("closed form ignores peak limits; use --no-peaks")
        return solve_p2_closed_form_single_rx(scenario, target_power, model)

    if not options.use_peak_constraints:
        conic, extracted = solve_p2_sdr(scenario, profile, target_power, model,
                                        options.tolerances, options.rank_rel_tol)
        if conic.status == INFEASIBLE:
            raise InfeasibleError("delivery shares are unreachable")
        if not conic.is_optimal:
            raise SolverError(f"relaxation ended with status {conic.status}")
        if extracted is not None:
            return extracted
        return time_sharing_from_sdr(scenario, conic.x, model,
                                     options.rank_rel_tol)

    conic, rank = solve_p1_sdr(scenario, profile, target_power, model,
                               options.tolerances, options.rank_rel_tol)
    if conic.status == INFEASIBLE:
        raise InfeasibleError("delivery shares are unreachable under peak limits")
    if not conic.is_optimal:
        raise SolverError(f"relaxation ended with status {conic.status}")

    if rank == 1 and options.method in ("auto", "sdr"):
        evals, evecs = psd_eigendecomposition(conic.x)
        y = math.sqrt(max(evals[0], 0.0)) * evecs[:, 0]
        rhs = delivery_rhs(scenario, profile, target_power)
        mu = _feasible_rescale(scenario, model, y, rhs, use_peaks=True)
        if mu is not None:
            sol = make_solution(scenario, model, [(Excitation(mu * y), 1.0)],
                                METHOD_SDR_RANK1, sdr_rank=1)
            if _slot_peaks_ok(scenario, model, sol) and \
                    _delivers_target(sol, profile, target_power):
                return sol
        # borderline rank: fall through to the rounding schemes
    if options.method == "sdr":
        raise SolverError("relaxed solution is not rank-one; "
                          "use method auto, ts, or randomization")

    candidates = []
    if options.method in ("auto", "ts"):
        try:
            candidates.append(solve_p1_ts_lp(conic.x, scenario, profile,
                                             target_power, model,
                                             options.tolerances,
                                             options.rank_rel_tol))
        except (InfeasibleError, SolverError):
            pass
    if options.method in ("auto", "randomization"):
        try:
            candidates.append(randomization_extract(
                conic.x, scenario, profile, target_power, model,
                options.randomization_draws, options.seed,
                options.rank_rel_tol))
        except (InfeasibleError, SolverError):
            pass
    candidates = [c for c in candidates
                  if _slot_peaks_ok(scenario, model, c)
                  and _delivers_target(c, profile, target_power)]
    if not candidates:
        raise InfeasibleError("no rounding scheme produced a feasible schedule")
    return min(candidates, key=lambda c: c.tx_power)


def solve_p0_sdr(scenario, profile, model=None, use_peak_constraints=True,
                 tolerances=DEFAULT_TOLERANCES):
    """Joint relaxation of the delivered-power maximization for one profile.

    Maximizes t over (X, t) subject to ``Tr(M_q X) >= d_q t`` for every
    receiver with a positive share (``d_q`` the per-watt delivery floor),
    ``0.5 Tr(Bbar X) <= P_cap``, optionally every peak row, ``X`` PSD and
    ``t >= 0``; one mixed PSD+orthant solve.  ``X`` is real without peaks
    and Hermitian with them.  The optimal t, ``conic.u[0]``, bounds the
    achievable profile-respecting sum power from above.
    """
    model = _model_for(scenario, model)
    _check_profile(scenario, profile)
    per_watt = delivery_rhs(scenario, profile, 1.0)
    constraints = [SdpConstraint(matrix=model.rank_one_rx[q], sense=GE, rhs=0.0,
                                 linear=(-per_watt[q],))
                   for q in np.flatnonzero(profile.alpha > 0)]
    constraints.append(SdpConstraint(matrix=model.b_bar / 2.0, sense=LE,
                                     rhs=float(scenario.total_power_cap),
                                     linear=(0.0,)))
    if use_peak_constraints:
        constraints += _peak_constraints(scenario, model)
    problem = SdpProblem(dimension=scenario.n_tx,
                         objective=np.zeros((scenario.n_tx, scenario.n_tx)),
                         constraints=constraints, linear_objective=(-1.0,))
    return solve_sdp(problem, tolerances)


def _at_limits(scenario, model, solution, use_peaks):
    """The schedule scaled by the largest gain the cap (and peaks) allow.

    The total power cap binds the time-averaged TX power, each peak limit
    every slot.
    """
    gain2 = scenario.total_power_cap / solution.tx_power
    if use_peaks:
        gain2 = min(gain2, _schedule_peak_gain2(scenario, model, solution))
    return _rescaled(scenario, model, solution, gain2)


def _randomization_max(x_star, scenario, profile, model, draws, seed,
                       rank_rel_tol):
    """Gaussian draw delivering the most profile-respecting power at its limits."""
    y, rank = _gaussian_draws(x_star, draws, seed, rank_rel_tol)
    p_tx = 0.5 * np.real(np.einsum("id,ij,jd->d", y.conj(), model.b_bar, y))
    gain2 = np.minimum(scenario.total_power_cap / p_tx,
                       _peak_gain2(scenario, model, y))
    per_watt = delivery_rhs(scenario, profile, 1.0)
    best = int(np.argmax(gain2 / _delivery_gain2(model, y, per_watt)))
    sol = make_solution(scenario, model, [(Excitation(y[:, best]), 1.0)],
                        METHOD_RANDOMIZATION, sdr_rank=rank)
    return _at_limits(scenario, model, sol, use_peaks=True)


def _ts_lp_max(x_star, scenario, profile, model, tolerances, rank_rel_tol):
    """Time-sharing over the eigendirections that maximizes the delivered power.

    The per-slot LP of :func:`solve_p1_ts_lp` with one more variable t:
    maximize t subject to deliveries ``>= d_q t``, the time-averaged cap
    and every peak limit inside each slot.
    """
    _, vecs = _eigen_directions(x_star, rank_rel_tol)
    n_slots = vecs.shape[1]
    c0, c1, peak_rows = _slot_lp_rows(scenario, model, vecs)
    per_watt = delivery_rhs(scenario, profile, 1.0)
    zeros = np.zeros((per_watt.size, n_slots))
    a_ub = np.vstack([
        np.hstack([-c1.T, zeros, per_watt[:, None]]),
        np.concatenate([c0 / 2.0, np.zeros(n_slots + 1)])[None, :],
        np.hstack([peak_rows, np.zeros((len(peak_rows), 1))]),
    ])
    b_ub = np.concatenate([np.zeros(per_watt.size), [scenario.total_power_cap],
                           np.zeros(len(peak_rows))])
    lp = LpProblem(objective=np.concatenate([np.zeros(2 * n_slots), [-1.0]]),
                   a_ub=a_ub, b_ub=b_ub,
                   a_eq=np.concatenate([np.zeros(n_slots), np.ones(n_slots),
                                        [0.0]])[None, :],
                   b_eq=np.array([1.0]))
    sol = _slot_lp_schedule(lp, scenario, model, vecs, tolerances)
    return _at_limits(scenario, model, sol, use_peaks=True)


def _p0_roundings(conic, scenario, profile, options, model):
    """Schedules realizing the relaxed P0 solution, each at its limits."""
    use_peaks = options.use_peak_constraints
    if options.method == METHOD_CLOSED_FORM:
        # exact without peaks (and rejected with them) by solve_p1
        return [_at_limits(scenario, model, solve_p1(scenario, profile, 1.0,
                                                     options, model), False)]
    evals, evecs = psd_eigendecomposition(conic.x)
    rank = numerical_rank(evals, options.rank_rel_tol)
    if rank <= 1 or not use_peaks:
        if rank <= 1:
            y = math.sqrt(max(evals[0], 0.0)) * evecs[:, 0]
            sol = make_solution(scenario, model, [(Excitation(y), 1.0)],
                                METHOD_SDR_RANK1, sdr_rank=1)
        else:
            sol = time_sharing_from_sdr(scenario, conic.x, model,
                                        options.rank_rel_tol)
        return [_at_limits(scenario, model, sol, use_peaks)]
    if options.method == "sdr":
        raise SolverError("relaxed solution is not rank-one; "
                          "use method auto, ts, or randomization")
    candidates = []
    if options.method in ("auto", "ts"):
        try:
            candidates.append(_ts_lp_max(conic.x, scenario, profile, model,
                                         options.tolerances, options.rank_rel_tol))
        except (InfeasibleError, SolverError):
            pass
    if options.method in ("auto", "randomization"):
        candidates.append(_randomization_max(
            conic.x, scenario, profile, model, options.randomization_draws,
            options.seed, options.rank_rel_tol))
    return candidates


def solve_p0_bisection(scenario, profile, eps=1e-2, options=DEFAULT_OPTIONS,
                       model=None):
    """Maximize the delivered sum power for one power profile.

    One joint relaxation (:func:`solve_p0_sdr`) gives an upper bound; its
    solution is rounded to schedules scaled to the largest gain the limits
    allow (exact for a rank-one solution, and without peaks always).  Only
    when the best rounding lands more than ``eps`` below the bound does a
    bisection with the fixed-target solver search the bracket [rounded
    value, bound] down to ``eps``; a failed step there only lowers the
    bracket's upper end.  Returns the profile-respecting power the schedule
    delivers, ``min_q per_rx_q / alpha_q``, and the schedule.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    model = _model_for(scenario, model)
    _check_profile(scenario, profile)
    if _uncoupled_demand(scenario, model, profile, 1.0):
        return 0.0, zero_solution(scenario, model)

    conic = solve_p0_sdr(scenario, profile, model, options.use_peak_constraints,
                         options.tolerances)
    if not conic.is_optimal:
        raise SolverError(f"relaxation ended with status {conic.status}")

    def delivered(sol):
        return profile_capped_power(sol, profile)

    best = max(_p0_roundings(conic, scenario, profile, options, model),
               key=delivered, default=zero_solution(scenario, model))
    p_lo, p_hi = delivered(best), float(conic.u[0])
    while p_hi - p_lo > eps:
        p_mid = 0.5 * (p_lo + p_hi)
        try:
            sol = _at_limits(scenario, model,
                             solve_p1(scenario, profile, p_mid, options, model),
                             options.use_peak_constraints)
        except (InfeasibleError, SolverError):
            sol = None
        if sol is not None and delivered(sol) >= p_mid * (1.0 - _DELIVERY_REL_TOL):
            p_lo = p_mid
            best = max(best, sol, key=delivered)
        else:
            p_hi = p_mid
    return delivered(best), best


def benchmark_uncoordinated(scenario, target_power=None, max_feasible=False,
                            use_peak_constraints=True, model=None):
    """Identical current on every TX, scaled to a target or to the limits.

    The current direction is the all-ones vector; only its magnitude is
    free.  With ``max_feasible`` the magnitude grows until the first peak
    limit or the total power cap binds (peaks are skipped when
    ``use_peak_constraints`` is false).
    """
    if (target_power is None) == (not max_feasible):
        raise ValueError("specify exactly one of target_power or max_feasible")
    model = _model_for(scenario, model)
    ones = Excitation(np.ones(scenario.n_tx, dtype=complex))
    unit_delivered = delivered_powers(scenario, model, ones)
    unit_tx = tx_total_power(model, ones)
    unit_volt = np.abs(model.b_columns.conj() @ ones.currents)

    if max_feasible:
        beta = math.sqrt(scenario.total_power_cap / unit_tx)
        if use_peak_constraints:
            with np.errstate(divide="ignore"):
                beta_v = np.min(np.where(unit_volt > 0,
                                         scenario.peak_voltage / unit_volt, np.inf))
            beta = min(beta, float(beta_v), float(np.min(scenario.peak_current)))
    else:
        total_unit = float(unit_delivered.sum())
        if target_power > 0 and total_unit == 0.0:
            raise InfeasibleError("identical currents do not reach any receiver")
        beta = math.sqrt(target_power / total_unit) if target_power > 0 else 0.0
        rep_exc = Excitation(beta * ones.currents)
        rep = constraint_slacks(scenario, model, rep_exc)
        cap_ok = rep.total_power_slack >= -_SLACK_TOL
        peaks_ok = (not use_peak_constraints) or rep.feasible(_SLACK_TOL)
        if not (cap_ok and peaks_ok):
            raise InfeasibleError("target power unreachable with identical currents")
    exc = Excitation(beta * ones.currents)
    return make_solution(scenario, model, [(exc, 1.0)], METHOD_BENCHMARK)


def profile_capped_power(solution, profile):
    """Largest sum power whose per-RX shares this solution can guarantee.

    For a fixed-direction scheme the achievable profile-respecting sum is
    ``min_q per_rx_q / alpha_q``; used to compare the benchmark against
    profile-targeted beamforming.
    """
    alpha = profile.alpha
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(alpha > 0, solution.per_rx_power / alpha, np.inf)
    val = float(np.min(ratios)) if ratios.size else 0.0
    return 0.0 if not np.isfinite(val) else val

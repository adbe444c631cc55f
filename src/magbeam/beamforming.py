"""TX current allocation: sum-power maximization via SDR and friends.

The delivered-power maximization for a fixed power-profile vector (P0) and
the fixed-target TX sum-power minimization (P1) share one relaxation step
(:func:`_optimal_relaxation`): one SDP in the current covariance X with a
delivery row per receiver, optionally the peak limits and, for P0, the
delivered power t under the total power cap (maximize t subject to
Tr(M_q X) >= d_q t, a bound on the optimum).  It is built, solved and
eigendecomposed once; one verdict refuses it when it is not optimal or, for
P1 with peaks, above the provable rank bound.

Both problems realize a relaxed solution along one path.  It is used as
is when it is exact: rank one (the principal eigenvector), a real
rank-two X (the one complex current whose real outer product it is) or,
without peak limits, any rank (time-sharing its scaled eigenvectors).
Otherwise it is rounded by a per-slot time-sharing LP and by Gaussian
randomization, next to re-solves of the relaxation under a rank penalty.
Every candidate schedule is scaled to the largest gain its limits allow.
P0 keeps the one delivering the most profile-capped power; P1 keeps,
among those reaching its target, the one needing the least TX power per
profile-capped watt there, scaled down to the target.  Only the winner
carries the relaxation solved.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .circuit import (Excitation, build_impedance, constraint_slacks,
                      delivered_powers, tx_total_power)
from .conic import (GE, INFEASIBLE, LE, SdpProblem, numerical_rank,
                    psd_eigendecomposition, solve_sdp)
from .errors import InfeasibleError, SolverError

METHOD_CLOSED_FORM = "closed_form"
# one current taken from the relaxed matrix: its principal eigenvector, or,
# for a real relaxation of rank two, the complex current whose real outer
# product is that matrix; ``sdr_rank`` tells the two apart
METHOD_SDR_RANK1 = "sdr_rank1"
METHOD_TIME_SHARING = "time_sharing"
METHOD_RANDOMIZATION = "randomization"
METHOD_BENCHMARK = "benchmark"
# principal eigenvector of a rank-penalized re-solve of the P0 relaxation
METHOD_RANK_PENALTY = "rank_penalty"
# ``SolveOptions.method``: every rounding, exact only, one rounding, closed form
_METHODS = ("auto", "sdr", "ts", "randomization", METHOD_CLOSED_FORM)

_SLACK_TOL = 1e-6
# relative shortfall a delivered power may have against its floor
_DELIVERY_REL_TOL = 1e-5
# eigenvalues below this fraction of the largest do not count toward a rank
_RANK_REL_TOL = 1e-6
# P0 rank-penalty weights, one re-solve each, in units of the relaxation's
# bound per unit trace; the schedule matters: {1e-2, 3e-2, 1e-1} x 2 left
# table2_two_user at alpha_1 = 0.55 at rank two
_RANK_PENALTY_WEIGHTS = (3e-2, 3e-2, 3e-2, 3e-1, 3e-1, 3e-1)


@dataclass(frozen=True)
class PowerProfile:
    """Finite nonnegative per-RX share of the delivered sum power, summing to one."""

    alpha: np.ndarray

    def __post_init__(self):
        a = np.atleast_1d(np.array(self.alpha, dtype=float))
        if a.ndim != 1 or not np.all(np.isfinite(a)) or np.min(a, initial=0.0) < 0.0:
            raise ValueError("profile entries must be finite and nonnegative")
        if abs(a.sum() - 1.0) > 1e-12:
            raise ValueError("profile entries must sum to 1")
        a.setflags(write=False)
        object.__setattr__(self, "alpha", a)

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
    """One or more (excitation, time fraction) slots plus achieved powers.

    ``relaxation`` is the conic solution of the P0 or P1 relaxation that
    :func:`solve_p0` or :func:`solve_p1` realized or rounded, and None for
    every other solution (closed form, benchmark, zero target).
    """

    slots: tuple
    achieved_sum_power: float
    tx_power: float
    per_rx_power: np.ndarray
    method: str
    sdr_rank: int = 1
    relaxation: object = field(default=None, compare=False, repr=False)

    @property
    def excitation(self):
        """Single-slot current vector; errors on a genuine schedule."""
        if len(self.slots) != 1:
            raise ValueError("solution is a multi-slot schedule")
        return self.slots[0][0]


@dataclass(frozen=True)
class SolveOptions:
    """How P0 and P1 realize a relaxation; a bad method, seed or draw count raises ValueError."""

    use_peak_constraints: bool = True
    method: str = "auto"
    seed: int = 0
    randomization_draws: int = 4000

    def __post_init__(self):
        if self.method not in _METHODS:
            raise ValueError(f"method must be one of {_METHODS}, got {self.method!r}")
        if self.randomization_draws < 1:
            raise ValueError(f"randomization_draws must be >= 1, got {self.randomization_draws}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


DEFAULT_OPTIONS = SolveOptions()


def _model_for(scenario, model):
    return build_impedance(scenario) if model is None else model


def make_solution(scenario, model, slots, method, sdr_rank=1):
    """Assemble a solution record with time-averaged powers."""
    per_rx = np.zeros(scenario.n_rx)
    for exc, tau in slots:
        per_rx = per_rx + tau * delivered_powers(scenario, model, exc)
    return BeamformingSolution(
        slots=tuple(slots), achieved_sum_power=float(per_rx.sum()),
        tx_power=_tx_power(model, slots), per_rx_power=per_rx, method=method,
        sdr_rank=int(sdr_rank))


def _tx_power(model, slots):
    """The time-averaged TX power of a schedule."""
    return float(sum(tau * tx_total_power(model, exc) for exc, tau in slots))


def zero_solution(scenario, model, method=METHOD_SDR_RANK1):
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


def _uncoupled_demand(model, profile):
    """True if some RX with a positive share has no coupling to any TX."""
    m = model.m_vectors
    # a zero squared norm is a zero norm, without np.linalg.norm's wrapper
    return bool(((profile.alpha > 0) & ((m * m).sum(axis=1) == 0.0)).any())


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
    if target_power <= 0.0:
        return zero_solution(scenario, model, method=METHOD_CLOSED_FORM)
    direction = m / scenario.tx_resistance
    slots = [(Excitation(direction / np.linalg.norm(direction)), 1.0)]
    unit = make_solution(scenario, model, slots, METHOD_CLOSED_FORM)
    return _scaled(scenario, model, slots, target_power / unit.achieved_sum_power,
                   METHOD_CLOSED_FORM)


def _peak_rows(scenario, model):
    """The peak limits as ``<=`` rows ``(factors, rhs)``, voltages then currents.

    Row n's matrix is b_n b_n^H for a voltage and e_n e_n^T for a current,
    each the model's own factor block (``model.row_factors``).
    """
    return (model.row_factors[scenario.n_rx + 1:],
            np.concatenate([scenario.peak_voltage, scenario.peak_current]) ** 2)


def _spectrum(x_star):
    """Eigenvalues (descending) and eigenvectors of a relaxed solution, and its rank.

    The one place a relaxed matrix's numerical rank is decided.
    """
    evals, evecs = psd_eigendecomposition(x_star)
    return evals, evecs, numerical_rank(evals, _RANK_REL_TOL)


def _time_shared(spectrum):
    """Slots realizing the matrix with this spectrum exactly by time-sharing.

    Slot l runs the scaled eigenvector ``sqrt(sum_k lambda_k) v_l`` for the
    fraction ``lambda_l / sum_k lambda_k``; slot-averaged delivered and TX
    powers then reproduce the matrix traces identically.
    """
    evals, evecs, rank = spectrum
    if rank == 0:
        raise ValueError("cannot build a schedule from the zero matrix")
    lam = evals[:rank]
    total = float(lam.sum())
    return [(Excitation(math.sqrt(total) * evecs[:, l]), float(lam[l] / total))
            for l in range(rank)]


def rank_bound(n_rx, n_tx):
    """Provable cap on the rank of the optimal relaxed solution."""
    return min(n_rx, math.ceil(math.sqrt(n_rx + 2 * n_tx)))


def _relaxation_problem(scenario, profile, model, use_peaks, target_power=None):
    """The relaxation of P0, or of P1 at ``target_power``, as one SDP.

    P0 maximizes t over (X, t >= 0) subject to ``Tr(M_q X) >= d_q t`` per
    receiver (``d_q`` the per-watt floor; a zero share keeps its row) and
    ``0.5 Tr(Bbar X) <= P_cap``; its optimal t bounds the profile-respecting
    sum power.  P1 minimizes ``0.5 Tr(Bbar X)`` over the target's floors.
    Both optionally keep every peak row; X is real exactly when the data
    is.  Its rows are the model's own factor blocks (``model.row_factors``),
    so the relaxations of one model have the same rows for a warm start.
    """
    n_rx = scenario.n_rx
    if target_power is None:
        rows = model.row_factors[:n_rx + 1]
        rhs = [np.zeros(n_rx), [scenario.total_power_cap]]
        objective, c_u = np.zeros((scenario.n_tx, scenario.n_tx)), (-1.0,)
    else:
        rows = model.row_factors[:n_rx]
        rhs = [delivery_rhs(scenario, profile, target_power)]
        objective, c_u = model.b_bar, ()
    if use_peaks:
        peak_rows, peak_rhs = _peak_rows(scenario, model)
        rows += peak_rows
        rhs.append(peak_rhs)
    linear = np.zeros((len(rows), len(c_u)))
    if c_u:
        linear[:n_rx, 0] = -delivery_rhs(scenario, profile, 1.0)
    return SdpProblem(objective, rows, (GE,) * n_rx + (LE,) * (len(rows) - n_rx),
                      np.concatenate(rhs), linear_objective=c_u, linear=linear)


def _optimal_relaxation(scenario, profile, model, use_peaks, target_power=None, start=None):
    """The relaxation's problem, optimal conic solution and spectrum, or a refusal:
    ``InfeasibleError`` when infeasible (never P0: X = 0, t = 0 is feasible),
    ``SolverError`` at any other status but optimal or, for P1 with peaks, at a
    rank above :func:`rank_bound` (the solver stopped short).  A solve from
    ``start``, the relaxation of another profile (same rows), that does not
    end optimal is solved again cold."""
    problem = _relaxation_problem(scenario, profile, model, use_peaks, target_power)
    conic = solve_sdp(problem, start=start)
    if start is not None and not conic.is_optimal:
        _debug("warm-started relaxation ended %s after %d iterations; "
               "solving it from the cold start", conic.status, conic.iterations)
        conic = solve_sdp(problem)
    if conic.status == INFEASIBLE:
        raise InfeasibleError("delivery shares are unreachable")
    if not conic.is_optimal:
        raise SolverError(f"relaxation ended with status {conic.status}")
    spectrum = _spectrum(conic.x)
    rank, bound = spectrum[2], rank_bound(scenario.n_rx, scenario.n_tx)
    if use_peaks and target_power is not None and rank > bound:
        raise SolverError(f"relaxed solution has rank {rank}, above the "
                          f"provable bound {bound}: the solver stopped short")
    return problem, conic, spectrum


def _exact_realization(spectrum, use_peaks):
    """Slots reproducing every trace of a relaxed solution, with their method
    and rank, or None.

    Rank at most one gives the principal eigenvector.  A real rank-two
    ``l1 v1 v1^T + l2 v2 v2^T`` equals ``Re(x x^H)`` for the one complex
    current ``x = sqrt(l1) v1 + j sqrt(l2) v2``; a real relaxation has real
    data, so x meets the relaxed value (the rank-one optimum of the complex
    rank bound, Huang & Palomar 2010).  Without peak limits any higher rank
    is realized by time-sharing; with them it has no exact realization.
    """
    evals, evecs, rank = spectrum
    if rank <= 1 or (rank == 2 and np.isrealobj(evecs)):
        k = max(rank, 1)
        gains = np.sqrt(np.maximum(evals[:k], 0.0)) * np.array([1.0, 1j])[:k]
        return [(Excitation(evecs[:, :k] @ gains), 1.0)], METHOD_SDR_RANK1, k
    if not use_peaks:
        return _time_shared(spectrum), METHOD_TIME_SHARING, rank
    return None


def _peak_gain2(scenario, model, y):
    """Largest squared gain per column of ``y`` that keeps every peak limit."""
    # squares and caps in place (x *= x is x ** 2): a rounding's 4000 columns
    # make each array 160 KB
    q_volt, q_curr = np.abs(model.b_columns.conj() @ y), np.abs(y)
    q_volt *= q_volt
    q_curr *= q_curr
    with np.errstate(divide="ignore"):
        np.divide(scenario.peak_voltage[:, None] ** 2, q_volt, out=q_volt)
        np.divide(scenario.peak_current[:, None] ** 2, q_curr, out=q_curr)
    return np.minimum(q_volt.min(axis=0), q_curr.min(axis=0))


def _delivery_gain2(model, y, rhs):
    """Smallest squared gain per column of ``y`` meeting every delivery floor."""
    q_delivery = np.abs(model.m_vectors @ y)
    q_delivery *= q_delivery
    with np.errstate(divide="ignore", invalid="ignore"):
        need = np.where(rhs[:, None] > 0, np.divide(rhs[:, None], q_delivery, out=q_delivery),
                        0.0)
    return need.max(axis=0, initial=0.0)


def _scaled(scenario, model, slots, gain2, method, sdr_rank=1):
    """The solution of ``slots`` with every current scaled by ``sqrt(gain2)``."""
    mu = math.sqrt(gain2)
    return make_solution(scenario, model, [(Excitation(mu * exc.currents), tau)
                                           for exc, tau in slots],
                         method, sdr_rank)


def _at_limits(scenario, model, use_peaks, slots, method, sdr_rank=1):
    """The solution of ``slots`` scaled by the largest gain the cap (and peaks) allow.

    The total power cap binds the time-averaged TX power, each peak limit
    every slot.  Only the scaled schedule is evaluated.
    """
    gain2 = scenario.total_power_cap / _tx_power(model, slots)
    if use_peaks:
        # C-ordered columns: the array's layout decides how BLAS sums the voltages
        currents = np.array([exc.currents for exc, _ in slots]).T.copy()
        gain2 = min(gain2, float(_peak_gain2(scenario, model, currents).min()))
    return _scaled(scenario, model, slots, gain2, method, sdr_rank)


def _reaches(solution, profile, target_power):
    """True if the schedule delivers ``target_power`` at the profile, within
    the delivery tolerance."""
    return profile_capped_power(solution, profile) >= target_power * (1.0 - _DELIVERY_REL_TOL)


def _at_target(scenario, model, solution, profile, target_power):
    """A schedule at its limits scaled down to deliver ``target_power``.

    Powers scale with the squared gain, so the gain is ``min(1, P/p)`` for
    the schedule's profile-capped power p; a p short of the target by more
    than the delivery tolerance raises ``InfeasibleError``.
    """
    if not _reaches(solution, profile, target_power):
        raise InfeasibleError("the schedule falls short of the target within the limits")
    p = profile_capped_power(solution, profile)
    return _scaled(scenario, model, solution.slots, min(1.0, target_power / p),
                   solution.method, solution.sdr_rank)


def _time_sharing_lp(spectrum, scenario, profile, model, target_power=None):
    """Time-sharing over the eigendirections of a relaxed solution, at its limits.

    Slot l runs direction ``v_l`` at its peak gain ``g_l``
    (:func:`_peak_gain2`) for the time ``phi_l / g_l``, so every peak limit
    holds inside it, and ``phi_l`` weighs its powers in the time average.
    One LP over ``phi`` keeps the time budget ``sum_l phi_l / g_l <= 1``.
    Without a target it has one more variable t and maximizes it subject
    to deliveries ``>= d_q t`` and the time-averaged cap (P0); with one it
    minimizes the TX power subject to the delivery floors, less the
    delivery tolerance (P1).  Time left over stretches every slot alike,
    and the schedule is scaled to its limits.
    An infeasible LP raises ``InfeasibleError``.
    """
    _, evecs, rank = spectrum
    vecs = evecs[:, :max(rank, 1)]
    n_slots = vecs.shape[1]
    tx_power = np.real(np.einsum("il,ij,jl->l", vecs.conj(), model.b_bar, vecs)) / 2.0
    delivery = np.abs(model.m_vectors @ vecs) ** 2
    gain2 = _peak_gain2(scenario, model, vecs)
    if target_power is None:
        per_watt = delivery_rhs(scenario, profile, 1.0)
        objective = np.append(np.zeros(n_slots), -1.0)
        a_le = np.vstack([np.hstack([-delivery, per_watt[:, None]]),
                          np.append(tx_power, 0.0), np.append(1.0 / gain2, 0.0)])
        b_le = np.append(np.zeros(per_watt.size), [scenario.total_power_cap, 1.0])
    else:
        rhs = delivery_rhs(scenario, profile, target_power) * (1.0 - _DELIVERY_REL_TOL)
        objective = tx_power
        a_le = np.vstack([-delivery, 1.0 / gain2])
        b_le = np.append(-rhs, 1.0)
    lp_sol = solve_sdp(SdpProblem(
        np.zeros((0, 0)), np.zeros((len(b_le), 0)), (LE,) * len(b_le), b_le,
        linear_objective=objective, linear=a_le))
    if lp_sol.status == INFEASIBLE:
        raise InfeasibleError("per-slot peak limits cannot support this delivery")
    if not lp_sol.is_optimal:
        raise SolverError(f"time-sharing LP ended with status {lp_sol.status}")
    time = np.maximum(lp_sol.u[:n_slots], 0.0) / gain2
    keep = np.flatnonzero(time > 1e-9 * time.sum())
    slots = [(Excitation(math.sqrt(gain2[l]) * vecs[:, l]), float(tau))
             for l, tau in zip(keep, time[keep] / time[keep].sum())]
    return _at_limits(scenario, model, True, slots, METHOD_TIME_SHARING, n_slots)


def _gaussian_rounding(spectrum, scenario, profile, model, draws, seed, target_power=None):
    """The best Gaussian draw shaped by a relaxed solution's spectrum, at its limits.

    Every draw is scaled to the largest gain the cap and peaks allow.
    Without a target the draw delivering the most profile-capped power wins
    (P0).  With one, only draws reaching the target within the delivery
    tolerance count, and the one needing the least TX power at the target
    wins (P1); with no such draw ``InfeasibleError`` is raised.
    """
    evals, evecs, rank = spectrum
    rank = max(rank, 1)
    shaped = evecs[:, :rank] * np.sqrt(np.maximum(evals[:rank], 0.0))
    rng = np.random.default_rng([int(seed), 0x6D72])
    # w = (a + 1j b) / sqrt(2) for two normal draws a and b, built part by
    # part: NumPy divides a complex array by a real as a product with its inverse
    w, inv_sqrt2 = np.empty((rank, draws), complex), 1.0 / math.sqrt(2.0)
    np.multiply(rng.standard_normal((rank, draws)), inv_sqrt2, out=w.real)
    np.multiply(rng.standard_normal((rank, draws)), inv_sqrt2, out=w.imag)
    y = shaped @ w                                          # (N, draws)
    # summed in exactly this order: in a rank-one spectrum every draw ties for
    # P1, and the rounding of this sum picks the draw
    p_tx = 0.5 * np.real(np.einsum("id,ij,jd->d", y.conj(), model.b_bar, y))
    gain2 = np.minimum(scenario.total_power_cap / p_tx,
                       _peak_gain2(scenario, model, y))
    need = _delivery_gain2(model, y, delivery_rhs(scenario, profile, 1.0))   # per watt
    if target_power is None:
        best = int(np.argmax(gain2 / need))
    else:
        ok = np.flatnonzero(gain2 / need >= target_power * (1.0 - _DELIVERY_REL_TOL))
        if ok.size == 0:
            raise InfeasibleError("no randomized draw satisfies all constraints")
        gain2_at_target = np.minimum(target_power * need[ok], gain2[ok])
        best = int(ok[np.argmin(gain2_at_target * p_tx[ok])])
    return _at_limits(scenario, model, True, [(Excitation(y[:, best]), 1.0)],
                      METHOD_RANDOMIZATION, rank)


def _debug(message, *args):
    """Log on the ``magbeam`` logger at DEBUG."""
    import logging  # here: `import magbeam` skips its 8 ms
    logging.getLogger("magbeam").debug(message, *args)


def _roundings(options, time_sharing, randomization):
    """Schedules from the rounding schemes that ``options.method`` selects.

    ``time_sharing`` and ``randomization`` each build one schedule; a scheme
    that finds none is left out.  Method ``sdr`` takes exact realizations
    only, so reaching a rounding is an error for it.
    """
    if options.method == "sdr":
        raise SolverError("relaxed solution has no exact realization; "
                          "use method auto, ts, or randomization")
    candidates = []
    for method, rounding in (("ts", time_sharing), ("randomization", randomization)):
        if options.method in ("auto", method):
            try:
                candidates.append(rounding())
            except (InfeasibleError, SolverError) as exc:
                _debug("rounding %s found no schedule: %s", method, exc)
    return candidates


def _rank_penalized(problem, conic, spectrum, scenario, profile, model, use_peaks):
    """Schedules from re-solving a relaxation under a rank penalty.

    Convex iteration on the rank (Dattorro, *Convex Optimization & Euclidean
    Distance Geometry*, ch. 4): each solve adds ``lam |c*|/Tr X*`` times
    ``Tr((I - v v^H) X)`` to ``problem``'s objective, v the principal
    eigenvector of the previous solution (the first from ``spectrum``) and
    (X*, c*) ``conic``, the solution of ``problem`` and its value (-t* for
    P0, the TX power for P1).  Each solve starts from the one before it
    (the first from ``conic``): only the objective changes, so the previous
    primal-dual pair is a warm start.  Each solution's principal
    eigenvector is scaled to its limits, up to the first solve that is not
    optimal.
    """
    scale = 2.0 * abs(float(conic.value)) / float(np.trace(conic.x).real)
    v = spectrum[1][:, 0]
    schedules, step = [], conic
    for lam in _RANK_PENALTY_WEIGHTS:
        penalty = lam * scale * (np.eye(scenario.n_tx) - np.outer(v, v.conj()))
        step = solve_sdp(replace(problem, objective=problem.objective + penalty), start=step)
        if not step.is_optimal:
            _debug("rank penalty %g: %s after %d iterations", lam, step.status,
                   step.iterations)
            break
        _, evecs, rank = _spectrum(step.x)
        v = evecs[:, 0]
        sol = _at_limits(scenario, model, use_peaks, [(Excitation(v), 1.0)],
                         METHOD_RANK_PENALTY, rank)
        _debug("rank penalty %g: %s after %d iterations, rank %d, p %.9g W", lam,
               step.status, step.iterations, rank, profile_capped_power(sol, profile))
        schedules.append(sol)
    return schedules


def _candidates(scenario, profile, model, relaxation, options, target_power=None):
    """Every schedule realizing or rounding a relaxed solution, each at its limits.

    ``relaxation`` is the problem, optimal solution and spectrum from
    :func:`_optimal_relaxation`.  An
    exact realization (:func:`_exact_realization`) is the one candidate
    when there is one.  Otherwise the roundings that ``options.method``
    selects run (a ``target_power`` selects P1's LP and draw rule),
    followed by the rank-penalized re-solves of the relaxation.
    """
    use_peaks, spectrum = options.use_peak_constraints, relaxation[2]
    exact = _exact_realization(spectrum, use_peaks)
    if exact is not None:
        return [_at_limits(scenario, model, use_peaks, *exact)]
    candidates = _roundings(
        options, lambda: _time_sharing_lp(spectrum, scenario, profile, model, target_power),
        lambda: _gaussian_rounding(spectrum, scenario, profile, model,
                                   options.randomization_draws, options.seed, target_power))
    return candidates + _rank_penalized(*relaxation, scenario, profile, model, use_peaks)


def _within_limits(scenario, model, solution, use_peaks):
    """True if the schedule keeps the total power cap on average and, with
    peaks, every peak limit in every slot, each within ``_SLACK_TOL``."""
    if scenario.total_power_cap - solution.tx_power < -_SLACK_TOL:
        return False
    reports = (constraint_slacks(scenario, model, exc) for exc, _ in solution.slots)
    return not use_peaks or all(
        min(np.min(r.voltage_slack), np.min(r.current_slack)) >= -_SLACK_TOL
        for r in reports)


def solve_p1(scenario, profile, target_power, options=DEFAULT_OPTIONS, model=None):
    """Minimize TX sum power subject to per-RX delivery shares.

    The relaxation (:func:`_optimal_relaxation`) is realized or rounded as in
    :func:`solve_p0` (see :func:`_candidates`), every candidate at its
    limits.  Each candidate that reaches the target there is scaled down to
    it (:func:`_at_target`), and the one with the most profile-capped power
    per TX watt wins: the least TX power at the target, with a candidate
    short of the target by up to the delivery tolerance charged for its
    shortfall.  No such candidate raises ``InfeasibleError``.  The
    winner's ``relaxation`` is the relaxation solved.
    """
    model = _model_for(scenario, model)
    _check_profile(scenario, profile)
    if target_power <= 0.0:
        return zero_solution(scenario, model)
    if _uncoupled_demand(model, profile):
        raise InfeasibleError("positive share assigned to an uncoupled receiver")

    use_peaks = options.use_peak_constraints
    if options.method == METHOD_CLOSED_FORM:
        closed = _closed_form(scenario, target_power, model, use_peaks)
        if not _within_limits(scenario, model, closed, use_peaks):
            raise InfeasibleError("the closed form exceeds the total power cap")
        return closed

    relaxation = _optimal_relaxation(scenario, profile, model, use_peaks, target_power)
    schedules = _candidates(scenario, profile, model, relaxation, options, target_power)
    candidates = [_at_target(scenario, model, c, profile, target_power)
                  for c in schedules if _reaches(c, profile, target_power)]
    if not candidates:
        raise InfeasibleError("no schedule meets the delivery shares within the limits")
    best = min(candidates, key=lambda c: c.tx_power / profile_capped_power(c, profile))
    return replace(best, relaxation=relaxation[1])


def _closed_form(scenario, target_power, model, use_peaks):
    """The single-RX closed form, which has no peak limits to keep."""
    if use_peaks:
        raise ValueError("closed form ignores peak limits; use --no-peaks")
    return solve_p2_closed_form_single_rx(scenario, target_power, model)


def solve_p0(scenario, profile, options=DEFAULT_OPTIONS, model=None, start=None):
    """Maximize the delivered sum power for one power profile.

    One joint relaxation (:func:`_optimal_relaxation`, started from ``start``,
    the relaxation of another profile, when one is given) gives an upper
    bound; its solution is realized or rounded (see :func:`_candidates`),
    every candidate at its limits, and the one delivering the most
    profile-respecting power (or the zero schedule) wins.  Returns that
    power, ``min_q per_rx_q / alpha_q``, and the schedule, whose
    ``relaxation`` is the relaxation solved (None for ``closed_form``).
    """
    model = _model_for(scenario, model)
    _check_profile(scenario, profile)
    if _uncoupled_demand(model, profile):
        return 0.0, zero_solution(scenario, model)

    use_peaks = options.use_peak_constraints
    if options.method == METHOD_CLOSED_FORM:
        # a direction at 1 W, scaled to the cap
        closed = _closed_form(scenario, 1.0, model, use_peaks)
        best = _at_limits(scenario, model, False, closed.slots, closed.method)
        return profile_capped_power(best, profile), best
    relaxation = _optimal_relaxation(scenario, profile, model, use_peaks, start=start)
    # the zero schedule's profile-capped power is 0.0
    candidates = (_candidates(scenario, profile, model, relaxation, options)
                  or [zero_solution(scenario, model)])
    powers = [profile_capped_power(c, profile) for c in candidates]
    best = powers.index(max(powers))
    return powers[best], replace(candidates[best], relaxation=relaxation[1])


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
    slots = [(Excitation(np.ones(scenario.n_tx)), 1.0)]
    if max_feasible:
        return _at_limits(scenario, model, use_peak_constraints, slots, METHOD_BENCHMARK)
    ones = make_solution(scenario, model, slots, METHOD_BENCHMARK)
    if target_power > 0 and ones.achieved_sum_power == 0.0:
        raise InfeasibleError("identical currents do not reach any receiver")
    gain2 = target_power / ones.achieved_sum_power if target_power > 0 else 0.0
    sol = _scaled(scenario, model, ones.slots, gain2, METHOD_BENCHMARK)
    if not _within_limits(scenario, model, sol, use_peak_constraints):
        raise InfeasibleError("target power unreachable with identical currents")
    return sol


def profile_capped_power(solution, profile):
    """Largest sum power whose per-RX shares this solution can guarantee.

    For a fixed-direction scheme the achievable profile-respecting sum is
    ``min_q per_rx_q / alpha_q``; used to compare the benchmark against
    profile-targeted beamforming.
    """
    alpha = profile.alpha
    ratios = np.divide(solution.per_rx_power, alpha, out=np.full(alpha.size, np.inf),
                       where=alpha > 0)
    val = float(ratios.min()) if ratios.size else 0.0
    return val if math.isfinite(val) else 0.0

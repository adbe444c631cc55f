"""Acceptance suite: one test per criterion, one printed verdict line each.

Every tolerance is pinned here.  Criterion 2 checks its 56 W / 70%
reference at what it describes, a point reached under the peak limits,
and holds the maximum itself to the relaxation upper bound with
re-verified slacks and deliveries.  Two sub-checks assert reference
figures that this model does not reproduce and that only the paper's own
text can settle: the 0.22 W capped benchmark corner of criterion 7 (the
model gives 0.205 W) and the 3 dB estimation gap of criterion 9 (the
model gives 2.75 dB, which the analytic high-SNR gap confirms).  They are
asserted as stated, so those two tests stay red rather than loosened.
"""

import math

import numpy as np
import pytest

from conftest import random_scenario, relax, time_shared
from magbeam.beamforming import (PowerProfile, SolveOptions, _at_target,
                                 _gaussian_rounding, _time_sharing_lp,
                                 benchmark_uncoordinated, delivery_rhs,
                                 profile_capped_power, rank_bound, solve_p0,
                                 solve_p1, solve_p2_closed_form_single_rx)
from magbeam.circuit import (Excitation, build_impedance, constraint_slacks,
                             delivered_powers, efficiency, tx_total_power,
                             tx_voltages)
from magbeam.conic import GE, LE, SdpProblem, psd_eigendecomposition, solve_sdp
from magbeam.errors import InfeasibleError
from magbeam.estimation import (RANDOM_VOLTAGE, TrainingProtocol, estimate_ls,
                                estimate_perfect, monte_carlo_mse,
                                pairwise_circuit, simulate_training)
from magbeam.scenario import table_scenario

NO_PEAKS = SolveOptions(use_peak_constraints=False)
FOUR_USER_PROFILE = PowerProfile.normalized([0.1227, 0.03615, 0.7836, 0.05752])


class Criterion:
    """Collects named sub-checks and prints a single verdict line."""

    def __init__(self, number, title):
        self.number = number
        self.title = title
        self.failures = []
        self.count = 0

    def check(self, label, ok, detail=""):
        self.count += 1
        if not ok:
            self.failures.append(f"{label}: {detail}" if detail else label)

    def within(self, label, got, want, rel=None, abs_tol=None):
        if rel is not None:
            ok = abs(got - want) <= rel * abs(want)
        else:
            ok = abs(got - want) <= abs_tol
        self.check(label, ok, f"got {got:.6g}, want {want:.6g} "
                              f"({'±%g%%' % (100 * rel) if rel else '±%g' % abs_tol})")

    def conclude(self):
        status = "PASS" if not self.failures else "FAIL"
        print(f"[{status}] criterion {self.number}: {self.title} "
              f"({self.count - len(self.failures)}/{self.count} checks)")
        assert not self.failures, (
            f"criterion {self.number} failed sub-checks:\n  " +
            "\n  ".join(self.failures))


def test_criterion_1_single_rx_efficiencies(tabletop_miso, miso_model):
    crit = Criterion(1, "single-RX efficiency, unconstrained")
    sol = solve_p2_closed_form_single_rx(tabletop_miso, 1.0, miso_model)
    eta = efficiency(tabletop_miso, miso_model, list(sol.slots))
    crit.within("beamforming efficiency", eta, 0.773, abs_tol=0.005)
    bench = benchmark_uncoordinated(tabletop_miso, target_power=0.05,
                                    model=miso_model)
    eta_b = efficiency(tabletop_miso, miso_model, list(bench.slots))
    crit.within("benchmark efficiency", eta_b, 0.586, abs_tol=0.005)
    crit.conclude()


def test_criterion_2_single_rx_constrained_maximum(tabletop_miso, miso_model):
    # 56 W is a reference point reached under the peak limits, not the
    # maximum: the same dataset's two-user corner for this receiver is
    # already 57.5 W, and 70% is the efficiency of the fixed-target optimum
    # at 56 W (all five voltages at the peak, as criterion 3 pins).  The
    # maximum is held to the reference from below and to the joint
    # relaxation's upper bound from both sides (the SDR is tight for one
    # RX).  Going above 56 W is accepted because the returned schedule,
    # re-verified here with constraint_slacks and delivered_powers, meets
    # all three constraint families of the problem (total power cap, per-TX
    # peak voltage, per-TX peak current) while delivering 58.1 W.
    crit = Criterion(2, "single-RX constrained maximum")
    p_star, sol = solve_p0(tabletop_miso, PowerProfile([1.0]),
                           model=miso_model)
    crit.check("maximum reaches the 56 W reference", p_star >= 56.0 * (1 - 0.02),
               f"got {p_star:.6g}")
    bound = float(relax(tabletop_miso, PowerProfile([1.0]),
                        model=miso_model)[0].u[0])
    crit.check("maximum meets the relaxation bound",
               bound * (1 - 1e-5) <= p_star <= bound * (1 + 1e-6),
               f"got {p_star:.8g}, bound {bound:.8g}")
    delivered = cap_slack = 0.0
    for exc, tau in sol.slots:
        rep = constraint_slacks(tabletop_miso, miso_model, exc)
        worst = min(float(np.min(rep.voltage_slack)),
                    float(np.min(rep.current_slack)))
        crit.check("slot within its peak limits", worst >= -1e-6,
                   f"worst slack {worst:.3g}")
        cap_slack += tau * rep.total_power_slack
        delivered += tau * float(delivered_powers(tabletop_miso, miso_model,
                                                  exc)[0])
    crit.check("schedule within the total power cap", cap_slack >= -1e-6,
               f"cap slack {cap_slack:.3g}")
    crit.check("schedule delivers the maximum",
               delivered >= p_star * (1 - 1e-5),
               f"delivers {delivered:.8g} for {p_star:.8g}")
    at_ref = solve_p1(tabletop_miso, PowerProfile([1.0]), 56.0, model=miso_model)
    crit.within("efficiency at the 56 W reference",
                efficiency(tabletop_miso, miso_model, list(at_ref.slots)), 0.70,
                abs_tol=0.01)
    bench = benchmark_uncoordinated(tabletop_miso, max_feasible=True,
                                    model=miso_model)
    crit.within("benchmark maximum", bench.achieved_sum_power, 0.2, rel=0.05)
    crit.conclude()


TABLE_1W_I = np.array([-0.0152, -0.181, -0.0062, -0.0036, -0.0490])
TABLE_1W_V = np.array([-1.109 - 32.027j, -13.185 - 15.953j, -0.454 - 32.336j,
                       -0.260 - 22.0638j, -3.565 - 57.779j])
TABLE_1W_P = np.array([0.0085, 1.194, 0.0014, 0.000467, 0.0874])
TABLE_56W_I = np.array([-0.224, 1.269 + 0.786j, -0.190 + 0.0036j,
                        -0.702 - 0.573j, -0.0204 + 0.123j])
TABLE_56W_P = np.array([5.9279, 37.661, 5.381, 27.321, 3.906])


def test_criterion_3_reference_solution_table(tabletop_miso, miso_model):
    crit = Criterion(3, "per-TX reference solutions at 1 W and 56 W")
    for target, ref_i, ref_p in [(1.0, TABLE_1W_I, TABLE_1W_P),
                                 (56.0, TABLE_56W_I, TABLE_56W_P)]:
        sol = solve_p1(tabletop_miso, PowerProfile([1.0]), target,
                       model=miso_model)
        cur = sol.excitation.currents
        k = int(np.argmax(np.abs(ref_i)))
        cur = cur * (ref_i[k] / abs(ref_i[k])) * (abs(cur[k]) / cur[k])
        volt = tx_voltages(miso_model, Excitation(cur))
        p_tx = 0.5 * np.real(volt * np.conj(cur))
        ref_v_abs = np.abs(TABLE_1W_V) if target == 1.0 \
            else np.full(5, 50.0 * math.sqrt(2.0))
        for n in range(5):
            crit.check(f"P={target}: |i_{n + 1}|",
                       abs(abs(cur[n]) - abs(ref_i[n])) <= 0.05 * abs(ref_i[n]),
                       f"got {abs(cur[n]):.4g}, want {abs(ref_i[n]):.4g}")
            crit.check(f"P={target}: |v_{n + 1}|",
                       abs(abs(volt[n]) - ref_v_abs[n]) <= 0.05 * ref_v_abs[n],
                       f"got {abs(volt[n]):.4g}, want {ref_v_abs[n]:.4g}")
            crit.check(f"P={target}: p_{n + 1}",
                       abs(p_tx[n] - ref_p[n]) <= 0.05 * ref_p[n],
                       f"got {p_tx[n]:.4g}, want {ref_p[n]:.4g}")
        if target == 56.0:
            peak = 50.0 * math.sqrt(2.0)
            crit.check("P=56: all voltages at the peak",
                       bool(np.all(np.abs(np.abs(volt) - peak) <= 0.01 * peak)),
                       f"|v| = {np.abs(volt)}")
    crit.conclude()


def test_criterion_4_aligned_current_structure():
    crit = Criterion(4, "single-RX optimal current direction")
    rng = np.random.default_rng(40)
    # identical source resistances: direction equals the coupling vector
    for trial in range(10):
        sc = random_scenario(rng, n_rx=1)
        sc = table_scenario([1]) if trial == 0 else sc
        uniform = np.full(sc.n_tx, float(sc.tx_resistance[0]))
        if not np.allclose(sc.tx_resistance, uniform):
            from magbeam.circuit import Scenario
            sc = Scenario(n_tx=sc.n_tx, n_rx=1, omega=sc.omega,
                          tx_resistance=uniform, rx_parasitic=sc.rx_parasitic,
                          rx_load=sc.rx_load, mutual_tx_rx=sc.mutual_tx_rx,
                          mutual_tx_tx=sc.mutual_tx_tx,
                          total_power_cap=sc.total_power_cap,
                          peak_voltage=sc.peak_voltage,
                          peak_current=sc.peak_current)
        model = build_impedance(sc)
        m = model.m_vectors[0]
        sol = solve_p2_closed_form_single_rx(sc, 0.5, model)
        u = sol.excitation.currents.real
        u = u / np.linalg.norm(u)
        ref = m / np.linalg.norm(m)
        dev = min(np.linalg.norm(u - ref), np.linalg.norm(u + ref))
        crit.check(f"uniform-R trial {trial}", dev <= 1e-6, f"deviation {dev:.2e}")

    # distinct resistances: solution direction zeroes the dual eigenvalue
    from magbeam.circuit import Scenario
    sc = Scenario(n_tx=2, n_rx=1, omega=1e7, tx_resistance=[1.0, 4.0],
                  rx_parasitic=[0.5], rx_load=[10.0],
                  mutual_tx_rx=np.array([[1.0], [1.0]]) * 1e-6,
                  mutual_tx_tx=np.zeros((2, 2)), total_power_cap=10.0,
                  peak_voltage=[50.0, 50.0], peak_current=[5.0, 5.0])
    model = build_impedance(sc)
    c = sc.omega ** 2 / sc.rx_resistance[0]
    m = model.m_vectors[0]

    def smallest_eig(v):
        return float(np.linalg.eigvalsh(np.diag([1.0, 4.0])
                                        + c * (1.0 - v) * np.outer(m, m))[0])

    lo, hi = 1.0, 2.0
    while smallest_eig(hi) > 0:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if smallest_eig(mid) > 0:
            lo = mid
        else:
            hi = mid
    t_mat = np.diag([1.0, 4.0]) + c * (1.0 - 0.5 * (lo + hi)) * np.outer(m, m)
    oracle = np.linalg.eigh(t_mat)[1][:, 0]
    oracle = oracle / np.linalg.norm(oracle) * np.sign(oracle[0])
    sol = solve_p2_closed_form_single_rx(sc, 0.5, model)
    u = sol.excitation.currents.real
    u = u / np.linalg.norm(u) * np.sign(u.real[0])
    crit.check("root-finder oracle", np.linalg.norm(u - oracle) <= 1e-6,
               f"deviation {np.linalg.norm(u - oracle):.2e}")
    ref = np.array([1.0, 0.25]) / np.linalg.norm([1.0, 0.25])
    crit.check("direction follows inverse resistances",
               np.linalg.norm(u - ref) <= 1e-6,
               f"deviation {np.linalg.norm(u - ref):.2e}")
    crit.conclude()


def test_criterion_5_rank_certificates(tabletop):
    # The Q<=3 clause is the complex rank bound (m <= 3 constraints admit a
    # rank-one Hermitian optimum).  The real relaxation may be rank two at
    # Q=3 and then has no rank-one *real* optimum, but with real data a
    # rank-two X is Re(x x^H) for one complex current x, so solve_p1
    # without peaks must return a single-slot solution on every draw.
    crit = Criterion(5, "relaxation rank certificates")
    rng = np.random.default_rng(50)

    ranks_ok = 0
    for trial in range(50):
        sc = random_scenario(rng, n_rx=1)
        model = build_impedance(sc)
        m = model.m_vectors[0]
        direction = m / sc.tx_resistance
        direction /= np.linalg.norm(direction)
        exc = Excitation(direction.astype(complex))
        volt = np.abs(tx_voltages(model, exc))
        beta = 0.8 * min(float(np.min(sc.peak_voltage / volt)),
                         float(np.min(sc.peak_current / np.abs(direction))))
        probe = float(delivered_powers(sc, model,
                                       Excitation(beta * direction))[0])
        conic, spectrum = relax(sc, PowerProfile([1.0]), probe, model)
        rank = spectrum[2] if conic.is_optimal else 0
        crit.check(f"single-RX trial {trial} solved", conic.is_optimal,
                   conic.status)
        if conic.is_optimal and rank == 1:
            ranks_ok += 1
        crit.check(f"single-RX trial {trial} bound",
                   rank <= rank_bound(1, sc.n_tx), f"rank {rank}")
    crit.check("single-RX relaxation always rank one", ranks_ok == 50,
               f"{ranks_ok}/50")

    by_q = {1: [0, 0], 2: [0, 0], 3: [0, 0]}
    for trial in range(50):
        q = int(rng.integers(1, 4))
        sc = random_scenario(rng, n_rx=q)
        profile = PowerProfile.normalized(rng.uniform(0.05, 1.0, q))
        sol = solve_p1(sc, profile, 1.0, NO_PEAKS)
        by_q[q][1] += 1
        if len(sol.slots) == 1:
            by_q[q][0] += 1
    total_ok = sum(v[0] for v in by_q.values())
    crit.check("no-peaks relaxation rank one for Q <= 3", total_ok == 50,
               "rank-one per Q: " + ", ".join(
                   f"Q={q}: {ok}/{n}" for q, (ok, n) in by_q.items()))

    conic, (_, _, rank) = relax(tabletop, FOUR_USER_PROFILE, 5.0)
    crit.check("four-user reference profile rank two",
               conic.is_optimal and rank == 2, f"rank {rank}")
    crit.check("four-user bound", rank <= rank_bound(4, 5), f"rank {rank}")
    crit.conclude()


def test_criterion_6_time_sharing_identities():
    crit = Criterion(6, "time-sharing power identities")
    rng = np.random.default_rng(60)
    for trial in range(20):
        sc = random_scenario(rng, n_rx=int(rng.integers(2, 4)))
        model = build_impedance(sc)
        basis = rng.standard_normal((sc.n_tx, min(3, sc.n_tx)))
        x_star = basis @ basis.T
        sol = time_shared(sc, x_star, model)
        w2 = sc.omega ** 2
        for q in range(sc.n_rx):
            want = (w2 / (2 * sc.rx_resistance[q])
                    * float(model.m_vectors[q] @ x_star @ model.m_vectors[q])
                    * sc.rx_power_factor[q])
            crit.check(f"trial {trial} delivered RX{q + 1}",
                       abs(sol.per_rx_power[q] - want) <= 1e-8 * abs(want),
                       f"{sol.per_rx_power[q]} vs {want}")
        want_tx = 0.5 * float(np.sum(model.b_bar * x_star))
        crit.check(f"trial {trial} TX power",
                   abs(sol.tx_power - want_tx) <= 1e-8 * abs(want_tx),
                   f"{sol.tx_power} vs {want_tx}")
    crit.conclude()


def test_criterion_7_two_user_region(tabletop_two_user):
    # the 0.22 W capped benchmark corner of RX2 is asserted as stated and is
    # expected red: the model gives 0.205 W, close to the 0.2 W the same
    # dataset quotes for the single-RX benchmark (criterion 2), but whether
    # the paper's two-user benchmark is that same quantity needs the paper's
    # text, which the repository does not hold yet
    crit = Criterion(7, "two-user power region")
    model = build_impedance(tabletop_two_user)

    corners_free = [solve_p0(tabletop_two_user, PowerProfile(a),
                             options=NO_PEAKS, model=model)[0]
                    for a in ([1.0, 0.0], [0.0, 1.0])]
    crit.within("unconstrained corner RX1", corners_free[0], 87.5, rel=0.03)
    crit.within("unconstrained corner RX2", corners_free[1], 77.5, rel=0.03)

    corners_cap = [solve_p0(tabletop_two_user, PowerProfile(a),
                            model=model)[0]
                   for a in ([1.0, 0.0], [0.0, 1.0])]
    crit.within("constrained corner RX1", corners_cap[0], 46.0, rel=0.03)
    crit.within("constrained corner RX2", corners_cap[1], 57.5, rel=0.03)

    bench_free = benchmark_uncoordinated(tabletop_two_user, max_feasible=True,
                                         use_peak_constraints=False, model=model)
    crit.within("benchmark corner RX1", bench_free.per_rx_power[0], 50.4, rel=0.03)
    crit.within("benchmark corner RX2", bench_free.per_rx_power[1], 27.5, rel=0.03)
    bench_cap = benchmark_uncoordinated(tabletop_two_user, max_feasible=True,
                                        model=model)
    crit.within("capped benchmark corner RX1", bench_cap.per_rx_power[0], 0.38,
                rel=0.03)
    crit.within("capped benchmark corner RX2", bench_cap.per_rx_power[1], 0.22,
                rel=0.03)

    for constrained, bench in [(False, bench_free), (True, bench_cap)]:
        for a1 in np.linspace(0.0, 1.0, 9):
            profile = PowerProfile([a1, 1.0 - a1])
            opts = SolveOptions(use_peak_constraints=constrained)
            p_star, _ = solve_p0(tabletop_two_user, profile,
                                 options=opts, model=model)
            p_bench = profile_capped_power(bench, profile)
            crit.check(f"dominance constrained={constrained} a1={a1:.3f}",
                       p_star >= p_bench - 1e-6,
                       f"{p_star:.4g} < {p_bench:.4g}")
    crit.conclude()


def test_criterion_8_four_user_comparison(tabletop):
    crit = Criterion(8, "four-user schedule comparison")
    model = build_impedance(tabletop)
    p_ref, _ = solve_p0(tabletop, FOUR_USER_PROFILE, model=model)
    compared = 0
    for frac in (0.2, 0.4, 0.6, 0.8, 0.95):
        target = frac * p_ref
        conic, spectrum = relax(tabletop, FOUR_USER_PROFILE, target, model)
        if not conic.is_optimal:
            continue
        try:
            ts = _at_target(_time_sharing_lp(
                spectrum, tabletop, FOUR_USER_PROFILE, model, target),
                FOUR_USER_PROFILE, target)
            rand = _at_target(_gaussian_rounding(
                spectrum, tabletop, FOUR_USER_PROFILE, model, 4000, 8, target),
                FOUR_USER_PROFILE, target)
        except InfeasibleError:
            continue
        compared += 1
        crit.check(f"TS no worse than randomization at P={target:.2f}",
                   ts.tx_power <= rand.tx_power + 1e-9,
                   f"ts {ts.tx_power:.4f} vs rand {rand.tx_power:.4f}")
    crit.check("sweep covered multiple targets", compared >= 3, f"{compared}")
    bench = benchmark_uncoordinated(tabletop, max_feasible=True, model=model)
    crit.within("benchmark profile-capped maximum",
                profile_capped_power(bench, FOUR_USER_PROFILE), 0.8, rel=0.10)
    crit.conclude()


def _crossing_snr(rows, level=1e-3):
    xs = [r.snr_db for r in rows]
    ys = [math.log10(r.mse) for r in rows]
    t = math.log10(level)
    for i in range(len(xs) - 1):
        if (ys[i] - t) * (ys[i + 1] - t) <= 0:
            return xs[i] + (t - ys[i]) * (xs[i + 1] - xs[i]) / (ys[i + 1] - ys[i])
    return None


def _high_snr_gap_db(scenario, n_slots):
    """First-order pairwise-over-LS NMSE ratio in dB, SNR-independent.

    With feedback noise of variance s2 per entry, LS gives NMSE
    ``(s2/2) tr(Re(Z Z^H)^-1)`` (Z the noiseless RX currents) and the
    pairwise benchmark ``(s2/2) sum M_nq^2 / |i_rx,nq|^2 / ||M||^2``; each
    protocol sets s2 from its own mean received-current power.
    """
    z = simulate_training(scenario, TrainingProtocol(n_slots=n_slots),
                          float("inf")).z
    a_ls = float(np.mean(np.abs(z) ** 2)) / 2.0 * float(
        np.trace(np.linalg.inv(np.real(z @ z.conj().T))))
    _, i_rx = pairwise_circuit(scenario)
    m = scenario.mutual_tx_rx
    a_pw = (float(np.mean(np.abs(i_rx) ** 2)) / 2.0
            * float(np.sum(m ** 2 / np.abs(i_rx) ** 2)) / float(np.sum(m ** 2)))
    return 10.0 * math.log10(a_pw / a_ls)


def test_criterion_9_estimation_mse(tabletop):
    # Both MSE curves fall as 1/SNR at high SNR, so the gap at the 1e-3
    # level is the analytic first-order ratio (2.745 dB on this model); the
    # Monte-Carlo gap is held to it.  The reference's ">= 3 dB" is asserted
    # as stated and is expected red: whether the paper's pairwise benchmark
    # uses another slot budget or SNR normalization needs the paper's text.
    crit = Criterion(9, "coupling-estimation error levels")
    trials = 100_000
    snrs = [20.0, 30.0, 40.0]
    ls10 = monte_carlo_mse(tabletop, "ls", TrainingProtocol(n_slots=10), snrs,
                           trials=trials, seed=90)
    ls20 = monte_carlo_mse(tabletop, "ls", TrainingProtocol(n_slots=20), snrs,
                           trials=trials, seed=91)
    for row, want in zip(ls10, [2.8e-3, 3e-4, 3e-5]):
        crit.within(f"T=10 MSE at {row.snr_db:.0f} dB", row.mse, want, rel=0.20)
    for r10, r20 in zip(ls10, ls20):
        crit.check(f"T=20 improves T=10 at {r10.snr_db:.0f} dB",
                   r20.mse < r10.mse, f"{r20.mse:.3e} vs {r10.mse:.3e}")

    grid_ls = [22.0, 24.0, 26.0]
    grid_pw = [25.0, 27.0, 29.0]
    ls_fine = monte_carlo_mse(tabletop, "ls", TrainingProtocol(n_slots=10),
                              grid_ls, trials=trials, seed=92)
    pw_fine = monte_carlo_mse(tabletop, "pairwise", TrainingProtocol(n_slots=10),
                              grid_pw, trials=trials, seed=93)
    c_ls, c_pw = _crossing_snr(ls_fine), _crossing_snr(pw_fine)
    crit.check("both schemes cross the 1e-3 level",
               c_ls is not None and c_pw is not None)
    if c_ls is not None and c_pw is not None:
        oracle = _high_snr_gap_db(tabletop, 10)
        crit.within("LS gap over pairwise at the 1e-3 level matches the "
                    "high-SNR analysis", c_pw - c_ls, oracle, abs_tol=0.1)
        crit.check("LS beats pairwise by >= 3 dB at the 1e-3 level",
                   c_pw - c_ls >= 3.0, f"gap {c_pw - c_ls:.2f} dB")
    crit.conclude()


def test_criterion_10_property_suites():
    crit = Criterion(10, "always-on property suites")
    rng = np.random.default_rng(100)

    ok_energy = ok_phase = 0
    for _ in range(50):
        sc = random_scenario(rng, load_accounting="total_rx_resistance")
        model = build_impedance(sc)
        cur = rng.standard_normal(sc.n_tx) + 1j * rng.standard_normal(sc.n_tx)
        exc = Excitation(cur)
        p_in = tx_total_power(model, exc)
        if float(np.sum(delivered_powers(sc, model, exc))) <= p_in * (1 + 1e-12):
            ok_energy += 1
        rot = Excitation(np.exp(1j * rng.uniform(0, 2 * math.pi)) * cur)
        same = (np.allclose(delivered_powers(sc, model, exc),
                            delivered_powers(sc, model, rot), rtol=1e-10)
                and abs(tx_total_power(model, rot) - p_in) <= 1e-10 * p_in)
        if same:
            ok_phase += 1
    crit.check("energy conservation (50 draws)", ok_energy == 50, f"{ok_energy}/50")
    crit.check("global-phase invariance (50 draws)", ok_phase == 50, f"{ok_phase}/50")

    ok_sandwich = 0
    for trial in range(50):
        sc = random_scenario(rng, n_rx=int(rng.integers(1, 3)))
        model = build_impedance(sc)
        profile = PowerProfile.normalized(rng.uniform(0.1, 1.0, sc.n_rx))
        conic, spectrum = relax(sc, profile, 0.5, model,
                                use_peak_constraints=False)
        if not conic.is_optimal:
            continue
        rand = _at_target(_gaussian_rounding(
            spectrum, sc, profile, model, 100, trial, 0.5), profile, 0.5)
        if rand.tx_power >= conic.value * (1 - 1e-6):
            ok_sandwich += 1
    crit.check("relaxation-value sandwich (50 draws)", ok_sandwich == 50,
               f"{ok_sandwich}/50")

    ok_exact = 0
    for _ in range(50):
        n_tx = int(rng.integers(2, 6))
        sc = random_scenario(rng, n_tx=n_tx,
                             n_rx=int(rng.integers(1, min(4, n_tx + 1))))
        proto = TrainingProtocol(mode=RANDOM_VOLTAGE, n_slots=sc.n_rx,
                                 seed=int(rng.integers(1e6)))
        rec = simulate_training(sc, proto, float("inf"))
        scale = np.linalg.norm(sc.mutual_tx_rx)
        if (np.linalg.norm(estimate_perfect(rec).m_hat - sc.mutual_tx_rx)
                <= 1e-9 * scale
                and np.linalg.norm(estimate_ls(rec).m_hat - sc.mutual_tx_rx)
                <= 1e-9 * scale):
            ok_exact += 1
    crit.check("noiseless estimator exactness (50 draws)", ok_exact == 50,
               f"{ok_exact}/50")

    ok_kkt = 0
    for trial in range(50):
        n = int(rng.integers(2, 6))
        a = rng.standard_normal((n, n))
        c = a @ a.T + n * np.eye(n)
        x0_m = rng.standard_normal((n, n))
        x0 = x0_m @ x0_m.T + 0.5 * np.eye(n)
        factors, mats, sense, rhs = [], [], [], []
        for _ in range(int(rng.integers(2, 6))):
            g_m = rng.standard_normal((n, n))
            g = g_m @ g_m.T
            v = float(np.sum(g * x0))
            ge = rng.random() < 0.5
            factors.append(g_m.T)
            mats.append(g)
            sense.append(GE if ge else LE)
            rhs.append(0.7 * v if ge else 1.3 * v)
        sol = solve_sdp(SdpProblem(c, np.stack(factors), sense, rhs))
        if not sol.is_optimal:
            continue
        s = c / 2.0 - sum(y * g for y, g in zip(sol.duals, mats))
        comp = abs(float(np.sum(s * sol.x)))
        psd = float(np.linalg.eigvalsh((s + s.T) / 2)[0])
        if comp <= 1e-6 * (1 + abs(sol.value)) and psd >= -1e-6 * np.linalg.norm(s):
            ok_kkt += 1
    crit.check("solver KKT certificates (50 draws)", ok_kkt == 50, f"{ok_kkt}/50")
    crit.conclude()

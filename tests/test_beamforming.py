import math

import numpy as np
import pytest

from conftest import random_scenario
from magbeam.beamforming import (PowerProfile, SolveOptions, _slot_lp_rows,
                                 benchmark_uncoordinated, delivery_rhs,
                                 profile_capped_power, randomization_extract,
                                 rank_bound, solve_p0_bisection, solve_p0_sdr,
                                 solve_p1, solve_p1_sdr, solve_p1_ts_lp,
                                 solve_p2_closed_form_single_rx, solve_p2_sdr,
                                 time_sharing_from_sdr, zero_solution)
from magbeam.circuit import (Excitation, Scenario, build_impedance,
                             constraint_slacks, delivered_powers,
                             tx_total_power, tx_voltages)
from magbeam.conic import INFEASIBLE, numerical_rank, psd_eigendecomposition
from magbeam.errors import InfeasibleError
from magbeam.region import two_user_profiles
from magbeam.scenario import table_scenario

NO_PEAKS = SolveOptions(use_peak_constraints=False)

# published reference solutions for the single-RX deployment (current,
# voltage, consumed power per TX) at 1 W and 56 W delivered
TABLE_1W = {
    "i": np.array([-0.0152, -0.181, -0.0062, -0.0036, -0.0490]),
    "v": np.array([-1.109 - 32.027j, -13.185 - 15.953j, -0.454 - 32.336j,
                   -0.260 - 22.0638j, -3.565 - 57.779j]),
    "p": np.array([0.0085, 1.194, 0.0014, 0.000467, 0.0874]),
}
TABLE_56W = {
    "i": np.array([-0.224, 1.269 + 0.786j, -0.190 + 0.0036j,
                   -0.702 - 0.573j, -0.0204 + 0.123j]),
    "v": np.array([-52.910 + 46.910j, 68.983 - 15.531j, -55.667 + 43.602j,
                   -70.073 - 9.468j, -42.861 + 56.239j]),
    "p": np.array([5.9279, 37.661, 5.381, 27.321, 3.906]),
}


def align_phase(values, reference):
    """Rotate a complex vector so its largest entry matches the reference phase."""
    k = int(np.argmax(np.abs(reference)))
    rot = (reference[k] / abs(reference[k])) * (abs(values[k]) / values[k])
    return values * rot


class TestClosedFormSingleRx:
    def test_identical_resistance_direction(self, tabletop_miso, miso_model):
        sol = solve_p2_closed_form_single_rx(tabletop_miso, 1.0, miso_model)
        cur = sol.excitation.currents.real
        m = miso_model.m_vectors[0]
        direction = cur / np.linalg.norm(cur)
        ref = m / np.linalg.norm(m)
        assert min(np.linalg.norm(direction - ref),
                   np.linalg.norm(direction + ref)) <= 1e-12
        assert sol.per_rx_power[0] == pytest.approx(1.0, rel=1e-12)

    def test_general_resistance_against_root_finder(self):
        # the dual parameter v* zeroes the smallest eigenvalue of
        # R + c(1-v) m m^T; locate it by bisection and compare eigenvectors
        r_diag = np.array([1.0, 4.0])
        m = np.array([1.0, 1.0]) * 1e-6
        sc = Scenario(n_tx=2, n_rx=1, omega=1e7, tx_resistance=r_diag,
                      rx_parasitic=[0.5], rx_load=[10.0],
                      mutual_tx_rx=m.reshape(2, 1), mutual_tx_tx=np.zeros((2, 2)),
                      total_power_cap=10.0, peak_voltage=[50.0, 50.0],
                      peak_current=[5.0, 5.0])
        model = build_impedance(sc)
        c = sc.omega ** 2 / sc.rx_resistance[0]

        def psi1(v):
            return float(np.linalg.eigvalsh(np.diag(r_diag)
                                            + c * (1.0 - v) * np.outer(m, m))[0])

        lo, hi = 1.0, 2.0
        while psi1(hi) > 0:
            hi *= 2.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if psi1(mid) > 0:
                lo = mid
            else:
                hi = mid
        v_star = 0.5 * (lo + hi)
        t_mat = np.diag(r_diag) + c * (1.0 - v_star) * np.outer(m, m)
        u = np.linalg.eigh(t_mat)[1][:, 0]
        u = u / np.linalg.norm(u) * np.sign(u[0])

        sol = solve_p2_closed_form_single_rx(sc, 0.5, model)
        cur = sol.excitation.currents.real
        direction = cur / np.linalg.norm(cur) * np.sign(cur[0])
        assert np.linalg.norm(direction - u) <= 1e-6
        # direction proportional to R^{-1} m, here [1, 0.25]
        ref = np.array([1.0, 0.25]) / np.linalg.norm([1.0, 0.25])
        assert np.linalg.norm(direction - ref) <= 1e-6

    def test_vanishing_target(self, tabletop_miso, miso_model):
        sol = solve_p2_closed_form_single_rx(tabletop_miso, 0.0, miso_model)
        assert np.all(sol.excitation.currents == 0)

    def test_uncoupled_infeasible(self):
        sc = Scenario(n_tx=2, n_rx=1, omega=1e7, tx_resistance=[10.0, 10.0],
                      rx_parasitic=[0.5], rx_load=[10.0],
                      mutual_tx_rx=np.zeros((2, 1)), mutual_tx_tx=np.zeros((2, 2)),
                      total_power_cap=10.0, peak_voltage=[50.0, 50.0],
                      peak_current=[5.0, 5.0])
        with pytest.raises(InfeasibleError):
            solve_p2_closed_form_single_rx(sc, 1.0)


class TestRelaxationWithoutPeaks:
    def test_single_rx_matches_closed_form(self, tabletop_miso, miso_model):
        conic, extracted = solve_p2_sdr(tabletop_miso, PowerProfile([1.0]), 1.0,
                                        miso_model)
        closed = solve_p2_closed_form_single_rx(tabletop_miso, 1.0, miso_model)
        assert conic.is_optimal
        assert extracted is not None and extracted.sdr_rank == 1
        assert conic.value == pytest.approx(closed.tx_power, rel=1e-6)

    def test_two_receivers_always_rank_one(self):
        # the real extreme-point bound r(r+1)/2 <= Q forces rank one at Q <= 2
        rng = np.random.default_rng(20)
        for trial in range(20):
            sc = random_scenario(rng, n_rx=int(rng.integers(1, 3)))
            profile = PowerProfile.normalized(rng.uniform(0.05, 1.0, sc.n_rx))
            conic, extracted = solve_p2_sdr(sc, profile, 1.0)
            assert conic.is_optimal, f"trial {trial}: {conic.status}"
            assert extracted is not None, f"trial {trial}: rank > 1"

    def test_three_receivers_rank_two_realized_by_time_sharing(self):
        # at Q = 3 the optimum may genuinely be rank two; the schedule built
        # from it reproduces the relaxed value exactly
        rng = np.random.default_rng(20)
        saw_rank2 = False
        for _ in range(25):
            sc = random_scenario(rng, n_rx=3)
            profile = PowerProfile.normalized(rng.uniform(0.05, 1.0, 3))
            conic, extracted = solve_p2_sdr(sc, profile, 1.0)
            assert conic.is_optimal
            if extracted is None:
                sol = time_sharing_from_sdr(sc, conic.x)
                assert len(sol.slots) == 2
                # the schedule reproduces the full matrix's power exactly;
                # against the reported objective only solver wiggle remains
                assert sol.tx_power == pytest.approx(conic.value, rel=1e-5)
                saw_rank2 = True
        assert saw_rank2, "expected at least one rank-two instance"

    def test_inactive_share_reduces_to_single_rx(self, tabletop_two_user):
        # with a zero share on the second receiver the optimum matches the
        # single-delivery closed form evaluated on the same two-user circuit
        model = build_impedance(tabletop_two_user)
        conic2, _ = solve_p2_sdr(tabletop_two_user, PowerProfile([1.0, 0.0]), 2.0,
                                 model)
        rhs1 = delivery_rhs(tabletop_two_user, PowerProfile([1.0, 0.0]), 2.0)[0]
        ell = np.linalg.inv(np.linalg.cholesky(model.b_bar))
        lmax = float(np.linalg.eigvalsh(
            ell @ model.rank_one_rx[0] @ ell.T)[-1])
        assert conic2.value == pytest.approx(0.5 * rhs1 / lmax, rel=1e-6)


class TestTimeSharing:
    def test_rank_one_single_slot(self, tabletop_miso, miso_model):
        x = np.outer([0.1, 0.2, 0.0, 0.0, 0.05], [0.1, 0.2, 0.0, 0.0, 0.05])
        sol = time_sharing_from_sdr(tabletop_miso, x, miso_model)
        assert len(sol.slots) == 1
        assert sol.slots[0][1] == pytest.approx(1.0)

    def test_equal_eigenvalues(self):
        sc = random_scenario(np.random.default_rng(21), n_tx=2, n_rx=1)
        sol = time_sharing_from_sdr(sc, np.diag([2.0, 2.0]))
        assert len(sol.slots) == 2
        assert [tau for _, tau in sol.slots] == pytest.approx([0.5, 0.5])
        for exc, _ in sol.slots:
            assert np.linalg.norm(exc.currents) == pytest.approx(2.0)

    def test_power_identities(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            sc = random_scenario(rng, n_tx=4, n_rx=int(rng.integers(2, 4)))
            model = build_impedance(sc)
            basis = rng.standard_normal((4, 3))
            x = basis @ basis.T
            sol = time_sharing_from_sdr(sc, x, model)
            w2 = sc.omega ** 2
            for q in range(sc.n_rx):
                trace_val = (w2 / (2 * sc.rx_resistance[q])
                             * float(np.sum(model.rank_one_rx[q] * x))
                             * sc.rx_power_factor[q])
                assert sol.per_rx_power[q] == pytest.approx(trace_val, rel=1e-8)
            assert sol.tx_power == pytest.approx(
                0.5 * float(np.sum(model.b_bar * x)), rel=1e-8)

    def test_zero_matrix_rejected(self, tabletop_miso, miso_model):
        with pytest.raises(ValueError):
            time_sharing_from_sdr(tabletop_miso, np.zeros((5, 5)), miso_model)


class TestRelaxationWithPeaks:
    def test_single_rx_rank_one(self, tabletop_miso, miso_model):
        conic, rank = solve_p1_sdr(tabletop_miso, PowerProfile([1.0]), 20.0,
                                   miso_model)
        assert conic.is_optimal and rank == 1

    def test_four_user_reference_profile_rank_two(self, tabletop):
        profile = PowerProfile.normalized([0.1227, 0.03615, 0.7836, 0.05752])
        conic, rank = solve_p1_sdr(tabletop, profile, 5.0)
        assert conic.is_optimal and rank == 2

    def test_zero_target(self, tabletop_miso, miso_model):
        conic, rank = solve_p1_sdr(tabletop_miso, PowerProfile([1.0]), 0.0,
                                   miso_model)
        assert conic.is_optimal
        assert conic.value == pytest.approx(0.0, abs=1e-6)

    def test_infeasible_target_detected(self, tabletop_miso, miso_model):
        conic, _ = solve_p1_sdr(tabletop_miso, PowerProfile([1.0]), 70.0,
                                miso_model)
        assert conic.status != "optimal"

    def test_rank_bound_formula(self):
        assert rank_bound(1, 5) == 1
        assert rank_bound(4, 5) == 4
        assert rank_bound(9, 1) == 4


class TestTimeSharingLp:
    def test_rank_one_input_single_slot(self, tabletop_miso, miso_model):
        profile = PowerProfile([1.0])
        conic, rank = solve_p1_sdr(tabletop_miso, profile, 10.0, miso_model)
        assert rank == 1
        sol = solve_p1_ts_lp(conic.x, tabletop_miso, profile, 10.0, miso_model)
        assert len(sol.slots) == 1
        assert sol.tx_power == pytest.approx(conic.value, rel=1e-5)

    def test_four_user_beats_randomization(self, tabletop):
        profile = PowerProfile.normalized([0.1227, 0.03615, 0.7836, 0.05752])
        model = build_impedance(tabletop)
        for target in [3.0, 5.0, 7.0]:
            conic, rank = solve_p1_sdr(tabletop, profile, target, model)
            assert conic.is_optimal and rank >= 2
            ts = solve_p1_ts_lp(conic.x, tabletop, profile, target, model)
            rand = randomization_extract(conic.x, tabletop, profile, target,
                                         model, seed=3)
            assert ts.tx_power <= rand.tx_power + 1e-9
            assert ts.tx_power == pytest.approx(conic.value, rel=1e-4)

    def test_peak_rows_match_loop_construction(self, tabletop):
        model = build_impedance(tabletop)
        vecs = np.linalg.qr(np.random.default_rng(4).standard_normal((5, 3))
                            + 0j)[0]
        _, _, rows = _slot_lp_rows(tabletop, model, vecs)
        c2 = np.abs(model.b_columns.conj() @ vecs) ** 2
        c3 = np.abs(vecs) ** 2
        n_slots = vecs.shape[1]
        expected = []
        for i in range(tabletop.n_tx):
            for l in range(n_slots):
                for gain, limit in ((c2, tabletop.peak_voltage),
                                    (c3, tabletop.peak_current)):
                    row = np.zeros(2 * n_slots)
                    row[l] = gain[i, l]
                    row[n_slots + l] = -limit[i] ** 2
                    expected.append(row)
        assert np.array_equal(rows, np.array(expected))

    def test_zero_time_slots_dropped(self, tabletop):
        profile = PowerProfile.normalized([0.1227, 0.03615, 0.7836, 0.05752])
        conic, _ = solve_p1_sdr(tabletop, profile, 5.0)
        sol = solve_p1_ts_lp(conic.x, tabletop, profile, 5.0)
        assert all(tau > 1e-9 for _, tau in sol.slots)
        assert sum(tau for _, tau in sol.slots) == pytest.approx(1.0, abs=1e-12)


class TestRandomization:
    def test_interval_lower_endpoint(self, tabletop_miso, miso_model):
        # rank-one input whose delivery over-supplies the need by 2x and
        # whose caps allow 4x: every draw scales to the lower endpoint
        profile = PowerProfile([1.0])
        target = 5.0
        base = solve_p1(tabletop_miso, profile, 2.0 * target, model=miso_model)
        y = base.excitation.currents
        x_star = np.outer(y, y.conj())
        sol = randomization_extract(x_star, tabletop_miso, profile, target,
                                    miso_model, draws=64, seed=1)
        assert sol.per_rx_power[0] == pytest.approx(target, rel=1e-9)
        assert sol.tx_power == pytest.approx(0.5 * base.tx_power, rel=1e-9)

    def test_converges_to_relaxation_value(self, tabletop_miso, miso_model):
        profile = PowerProfile([1.0])
        conic, rank = solve_p1_sdr(tabletop_miso, profile, 20.0, miso_model)
        assert rank == 1
        sol = randomization_extract(conic.x, tabletop_miso, profile, 20.0,
                                    miso_model, draws=4000, seed=0)
        assert sol.tx_power <= conic.value * 1.01

    def test_deterministic_for_fixed_seed(self, tabletop):
        profile = PowerProfile.normalized([0.1227, 0.03615, 0.7836, 0.05752])
        conic, _ = solve_p1_sdr(tabletop, profile, 5.0)
        a = randomization_extract(conic.x, tabletop, profile, 5.0, seed=7)
        b = randomization_extract(conic.x, tabletop, profile, 5.0, seed=7)
        assert np.array_equal(a.excitation.currents, b.excitation.currents)
        assert a.tx_power == b.tx_power


class TestSolveP1Dispatch:
    def test_reference_solution_at_one_watt(self, tabletop_miso, miso_model):
        sol = solve_p1(tabletop_miso, PowerProfile([1.0]), 1.0, model=miso_model)
        assert sol.method == "sdr_rank1"
        cur = align_phase(sol.excitation.currents, TABLE_1W["i"].astype(complex))
        assert np.allclose(cur, TABLE_1W["i"], rtol=0.05, atol=1e-4)
        volt = tx_voltages(miso_model, Excitation(cur))
        assert np.allclose(volt, TABLE_1W["v"], rtol=0.05, atol=0.05)
        p_tx = 0.5 * np.real(volt * np.conj(cur))
        assert np.allclose(p_tx, TABLE_1W["p"], rtol=0.05, atol=1e-5)

    def test_reference_solution_at_fifty_six_watts(self, tabletop_miso, miso_model):
        sol = solve_p1(tabletop_miso, PowerProfile([1.0]), 56.0, model=miso_model)
        volt = tx_voltages(miso_model, sol.excitation)
        assert np.allclose(np.abs(volt), 50.0 * math.sqrt(2.0), rtol=0.01)
        cur = sol.excitation.currents
        assert np.allclose(np.abs(cur), np.abs(TABLE_56W["i"]), rtol=0.05)
        p_tx = 0.5 * np.real(volt * np.conj(cur))
        assert np.allclose(p_tx, TABLE_56W["p"], rtol=0.05)

    def test_zero_target(self, tabletop_miso, miso_model):
        sol = solve_p1(tabletop_miso, PowerProfile([1.0]), 0.0, model=miso_model)
        assert sol.method == "sdr_rank1"
        assert np.all(sol.excitation.currents == 0)

    def test_feasible_outputs_have_valid_slots(self, tabletop):
        profile = PowerProfile.normalized([0.1227, 0.03615, 0.7836, 0.05752])
        model = build_impedance(tabletop)
        sol = solve_p1(tabletop, profile, 5.0, model=model)
        for exc, _ in sol.slots:
            rep = constraint_slacks(tabletop, model, exc)
            assert min(rep.voltage_slack.min(), rep.current_slack.min()) >= -1e-6
        assert np.all(sol.per_rx_power >= profile.alpha * 5.0 * (1 - 1e-5))

    def test_infeasible_raises(self, tabletop_miso, miso_model):
        with pytest.raises(InfeasibleError):
            solve_p1(tabletop_miso, PowerProfile([1.0]), 70.0, model=miso_model)


class TestBisection:
    def test_two_user_unconstrained_corner(self, tabletop_two_user):
        p_star, sol = solve_p0_bisection(tabletop_two_user, PowerProfile([1.0, 0.0]),
                                         options=NO_PEAKS)
        assert p_star == pytest.approx(87.5, rel=0.03)
        assert sol.tx_power <= 100.0 * (1 + 1e-6)

    def test_two_user_constrained_corner(self, tabletop_two_user):
        p_star, sol = solve_p0_bisection(tabletop_two_user, PowerProfile([1.0, 0.0]))
        assert p_star == pytest.approx(46.0, rel=0.03)

    def test_interval_tolerance(self, tabletop_miso):
        profile = PowerProfile([1.0])
        p_a, _ = solve_p0_bisection(tabletop_miso, profile, eps=0.5)
        p_b, _ = solve_p0_bisection(tabletop_miso, profile, eps=1e-2)
        assert abs(p_a - p_b) <= 0.5 + 1e-2

    def test_uncoupled_receiver(self):
        sc = Scenario(n_tx=2, n_rx=1, omega=1e7, tx_resistance=[10.0, 10.0],
                      rx_parasitic=[0.5], rx_load=[10.0],
                      mutual_tx_rx=np.zeros((2, 1)), mutual_tx_tx=np.zeros((2, 2)),
                      total_power_cap=10.0, peak_voltage=[50.0, 50.0],
                      peak_current=[5.0, 5.0])
        p_star, sol = solve_p0_bisection(sc, PowerProfile([1.0]))
        assert p_star == 0.0
        assert np.all(sol.slots[0][0].currents == 0)

    def test_tiny_cap_returns_zero(self):
        rng = np.random.default_rng(23)
        sc = random_scenario(rng, n_tx=3, n_rx=1)
        tiny = Scenario(n_tx=sc.n_tx, n_rx=sc.n_rx, omega=sc.omega,
                        tx_resistance=sc.tx_resistance, rx_parasitic=sc.rx_parasitic,
                        rx_load=sc.rx_load, mutual_tx_rx=sc.mutual_tx_rx,
                        mutual_tx_tx=sc.mutual_tx_tx, total_power_cap=1e-6,
                        peak_voltage=sc.peak_voltage, peak_current=sc.peak_current)
        p_star, _ = solve_p0_bisection(tiny, PowerProfile([1.0]))
        assert p_star <= 1e-6

    def test_min_power_nondecreasing_in_target(self, tabletop_miso, miso_model):
        profile = PowerProfile([1.0])
        values = []
        for target in [5.0, 15.0, 30.0, 45.0]:
            sol = solve_p1(tabletop_miso, profile, target, model=miso_model)
            values.append(sol.tx_power)
        assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))


class TestBoundaryMaximum:
    """The maximized power against the joint relaxation's upper bound."""

    def test_pinned_two_user_point_meets_bound(self, tabletop_two_user):
        profile = PowerProfile([0.35, 0.65])
        p_star, _ = solve_p0_bisection(tabletop_two_user, profile)
        bound = solve_p0_sdr(tabletop_two_user, profile).u[0]
        assert p_star >= 73.28
        assert p_star == pytest.approx(bound, rel=1e-5)

    def test_pinned_four_user_reference_profile(self, tabletop):
        profile = PowerProfile.normalized([0.1227, 0.03615, 0.7836, 0.05752])
        p_star, _ = solve_p0_bisection(tabletop, profile)
        assert p_star >= 16.95

    def test_one_ulp_continuity(self, tabletop_two_user):
        a, b = 0.35, float(np.nextafter(0.35, 1.0))
        assert b == 0.35000000000000003
        p_a, _ = solve_p0_bisection(tabletop_two_user, PowerProfile([a, 1.0 - a]))
        p_b, _ = solve_p0_bisection(tabletop_two_user, PowerProfile([b, 1.0 - b]))
        assert abs(p_a - p_b) < 1e-2

    @pytest.mark.parametrize("use_peaks", [True, False], ids=["peaks", "no_peaks"])
    def test_grid_schedules_feasible_and_bounded(self, tabletop_two_user, use_peaks):
        sc = tabletop_two_user
        model = build_impedance(sc)
        options = SolveOptions(use_peak_constraints=use_peaks)
        for profile in two_user_profiles(40):
            p_star, sol = solve_p0_bisection(sc, profile, options=options,
                                             model=model)
            conic = solve_p0_sdr(sc, profile, model, use_peaks)
            bound = conic.u[0]
            assert p_star <= bound * (1 + 1e-6)
            if numerical_rank(psd_eigendecomposition(conic.x)[0], 1e-6) == 1:
                assert p_star >= bound * (1 - 1e-5)
            assert np.all(sol.per_rx_power >= profile.alpha * p_star * (1 - 1e-12))
            assert sol.tx_power <= sc.total_power_cap * (1 + 1e-9)
            assert sum(tau for _, tau in sol.slots) == pytest.approx(1.0)
            if use_peaks:
                for exc, _ in sol.slots:
                    rep = constraint_slacks(sc, model, exc)
                    assert min(rep.voltage_slack.min(),
                               rep.current_slack.min()) >= -1e-9


class TestBenchmark:
    def test_miso_max_feasible(self, tabletop_miso, miso_model):
        sol = benchmark_uncoordinated(tabletop_miso, max_feasible=True,
                                      model=miso_model)
        assert sol.achieved_sum_power == pytest.approx(0.2056, abs=0.002)
        eta = sol.achieved_sum_power / sol.tx_power
        assert eta == pytest.approx(0.5867, abs=5e-4)

    def test_two_user_unconstrained_corners(self, tabletop_two_user):
        sol = benchmark_uncoordinated(tabletop_two_user, max_feasible=True,
                                      use_peak_constraints=False)
        assert sol.per_rx_power[0] == pytest.approx(50.4, rel=0.03)
        assert sol.per_rx_power[1] == pytest.approx(27.5, rel=0.03)
        assert sol.tx_power == pytest.approx(100.0, rel=1e-9)

    def test_zero_scale(self, tabletop_miso, miso_model):
        sol = benchmark_uncoordinated(tabletop_miso, target_power=0.0,
                                      model=miso_model)
        assert sol.achieved_sum_power == 0.0
        assert sol.tx_power == 0.0

    def test_unreachable_target(self, tabletop_miso, miso_model):
        with pytest.raises(InfeasibleError):
            benchmark_uncoordinated(tabletop_miso, target_power=1.0,
                                    model=miso_model)

    def test_profile_capped_power(self, tabletop):
        profile = PowerProfile.normalized([0.1227, 0.03615, 0.7836, 0.05752])
        sol = benchmark_uncoordinated(tabletop, max_feasible=True)
        capped = profile_capped_power(sol, profile)
        assert capped == pytest.approx(
            float(np.min(sol.per_rx_power / profile.alpha)), rel=1e-12)


class TestSandwichProperty:
    def test_relaxation_bounds_rank_one_and_rounding(self):
        rng = np.random.default_rng(24)
        for trial in range(15):
            sc = random_scenario(rng, n_rx=int(rng.integers(1, 3)))
            model = build_impedance(sc)
            profile = PowerProfile.normalized(rng.uniform(0.1, 1.0, sc.n_rx))
            conic, _ = solve_p2_sdr(sc, profile, 0.5, model)
            assert conic.is_optimal
            # any feasible rank-one point costs at least the relaxed value
            rhs = delivery_rhs(sc, profile, 0.5)
            direction = model.m_vectors[int(np.argmax(profile.alpha))].astype(complex)
            gains = np.abs(model.m_vectors @ direction) ** 2
            if np.all(gains[profile.alpha > 0] > 0):
                scale = math.sqrt(float(np.max(rhs[profile.alpha > 0]
                                               / gains[profile.alpha > 0])))
                exc = Excitation(scale * direction)
                feas_power = tx_total_power(model, exc)
                delivered = delivered_powers(sc, model, exc)
                if np.all(delivered >= profile.alpha * 0.5 * (1 - 1e-9)):
                    assert feas_power >= conic.value * (1 - 1e-8)
            rand = randomization_extract(conic.x, sc, profile, 0.5, model,
                                         draws=200, seed=trial)
            assert rand.tx_power >= conic.value * (1 - 1e-6)

import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import random_scenario, relax, row_matrices, time_shared
from magbeam import beamforming
from magbeam.beamforming import (PowerProfile, SolveOptions, _at_limits, _at_target,
                                 _gaussian_rounding, _peak_rows, _rank_penalized,
                                 _relaxation_problem, _roundings, _scaled,
                                 _time_sharing_lp, _within_limits,
                                 benchmark_uncoordinated,
                                 delivery_rhs, profile_capped_power, rank_bound,
                                 solve_p0, solve_p1, solve_p2_closed_form_single_rx)
from magbeam.circuit import (Excitation, Scenario, build_impedance,
                             constraint_slacks, delivered_powers,
                             tx_total_power, tx_voltages)
from magbeam.conic import (GE, LE, SdpProblem, kernel, numerical_rank, problems,
                           psd_eigendecomposition, solve_sdp)
from magbeam.errors import InfeasibleError, SolverError
from magbeam.region import two_user_profiles
from magbeam.scenario import (bundled_scenario_path, load_scenario, select_receivers,
                              table_scenario)

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


@pytest.mark.parametrize("alpha", [[math.nan, 1.0], [math.inf, 0.0], [0.5, 0.5, math.nan]])
def test_profile_rejects_non_finite_entries(alpha):
    with pytest.raises(ValueError, match="finite"):
        PowerProfile(alpha)


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
        conic, (_, _, rank) = relax(tabletop_miso, PowerProfile([1.0]), 1.0,
                                    miso_model, use_peak_constraints=False)
        closed = solve_p2_closed_form_single_rx(tabletop_miso, 1.0, miso_model)
        assert conic.is_optimal and rank == 1
        assert conic.value == pytest.approx(closed.tx_power, rel=1e-6)

    def test_two_receivers_always_rank_one(self):
        # the real extreme-point bound r(r+1)/2 <= Q forces rank one at Q <= 2
        rng = np.random.default_rng(20)
        for trial in range(20):
            sc = random_scenario(rng, n_rx=int(rng.integers(1, 3)))
            profile = PowerProfile.normalized(rng.uniform(0.05, 1.0, sc.n_rx))
            conic, spectrum = relax(sc, profile, 1.0,
                                    use_peak_constraints=False)
            assert conic.is_optimal, f"trial {trial}: {conic.status}"
            rank = spectrum[2]
            assert rank == 1, f"trial {trial}: rank {rank}"

    def test_three_receivers_rank_two_realized_by_time_sharing(self):
        # at Q = 3 the real optimum may be rank two; both the two-slot
        # schedule built from it and the one complex current it is the real
        # part of reproduce the relaxed value
        rng = np.random.default_rng(20)
        saw_rank2 = False
        for _ in range(25):
            sc = random_scenario(rng, n_rx=3)
            profile = PowerProfile.normalized(rng.uniform(0.05, 1.0, 3))
            conic, spectrum = relax(sc, profile, 1.0,
                                    use_peak_constraints=False)
            assert conic.is_optimal
            if spectrum[2] == 2:
                sol = time_shared(sc, conic.x)
                assert len(sol.slots) == 2
                # the schedule reproduces the full matrix's power exactly;
                # against the reported objective only solver wiggle remains
                assert sol.tx_power == pytest.approx(conic.value, rel=1e-5)
                extracted = solve_p1(sc, profile, 1.0, NO_PEAKS)
                assert len(extracted.slots) == 1
                assert extracted.sdr_rank == 2
                assert extracted.tx_power == pytest.approx(conic.value, rel=1e-5)
                saw_rank2 = True
        assert saw_rank2, "expected at least one rank-two instance"

    def test_inactive_share_reduces_to_single_rx(self, tabletop_two_user):
        # with a zero share on the second receiver the optimum matches the
        # single-delivery closed form evaluated on the same two-user circuit
        model = build_impedance(tabletop_two_user)
        conic2, _ = relax(tabletop_two_user, PowerProfile([1.0, 0.0]), 2.0,
                          model, use_peak_constraints=False)
        rhs1 = delivery_rhs(tabletop_two_user, PowerProfile([1.0, 0.0]), 2.0)[0]
        ell = np.linalg.inv(np.linalg.cholesky(model.b_bar))
        m_vec = model.m_vectors[0]
        lmax = float(np.linalg.eigvalsh(
            ell @ np.outer(m_vec, m_vec) @ ell.T)[-1])
        assert conic2.value == pytest.approx(0.5 * rhs1 / lmax, rel=1e-6)


class TestTimeSharing:
    def test_rank_one_single_slot(self, tabletop_miso, miso_model):
        x = np.outer([0.1, 0.2, 0.0, 0.0, 0.05], [0.1, 0.2, 0.0, 0.0, 0.05])
        sol = time_shared(tabletop_miso, x, miso_model)
        assert len(sol.slots) == 1
        assert sol.slots[0][1] == pytest.approx(1.0)

    def test_equal_eigenvalues(self):
        sc = random_scenario(np.random.default_rng(21), n_tx=2, n_rx=1)
        sol = time_shared(sc, np.diag([2.0, 2.0]))
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
            sol = time_shared(sc, x, model)
            w2 = sc.omega ** 2
            for q in range(sc.n_rx):
                trace_val = (w2 / (2 * sc.rx_resistance[q])
                             * float(model.m_vectors[q] @ x @ model.m_vectors[q])
                             * sc.rx_power_factor[q])
                assert sol.per_rx_power[q] == pytest.approx(trace_val, rel=1e-8)
            assert sol.tx_power == pytest.approx(
                0.5 * float(np.sum(model.b_bar * x)), rel=1e-8)

    def test_zero_matrix_rejected(self, tabletop_miso, miso_model):
        with pytest.raises(ValueError):
            time_shared(tabletop_miso, np.zeros((5, 5)), miso_model)


class TestRelaxationWithPeaks:
    def test_single_rx_rank_one(self, tabletop_miso, miso_model):
        conic, (_, _, rank) = relax(tabletop_miso, PowerProfile([1.0]), 20.0,
                                    miso_model)
        assert conic.is_optimal and rank == 1

    def test_four_user_reference_profile_rank_two(self, tabletop):
        profile = PowerProfile.normalized([0.1227, 0.03615, 0.7836, 0.05752])
        conic, (_, _, rank) = relax(tabletop, profile, 5.0)
        assert conic.is_optimal and rank == 2

    def test_zero_target(self, tabletop_miso, miso_model):
        conic, _ = relax(tabletop_miso, PowerProfile([1.0]), 0.0,
                         miso_model)
        assert conic.is_optimal
        assert conic.value == pytest.approx(0.0, abs=1e-6)

    def test_infeasible_target_detected(self, tabletop_miso, miso_model):
        conic, _ = relax(tabletop_miso, PowerProfile([1.0]), 70.0,
                         miso_model)
        assert conic.status != "optimal"

    def test_rank_bound_formula(self):
        assert rank_bound(1, 5) == 1
        assert rank_bound(4, 5) == 4
        assert rank_bound(9, 1) == 4

    def test_rank_above_bound_is_solver_error(self, tabletop, monkeypatch):
        # a rank above the provable bound means the solver stopped short;
        # it is a numerical failure, also under ``python -O``
        monkeypatch.setattr(beamforming, "numerical_rank",
                            lambda evals, rel_tol=1e-6: tabletop.n_tx)
        with pytest.raises(SolverError, match="provable bound"):
            solve_p1(tabletop, PowerProfile.uniform(4), 2.0)

    def test_wide_array_joint_relaxation_kkt(self, monkeypatch):
        # thirty chargers and four receivers: 65 rows on a 30 x 30 Hermitian
        # block; the KKT checks of the conic tests hold at this size too
        seen = []
        solve = beamforming.solve_sdp

        def spy(problem, start=None):
            seen.append(problem)
            return solve(problem, start=start)

        monkeypatch.setattr(beamforming, "solve_sdp", spy)
        sc = random_scenario(np.random.default_rng(30), n_tx=30, n_rx=4)
        sol, _ = relax(sc, PowerProfile.uniform(4))
        prob, = seen
        assert sol.is_optimal and np.iscomplexobj(sol.x)
        mats = row_matrices(prob)
        assert len(mats) == 4 + 1 + 2 * 30
        # the objective has no PSD part, so the dual slack is -sum_i y_i A_i
        s = -sum(y * a for y, a in zip(sol.duals, mats))
        scale = 1.0 + abs(sol.value)
        for y, a, sense, rhs, lin in zip(sol.duals, mats, prob.sense,
                                         prob.rhs, prob.linear):
            trace = float(np.sum(np.conj(a) * sol.x).real)
            lhs = trace + float(np.dot(lin, sol.u))
            slack = lhs - rhs if sense == GE else rhs - lhs
            assert slack >= -1e-6 * max(abs(trace), abs(rhs), 1e-300)
            assert (y if sense == GE else -y) >= -1e-6 * scale
        # complementary slackness and a PSD dual slack
        assert abs(np.real(np.sum(s.conj() * sol.x))) <= 1e-6 * scale
        assert float(np.linalg.eigvalsh((s + s.conj().T) / 2)[0]) >= -1e-6 * np.linalg.norm(s)


class TestTimeSharingLp:
    def test_rank_one_input_single_slot(self, tabletop_miso, miso_model):
        profile = PowerProfile([1.0])
        conic, spectrum = relax(tabletop_miso, profile, 10.0, miso_model)
        assert spectrum[2] == 1
        sol = _at_target(tabletop_miso, miso_model, _time_sharing_lp(
            spectrum, tabletop_miso, profile, miso_model, 10.0), profile, 10.0)
        assert len(sol.slots) == 1
        assert sol.tx_power == pytest.approx(conic.value, rel=1e-5)

    def test_four_user_beats_randomization(self, tabletop):
        profile = PowerProfile.normalized([0.1227, 0.03615, 0.7836, 0.05752])
        model = build_impedance(tabletop)
        for target in [3.0, 5.0, 7.0]:
            conic, spectrum = relax(tabletop, profile, target, model)
            assert conic.is_optimal and spectrum[2] >= 2
            ts = _at_target(tabletop, model, _time_sharing_lp(
                spectrum, tabletop, profile, model, target), profile, target)
            rand = _at_target(tabletop, model, _gaussian_rounding(
                spectrum, tabletop, profile, model, 4000, 3, target), profile, target)
            assert ts.tx_power <= rand.tx_power + 1e-9
            assert ts.tx_power == pytest.approx(conic.value, rel=1e-4)

    @staticmethod
    def _per_tx_reference(spectrum, sc, profile, model, target_power=None):
        # the LP over [phi, tau (, t)] with 2N per-TX peak rows per slot,
        # slot l at squared gain phi_l / tau_l for the time tau_l; returns its
        # optimal value.  sum tau <= 1 has the optimum of sum tau = 1, since a
        # larger tau_l only loosens slot l's rows; as a <= and >= pair the
        # rows leave the LP no interior, and the kernel fails on it for P1
        _, evecs, rank = spectrum
        vecs = evecs[:, :max(rank, 1)]
        n_slots = vecs.shape[1]
        tx = np.real(np.einsum("il,ij,jl->l", vecs.conj(), model.b_bar, vecs)) / 2.0
        delivery = np.abs(model.m_vectors @ vecs) ** 2
        rows, rhs = [], []
        for n in range(sc.n_tx):
            for quad, limit in ((np.abs(model.b_columns[n].conj() @ vecs) ** 2,
                                 sc.peak_voltage[n]),
                                (np.abs(vecs[n]) ** 2, sc.peak_current[n])):
                for l in range(n_slots):
                    row = np.zeros(2 * n_slots)
                    row[l], row[n_slots + l] = quad[l], -limit ** 2
                    rows.append(row)
                    rhs.append(0.0)
        rows.append(np.concatenate([np.zeros(n_slots), np.ones(n_slots)]))
        rhs.append(1.0)
        sense = [LE] * len(rows)
        if target_power is None:
            rows = [np.append(r, 0.0) for r in rows]
            per_watt = delivery_rhs(sc, profile, 1.0)
            for q in range(sc.n_rx):
                rows.append(np.concatenate([delivery[q], np.zeros(n_slots), [-per_watt[q]]]))
            rows.append(np.concatenate([tx, np.zeros(n_slots + 1)]))
            rhs += [0.0] * sc.n_rx + [sc.total_power_cap]
            sense += [GE] * sc.n_rx + [LE]
            objective = np.concatenate([np.zeros(2 * n_slots), [-1.0]])
        else:
            floors = delivery_rhs(sc, profile, target_power) * (1.0 - 1e-5)
            rows += [np.concatenate([d, np.zeros(n_slots)]) for d in delivery]
            rhs += list(floors)
            sense += [GE] * sc.n_rx
            objective = np.concatenate([tx, np.zeros(n_slots)])
        sol = solve_sdp(SdpProblem(np.zeros((0, 0)), np.zeros((len(rows), 0)), sense, rhs,
                                   linear_objective=objective, linear=np.array(rows)))
        assert sol.is_optimal
        return sol.value

    @pytest.mark.parametrize("problem", ["p0", "p1"])
    def test_matches_per_tx_peak_rows(self, problem, tabletop, tabletop_two_user,
                                      monkeypatch):
        # each slot at its peak gain under one time-budget row has the
        # optimum of the per-TX peak rows with the time fractions as variables
        if problem == "p0":
            sc, cases = tabletop_two_user, [(PowerProfile([a, 1.0 - a]), None)
                                            for a in (0.55, 0.575, 0.6)]
        else:
            profile = PowerProfile.normalized([0.1227, 0.03615, 0.7836, 0.05752])
            sc, cases = tabletop, [(profile, target) for target in (3.0, 5.0, 7.0)]
        model = build_impedance(sc)
        kernel_rows, values = [], []
        solve, mixed_cone = beamforming.solve_sdp, kernel.solve_mixed_cone

        def solve_spy(*args, **kwargs):
            sol = solve(*args, **kwargs)
            values.append(sol.value)
            return sol

        def kernel_spy(**kwargs):
            kernel_rows.append(kwargs["b"].size)
            return mixed_cone(**kwargs)

        for profile, target in cases:
            spectrum = relax(sc, profile, target, model)[1]
            expected = self._per_tx_reference(spectrum, sc, profile, model, target)
            with monkeypatch.context() as m:
                m.setattr(beamforming, "solve_sdp", solve_spy)
                m.setattr(kernel, "solve_mixed_cone", kernel_spy)
                sol = beamforming._time_sharing_lp(spectrum, sc, profile, model, target)
            assert values[-1] == pytest.approx(expected, rel=1e-7)
            assert sol.tx_power <= sc.total_power_cap * (1 + 1e-9)
            for exc, _ in sol.slots:
                rep = constraint_slacks(sc, model, exc)
                assert min(rep.voltage_slack.min(), rep.current_slack.min()) >= -1e-9
        assert kernel_rows == [sc.n_rx + (2 if problem == "p0" else 1)] * len(cases)

    def test_zero_time_slots_dropped(self, tabletop):
        profile = PowerProfile.normalized([0.1227, 0.03615, 0.7836, 0.05752])
        model = build_impedance(tabletop)
        _, spectrum = relax(tabletop, profile, 5.0, model)
        sol = _at_target(tabletop, model, _time_sharing_lp(
            spectrum, tabletop, profile, model, 5.0), profile, 5.0)
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
        sol = _at_target(tabletop_miso, miso_model, _gaussian_rounding(
            beamforming._spectrum(x_star), tabletop_miso, profile, miso_model, 64, 1, target),
            profile, target)
        assert sol.per_rx_power[0] == pytest.approx(target, rel=1e-9)
        assert sol.tx_power == pytest.approx(0.5 * base.tx_power, rel=1e-9)

    def test_converges_to_relaxation_value(self, tabletop_miso, miso_model):
        profile = PowerProfile([1.0])
        conic, spectrum = relax(tabletop_miso, profile, 20.0, miso_model)
        assert spectrum[2] == 1
        sol = _at_target(tabletop_miso, miso_model, _gaussian_rounding(
            spectrum, tabletop_miso, profile, miso_model, 4000, 0, 20.0), profile, 20.0)
        assert sol.tx_power <= conic.value * 1.01

    def test_deterministic_for_fixed_seed(self, tabletop):
        profile = PowerProfile.normalized([0.1227, 0.03615, 0.7836, 0.05752])
        model = build_impedance(tabletop)
        _, spectrum = relax(tabletop, profile, 5.0, model)
        a = _at_target(tabletop, model, _gaussian_rounding(
            spectrum, tabletop, profile, model, 4000, 7, 5.0), profile, 5.0)
        b = _at_target(tabletop, model, _gaussian_rounding(
            spectrum, tabletop, profile, model, 4000, 7, 5.0), profile, 5.0)
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

    def test_target_over_the_cap_raises(self, tabletop_two_user):
        # without peaks, 200 W at equal shares needs about 240 W from the
        # 100 W cap; 80 W needs about 96 W and stays within it
        profile = PowerProfile([0.5, 0.5])
        with pytest.raises(InfeasibleError):
            solve_p1(tabletop_two_user, profile, 200.0, NO_PEAKS)
        sol = solve_p1(tabletop_two_user, profile, 80.0, NO_PEAKS)
        assert 90.0 < sol.tx_power <= tabletop_two_user.total_power_cap

    def test_least_tx_power_per_delivered_watt_wins(self, tabletop):
        # at equal shares and 2 W a candidate delivering up to the 1e-5
        # tolerance short of the target needs less TX power than one meeting
        # it, but more per delivered watt
        profile = PowerProfile.uniform(4)
        sol = solve_p1(tabletop, profile, 2.0)
        assert profile_capped_power(sol, profile) >= 2.0 * (1 - 1e-9)

    def test_maximum_is_not_refused_without_a_certificate(self, tabletop):
        # P0's maximum here is set by the peak limits, which leave P1's
        # relaxation at that target nearly one feasible point; a solve that
        # stalls there is a SolverError, never a refusal.  1% above it the
        # kernel finds a Farkas certificate
        profile = PowerProfile.uniform(4)
        model = build_impedance(tabletop)
        p_star, _ = solve_p0(tabletop, profile, model=model)
        assert p_star == pytest.approx(39.40964224603305, rel=1e-9)
        try:
            sol = solve_p1(tabletop, profile, p_star, model=model)
        except SolverError:
            pass
        else:
            assert profile_capped_power(sol, profile) >= p_star * (1 - 1e-5)
        with pytest.raises(InfeasibleError):
            solve_p1(tabletop, profile, 1.01 * p_star, model=model)
        assert relax(tabletop, profile, 1.01 * p_star, model)[0].status == \
            "infeasible"

    def test_every_target_below_the_maximum_is_met(self, tabletop):
        # P0 delivers 39.41 W at equal shares; every target up to 95% of it
        # has a schedule, and a larger target never costs less TX power
        profile = PowerProfile.uniform(4)
        model = build_impedance(tabletop)
        p_star, _ = solve_p0(tabletop, profile, model=model)
        tx_power = 0.0
        for target in np.linspace(1.0, 0.95 * p_star, 20):
            sol = solve_p1(tabletop, profile, target, model=model)
            assert np.all(sol.per_rx_power >= profile.alpha * target * (1 - 1e-5))
            assert sol.tx_power <= tabletop.total_power_cap + 1e-6
            assert sol.tx_power >= tx_power
            tx_power = sol.tx_power

    def test_min_power_nondecreasing_in_target(self, tabletop_miso, miso_model):
        profile = PowerProfile([1.0])
        values = []
        for target in [5.0, 15.0, 30.0, 45.0]:
            sol = solve_p1(tabletop_miso, profile, target, model=miso_model)
            values.append(sol.tx_power)
        assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))


class TestMethodOption:
    """``SolveOptions.method`` means the same for P0 and P1."""

    # both relaxations have rank one on the two-user scenario here
    EXACT_ALPHA = (0.3, 0.7)

    @staticmethod
    def _solve(problem, sc, alpha, method):
        options = SolveOptions(method=method)
        if problem == "p0":
            return solve_p0(sc, PowerProfile(alpha), options)[1]
        return solve_p1(sc, PowerProfile(alpha), 12.0, options)

    @staticmethod
    def _rounded(problem, tabletop, tabletop_two_user):
        # neither relaxation has an exact realization: alpha_1 = 0.55 on the
        # two-user grid for P0, equal shares at 12 W on table2 for P1
        if problem == "p0":
            return tabletop_two_user, (0.55, 0.45)
        return tabletop, (0.25, 0.25, 0.25, 0.25)

    @pytest.mark.parametrize("problem", ["p0", "p1"])
    def test_exact_realization_always_wins(self, problem, tabletop_two_user, monkeypatch):
        def no_rounding(*args, **kwargs):
            raise AssertionError("a rounding ran")

        monkeypatch.setattr(beamforming, "_roundings", no_rounding)
        monkeypatch.setattr(beamforming, "_rank_penalized", no_rounding)
        solutions = [self._solve(problem, tabletop_two_user, self.EXACT_ALPHA, method)
                     for method in ("auto", "sdr", "ts", "randomization")]
        assert {s.method for s in solutions} == {"sdr_rank1"}
        assert len({s.tx_power for s in solutions}) == 1

    @pytest.mark.parametrize("problem", ["p0", "p1"])
    def test_sdr_raises_on_reaching_a_rounding(self, problem, tabletop, tabletop_two_user):
        sc, alpha = self._rounded(problem, tabletop, tabletop_two_user)
        with pytest.raises(SolverError, match="no exact realization"):
            self._solve(problem, sc, alpha, "sdr")

    @pytest.mark.parametrize("problem", ["p0", "p1"])
    @pytest.mark.parametrize("method, ran", [
        ("auto", ["ts", "randomization", "rank penalty"]),
        ("ts", ["ts", "rank penalty"]),
        ("randomization", ["randomization", "rank penalty"]),
    ])
    def test_method_picks_the_roundings(self, problem, method, ran, tabletop,
                                        tabletop_two_user, monkeypatch):
        calls = []
        for name, label in (("_time_sharing_lp", "ts"),
                            ("_gaussian_rounding", "randomization"),
                            ("_rank_penalized", "rank penalty")):
            def spy(*args, fn=getattr(beamforming, name), label=label, **kwargs):
                calls.append(label)
                return fn(*args, **kwargs)
            monkeypatch.setattr(beamforming, name, spy)
        sc, alpha = self._rounded(problem, tabletop, tabletop_two_user)
        self._solve(problem, sc, alpha, method)
        assert calls == ran


class TestP0CornersAndCap:
    """P0 at the two-user corners, for an uncoupled receiver and under a tiny cap."""

    def test_two_user_unconstrained_corner(self, tabletop_two_user):
        p_star, sol = solve_p0(tabletop_two_user, PowerProfile([1.0, 0.0]),
                               options=NO_PEAKS)
        assert p_star == pytest.approx(87.5, rel=0.03)
        assert sol.tx_power <= 100.0 * (1 + 1e-6)

    def test_two_user_constrained_corner(self, tabletop_two_user):
        p_star, sol = solve_p0(tabletop_two_user, PowerProfile([1.0, 0.0]))
        assert p_star == pytest.approx(46.0, rel=0.03)

    def test_uncoupled_receiver(self):
        sc = Scenario(n_tx=2, n_rx=1, omega=1e7, tx_resistance=[10.0, 10.0],
                      rx_parasitic=[0.5], rx_load=[10.0],
                      mutual_tx_rx=np.zeros((2, 1)), mutual_tx_tx=np.zeros((2, 2)),
                      total_power_cap=10.0, peak_voltage=[50.0, 50.0],
                      peak_current=[5.0, 5.0])
        p_star, sol = solve_p0(sc, PowerProfile([1.0]))
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
        p_star, _ = solve_p0(tiny, PowerProfile([1.0]))
        assert p_star <= 1e-6


class TestBoundaryMaximum:
    """The maximized power against the joint relaxation's upper bound."""

    def test_pinned_two_user_point_meets_bound(self, tabletop_two_user):
        profile = PowerProfile([0.35, 0.65])
        p_star, _ = solve_p0(tabletop_two_user, profile)
        bound = relax(tabletop_two_user, profile)[0].u[0]
        assert p_star >= 73.28
        assert p_star == pytest.approx(bound, rel=1e-5)

    def test_pinned_four_user_reference_profile(self, tabletop):
        profile = PowerProfile.normalized([0.1227, 0.03615, 0.7836, 0.05752])
        p_star, _ = solve_p0(tabletop, profile)
        assert p_star >= 16.95

    def test_four_user_no_peaks_one_complex_current(self, tabletop):
        # the real relaxation is rank two here; one complex current realizes
        # it exactly, so it delivers what the two-slot time-sharing does and
        # meets the bound up to the kernel's 1e-8 gap tolerance
        profile = PowerProfile.normalized([0.1227, 0.03615, 0.7836, 0.05752])
        model = build_impedance(tabletop)
        p_star, sol = solve_p0(tabletop, profile, options=NO_PEAKS,
                               model=model)
        conic, _ = relax(tabletop, profile, model=model, use_peak_constraints=False)
        assert len(sol.slots) == 1 and sol.sdr_rank == 2
        unit = time_shared(tabletop, conic.x, model)
        shared = _at_limits(tabletop, model, False, unit.slots, unit.method, unit.sdr_rank)
        assert len(shared.slots) == 2
        assert p_star == pytest.approx(profile_capped_power(shared, profile),
                                       rel=1e-9)
        bound = conic.u[0]
        assert bound * (1 - 1e-9) <= p_star <= bound * (1 + 1e-8)

    def test_one_ulp_continuity(self, tabletop_two_user):
        a, b = 0.35, float(np.nextafter(0.35, 1.0))
        assert b == 0.35000000000000003
        p_a, _ = solve_p0(tabletop_two_user, PowerProfile([a, 1.0 - a]))
        p_b, _ = solve_p0(tabletop_two_user, PowerProfile([b, 1.0 - b]))
        assert abs(p_a - p_b) < 1e-2

    @pytest.mark.parametrize("use_peaks", [True, False], ids=["peaks", "no_peaks"])
    def test_grid_schedules_feasible_and_bounded(self, tabletop_two_user, use_peaks,
                                                 monkeypatch):
        sc = tabletop_two_user
        model = build_impedance(sc)
        options = SolveOptions(use_peak_constraints=use_peaks)
        # with peaks these grid points have no exact realization; the rank
        # penalty brings them within 1.3% of the bound or closer
        floors = {22: 73.94, 23: 73.41, 24: 72.83} if use_peaks else {}
        p1_calls = []
        monkeypatch.setattr(beamforming, "solve_p1",
                            lambda *args, **kwargs: p1_calls.append(args))
        for k, profile in enumerate(two_user_profiles(40)):
            p_star, sol = solve_p0(sc, profile, options=options,
                                   model=model)
            conic, _ = relax(sc, profile, model=model,
                             use_peak_constraints=use_peaks)
            bound = conic.u[0]
            assert p_star <= bound * (1 + 1e-6)
            assert p_star >= floors.get(k, 0.0)
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
        assert not p1_calls

    def test_fallback_independent_of_power_scale(self, tabletop_two_user):
        # cap and peak powers scaled by 1e-4 scale every optimum by 1e-4; the
        # fallback at this point must find the full-scale schedule's value
        sc = replace(tabletop_two_user,
                     total_power_cap=tabletop_two_user.total_power_cap * 1e-4,
                     peak_voltage=tabletop_two_user.peak_voltage * 1e-2,
                     peak_current=tabletop_two_user.peak_current * 1e-2)
        p_star, _ = solve_p0(sc, PowerProfile([0.575, 0.425]))
        assert p_star / 1e-4 >= 73.40


class TestRankPenalty:
    """P0's rank-penalized re-solves where the relaxation has no realization."""

    # alpha_1 = 0.55, 0.575 and 0.6 on the 40-step two-user grid, with peaks
    FALLBACK = (22, 23, 24)

    def _best_penalized(self, sc, model):
        values = []
        for k in self.FALLBACK:
            profile = two_user_profiles(40)[k]
            conic, spectrum = relax(sc, profile, model=model)
            problem = _relaxation_problem(sc, profile, model, use_peaks=True)
            schedules = _rank_penalized(problem, conic, spectrum, sc, profile, model, True)
            assert len(schedules) == 6
            values.append(max(profile_capped_power(s, profile) for s in schedules))
        return values

    def test_warm_starts_match_cold_starts(self, tabletop_two_user, monkeypatch):
        sc = tabletop_two_user
        model = build_impedance(sc)
        iterations = []
        solve = kernel.solve_mixed_cone

        def spy(*args, **kwargs):
            res = solve(*args, **kwargs)
            if kwargs.get("start") is not None:
                iterations.append(res.iterations)
            return res

        monkeypatch.setattr(kernel, "solve_mixed_cone", spy)
        warm = self._best_penalized(sc, model)
        # 540 iterations when every re-solve started from the identity
        assert len(iterations) == 18 and sum(iterations) < 300
        monkeypatch.setattr(beamforming, "solve_sdp",
                            lambda problem, start=None: solve_sdp(problem))
        cold = self._best_penalized(sc, model)
        assert len(iterations) == 18
        assert warm == pytest.approx(cold, rel=1e-6)

    def test_one_eigendecomposition_per_relaxed_solve(self, tabletop_two_user, monkeypatch):
        # the relaxation is decomposed once for every rounding that reads it,
        # and each penalized re-solve (started warm) once
        eigs, warm = [], []
        eig, solve = beamforming.psd_eigendecomposition, beamforming.solve_sdp

        def eig_spy(x):
            eigs.append(x)
            return eig(x)

        def solve_spy(problem, start=None):
            if start is not None:
                warm.append(problem)
            return solve(problem, start=start)

        monkeypatch.setattr(beamforming, "psd_eigendecomposition", eig_spy)
        monkeypatch.setattr(beamforming, "solve_sdp", solve_spy)
        solve_p0(tabletop_two_user, two_user_profiles(40)[self.FALLBACK[0]])
        assert len(warm) == 6
        assert len(eigs) == 1 + len(warm)

    def test_debug_log(self, tabletop_two_user, caplog):
        caplog.set_level("DEBUG", logger="magbeam")
        solve_p0(tabletop_two_user, two_user_profiles(40)[self.FALLBACK[0]])
        lines = [r.getMessage() for r in caplog.records
                 if r.getMessage().startswith("rank penalty")]
        assert len(lines) == 6
        assert all(" optimal after " in line and ", rank " in line for line in lines)
        assert lines[0].startswith("rank penalty 0.03:")
        assert lines[-1].startswith("rank penalty 0.3:")

    def test_penalized_p1_schedule_meets_the_target(self, tabletop):
        # equal shares at 12 W on table2: neither rounding of the P1
        # relaxation reaches the target within the limits, the penalty does
        profile = PowerProfile.uniform(4)
        model = build_impedance(tabletop)
        conic, spectrum = relax(tabletop, profile, 12.0, model)
        problem = _relaxation_problem(tabletop, profile, model, True, 12.0)
        schedules = _rank_penalized(problem, conic, spectrum, tabletop, profile, model, True)
        scaled = [_scaled(tabletop, model, s.slots, 12.0 / profile_capped_power(s, profile),
                          s.method, s.sdr_rank) for s in schedules]
        assert any(_within_limits(tabletop, model, s, True) for s in scaled)

    def test_swallowed_rounding_is_logged(self, caplog):
        caplog.set_level("DEBUG", logger="magbeam")

        def unreachable():
            raise InfeasibleError("no schedule here")

        assert _roundings(SolveOptions(), unreachable, lambda: "schedule") == ["schedule"]
        assert [r.getMessage() for r in caplog.records] == \
            ["rounding ts found no schedule: no schedule here"]


class TestWarmStartedRelaxation:
    """P0 relaxations started from the relaxation of another profile."""

    def test_zero_share_keeps_the_rows(self, tabletop_two_user):
        model = build_impedance(tabletop_two_user)
        corner, _ = relax(tabletop_two_user, PowerProfile([0.0, 1.0]), model=model)
        inner, _ = relax(tabletop_two_user, PowerProfile([0.5, 0.5]), model=model)
        assert corner.duals.size == inner.duals.size == 2 + 1 + 2 * 5

    def test_failed_warm_start_is_retried_cold(self, tabletop_two_user, monkeypatch,
                                               caplog):
        sc = tabletop_two_user
        model = build_impedance(sc)
        profile = PowerProfile([0.3, 0.7])
        start, _ = relax(sc, PowerProfile([0.275, 0.725]), model=model)
        cold_p, cold = solve_p0(sc, profile, model=model)
        solve = beamforming.solve_sdp
        warm_iterations = []

        def failing_when_warm(problem, start=None):
            sol = solve(problem, start=start)
            if start is None:
                return sol
            warm_iterations.append(sol.iterations)
            return replace(sol, status="numerical_failure")

        monkeypatch.setattr(beamforming, "solve_sdp", failing_when_warm)
        caplog.set_level("DEBUG", logger="magbeam")
        p_star, sol = solve_p0(sc, profile, model=model, start=start)
        assert p_star == cold_p
        assert sol.relaxation.is_optimal
        assert sol.relaxation.iterations == cold.relaxation.iterations
        assert (sol.method, sol.sdr_rank) == (cold.method, cold.sdr_rank)
        assert len(warm_iterations) == 1
        assert [r.getMessage() for r in caplog.records if r.name == "magbeam"] == [
            f"warm-started relaxation ended numerical_failure after "
            f"{warm_iterations[0]} iterations; solving it from the cold start"]

    def test_start_of_another_scenario_is_not_used(self, tabletop_two_user, monkeypatch):
        # the TXs relabelled give a relaxation of the same shapes on other rows:
        # as a start it prepares this scenario's rows and solves cold, bit
        # for bit
        sc = tabletop_two_user
        order = [1, 2, 3, 4, 0]
        relabelled = replace(sc, tx_resistance=sc.tx_resistance[order],
                             mutual_tx_rx=sc.mutual_tx_rx[order],
                             mutual_tx_tx=sc.mutual_tx_tx[np.ix_(order, order)],
                             peak_voltage=sc.peak_voltage[order],
                             peak_current=sc.peak_current[order])
        start, _ = relax(relabelled, PowerProfile([0.275, 0.725]))
        model = build_impedance(sc)
        profile = PowerProfile([0.3, 0.7])
        cold_p, cold = solve_p0(sc, profile, model=model)
        prepared = []
        prepare = problems._prepare
        monkeypatch.setattr(problems, "_prepare",
                            lambda problem, *args: prepared.append(1) or prepare(problem, *args))
        p_star, sol = solve_p0(sc, profile, model=model, start=start)
        assert prepared == [1] and sol.relaxation.rows is not start.rows
        assert p_star == cold_p
        assert sol.relaxation.iterations == cold.relaxation.iterations
        np.testing.assert_array_equal(sol.relaxation.x, cold.relaxation.x)
        np.testing.assert_array_equal(sol.excitation.currents, cold.excitation.currents)

    def test_uncoupled_zero_share_row_costs_nothing(self, tabletop_two_user):
        # RX1 without coupling at a zero share has an all-zero delivery row;
        # it is left out of the kernel, so the relaxation is the one RX2
        # has alone (31 iterations when the row reached the kernel)
        sc = tabletop_two_user
        mutual = sc.mutual_tx_rx.copy()
        mutual[:, 0] = 0.0
        zeroed, _ = relax(replace(sc, mutual_tx_rx=mutual), PowerProfile([0.0, 1.0]))
        alone, _ = relax(select_receivers(sc, [1]), PowerProfile([1.0]))
        assert zeroed.is_optimal and alone.is_optimal
        assert zeroed.iterations <= alone.iterations
        assert zeroed.u[0] == pytest.approx(alone.u[0], rel=1e-8)
        assert zeroed.duals[0] == 0.0

    def test_closed_form_has_no_relaxation(self, tabletop_miso, miso_model):
        options = SolveOptions(use_peak_constraints=False, method="closed_form")
        _, sol = solve_p0(tabletop_miso, PowerProfile([1.0]), options, miso_model)
        assert sol.relaxation is None

    def test_replaced_fields_solve_as_a_fresh_build(self, tabletop_two_user):
        # P0 with peaks has a block row, the cap; the problem that ``replace``
        # rebuilds from its own fields solves bit for bit as one built afresh
        # from the impedance model with the new rhs or objective
        sc = tabletop_two_user
        model = build_impedance(sc)
        profile = PowerProfile([0.55, 0.45])
        problem = _relaxation_problem(sc, profile, model, use_peaks=True)
        rows = [*model.m_vectors, model.b_bar_factor / math.sqrt(2.0),
                *_peak_rows(sc, model)[0]]
        linear = np.zeros((len(rows), 1))
        linear[:sc.n_rx, 0] = -delivery_rhs(sc, profile, 1.0)
        v = psd_eigendecomposition(solve_sdp(problem).x)[1][:, 0]
        for changed in ({"rhs": 0.8 * problem.rhs},
                        {"objective": 0.03 * (np.eye(sc.n_tx) - np.outer(v, v.conj()))}):
            fresh = SdpProblem(**{"objective": np.zeros((sc.n_tx, sc.n_tx)), "factors": rows,
                                  "sense": problem.sense, "rhs": problem.rhs,
                                  "linear_objective": (-1.0,), "linear": linear, **changed})
            replaced, built = solve_sdp(replace(problem, **changed)), solve_sdp(fresh)
            assert replaced.is_optimal
            assert (replaced.value, replaced.iterations) == (built.value, built.iterations)
            np.testing.assert_array_equal(replaced.x, built.x)


class TestRelaxationAttachPoint:
    """P0 and P1 attach the relaxation they solved to the winner, whatever its method."""

    FOUR_USER = PowerProfile.normalized([0.1227, 0.03615, 0.7836, 0.05752])

    @pytest.fixture
    def solved(self, monkeypatch):
        """The conic solution of every relaxation solved, in order."""
        conics, optimal = [], beamforming._optimal_relaxation

        def spy(*args, **kwargs):
            relaxation = optimal(*args, **kwargs)
            conics.append(relaxation[1])
            return relaxation

        monkeypatch.setattr(beamforming, "_optimal_relaxation", spy)
        return conics

    @staticmethod
    def _without_rank_penalty(monkeypatch):
        # the rank-penalized re-solves win wherever a rounding runs on these
        # scenarios; without them the rounding itself wins
        monkeypatch.setattr(beamforming, "_RANK_PENALTY_WEIGHTS", ())

    def test_p0_exact_and_rank_penalty(self, tabletop_two_user, solved):
        for alpha, method in ((0.35, "sdr_rank1"), (0.55, "rank_penalty")):
            _, sol = solve_p0(tabletop_two_user, PowerProfile([alpha, 1.0 - alpha]))
            assert sol.method == method
            assert sol.relaxation is solved[-1]
        assert len(solved) == 2

    def test_p0_time_sharing_without_peaks(self, solved):
        # each RX coupled to one TX alone: every X with the optimal diagonal
        # is optimal, and the solver returns the full-rank centre, diagonal X
        sc = Scenario(n_tx=3, n_rx=3, omega=1e7, tx_resistance=[10.0] * 3,
                      rx_parasitic=[0.5] * 3, rx_load=[10.0] * 3,
                      mutual_tx_rx=1e-6 * np.eye(3), mutual_tx_tx=np.zeros((3, 3)),
                      total_power_cap=10.0, peak_voltage=[50.0] * 3, peak_current=[5.0] * 3)
        _, sol = solve_p0(sc, PowerProfile.uniform(3), NO_PEAKS)
        assert (sol.method, sol.sdr_rank) == ("time_sharing", 3)
        assert sol.relaxation is solved[-1]

    @pytest.mark.parametrize("method", ["ts", "randomization"])
    def test_p0_and_p1_roundings(self, tabletop, tabletop_two_user, solved, monkeypatch,
                                 method):
        self._without_rank_penalty(monkeypatch)
        options = SolveOptions(method=method)
        _, p0 = solve_p0(tabletop_two_user, two_user_profiles(40)[22], options)
        p1 = solve_p1(tabletop, self.FOUR_USER, 5.0, options)
        expected = "time_sharing" if method == "ts" else "randomization"
        assert (p0.method, p1.method) == (expected, expected)
        assert p0.relaxation is solved[0] and p1.relaxation is solved[1]

    def test_p0_without_candidates(self, tabletop_two_user, solved, monkeypatch):
        monkeypatch.setattr(beamforming, "_candidates", lambda *args, **kwargs: [])
        p_star, sol = solve_p0(tabletop_two_user, PowerProfile([0.5, 0.5]))
        assert p_star == 0.0 and sol.sdr_rank == 0
        assert not np.any(sol.excitation.currents)
        assert sol.relaxation is solved[-1]

    def test_no_relaxation_without_a_solve(self, tabletop_miso, miso_model, solved):
        closed = SolveOptions(use_peak_constraints=False, method="closed_form")
        profile = PowerProfile([1.0])
        solutions = [solve_p1(tabletop_miso, profile, 1.0, closed, miso_model),
                     solve_p0(tabletop_miso, profile, closed, miso_model)[1],
                     benchmark_uncoordinated(tabletop_miso, target_power=0.1,
                                             model=miso_model),
                     benchmark_uncoordinated(tabletop_miso, max_feasible=True,
                                             model=miso_model),
                     solve_p1(tabletop_miso, profile, 0.0, model=miso_model)]
        assert [s.relaxation for s in solutions] == [None] * 5
        assert not solved


class TestSolveOptions:
    @pytest.mark.parametrize("bad, message", [({"method": "bogus"}, "method"),
                                              ({"randomization_draws": 0}, "draws")],
                             ids=["unknown-method", "no-draws"])
    def test_bad_option_rejected(self, bad, message):
        # the CLI's choices never reach these; a library caller gets an error
        # in place of an "auto" solve or an argmax over no draws
        with pytest.raises(ValueError, match=message):
            SolveOptions(**bad)

    def test_negative_seed_rejected(self):
        # NumPy's generators take no negative seed; the option says so first
        with pytest.raises(ValueError, match="seed"):
            SolveOptions(seed=-1)


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

    @pytest.mark.parametrize("name", ["table2", "table2_miso", "table2_two_user"])
    @pytest.mark.parametrize("use_peaks", [True, False])
    def test_max_feasible_ends_on_a_limit(self, name, use_peaks):
        sc = load_scenario(bundled_scenario_path(name))
        model = build_impedance(sc)
        sol = benchmark_uncoordinated(sc, max_feasible=True,
                                      use_peak_constraints=use_peaks, model=model)
        rep = constraint_slacks(sc, model, sol.excitation)
        relative = [np.array([rep.total_power_slack / sc.total_power_cap])]
        if use_peaks:
            relative += [rep.voltage_slack / sc.peak_voltage,
                         rep.current_slack / sc.peak_current]
        assert abs(float(np.min(np.concatenate(relative)))) <= 1e-12

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
            conic, spectrum = relax(sc, profile, 0.5, model,
                                    use_peak_constraints=False)
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
            rand = _at_target(sc, model, _gaussian_rounding(
                spectrum, sc, profile, model, 200, trial, 0.5), profile, 0.5)
            assert rand.tx_power >= conic.value * (1 - 1e-6)

import math
import sys
import threading

import numpy as np
import pytest

from conftest import random_scenario
from magbeam import estimation
from magbeam.circuit import Scenario
from magbeam.errors import EstimationError
from magbeam.scenario import table_scenario
from magbeam.estimation import (_CHUNK, BLOCK_SINGLE_TX, DRIVEN_ZERO,
                                RANDOM_VOLTAGE, TrainingProtocol, TrainingRecord,
                                estimate_ls, estimate_pairwise_benchmark,
                                estimate_perfect, ls_first_order_nmse,
                                monte_carlo_mse, pairwise_circuit,
                                simulate_training)


def _scalar_scenario():
    return Scenario(n_tx=1, n_rx=1, omega=1e7, tx_resistance=[12.0],
                    rx_parasitic=[0.5], rx_load=[8.0],
                    mutual_tx_rx=[[0.4e-6]], mutual_tx_tx=np.zeros((1, 1)),
                    total_power_cap=10.0, peak_voltage=[60.0], peak_current=[6.0])


class TestSimulateTraining:
    def test_zero_voltage_means_zero_everything(self, tabletop):
        proto = TrainingProtocol(mode=BLOCK_SINGLE_TX, n_slots=5,
                                 active_voltage=1e-300)
        rec = simulate_training(tabletop, proto, 40.0)
        assert np.allclose(rec.y, 0.0) and np.allclose(rec.g, 0.0)

    @pytest.mark.parametrize("mode,inactive", [
        (BLOCK_SINGLE_TX, "open_circuit"),
        (BLOCK_SINGLE_TX, "driven_zero"),
        (RANDOM_VOLTAGE, "open_circuit"),
    ])
    def test_product_identity_noiseless(self, tabletop, mode, inactive):
        slots = 10 if mode == BLOCK_SINGLE_TX else 7
        proto = TrainingProtocol(mode=mode, n_slots=slots, seed=2,
                                 inactive_tx=inactive)
        rec = simulate_training(tabletop, proto, float("inf"))
        lhs = rec.g
        rhs = tabletop.mutual_tx_rx @ rec.z
        assert np.linalg.norm(lhs - rhs) <= 1e-10 * np.linalg.norm(lhs)

    def test_block_structure(self, tabletop):
        rec = simulate_training(tabletop, TrainingProtocol(n_slots=10), 40.0)
        # two blocks, exactly one conducting TX per slot
        active = np.abs(rec.y) > 0
        assert np.all(active.sum(axis=0) == 1)
        assert np.array_equal(np.nonzero(active.T)[1], np.arange(10) % 5)

    def test_block_slot_count_validated(self, tabletop):
        with pytest.raises(ValueError):
            simulate_training(tabletop, TrainingProtocol(n_slots=7), 40.0)

    @pytest.mark.parametrize("voltage", [0.0, -0.0, math.inf, math.nan])
    def test_zero_or_nonfinite_voltage_rejected(self, voltage):
        with pytest.raises(ValueError, match="training voltage"):
            TrainingProtocol(active_voltage=voltage)

    def test_negative_seed_rejected(self, tabletop):
        with pytest.raises(ValueError, match="seed"):
            TrainingProtocol(seed=-1)
        with pytest.raises(ValueError, match="seed must be"):
            monte_carlo_mse(tabletop, "ls", TrainingProtocol(), [30.0], trials=10, seed=-1)

    def test_out_of_range_snr(self, tabletop):
        # 10^(4000/10) overflows: no noise; the variance itself overflows at
        # -3200 dB and divides by an underflowed 0 at -4000 and -inf dB
        for snr, sigma2 in ((4000.0, 0.0), (1e308, 0.0), (math.inf, 0.0)):
            assert simulate_training(tabletop, TrainingProtocol(), snr).sigma2 == sigma2
        for snr in (-3200.0, -4000.0, -math.inf):
            with pytest.raises(ValueError, match="float range"):
                simulate_training(tabletop, TrainingProtocol(), snr)
            with pytest.raises(ValueError, match="float range"):
                estimate_pairwise_benchmark(tabletop, snr)

    def test_no_receivers_at_finite_snr(self):
        # nothing is fed back, so there is no noise to scale
        rec = simulate_training(table_scenario([]), TrainingProtocol(n_slots=5), 20.0)
        assert rec.sigma2 == 0.0 and rec.z_tilde.shape == (0, 5)

    def test_noise_variance_matches_snr(self, tabletop):
        rec = simulate_training(tabletop, TrainingProtocol(n_slots=10), 20.0)
        assert rec.sigma2 == pytest.approx(
            float(np.mean(np.abs(rec.z) ** 2)) / 100.0, rel=1e-12)


class TestPerfectEstimate:
    def test_recovers_exactly(self, tabletop):
        proto = TrainingProtocol(mode=RANDOM_VOLTAGE, n_slots=4, seed=5)
        rec = simulate_training(tabletop, proto, 20.0)  # noise irrelevant
        res = estimate_perfect(rec)
        assert np.linalg.norm(res.m_hat - tabletop.mutual_tx_rx) \
            <= 1e-9 * np.linalg.norm(tabletop.mutual_tx_rx)
        assert res.normalized_mse <= 1e-18

    def test_scalar_case(self):
        sc = _scalar_scenario()
        proto = TrainingProtocol(mode=RANDOM_VOLTAGE, n_slots=1, seed=1)
        rec = simulate_training(sc, proto, float("inf"))
        res = estimate_perfect(rec)
        assert res.m_hat[0, 0] == pytest.approx(
            float(np.real(rec.g[0, 0] / rec.z[0, 0])), rel=1e-12)

    def test_slot_permutation_invariance(self, tabletop):
        proto = TrainingProtocol(mode=RANDOM_VOLTAGE, n_slots=4, seed=6)
        rec = simulate_training(tabletop, proto, float("inf"))
        perm = [2, 0, 3, 1]
        rec_p = TrainingRecord(scenario=rec.scenario, h=rec.h[:, perm],
                               y=rec.y[:, perm], z=rec.z[:, perm],
                               z_tilde=rec.z_tilde[:, perm], f=rec.f,
                               g=rec.g[:, perm], sigma2=rec.sigma2,
                               snr_db=rec.snr_db)
        assert np.allclose(estimate_perfect(rec).m_hat,
                           estimate_perfect(rec_p).m_hat, rtol=1e-10)

    def test_requires_square(self, tabletop):
        proto = TrainingProtocol(mode=RANDOM_VOLTAGE, n_slots=6, seed=1)
        rec = simulate_training(tabletop, proto, float("inf"))
        with pytest.raises(EstimationError):
            estimate_perfect(rec)


class TestLsEstimate:
    def test_noiseless_limit(self, tabletop):
        rec = simulate_training(tabletop, TrainingProtocol(n_slots=10),
                                float("inf"))
        res = estimate_ls(rec)
        assert np.linalg.norm(res.m_hat - tabletop.mutual_tx_rx) \
            <= 1e-9 * np.linalg.norm(tabletop.mutual_tx_rx)
        assert res.squared_error_j == pytest.approx(0.0, abs=1e-40)

    def test_scalar_two_slots_hand_computed(self):
        sc = _scalar_scenario()
        proto = TrainingProtocol(mode=RANDOM_VOLTAGE, n_slots=2, seed=3)
        rec = simulate_training(sc, proto, 15.0)
        g, zt = rec.g[0], rec.z_tilde[0]
        expect = float(np.real(np.sum(g * zt.conj()) + np.sum(g.conj() * zt)) /
                       np.real(np.sum(zt * zt.conj()) + np.sum(zt.conj() * zt)))
        res = estimate_ls(rec)
        assert res.m_hat[0, 0] == pytest.approx(expect, rel=1e-12)
        resid = rec.g - res.m_hat @ rec.z_tilde
        assert res.squared_error_j == pytest.approx(
            float(np.real(np.sum(resid * resid.conj()))), rel=1e-12)

    def test_needs_enough_slots(self, tabletop):
        rec = simulate_training(tabletop, TrainingProtocol(
            mode=RANDOM_VOLTAGE, n_slots=3, seed=1), 30.0)
        with pytest.raises(EstimationError):
            estimate_ls(rec)

    def test_zero_feedback_is_rank_deficient(self, tabletop):
        # a 1e-300 V drive underflows the Gram matrix to exactly zero
        rec = simulate_training(tabletop, TrainingProtocol(
            mode=BLOCK_SINGLE_TX, n_slots=5, active_voltage=1e-300), 40.0)
        with pytest.raises(EstimationError):
            estimate_ls(rec)

    def test_no_receivers(self):
        rec = simulate_training(table_scenario([]), TrainingProtocol(n_slots=5), math.inf)
        with pytest.raises(EstimationError, match="no receivers to estimate"):
            estimate_ls(rec)


class TestPairwiseBenchmark:
    def test_noiseless_exact(self, tabletop):
        res = estimate_pairwise_benchmark(tabletop, float("inf"))
        assert np.linalg.norm(res.m_hat - tabletop.mutual_tx_rx) \
            <= 1e-12 * np.linalg.norm(tabletop.mutual_tx_rx)

    def test_no_receivers(self):
        with pytest.raises(EstimationError, match="no receivers to estimate"):
            estimate_pairwise_benchmark(table_scenario([]), 30.0)

    def test_underflowed_currents_are_an_error(self, tabletop):
        # at 1e-300 V every received current is zero and every estimate 0/0
        with pytest.raises(EstimationError, match="received currents are zero"):
            estimate_pairwise_benchmark(tabletop, 30.0, active_voltage=1e-300)

    def test_deterministic(self, tabletop):
        a = estimate_pairwise_benchmark(tabletop, 25.0, seed=9)
        b = estimate_pairwise_benchmark(tabletop, 25.0, seed=9)
        assert np.array_equal(a.m_hat, b.m_hat)

    def test_worse_than_ls_at_low_snr(self, tabletop):
        proto = TrainingProtocol(n_slots=20)
        ls_rows = monte_carlo_mse(tabletop, "ls", proto, [15.0], trials=4000, seed=1)
        pw_rows = monte_carlo_mse(tabletop, "pairwise", proto, [15.0],
                                  trials=4000, seed=1)
        assert pw_rows[0].mse > ls_rows[0].mse


class TestMonteCarlo:
    def test_mse_monotone_in_snr(self, tabletop):
        rows = monte_carlo_mse(tabletop, "ls", TrainingProtocol(n_slots=10),
                               [10.0, 20.0, 30.0, 40.0, 50.0],
                               trials=20_000, seed=4)
        mses = [r.mse for r in rows]
        assert all(b < a for a, b in zip(mses, mses[1:]))

    def test_more_slots_help(self, tabletop):
        r10 = monte_carlo_mse(tabletop, "ls", TrainingProtocol(n_slots=10),
                              [25.0], trials=20_000, seed=4)[0]
        r20 = monte_carlo_mse(tabletop, "ls", TrainingProtocol(n_slots=20),
                              [25.0], trials=20_000, seed=4)[0]
        assert r20.mse < r10.mse

    @pytest.mark.parametrize("estimator", ["ls", "perfect", "pairwise"])
    def test_nan_snr_rejected(self, tabletop, estimator):
        with pytest.raises(ValueError, match="NaN"):
            monte_carlo_mse(tabletop, estimator, TrainingProtocol(n_slots=10),
                            [30.0, math.nan], trials=10, seed=0)

    @pytest.mark.parametrize("estimator", ["ls", "perfect", "pairwise"])
    def test_no_receivers_rejected(self, estimator):
        with pytest.raises(ValueError, match="no receivers to estimate"):
            monte_carlo_mse(table_scenario([]), estimator, TrainingProtocol(n_slots=5),
                            [30.0], trials=10, seed=0)

    @pytest.mark.parametrize("estimator", ["ls", "pairwise"])
    def test_bad_snr_rejected_before_any_row(self, tabletop, estimator, monkeypatch):
        name = "_ls_estimates" if estimator == "ls" else "_pairwise_estimates"
        calls = []
        solve = getattr(estimation, name)
        monkeypatch.setattr(estimation, name,
                            lambda *args: calls.append(1) or solve(*args))
        with pytest.raises(ValueError, match="float range"):
            monte_carlo_mse(tabletop, estimator, TrainingProtocol(n_slots=10),
                            [20.0, 30.0, -4000.0], trials=10, seed=0)
        assert calls == []

    def test_perfect_estimator_zero_mse(self, tabletop):
        rows = monte_carlo_mse(tabletop, "perfect", TrainingProtocol(n_slots=10),
                               [float("inf")], trials=10, seed=0)
        assert rows[0].mse <= 1e-18

    def test_voltage_scale_invariance(self, tabletop):
        # sigma tracks the currents, so scaling every training voltage leaves
        # the normalized error untouched draw for draw
        a = monte_carlo_mse(tabletop, "ls",
                            TrainingProtocol(n_slots=10, active_voltage=0.75),
                            [30.0], trials=2000, seed=5)[0]
        b = monte_carlo_mse(tabletop, "ls",
                            TrainingProtocol(n_slots=10, active_voltage=7.5),
                            [30.0], trials=2000, seed=5)[0]
        assert a.mse == pytest.approx(b.mse, rel=1e-12)

    def test_deterministic_and_chunk_independent(self, tabletop):
        # three chunks on two workers, so one buffer pair serves two chunks
        trials = 2 * _CHUNK + 100
        rows1 = monte_carlo_mse(tabletop, "ls", TrainingProtocol(n_slots=10),
                                [30.0], trials=trials, seed=6)
        rows2 = monte_carlo_mse(tabletop, "ls", TrainingProtocol(n_slots=10),
                                [30.0], trials=trials, seed=6)
        assert rows1[0].mse == rows2[0].mse

    def test_rank_deficient_feedback_is_an_error(self, tabletop):
        proto = TrainingProtocol(n_slots=5, active_voltage=1e-300)
        with pytest.raises(EstimationError):
            monte_carlo_mse(tabletop, "ls", proto, [40.0], trials=10)

    def test_underflowed_pairwise_currents_are_an_error(self, tabletop):
        proto = TrainingProtocol(active_voltage=1e-300)
        with pytest.raises(EstimationError, match="received currents are zero"):
            monte_carlo_mse(tabletop, "pairwise", proto, [30.0], trials=100)

    @pytest.mark.parametrize("snr_db", [30.0, 40.0])
    def test_ls_matches_first_order_oracle(self, tabletop, snr_db):
        # the second-order term is visible at 20 dB, so the oracle is held
        # to the Monte-Carlo only from 30 dB up
        proto = TrainingProtocol(n_slots=10)
        row = monte_carlo_mse(tabletop, "ls", proto, [snr_db], trials=100_000)[0]
        oracle = ls_first_order_nmse(tabletop, proto, snr_db)
        assert abs(row.mse - oracle) <= 3.0 * row.stderr

    @pytest.mark.parametrize("estimator", ["ls", "pairwise"])
    def test_infinite_snr_is_one_noiseless_trial(self, tabletop, estimator):
        row = monte_carlo_mse(tabletop, estimator, TrainingProtocol(n_slots=10),
                              [math.inf], trials=1000, seed=0)[0]
        assert (row.trials, row.stderr) == (1, 0.0)
        if estimator == "ls":
            assert row.mse <= 1e-20
        else:
            assert row.mse == estimate_pairwise_benchmark(tabletop, math.inf).normalized_mse

    def test_row_metadata(self, tabletop):
        rows = monte_carlo_mse(tabletop, "pairwise", TrainingProtocol(n_slots=10),
                               [30.0], trials=100, seed=0)
        assert rows[0].estimator == "pairwise"
        assert rows[0].n_slots == tabletop.n_tx * tabletop.n_rx
        assert rows[0].trials == 100


class TestLsSampler:
    """The LS Monte-Carlo's sufficient statistics in distribution, whatever the stream."""

    def test_staged_normal_equations_have_analytic_means(self, tabletop, monkeypatch):
        # E[Gram] = Re(Z Z^H) + T sigma^2 I and E[rhs] = Re(G Z^H), entry by entry
        proto = TrainingProtocol(n_slots=10)
        trials, sums = 200_000, []
        original = estimation._ls_estimates

        def spy(aug):   # the staged chunk, before the solve overwrites it
            if aug.shape[-1] > 1:
                sums.append((aug.sum(axis=-1), np.square(aug).sum(axis=-1)))
            return original(aug)

        monkeypatch.setattr(estimation, "_ls_estimates", spy)
        monte_carlo_mse(tabletop, "ls", proto, [20.0], trials=trials, seed=11)
        total, total_sq = (np.sum(x, axis=0) for x in zip(*sums))
        mean = total / trials
        stderr = np.sqrt((total_sq / trials - mean ** 2) / (trials - 1))
        record = simulate_training(tabletop, proto, 20.0)
        z, g = record.z, record.g
        expect = np.concatenate([
            np.real(z @ z.conj().T) + proto.n_slots * record.sigma2 * np.eye(tabletop.n_rx),
            np.real(g @ z.conj().T)])
        assert np.all(np.abs(mean - expect) <= 4.0 * stderr)

    def test_smallest_bartlett_degree_matches_brute_force(self, tabletop):
        # T = Q leaves L's last diagonal entry 2T - 2Q + 1 = 1 degree of freedom;
        # the reference draws the full Q x T feedback noise of every trial
        proto = TrainingProtocol(mode=RANDOM_VOLTAGE, n_slots=tabletop.n_rx, seed=2)
        trials, snr_db = 50_000, 30.0
        row = monte_carlo_mse(tabletop, "ls", proto, [snr_db], trials=trials, seed=12)[0]
        record = simulate_training(tabletop, proto, snr_db)
        noisy = record.z + TestSameDraws._complex_noise(
            np.random.default_rng(13), (trials,) + record.z.shape, record.sigma2)
        m = tabletop.mutual_tx_rx
        mse = np.sum((TestSameDraws._complex_ls(record.g, noisy) - m) ** 2,
                     axis=(1, 2)) / np.sum(m ** 2)
        assert math.isfinite(row.mse) and math.isfinite(row.stderr)
        assert abs(row.mse - mse.mean()) <= 3.0 * math.hypot(
            row.stderr, mse.std(ddof=1) / math.sqrt(trials))


class TestNoiselessIdentifiability:
    def test_random_scenarios_exact_recovery(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            # identifiability needs at least as many TXs as RXs so the
            # feedback matrix can reach full row rank
            n_tx = int(rng.integers(2, 6))
            sc = random_scenario(rng, n_tx=n_tx,
                                 n_rx=int(rng.integers(1, min(4, n_tx + 1))))
            proto = TrainingProtocol(mode=RANDOM_VOLTAGE,
                                     n_slots=max(sc.n_rx, sc.n_tx),
                                     seed=int(rng.integers(1e6)))
            rec = simulate_training(sc, proto, float("inf"))
            scale = np.linalg.norm(sc.mutual_tx_rx)
            ls = estimate_ls(rec)
            assert np.linalg.norm(ls.m_hat - sc.mutual_tx_rx) <= 1e-9 * scale
            if proto.n_slots == sc.n_rx:
                perfect = estimate_perfect(rec)
                assert np.linalg.norm(perfect.m_hat - sc.mutual_tx_rx) <= 1e-9 * scale


class TestSameDraws:
    """The Monte-Carlo against the complex formulas it replaced, draw for draw.

    Pairwise rows draw the feedback noise itself.  LS rows draw A (Q x Q) and
    the Bartlett factor L of the sufficient statistics; the complex feedback
    ``Z_r = (C + sA) V^T + s L U^T`` rebuilt from them (Z_r = C V^T, U the
    next Q columns of the complete QR basis) has the same normal equations.
    """

    @staticmethod
    def _complex_noise(rng, shape, sigma2):
        s = math.sqrt(sigma2 / 2.0)
        return s * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))

    @staticmethod
    def _ls_draws(rng, q, dof, count):
        # row by row: A's row and L's entries below the diagonal in one draw,
        # then L's diagonal entry, the root of a chi-square with dof - i degrees
        a, lower = np.zeros((2, count, q, q))
        for i in range(q):
            row = rng.standard_normal((q + i, count))
            a[:, i], lower[:, i, :i] = row[:q].T, row[q:].T
            lower[:, i, i] = np.sqrt(2.0 * rng.standard_gamma((dof - i) / 2.0, count))
        return a, lower

    @staticmethod
    def _complex_ls(g, noisy):
        num = 2.0 * np.real(np.einsum("nt,cqt->cnq", g, noisy.conj()))
        den = 2.0 * np.real(np.einsum("cqt,cpt->cqp", noisy, noisy.conj()))
        return np.linalg.solve(den, num.transpose(0, 2, 1)).transpose(0, 2, 1)

    @staticmethod
    def _pairwise(scenario, v, snr_db):
        i_tx, i_rx = pairwise_circuit(scenario)
        i_tx, i_rx = v * i_tx, v * i_rx
        sigma2 = float(np.mean(np.abs(i_rx) ** 2)) / 10.0 ** (snr_db / 10.0)
        return i_tx, i_rx, sigma2

    @staticmethod
    def _pairwise_m_hat(scenario, i_tx, v, noisy):
        return np.real((scenario.tx_resistance[:, None] * i_tx - v)
                       / (1j * scenario.omega * noisy))

    def _reference_mse(self, scenario, estimator, protocol, snr_db, trials, seed, snr_idx=0):
        m = scenario.mutual_tx_rx
        v = protocol.active_voltage
        if estimator == "ls":
            record = simulate_training(scenario, protocol, snr_db)
            clean, sigma2 = record.z, record.sigma2
            q, t = clean.shape
            z_r = np.concatenate([clean.real, clean.imag], axis=1)
            basis = np.linalg.qr(z_r.T, mode="complete")[0]
            v_cols, u_cols = basis[:, :q], basis[:, q:2 * q]
            c_mat = z_r @ v_cols
        else:
            i_tx, clean, sigma2 = self._pairwise(scenario, v, snr_db)
        sq_errors = []
        for chunk_idx, start in enumerate(range(0, trials, _CHUNK)):
            rng = np.random.default_rng([seed, snr_idx, chunk_idx])
            count = min(_CHUNK, trials - start)
            if estimator == "ls":
                s = math.sqrt(sigma2 / 2.0)
                a, lower = self._ls_draws(rng, q, 2 * t - q, count)
                real = (c_mat + s * a) @ v_cols.T + s * lower @ u_cols.T
                m_hat = self._complex_ls(record.g, real[..., :t] + 1j * real[..., t:])
            else:
                noisy = clean + self._complex_noise(rng, (count,) + clean.shape, sigma2)
                m_hat = self._pairwise_m_hat(scenario, i_tx, v, noisy)
            sq_errors.append(np.sum((m_hat - m) ** 2, axis=(1, 2)))
        mse = np.concatenate(sq_errors) / np.sum(m ** 2)
        return mse.mean(), mse.std(ddof=1) / math.sqrt(trials)

    @pytest.mark.parametrize("estimator", ["ls", "pairwise"])
    def test_monte_carlo_matches_complex_reference(self, tabletop, estimator):
        # two chunks, the second one short
        proto = TrainingProtocol(n_slots=10, seed=3)
        trials = _CHUNK + 17
        row = monte_carlo_mse(tabletop, estimator, proto, [25.0], trials=trials,
                              seed=3)[0]
        mse, stderr = self._reference_mse(tabletop, estimator, proto, 25.0, trials, 3)
        assert row.trials == trials
        assert row.mse == pytest.approx(mse, rel=1e-12)
        assert row.stderr == pytest.approx(stderr, rel=1e-12)

    @pytest.mark.parametrize("estimator", ["ls", "pairwise"])
    @pytest.mark.parametrize("trials", [100, 2 * _CHUNK, 2 * _CHUNK + 17],
                             ids=["one_chunk", "two_chunks", "three_chunks"])
    def test_pipeline_matches_complex_reference(self, tabletop, estimator, trials):
        # three chunks a row share the two buffer pairs, and the second row's
        # chunks, keyed by SNR index 1, reuse the buffers of the first
        proto = TrainingProtocol(n_slots=10, seed=3)
        snrs = [25.0, 35.0]
        rows = monte_carlo_mse(tabletop, estimator, proto, snrs, trials=trials, seed=3)
        for snr_idx, (row, snr_db) in enumerate(zip(rows, snrs)):
            mse, stderr = self._reference_mse(tabletop, estimator, proto, snr_db, trials,
                                              3, snr_idx)
            assert (row.snr_db, row.trials) == (snr_db, trials)
            assert row.mse == pytest.approx(mse, rel=1e-12)
            assert row.stderr == pytest.approx(stderr, rel=1e-12)

    def test_training_feedback_bit_identical(self, tabletop):
        record = simulate_training(tabletop, TrainingProtocol(n_slots=10, seed=4), 20.0)
        rng = np.random.default_rng([4, 0x7632])
        expect = record.z + self._complex_noise(rng, record.z.shape, record.sigma2)
        assert np.array_equal(record.z_tilde, expect)

    def test_pairwise_benchmark_matches_complex_reference(self, tabletop):
        i_tx, i_rx, sigma2 = self._pairwise(tabletop, 0.75, 20.0)
        rng = np.random.default_rng([5, 0x7633])
        noisy = i_rx + self._complex_noise(rng, i_rx.shape, sigma2)
        expect = self._pairwise_m_hat(tabletop, i_tx, 0.75, noisy)
        m_hat = estimate_pairwise_benchmark(tabletop, 20.0, seed=5).m_hat
        np.testing.assert_allclose(m_hat, expect, rtol=1e-12, atol=0.0)


class TestPipelineThreads:
    """The Monte-Carlo's two chunk workers: failures and thread count."""

    proto = TrainingProtocol(n_slots=10, seed=3)

    def _spy(self, monkeypatch, fail_on=None):
        # wraps the LS solve a worker runs once per chunk; the single-trial
        # solve of estimate_ls is not a chunk
        original = estimation._ls_estimates
        threads = []

        def spy(aug):
            if aug.shape[-1] > 1:
                threads.append(threading.active_count())
                if len(threads) == fail_on:
                    raise RuntimeError("chunk failed")
            return original(aug)

        monkeypatch.setattr(estimation, "_ls_estimates", spy)
        return threads

    def test_error_propagates_and_workers_exit(self, tabletop, monkeypatch):
        before = threading.active_count()
        self._spy(monkeypatch, fail_on=2)
        with pytest.raises(RuntimeError, match="chunk failed"):
            monte_carlo_mse(tabletop, "ls", self.proto, [25.0], trials=4 * _CHUNK, seed=3)
        assert threading.active_count() == before
        monkeypatch.undo()
        row = monte_carlo_mse(tabletop, "ls", self.proto, [25.0], trials=_CHUNK + 17,
                              seed=3)[0]
        mse, _ = TestSameDraws()._reference_mse(tabletop, "ls", self.proto, 25.0,
                                                _CHUNK + 17, 3)
        assert row.mse == pytest.approx(mse, rel=1e-12)

    def test_failing_chunk_stops_its_row(self, tabletop, monkeypatch):
        # chunks not yet begun when one fails are skipped, not solved
        before = threading.active_count()
        threads = self._spy(monkeypatch, fail_on=2)
        with pytest.raises(RuntimeError, match="chunk failed"):
            monte_carlo_mse(tabletop, "ls", self.proto, [25.0], trials=64 * _CHUNK, seed=3)
        assert threading.active_count() == before
        assert 2 <= len(threads) <= 8

    def test_at_most_two_worker_threads(self, tabletop, monkeypatch):
        before = threading.active_count()
        threads = self._spy(monkeypatch)
        monte_carlo_mse(tabletop, "ls", self.proto, [25.0, 35.0], trials=3 * _CHUNK, seed=3)
        assert len(threads) == 6
        assert max(threads) <= before + 2
        assert threading.active_count() == before

    @pytest.mark.parametrize("estimator", ["ls", "pairwise"])
    def test_concurrent_calls_under_fast_switching(self, tabletop, estimator):
        # three calls at once run six workers on their own buffers; a chunk
        # staged into a buffer still in use would change the rows
        args = (tabletop, estimator, self.proto, [25.0, 35.0])
        expect = monte_carlo_mse(*args, trials=2 * _CHUNK + 17, seed=3)
        results = [None] * 3

        def run(idx):
            results[idx] = monte_carlo_mse(*args, trials=2 * _CHUNK + 17, seed=3)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=run, args=(idx,)) for idx in range(3)]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        assert results == [expect] * 3

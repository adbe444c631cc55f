import math

import numpy as np
import pytest

from conftest import random_excitation, random_scenario
from magbeam.circuit import (Excitation, Scenario, SlackReport, build_impedance,
                             constraint_slacks, delivered_powers, efficiency,
                             tx_total_power, tx_voltages)
from magbeam.errors import EfficiencyUndefinedError, ScenarioError

W_TABLE = 42.6e6
R_RX = 10.5367


def _mk(n_tx, n_rx, mutual, cross, r_tx=13.44, **kw):
    n, q = n_tx, n_rx
    defaults = dict(
        n_tx=n, n_rx=q, omega=W_TABLE,
        tx_resistance=np.full(n, r_tx),
        rx_parasitic=np.full(q, 0.5367), rx_load=np.full(q, 10.0),
        mutual_tx_rx=np.asarray(mutual, dtype=float).reshape(n, q),
        mutual_tx_tx=np.asarray(cross, dtype=float),
        total_power_cap=100.0,
        peak_voltage=np.full(n, 50.0 * math.sqrt(2.0)),
        peak_current=np.full(n, 5.0 * math.sqrt(2.0)),
    )
    defaults.update(kw)
    return Scenario(**defaults)


class TestBuildImpedance:
    def test_no_receiver(self):
        sc = _mk(1, 0, np.zeros((1, 0)), np.zeros((1, 1)))
        model = build_impedance(sc)
        assert model.b_bar[0, 0] == pytest.approx(13.44)
        assert model.b_hat[0, 0] == 0.0

    def test_tabletop_cross_coupling_entry(self, tabletop):
        model = build_impedance(tabletop)
        # -w * 6.5741 uH between the first and the center TX
        assert model.b_hat[0, 4] == pytest.approx(-W_TABLE * 6.5741e-6, rel=1e-12)
        assert model.b_hat[0, 4] == pytest.approx(-280.06, abs=0.01)

    def test_single_rx_diagonal(self):
        m = np.array([[0.5642e-6], [0.1526e-6]])
        sc = _mk(2, 1, m, np.zeros((2, 2)))
        model = build_impedance(sc)
        expect = 13.44 + W_TABLE ** 2 * (0.5642e-6) ** 2 / R_RX
        assert model.b_bar[0, 0] == pytest.approx(expect, rel=1e-12)

    def test_columns_match_complex_matrix(self, tabletop):
        model = build_impedance(tabletop)
        b = model.b_complex
        for n in range(tabletop.n_tx):
            assert np.allclose(model.b_columns[n], b[:, n])

    def test_rejects_asymmetric_cross_coupling(self):
        cross = np.array([[0.0, 1e-6], [2e-6, 0.0]])
        with pytest.raises(ScenarioError):
            _mk(2, 1, np.full((2, 1), 1e-7), cross)

    def test_rejects_nonfinite(self):
        with pytest.raises(ScenarioError):
            _mk(2, 1, np.array([[np.nan], [1e-7]]), np.zeros((2, 2)))

    @pytest.mark.parametrize("cross", [
        [[0.0, 1e-6], [1.0009e-6, 0.0]],        # a 0.09% asymmetric pair
        [[0.9e-9, 1e-9], [1e-9, 0.0]],          # a self term at 90% of an nH coupling
    ], ids=["asymmetric", "diagonal"])
    def test_cross_coupling_checks_scale_with_the_matrix(self, cross):
        # couplings of a few nH or uH are judged against their own size, as
        # the same matrix scaled up by 1e6 is
        for scale in (1.0, 1e6):
            with pytest.raises(ScenarioError, match="symmetric|diagonal"):
                _mk(2, 1, np.full((2, 1), 1e-7), scale * np.array(cross))
        sc = _mk(2, 1, np.full((2, 1), 1e-7), [[1e-24, 1e-6], [1e-6 + 1e-16, 0.0]])
        assert sc.mutual_tx_tx[1, 0] == 1e-6 + 1e-16


class TestRxCurrents:
    """The receiver current |i_rx| = w |m . i| / R_rx, read off the delivered
    power p = 0.5 R_rx |i_rx|^2 times the load's share of the coil."""

    def test_zero_current(self, tabletop_miso, miso_model):
        exc = Excitation(np.zeros(5))
        assert np.all(delivered_powers(tabletop_miso, miso_model, exc) == 0)

    def test_identical_current_magnitude(self, tabletop_miso, miso_model):
        # 0.0631 A on all five TXs, aggregate coupling 0.79488 uH
        exc = Excitation(np.full(5, 0.0631, dtype=complex))
        p = delivered_powers(tabletop_miso, miso_model, exc)
        i_rx = math.sqrt(2.0 * p[0] / (R_RX * tabletop_miso.rx_power_factor[0]))
        expect = W_TABLE * 0.79488e-6 / R_RX * 0.0631
        assert i_rx == pytest.approx(expect, rel=1e-9)
        assert i_rx == pytest.approx(0.2028, abs=2e-4)

    def test_linearity(self, tabletop, rng=np.random.default_rng(1)):
        # currents scale with the TX currents, so powers with their square
        model = build_impedance(tabletop)
        cur = random_excitation(rng, 5)
        one = delivered_powers(tabletop, model, Excitation(cur))
        two = delivered_powers(tabletop, model, Excitation(2.0 * cur))
        assert np.allclose(two, 4.0 * one, rtol=1e-13)


class TestDeliveredPower:
    def test_zero(self, tabletop_miso, miso_model):
        assert np.all(delivered_powers(tabletop_miso, miso_model,
                                       Excitation(np.zeros(5))) == 0.0)

    def test_identical_current_value(self, tabletop_miso, miso_model):
        exc = Excitation(np.full(5, 0.0631, dtype=complex))
        (p,) = delivered_powers(tabletop_miso, miso_model, exc)
        i_mag = W_TABLE * 0.79488e-6 / R_RX * 0.0631
        assert p == pytest.approx(0.5 * i_mag ** 2 * 10.0, rel=1e-9)
        assert p == pytest.approx(0.2056, abs=3e-4)

    def test_quadratic_scaling(self, tabletop):
        model = build_impedance(tabletop)
        rng = np.random.default_rng(2)
        cur = random_excitation(rng, 5)
        base = delivered_powers(tabletop, model, Excitation(cur))
        scaled = delivered_powers(tabletop, model, Excitation(1.7j * cur))
        assert np.allclose(scaled, abs(1.7j) ** 2 * base, rtol=1e-12)

    def test_accounting_modes(self, tabletop_miso):
        total = Scenario(**{**_scenario_kwargs(tabletop_miso),
                            "load_accounting": "total_rx_resistance"})
        m_load = build_impedance(tabletop_miso)
        m_total = build_impedance(total)
        exc = Excitation(np.full(5, 0.1, dtype=complex))
        p_load = delivered_powers(tabletop_miso, m_load, exc)
        p_total = delivered_powers(total, m_total, exc)
        assert p_load == pytest.approx(p_total * 10.0 / R_RX, rel=1e-12)


def _scenario_kwargs(sc):
    return dict(n_tx=sc.n_tx, n_rx=sc.n_rx, omega=sc.omega,
                tx_resistance=sc.tx_resistance, rx_parasitic=sc.rx_parasitic,
                rx_load=sc.rx_load, mutual_tx_rx=sc.mutual_tx_rx,
                mutual_tx_tx=sc.mutual_tx_tx, total_power_cap=sc.total_power_cap,
                peak_voltage=sc.peak_voltage, peak_current=sc.peak_current)


class TestTxVoltages:
    def test_zero(self, miso_model):
        assert np.all(tx_voltages(miso_model, Excitation(np.zeros(5))) == 0)

    def test_expansion_oracle(self):
        # entry-by-entry expansion of the port equations equals b_n^H i
        rng = np.random.default_rng(3)
        for _ in range(20):
            sc = random_scenario(rng)
            model = build_impedance(sc)
            cur = random_excitation(rng, sc.n_tx)
            v = tx_voltages(model, Excitation(cur))
            w = sc.omega
            for n in range(sc.n_tx):
                direct = (sc.tx_resistance[n]
                          + sum(w ** 2 * sc.mutual_tx_rx[n, q] ** 2 / sc.rx_resistance[q]
                                for q in range(sc.n_rx))) * cur[n]
                for k in range(sc.n_tx):
                    if k == n:
                        continue
                    direct += (1j * w * sc.mutual_tx_tx[n, k]
                               + sum(w ** 2 * sc.mutual_tx_rx[n, q]
                                     * sc.mutual_tx_rx[k, q] / sc.rx_resistance[q]
                                     for q in range(sc.n_rx))) * cur[k]
                assert abs(v[n] - direct) <= 1e-10 * max(1.0, abs(direct))


class TestTxTotalPower:
    def test_zero(self, miso_model):
        assert tx_total_power(miso_model, Excitation(np.zeros(5))) == 0.0

    def test_voltage_current_product_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            sc = random_scenario(rng)
            model = build_impedance(sc)
            cur = random_excitation(rng, sc.n_tx)
            exc = Excitation(cur)
            p = tx_total_power(model, exc)
            alt = 0.5 * float(np.real(np.sum(tx_voltages(model, exc) * cur.conj())))
            assert p == pytest.approx(alt, rel=1e-10, abs=1e-12)

    def test_independent_of_cross_coupling(self, tabletop_miso):
        no_cross = Scenario(**{**_scenario_kwargs(tabletop_miso),
                               "mutual_tx_tx": np.zeros((5, 5))})
        rng = np.random.default_rng(5)
        cur = random_excitation(rng, 5)
        p1 = tx_total_power(build_impedance(tabletop_miso), Excitation(cur))
        p2 = tx_total_power(build_impedance(no_cross), Excitation(cur))
        assert p1 == pytest.approx(p2, rel=1e-12)


class TestEfficiency:
    def test_aligned_current_closed_form(self, tabletop_miso, miso_model):
        m = miso_model.m_vectors[0]
        exc = Excitation(0.1 * m / np.linalg.norm(m))
        eta = efficiency(tabletop_miso, miso_model, [(exc, 1.0)])
        refl = W_TABLE ** 2 * float(m @ m) / R_RX
        expect = refl / (13.44 + refl) * (10.0 / R_RX)
        assert eta == pytest.approx(expect, rel=1e-12)
        assert eta == pytest.approx(0.7738, abs=5e-4)

    def test_identical_current_closed_form(self, tabletop_miso, miso_model):
        exc = Excitation(np.full(5, 0.05, dtype=complex))
        eta = efficiency(tabletop_miso, miso_model, [(exc, 1.0)])
        agg = W_TABLE ** 2 * float(np.sum(miso_model.m_vectors[0])) ** 2 / R_RX
        expect = agg / (5 * 13.44 + agg) * (10.0 / R_RX)
        assert eta == pytest.approx(expect, rel=1e-12)
        assert eta == pytest.approx(0.5868, abs=5e-4)

    def test_no_receiver_zero(self):
        sc = _mk(2, 0, np.zeros((2, 0)), np.zeros((2, 2)))
        model = build_impedance(sc)
        eta = efficiency(sc, model, [(Excitation(np.ones(2, dtype=complex)), 1.0)])
        assert eta == 0.0

    def test_zero_power_raises(self, tabletop_miso, miso_model):
        with pytest.raises(EfficiencyUndefinedError):
            efficiency(tabletop_miso, miso_model, [(Excitation(np.zeros(5)), 1.0)])

    def test_fraction_validation(self, tabletop_miso, miso_model):
        exc = Excitation(np.ones(5, dtype=complex))
        with pytest.raises(ValueError):
            efficiency(tabletop_miso, miso_model, [(exc, 0.4), (exc, 0.4)])


class TestConstraintSlacks:
    def test_zero_current_slacks_equal_limits(self, tabletop_miso, miso_model):
        rep = constraint_slacks(tabletop_miso, miso_model, Excitation(np.zeros(5)))
        assert np.allclose(rep.voltage_slack, tabletop_miso.peak_voltage)
        assert np.allclose(rep.current_slack, tabletop_miso.peak_current)
        assert rep.total_power_slack == pytest.approx(100.0)

    def test_current_at_limit(self, tabletop_miso, miso_model):
        cur = np.zeros(5, dtype=complex)
        cur[0] = tabletop_miso.peak_current[0]
        rep = constraint_slacks(tabletop_miso, miso_model, Excitation(cur))
        assert rep.current_slack[0] == pytest.approx(0.0, abs=1e-12)

    def test_report_type(self, tabletop_miso, miso_model):
        rep = constraint_slacks(tabletop_miso, miso_model, Excitation(np.zeros(5)))
        assert isinstance(rep, SlackReport)
        assert rep.min_slack >= -1e-6


class TestProperties:
    def test_global_phase_invariance(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            sc = random_scenario(rng)
            model = build_impedance(sc)
            cur = random_excitation(rng, sc.n_tx)
            theta = rng.uniform(0, 2 * math.pi)
            a, b = Excitation(cur), Excitation(np.exp(1j * theta) * cur)
            assert np.allclose(delivered_powers(sc, model, a),
                               delivered_powers(sc, model, b), rtol=1e-10)
            assert tx_total_power(model, a) == pytest.approx(
                tx_total_power(model, b), rel=1e-10)
            assert np.allclose(np.abs(tx_voltages(model, a)),
                               np.abs(tx_voltages(model, b)), rtol=1e-10)

    def test_energy_conservation(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            sc = random_scenario(rng, load_accounting="total_rx_resistance")
            model = build_impedance(sc)
            cur = random_excitation(rng, sc.n_tx)
            p_in = tx_total_power(model, Excitation(cur))
            p_out = float(np.sum(delivered_powers(sc, model, Excitation(cur))))
            assert p_out <= p_in * (1 + 1e-12)
            # strict when sources are lossy and the excitation is nonzero
            assert p_out < p_in

    def test_real_imaginary_symmetry(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            sc = random_scenario(rng)
            model = build_impedance(sc)
            cur = rng.standard_normal(sc.n_tx)
            a, b = Excitation(cur.astype(complex)), Excitation(1j * cur)
            assert np.allclose(delivered_powers(sc, model, a),
                               delivered_powers(sc, model, b), rtol=1e-12)
            assert tx_total_power(model, a) == pytest.approx(
                tx_total_power(model, b), rel=1e-12)

    def test_b_bar_psd(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            model = build_impedance(random_scenario(rng))
            w_min = float(np.min(np.linalg.eigvalsh(model.b_bar)))
            assert w_min >= -1e-9 * np.linalg.norm(model.b_bar)

    def test_rank_one_factors(self, tabletop):
        # b_bar is the sum of f f^T over its factor's rows: sqrt(r_n) e_n
        # for each TX, then (w / sqrt(r_q)) m_q for each receiver
        model = build_impedance(tabletop)
        f = model.b_bar_factor
        n = tabletop.n_tx
        assert f.shape == (n + tabletop.n_rx, n)
        np.testing.assert_array_equal(f[:n], np.diag(np.sqrt(tabletop.tx_resistance)))
        np.testing.assert_allclose(
            f[n:], (tabletop.omega / np.sqrt(tabletop.rx_resistance))[:, None]
            * tabletop.mutual_tx_rx.T, rtol=1e-15)
        assert np.linalg.norm(f.T @ f - model.b_bar) <= 1e-14 * np.linalg.norm(model.b_bar)


class TestScenarioValidation:
    def test_nontriviality_enforced(self):
        with pytest.raises(ScenarioError):
            _mk(2, 1, np.full((2, 1), 1e-7), np.zeros((2, 2)),
                total_power_cap=1e6)

    def test_negative_resistance(self):
        with pytest.raises(ScenarioError):
            _mk(2, 1, np.full((2, 1), 1e-7), np.zeros((2, 2)), r_tx=-1.0)

    def test_immutable_arrays(self, tabletop):
        with pytest.raises(ValueError):
            tabletop.tx_resistance[0] = 1.0

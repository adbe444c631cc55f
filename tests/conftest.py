import math

import numpy as np
import pytest

from magbeam import beamforming
from magbeam.circuit import Scenario, build_impedance
from magbeam.scenario import table_scenario


def pytest_configure(config):
    # a cast that drops an imaginary part fails the test; the warning lives in
    # numpy.exceptions from NumPy 1.25 and in numpy itself before
    module = "numpy.exceptions" if hasattr(np, "exceptions") else "numpy"
    config.addinivalue_line("filterwarnings", f"error::{module}.ComplexWarning")


@pytest.fixture(scope="session")
def tabletop():
    return table_scenario()


@pytest.fixture(scope="session")
def tabletop_miso():
    # single receiver: the second RX of the bundled dataset
    return table_scenario([1])


@pytest.fixture(scope="session")
def tabletop_two_user():
    return table_scenario([0, 1])


@pytest.fixture(scope="session")
def miso_model(tabletop_miso):
    return build_impedance(tabletop_miso)


def random_scenario(rng, n_tx=None, n_rx=None, load_accounting="load_only"):
    """Physically plausible random deployment.

    Couplings are scaled so reflected receiver impedances are comparable
    to the TX source resistances (interesting but well-conditioned), and
    peak limits always satisfy the non-triviality requirement.
    """
    n = int(n_tx if n_tx is not None else rng.integers(2, 6))
    q = int(n_rx if n_rx is not None else rng.integers(1, 4))
    omega = float(10 ** rng.uniform(6.8, 7.9))
    r_tx = rng.uniform(5.0, 25.0, n)
    r_p = rng.uniform(0.2, 1.0, q)
    r_l = rng.uniform(5.0, 20.0, q)
    m_scale = math.sqrt(float(np.mean(r_tx)) * float(np.mean(r_p + r_l))) / omega
    mutual = rng.uniform(0.1, 1.0, (n, q)) * m_scale * rng.choice([-1.0, 1.0], (n, q))
    cross = rng.uniform(0.3, 3.0, (n, n)) * m_scale
    cross = (cross + cross.T) / 2.0
    np.fill_diagonal(cross, 0.0)
    peak_v = rng.uniform(40.0, 120.0, n)
    peak_a = rng.uniform(3.0, 12.0, n)
    cap = 0.25 * 0.5 * float(peak_v @ peak_a)
    return Scenario(n_tx=n, n_rx=q, omega=omega, tx_resistance=r_tx,
                    rx_parasitic=r_p, rx_load=r_l, mutual_tx_rx=mutual,
                    mutual_tx_tx=cross, total_power_cap=cap,
                    peak_voltage=peak_v, peak_current=peak_a,
                    load_accounting=load_accounting)


def random_excitation(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def row_matrices(problem):
    """Each row's matrix of an ``SdpProblem``: F^T conj(F) = sum_j f_j f_j^H over its block."""
    return np.stack([f.T @ f.conj() for f in problem.factors])


def relax(scenario, profile, target_power=None, model=None, use_peak_constraints=True):
    """The relaxation of P0, or of P1 at ``target_power``, solved once from the
    cold start: its conic solution and, when optimal, its spectrum
    ``(eigenvalues, eigenvectors, rank)``, else None.

    The solve and the spectrum go through ``beamforming.solve_sdp`` and
    ``beamforming._spectrum``, so a test's patches of either see them.
    """
    model = build_impedance(scenario) if model is None else model
    problem = beamforming._relaxation_problem(scenario, profile, model,
                                              use_peak_constraints, target_power)
    conic = beamforming.solve_sdp(problem)
    return conic, beamforming._spectrum(conic.x) if conic.is_optimal else None


def time_shared(scenario, x_star, model=None):
    """The schedule realizing ``x_star`` exactly by time-sharing its eigenvectors."""
    spectrum = beamforming._spectrum(x_star)
    model = build_impedance(scenario) if model is None else model
    return beamforming.make_solution(scenario, model, beamforming._time_shared(spectrum),
                                     beamforming.METHOD_TIME_SHARING, sdr_rank=spectrum[2])

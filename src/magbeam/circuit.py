"""Phasor-domain circuit model of a multi-coil resonant WPT link.

N single-coil transmitters drive Q single-coil receivers, all tuned to the
same angular frequency ``omega`` so every self-reactance cancels.  With the
TX current phasor vector ``i`` as the free variable, the whole circuit is
captured by a complex symmetric impedance matrix ``B = Bbar + j*Bhat``:

* each receiver current is a linear map of ``i``,
* each TX source voltage is ``v_n = b_n^H i`` with ``b_n`` the n-th column
  of ``B`` (equivalently ``v = conj(B) i``),
* the total power drawn from the sources is ``0.5 * i^H Bbar i`` and does
  not involve the TX-TX mutual inductances.

All quantities are SI; voltage/current magnitudes are peak phasor
amplitudes (hence the 1/2 factors in every power expression).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EfficiencyUndefinedError, ScenarioError

LOAD_ONLY = "load_only"
TOTAL_RX_RESISTANCE = "total_rx_resistance"
_ACCOUNTING_MODES = (LOAD_ONLY, TOTAL_RX_RESISTANCE)

_SYM_TOL = 1e-9


def _readonly(a, dtype=float):
    arr = np.array(a, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Scenario:
    """Full electrical description of one TX/RX deployment.

    ``mutual_tx_rx`` is N x Q (henries), ``mutual_tx_tx`` is N x N symmetric
    with zero diagonal.  ``load_accounting`` selects whether delivered power
    is booked against the load resistance only (matches the bundled
    reference figures) or the
    total receiver resistance.
    """

    n_tx: int
    n_rx: int
    omega: float
    tx_resistance: np.ndarray
    rx_parasitic: np.ndarray
    rx_load: np.ndarray
    mutual_tx_rx: np.ndarray
    mutual_tx_tx: np.ndarray
    total_power_cap: float
    peak_voltage: np.ndarray
    peak_current: np.ndarray
    load_accounting: str = LOAD_ONLY
    metadata: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        n, q = int(self.n_tx), int(self.n_rx)
        if n < 1:
            raise ScenarioError("need at least one TX", field="n_tx")
        if q < 0:
            raise ScenarioError("receiver count cannot be negative", field="n_rx")
        object.__setattr__(self, "n_tx", n)
        object.__setattr__(self, "n_rx", q)
        object.__setattr__(self, "tx_resistance", _readonly(self.tx_resistance))
        object.__setattr__(self, "rx_parasitic", _readonly(self.rx_parasitic))
        object.__setattr__(self, "rx_load", _readonly(self.rx_load))
        object.__setattr__(self, "mutual_tx_rx",
                           _readonly(np.reshape(self.mutual_tx_rx, (n, q))))
        object.__setattr__(self, "mutual_tx_tx", _readonly(self.mutual_tx_tx))
        object.__setattr__(self, "peak_voltage", _readonly(self.peak_voltage))
        object.__setattr__(self, "peak_current", _readonly(self.peak_current))
        self._validate()

    def _validate(self):
        n, q = self.n_tx, self.n_rx
        checks = [
            ("tx_resistance", self.tx_resistance, (n,)),
            ("rx_parasitic", self.rx_parasitic, (q,)),
            ("rx_load", self.rx_load, (q,)),
            ("mutual_tx_rx", self.mutual_tx_rx, (n, q)),
            ("mutual_tx_tx", self.mutual_tx_tx, (n, n)),
            ("peak_voltage", self.peak_voltage, (n,)),
            ("peak_current", self.peak_current, (n,)),
        ]
        for name, arr, shape in checks:
            if arr.shape != shape:
                raise ScenarioError(f"expected shape {shape}, got {arr.shape}", field=name)
            if not np.all(np.isfinite(arr)):
                raise ScenarioError("entries must be finite", field=name)
        if not (np.isfinite(self.omega) and self.omega > 0):
            raise ScenarioError("angular frequency must be positive", field="omega")
        for name, arr in [("tx_resistance", self.tx_resistance),
                          ("rx_parasitic", self.rx_parasitic),
                          ("rx_load", self.rx_load),
                          ("peak_voltage", self.peak_voltage),
                          ("peak_current", self.peak_current)]:
            if arr.size and np.min(arr) <= 0:
                raise ScenarioError("entries must be strictly positive", field=name)
        if not (np.isfinite(self.total_power_cap) and self.total_power_cap > 0):
            raise ScenarioError("must be positive", field="total_power_cap")
        mt = self.mutual_tx_tx
        scale = float(np.max(np.abs(mt)))
        if np.max(np.abs(mt - mt.T)) > _SYM_TOL * scale:
            raise ScenarioError("must be symmetric (coil reciprocity)", field="mutual_tx_tx")
        if np.max(np.abs(np.diag(mt))) > _SYM_TOL * scale:
            raise ScenarioError("diagonal must be zero", field="mutual_tx_tx")
        if self.load_accounting not in _ACCOUNTING_MODES:
            raise ScenarioError(f"unknown mode {self.load_accounting!r}",
                                field="load_accounting")
        # peak limits must be able to out-supply the total power cap, else the
        # total-power constraint could never become active
        if 0.5 * float(self.peak_voltage @ self.peak_current) <= self.total_power_cap:
            raise ScenarioError(
                "sum of 0.5*V_n*A_n must exceed total_power_cap", field="total_power_cap")

    @property
    def rx_resistance(self):
        """Total per-RX resistance (parasitic + load), ohms."""
        return self.rx_parasitic + self.rx_load

    @property
    def rx_power_factor(self):
        """Fraction of the coil dissipation booked as delivered power."""
        if self.load_accounting == LOAD_ONLY:
            return self.rx_load / self.rx_resistance
        return np.ones(self.n_rx)


@dataclass(frozen=True)
class ImpedanceModel:
    """Matrices derived from a scenario, shared by every optimization.

    ``b_bar``/``b_hat`` are the real/imaginary parts of the impedance matrix,
    ``b_columns[n]`` its n-th column b_n and ``m_vectors[q]`` receiver q's
    coupling vector m_q.  ``b_bar_factor`` is the (N + Q) x N factor of
    ``b_bar``, rows sqrt(r_n) e_n then (w / sqrt(r_q)) m_q, whose outer
    products sum to ``b_bar`` up to rounding.

    ``row_factors`` holds the quadratic forms that the relaxations constrain,
    each as a read-only 2-D factor block F standing for F^T conj(F): the Q
    deliveries m_q, the TX power 0.5 Bbar (``b_bar_factor / sqrt(2)``), the N
    voltages b_n and the N currents e_n.  It is built with the model, so
    every problem built from one model holds the same blocks, by which a
    warm-started solve knows its rows (:func:`magbeam.conic.solve_sdp`).
    """

    b_bar: np.ndarray
    b_hat: np.ndarray
    b_columns: np.ndarray
    b_bar_factor: np.ndarray
    m_vectors: np.ndarray
    row_factors: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        power = self.b_bar_factor / math.sqrt(2.0)
        currents = np.eye(self.n_tx)
        for arr in (power, currents):
            arr.setflags(write=False)
        object.__setattr__(self, "row_factors", (
            *self.m_vectors[:, None], power, *self.b_columns[:, None], *currents[:, None]))

    @property
    def n_tx(self):
        return self.b_bar.shape[0]

    @property
    def n_rx(self):
        return self.m_vectors.shape[0]

    @property
    def b_complex(self):
        return self.b_bar + 1j * self.b_hat


@dataclass(frozen=True)
class Excitation:
    """One TX current phasor vector (amperes)."""

    currents: np.ndarray

    def __post_init__(self):
        arr = np.array(self.currents, dtype=complex, ndmin=1)
        if arr.ndim != 1 or not np.isfinite(arr).all():
            raise ValueError("currents must be a finite 1-D complex vector")
        arr.setflags(write=False)
        object.__setattr__(self, "currents", arr)

    @property
    def n_tx(self):
        return self.currents.size


def build_impedance(scenario: Scenario) -> ImpedanceModel:
    """Assemble the impedance matrices for a scenario (validated on construction)."""
    w, r_rx = scenario.omega, scenario.rx_resistance
    m_vectors = scenario.mutual_tx_rx.T.copy()              # (Q, N)
    b_bar = np.diag(scenario.tx_resistance).astype(float)
    for m, r in zip(m_vectors, r_rx):
        b_bar += (w ** 2 / r) * np.outer(m, m)
    b_bar_factor = np.vstack([np.diag(np.sqrt(scenario.tx_resistance)),
                              (w / np.sqrt(r_rx))[:, None] * m_vectors])
    b_hat = -w * scenario.mutual_tx_tx
    np.fill_diagonal(b_hat, 0.0)

    b_columns = (b_bar + 1j * b_hat).T.copy()               # row n = column b_n
    for arr in (b_bar, b_hat, b_columns, b_bar_factor, m_vectors):
        arr.setflags(write=False)
    return ImpedanceModel(b_bar=b_bar, b_hat=b_hat, b_columns=b_columns,
                          b_bar_factor=b_bar_factor, m_vectors=m_vectors)


def _check_dims(model: ImpedanceModel, exc: Excitation):
    if exc.n_tx != model.n_tx:
        raise ValueError(f"excitation has {exc.n_tx} entries, model expects {model.n_tx}")


def delivered_powers(scenario: Scenario, model: ImpedanceModel, exc: Excitation) -> np.ndarray:
    """Vector of delivered powers for all receivers."""
    _check_dims(model, exc)
    proj = model.m_vectors @ exc.currents
    p = scenario.omega ** 2 / (2.0 * scenario.rx_resistance) * np.abs(proj) ** 2
    return p * scenario.rx_power_factor


def tx_voltages(model: ImpedanceModel, exc: Excitation) -> np.ndarray:
    """Source voltage phasors, ``v_n = b_n^H i``."""
    _check_dims(model, exc)
    return model.b_columns.conj() @ exc.currents


def tx_total_power(model: ImpedanceModel, exc: Excitation) -> float:
    """Total power drawn from all TX sources, ``0.5 i^H Bbar i``."""
    _check_dims(model, exc)
    i = exc.currents
    return float(np.vdot(i, model.b_bar @ i).real) / 2.0


def efficiency(scenario: Scenario, model: ImpedanceModel, schedule) -> float:
    """Delivered-to-drawn power ratio of a (possibly time-shared) schedule.

    ``schedule`` is a list of ``(Excitation, time_fraction)`` pairs whose
    fractions are nonnegative and sum to one.
    """
    fracs = np.array([tau for _, tau in schedule], dtype=float)
    if fracs.size == 0 or np.min(fracs) < -1e-12 or abs(fracs.sum() - 1.0) > 1e-9:
        raise ValueError("time fractions must be nonnegative and sum to 1")
    p_out = sum(tau * float(np.sum(delivered_powers(scenario, model, exc)))
                for exc, tau in schedule)
    p_in = sum(tau * tx_total_power(model, exc) for exc, tau in schedule)
    if p_in <= 0.0:
        raise EfficiencyUndefinedError("schedule draws zero transmit power")
    return p_out / p_in


@dataclass(frozen=True)
class SlackReport:
    """Signed distances to each constraint; negative means violated.

    Beamforming judges a schedule by ``beamforming._within_limits``, which
    applies ``_SLACK_TOL`` to these slacks; the CLI reports ``min_slack``.
    """

    voltage_slack: np.ndarray
    current_slack: np.ndarray
    total_power_slack: float

    @property
    def min_slack(self):
        vals = [self.total_power_slack]
        if self.voltage_slack.size:
            vals.append(float(np.min(self.voltage_slack)))
            vals.append(float(np.min(self.current_slack)))
        return min(vals)


def constraint_slacks(scenario: Scenario, model: ImpedanceModel, exc: Excitation) -> SlackReport:
    """Per-constraint slack of an excitation against the scenario limits."""
    v = tx_voltages(model, exc)
    return SlackReport(
        voltage_slack=scenario.peak_voltage - np.abs(v),
        current_slack=scenario.peak_current - np.abs(exc.currents),
        total_power_slack=scenario.total_power_cap - tx_total_power(model, exc),
    )

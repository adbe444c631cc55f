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
import numbers
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import EfficiencyUndefinedError, ScenarioError

LOAD_ONLY = "load_only"
TOTAL_RX_RESISTANCE = "total_rx_resistance"
_ACCOUNTING_MODES = (LOAD_ONLY, TOTAL_RX_RESISTANCE)

_SYM_TOL = 1e-9

# each unit's size in SI units, the SI unit first
_H_PER_UNIT = {"H": 1.0, "uH": 1e-6, "µH": 1e-6, "nH": 1e-9}
_RAD_PER_UNIT = {"rad/s": 1.0, "Hz": 2.0 * math.pi, "MHz": 2.0 * math.pi * 1e6}


class _Field(NamedTuple):
    """One key of the scenario file format and the ``Scenario`` attribute it fills.

    ``kind`` is int (a count), float (a number or table of numbers), str or dict.
    The key of a field with ``units`` is a path ``top.sub``: ``top`` holds an
    object with a ``unit`` out of ``units`` and the number(s) in ``sub``.
    ``shape`` spells a table's dimensions in N (TXs) and Q (RXs); each entry must
    exceed ``low``.  A key with a ``default`` may be omitted; a float default is
    each TX's entry, and stands for a null too.
    """

    key: str
    attr: str
    kind: type = float
    units: dict = None
    shape: str = ""
    low: float = -math.inf
    default: object = None


# the counts come first: they give the other fields' shapes
_FIELDS = (
    _Field("n_tx", "n_tx", int, low=0),
    _Field("n_rx", "n_rx", int, low=-1),
    _Field("frequency.value", "omega", units=_RAD_PER_UNIT, low=0.0),
    _Field("tx_resistance_ohm", "tx_resistance", shape="N", low=0.0),
    _Field("rx_parasitic_ohm", "rx_parasitic", shape="Q", low=0.0),
    _Field("rx_load_ohm", "rx_load", shape="Q", low=0.0),
    _Field("mutual_tx_rx.values", "mutual_tx_rx", units=_H_PER_UNIT, shape="NQ"),
    _Field("mutual_tx_tx.values", "mutual_tx_tx", units=_H_PER_UNIT, shape="NN"),
    _Field("total_power_cap_w", "total_power_cap", low=0.0),
    _Field("peak_voltage_v", "peak_voltage", shape="N", low=0.0, default=50.0 * math.sqrt(2.0)),
    _Field("peak_current_a", "peak_current", shape="N", low=0.0, default=5.0 * math.sqrt(2.0)),
    _Field("load_accounting", "load_accounting", str, default=LOAD_ONLY),
    _Field("metadata", "metadata", dict, default={}),
)


@dataclass(frozen=True)
class Scenario:
    """Full electrical description of one TX/RX deployment.

    ``mutual_tx_rx`` is N x Q (henries), ``mutual_tx_tx`` is N x N symmetric
    with zero diagonal.  ``load_accounting`` selects whether delivered power
    is booked against the load resistance only (matches the bundled
    reference figures) or the total receiver resistance.  Each field is
    checked as ``_FIELDS`` says, an invalid one named by its attribute.
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
        for f in _FIELDS:
            value = getattr(self, f.attr)
            if f.kind is int:
                if isinstance(value, bool) or not (isinstance(value, numbers.Real)
                                                   and value % 1 == 0):
                    raise ScenarioError(f"expected a whole number, got {value!r}", field=f.attr)
                value = int(value)
            elif f.kind is float:
                value = np.array(value, dtype=float)
                shape = tuple({"N": self.n_tx, "Q": self.n_rx}[d] for d in f.shape)
                if value.shape != shape:
                    raise ScenarioError(f"expected shape {shape}, got {value.shape}",
                                        field=self._misfit(f.attr))
                if not np.isfinite(value).all():
                    raise ScenarioError("entries must be finite", field=f.attr)
                value.setflags(write=False)
                value = value if shape else float(value)
            else:
                continue
            if (np.asarray(value) <= f.low).any():
                raise ScenarioError(f"must be greater than {f.low:g}", field=f.attr)
            object.__setattr__(self, f.attr, value)
        # the rules that span fields
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

    def _misfit(self, table):
        """What a shape error names: a count every table it sizes contradicts, or ``table``."""
        for count, dim in (("n_tx", "N"), ("n_rx", "Q")):
            if all(np.array(getattr(self, f.attr), dtype=object).shape[f.shape.index(dim):][:1]
                   != (getattr(self, count),) for f in _FIELDS if dim in f.shape):
                return count
        return table

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

    ``b_bar`` is the real part Bbar of the impedance matrix, ``b_columns``
    all of it as B^T (row n its n-th column b_n; Bhat is -w times the TX-TX
    mutual inductances) and ``m_vectors[q]`` receiver q's coupling vector m_q.
    ``b_bar_factor`` is the (N + Q) x N factor of ``b_bar``, rows
    sqrt(r_n) e_n then (w / sqrt(r_q)) m_q, whose outer products sum to
    ``b_bar`` up to rounding.

    ``row_factors`` holds the quadratic forms that the relaxations constrain,
    each as a read-only 2-D factor block F standing for F^T conj(F): the Q
    deliveries m_q, the TX power 0.5 Bbar (``b_bar_factor / sqrt(2)``), the N
    voltages b_n and the N currents e_n.  It is built with the model, so
    every problem built from one model holds the same blocks, by which a
    warm-started solve knows its rows (:func:`magbeam.conic.solve_sdp`).
    """

    b_bar: np.ndarray
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
    for arr in (b_bar, b_columns, b_bar_factor, m_vectors):
        arr.setflags(write=False)
    return ImpedanceModel(b_bar=b_bar, b_columns=b_columns, b_bar_factor=b_bar_factor,
                          m_vectors=m_vectors)


def _port_forms(model: ImpedanceModel, currents):
    """Source voltages ``conj(B) i`` and drawn powers ``0.5 i^H Bbar i`` of a current
    vector or of each column of a matrix (summed in ``Bbar i``'s buffer)."""
    if currents.shape[0] != model.n_tx:
        raise ValueError(f"currents have {currents.shape[0]} rows, model expects {model.n_tx}")
    p = model.b_bar @ currents
    p = 0.5 * np.multiply(np.conjugate(p, out=p), currents, out=p).real.sum(axis=0)
    return model.b_columns.conj() @ currents, p


@dataclass(frozen=True)
class SlackReport:
    """Signed distances to each constraint; negative means violated.

    Beamforming keeps the limits by scaling a schedule to its largest
    feasible gain (``CurrentEvaluation.peak_gain2``), not by these
    distances; the CLI reports their ``min_slack``.
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


class CurrentEvaluation(NamedTuple):
    """Per column of an N x L current matrix: source voltages (N x L), drawn
    power, delivered powers (Q x L) and the largest squared gain keeping every
    peak limit (inf for a zero column).  Powers scale with a gain squared."""

    currents: np.ndarray
    voltages: np.ndarray
    tx_power: np.ndarray
    delivered: np.ndarray
    peak_gain2: np.ndarray

    def slacks(self, scenario, column=0) -> SlackReport:
        """Column ``column``'s slack against the scenario limits."""
        return SlackReport(
            voltage_slack=scenario.peak_voltage - np.abs(self.voltages[:, column]),
            current_slack=scenario.peak_current - np.abs(self.currents[:, column]),
            total_power_slack=scenario.total_power_cap - float(self.tx_power[column]))


def evaluate_currents(scenario: Scenario, model: ImpedanceModel, currents) -> CurrentEvaluation:
    """The :class:`CurrentEvaluation` of an N x L current matrix."""
    if np.ndim(currents) != 2:
        raise ValueError(f"currents must be an N x L matrix, got {np.ndim(currents)} dimensions")
    voltages, tx_power = _port_forms(model, currents)
    proj = np.abs(model.m_vectors @ currents)
    delivered = ((scenario.omega ** 2 / (2.0 * scenario.rx_resistance))[:, None] * (proj * proj)
                 * scenario.rx_power_factor[:, None])
    with np.errstate(divide="ignore"):
        gain2 = np.minimum(
            (scenario.peak_voltage[:, None] ** 2 / np.abs(voltages) ** 2).min(axis=0),
            (scenario.peak_current[:, None] ** 2 / np.abs(currents) ** 2).min(axis=0))
    return CurrentEvaluation(currents, voltages, tx_power, delivered, gain2)


def delivered_powers(scenario: Scenario, model: ImpedanceModel, exc: Excitation) -> np.ndarray:
    """Vector of delivered powers for all receivers."""
    return evaluate_currents(scenario, model, exc.currents[:, None]).delivered[:, 0]


def tx_voltages(model: ImpedanceModel, exc: Excitation) -> np.ndarray:
    """Source voltage phasors, ``v_n = b_n^H i``."""
    return _port_forms(model, exc.currents)[0]


def tx_total_power(model: ImpedanceModel, exc: Excitation) -> float:
    """Total power drawn from all TX sources, ``0.5 i^H Bbar i``."""
    return float(_port_forms(model, exc.currents)[1])


def efficiency(scenario: Scenario, model: ImpedanceModel, schedule) -> float:
    """Delivered-to-drawn power ratio of a (possibly time-shared) schedule.

    ``schedule`` is a list of ``(Excitation, time_fraction)`` pairs whose
    fractions are nonnegative and sum to one.
    """
    fracs = np.array([tau for _, tau in schedule], dtype=float)
    if fracs.size == 0 or np.min(fracs) < -1e-12 or abs(fracs.sum() - 1.0) > 1e-9:
        raise ValueError("time fractions must be nonnegative and sum to 1")
    ev = evaluate_currents(scenario, model, np.stack([exc.currents for exc, _ in schedule], 1))
    p_in = float(ev.tx_power @ fracs)
    if p_in <= 0.0:
        raise EfficiencyUndefinedError("schedule draws zero transmit power")
    return float(ev.delivered.sum(axis=0) @ fracs) / p_in


def constraint_slacks(scenario: Scenario, model: ImpedanceModel, exc: Excitation) -> SlackReport:
    """Per-constraint slack of an excitation against the scenario limits."""
    return evaluate_currents(scenario, model, exc.currents[:, None]).slacks(scenario)

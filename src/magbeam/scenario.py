"""Scenario construction, JSON (de)serialization, and the bundled dataset.

Scenario files are JSON with explicit unit annotations; inductances may be
given in henries or microhenries and are converted to SI at parse time.
Missing peak limits default to 50*sqrt(2) V and 5*sqrt(2) A per TX.  The
bundled tabletop dataset lives only in ``data/table2.json``; its one- and
two-receiver variants are subsets of it.
"""

import hashlib
import json
import math
import sys
from dataclasses import replace
from importlib import resources

import numpy as np

from .circuit import LOAD_ONLY, Scenario, whole_number
from .errors import ScenarioError

_H_PER_UNIT = {"H": 1.0, "uH": 1e-6, "µH": 1e-6, "nH": 1e-9}
_RAD_PER_UNIT = {"rad/s": 1.0, "Hz": 2.0 * math.pi, "MHz": 2.0 * math.pi * 1e6}

DEFAULT_PEAK_VOLTAGE = 50.0 * math.sqrt(2.0)
DEFAULT_PEAK_CURRENT = 5.0 * math.sqrt(2.0)


def _get(doc, key, path, required=True, default=None):
    if key not in doc:
        if required:
            raise ScenarioError("missing required key", field=f"{path}{key}")
        return default
    return doc[key]


def _unit_block(doc, key, path, units):
    blk = _get(doc, key, path)
    if not isinstance(blk, dict) or "unit" not in blk or "values" not in blk:
        raise ScenarioError("expected an object with 'unit' and 'values'",
                            field=f"{path}{key}")
    unit = blk["unit"]
    if unit not in units:
        raise ScenarioError(f"unknown unit {unit!r} (allowed: {sorted(units)})",
                            field=f"{path}{key}.unit")
    try:
        return np.asarray(blk["values"], dtype=float) * units[unit]
    except (TypeError, ValueError) as exc:   # a ragged or non-numeric table
        raise ScenarioError(str(exc), field=f"{path}{key}.values") from exc


def scenario_from_dict(doc, path="") -> Scenario:
    """Validate and convert a parsed JSON document into a Scenario."""
    if not isinstance(doc, dict):
        raise ScenarioError("scenario document must be a JSON object", field=path or "$")
    n = whole_number(_get(doc, "n_tx", path), f"{path}n_tx")
    q = whole_number(_get(doc, "n_rx", path), f"{path}n_rx")
    freq = _get(doc, "frequency", path)
    if not isinstance(freq, dict) or "unit" not in freq or "value" not in freq:
        raise ScenarioError("expected an object with 'unit' and 'value'",
                            field=f"{path}frequency")
    if freq["unit"] not in _RAD_PER_UNIT:
        raise ScenarioError(f"unknown unit {freq['unit']!r}", field=f"{path}frequency.unit")
    omega = float(freq["value"]) * _RAD_PER_UNIT[freq["unit"]]

    mutual_tx_rx = _unit_block(doc, "mutual_tx_rx", path, _H_PER_UNIT)
    mutual_tx_tx = _unit_block(doc, "mutual_tx_tx", path, _H_PER_UNIT)
    # symmetrize against asymmetric row/column echoes in hand-typed tables
    if mutual_tx_tx.ndim == 2 and mutual_tx_tx.shape[0] == mutual_tx_tx.shape[1]:
        mutual_tx_tx = (mutual_tx_tx + mutual_tx_tx.T) / 2.0

    peak_v = _get(doc, "peak_voltage_v", path, required=False)
    peak_a = _get(doc, "peak_current_a", path, required=False)
    if peak_v is None:
        peak_v = [DEFAULT_PEAK_VOLTAGE] * n
    if peak_a is None:
        peak_a = [DEFAULT_PEAK_CURRENT] * n

    try:
        return Scenario(
            n_tx=n, n_rx=q, omega=omega,
            tx_resistance=np.asarray(_get(doc, "tx_resistance_ohm", path), dtype=float),
            rx_parasitic=np.asarray(_get(doc, "rx_parasitic_ohm", path), dtype=float),
            rx_load=np.asarray(_get(doc, "rx_load_ohm", path), dtype=float),
            mutual_tx_rx=mutual_tx_rx,
            mutual_tx_tx=mutual_tx_tx,
            total_power_cap=float(_get(doc, "total_power_cap_w", path)),
            peak_voltage=np.asarray(peak_v, dtype=float),
            peak_current=np.asarray(peak_a, dtype=float),
            load_accounting=_get(doc, "load_accounting", path,
                                 required=False, default=LOAD_ONLY),
            metadata=dict(_get(doc, "metadata", path, required=False, default={})),
        )
    except (TypeError, ValueError) as exc:
        raise ScenarioError(str(exc), field=path or "$") from exc


def scenario_to_dict(scenario: Scenario) -> dict:
    """Canonical SI-unit document; floats survive a JSON round trip exactly."""
    return {
        "n_tx": scenario.n_tx,
        "n_rx": scenario.n_rx,
        "frequency": {"unit": "rad/s", "value": scenario.omega},
        "tx_resistance_ohm": scenario.tx_resistance.tolist(),
        "rx_parasitic_ohm": scenario.rx_parasitic.tolist(),
        "rx_load_ohm": scenario.rx_load.tolist(),
        "mutual_tx_rx": {"unit": "H", "values": scenario.mutual_tx_rx.tolist()},
        "mutual_tx_tx": {"unit": "H", "values": scenario.mutual_tx_tx.tolist()},
        "total_power_cap_w": scenario.total_power_cap,
        "peak_voltage_v": scenario.peak_voltage.tolist(),
        "peak_current_a": scenario.peak_current.tolist(),
        "load_accounting": scenario.load_accounting,
        "metadata": scenario.metadata,
    }


def load_scenario(path) -> Scenario:
    """The scenario in a JSON file; an unreadable or invalid file raises ``ScenarioError``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"not valid JSON: {exc}", field=str(path)) from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"cannot read the file: {exc}", field=str(path)) from exc
    return scenario_from_dict(doc)


def write_json(doc, path=None):
    """``doc`` as indented, key-sorted JSON and a newline, in the file ``path``
    or, without one, on standard output: the one format of every JSON file
    the package writes."""
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def save_scenario(scenario: Scenario, path):
    write_json(scenario_to_dict(scenario), path)


def scenario_hash(scenario: Scenario) -> str:
    """Stable content hash used by run manifests and sweep summaries."""
    blob = json.dumps(scenario_to_dict(scenario), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def select_receivers(scenario: Scenario, indices) -> Scenario:
    """Restrict a scenario to a subset of its receivers (0-based indices)."""
    idx = list(indices)
    if any(not 0 <= i < scenario.n_rx for i in idx):
        raise ScenarioError(f"receiver indices out of range: {idx}", field="indices")
    return replace(scenario, n_rx=len(idx), rx_parasitic=scenario.rx_parasitic[idx],
                   rx_load=scenario.rx_load[idx], mutual_tx_rx=scenario.mutual_tx_rx[:, idx],
                   metadata=dict(scenario.metadata))


def table_scenario(rx_indices=None) -> Scenario:
    """The bundled tabletop deployment (``data/table2.json``): 5 TX, up to 4 RX.

    ``rx_indices`` restricts to a subset of receivers (e.g. ``[1]`` for the
    single-RX study, ``[0, 1]`` for the two-user power region).
    """
    full = load_scenario(bundled_scenario_path("table2"))
    return full if rx_indices is None else select_receivers(full, rx_indices)


def bundled_scenario_path(name: str):
    """Filesystem path of a bundled scenario JSON (table2, table2_miso, ...)."""
    res = resources.files("magbeam.data").joinpath(f"{name}.json")
    if not res.is_file():
        raise ScenarioError(f"no bundled scenario named {name!r}", field="name")
    return res

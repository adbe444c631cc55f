"""Scenario construction, JSON (de)serialization, and the bundled dataset.

Scenario files are JSON, each key read and written as the field table
``circuit._FIELDS`` says, with units converted to SI at parse time.  The
bundled tabletop dataset lives only in ``data/table2.json``; its one- and
two-receiver variants are subsets of it.
"""

import hashlib
import json
import sys
from dataclasses import replace
from importlib import resources

import numpy as np

from .circuit import _FIELDS, Scenario
from .errors import ScenarioError

_KEYS = {f.attr: f.key for f in _FIELDS}
# each top-level key and the key of its number(s) in a unit object ("" for none)
_SUB_KEYS = dict(f.key.partition(".")[::2] for f in _FIELDS)
_JSON_TYPE = {str: "a string", dict: "an object"}


def _numbers(value, name):
    """A JSON number or rectangular table of numbers as a float array; anything
    else, booleans and numeric strings included, raises ``ScenarioError``."""
    table = np.array(value, dtype=object)
    if set(map(type, table.flat)) <= {int, float}:
        try:
            return table.astype(float)
        except OverflowError:   # an integer beyond the float range
            pass
    raise ScenarioError("expected a number or a rectangular table of numbers", field=name)


def scenario_from_dict(doc, path="") -> Scenario:
    """Validate and convert a parsed JSON document into a Scenario; a malformed
    one raises ``ScenarioError`` naming its key, after ``path``."""
    if not isinstance(doc, dict):
        raise ScenarioError("scenario document must be a JSON object", field=path or "$")
    for key, value in doc.items():   # a misspelled key is named, not taken as missing
        if key not in _SUB_KEYS:
            raise ScenarioError("unknown key", field=f"{path}{key}")
        sub = _SUB_KEYS[key]
        for inner in value if sub and isinstance(value, dict) else ():
            if inner not in ("unit", sub):
                raise ScenarioError("unknown key", field=f"{path}{key}.{inner}")
    values = {}
    for f in _FIELDS:
        key, _, sub = f.key.partition(".")
        value, name = doc.get(key), path + key
        if key not in doc and f.default is None:
            raise ScenarioError("missing required key", field=name)
        if f.kind in _JSON_TYPE:
            value = doc.get(key, f.default)
            if not isinstance(value, f.kind):
                raise ScenarioError(f"expected {_JSON_TYPE[f.kind]}", field=name)
            value = f.kind(value)
        elif value is None and f.default is not None:
            # one entry per TX of the resistance table, so that an n_tx out of
            # line with the tables is refused by the constructor, not allocated
            value = np.full(values["tx_resistance"].shape[:1], f.default)
        elif f.kind is float:
            scale = 1.0
            if sub:
                if not (isinstance(value, dict) and "unit" in value and sub in value):
                    raise ScenarioError(f"expected an object with 'unit' and '{sub}'", field=name)
                unit = value["unit"]
                if not (isinstance(unit, str) and unit in f.units):
                    raise ScenarioError(f"unknown unit {unit!r} (allowed: {sorted(f.units)})",
                                        field=f"{name}.unit")
                value, scale = value[sub], f.units[unit]
            value = _numbers(value, path + f.key) * scale
        values[f.attr] = value   # a count goes as it is, for Scenario to check
    try:
        return Scenario(**values)
    except ScenarioError as exc:   # it names the attribute, a file names the key
        raise ScenarioError(exc.reason, field=path + _KEYS[exc.field]) from None


def scenario_to_dict(scenario: Scenario) -> dict:
    """Canonical SI-unit document; floats survive a JSON round trip exactly."""
    doc = {}
    for f in _FIELDS:
        value = getattr(scenario, f.attr)
        if isinstance(value, np.ndarray):
            value = value.tolist()
        key, _, sub = f.key.partition(".")
        if sub:   # in the SI unit, the first of the unit table
            value = {"unit": next(iter(f.units)), sub: value}
        doc[key] = value
    return doc


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

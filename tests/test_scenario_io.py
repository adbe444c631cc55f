import json
import math
import pathlib
import re
from dataclasses import replace

import numpy as np
import pytest

from magbeam.circuit import _FIELDS
from magbeam.errors import ScenarioError
from magbeam.scenario import (bundled_scenario_path, load_scenario,
                              save_scenario, scenario_from_dict, scenario_hash,
                              scenario_to_dict, select_receivers, table_scenario)


@pytest.fixture()
def doc():
    return {
        "n_tx": 2, "n_rx": 1,
        "frequency": {"unit": "rad/s", "value": 1.0e7},
        "tx_resistance_ohm": [10.0, 12.0],
        "rx_parasitic_ohm": [0.5],
        "rx_load_ohm": [10.0],
        "mutual_tx_rx": {"unit": "uH", "values": [[0.4], [0.2]]},
        "mutual_tx_tx": {"unit": "uH", "values": [[0.0, 1.5], [1.5, 0.0]]},
        "total_power_cap_w": 50.0,
    }


class TestLoad:
    def test_bundled_dataset(self):
        sc = load_scenario(bundled_scenario_path("table2"))
        assert sc.n_tx == 5 and sc.n_rx == 4
        assert sc.mutual_tx_tx[0, 4] == pytest.approx(6.5741e-6)
        assert sc.mutual_tx_rx[1, 1] == pytest.approx(0.5642e-6)
        assert sc.omega == pytest.approx(42.6e6)
        assert sc.metadata["self_inductance_uH"]["tx"] == 47700.0

    def test_peak_defaults(self, doc):
        sc = scenario_from_dict(doc)
        assert np.allclose(sc.peak_voltage, 50.0 * math.sqrt(2.0))
        assert np.allclose(sc.peak_current, 5.0 * math.sqrt(2.0))

    def test_unit_conversion(self, doc):
        sc = scenario_from_dict(doc)
        assert sc.mutual_tx_rx[0, 0] == pytest.approx(0.4e-6)
        doc_h = dict(doc)
        doc_h["mutual_tx_rx"] = {"unit": "H", "values": [[0.4e-6], [0.2e-6]]}
        assert scenario_from_dict(doc_h).mutual_tx_rx[0, 0] == pytest.approx(0.4e-6)

    def test_frequency_units(self, doc):
        doc_hz = dict(doc)
        doc_hz["frequency"] = {"unit": "MHz", "value": 6.78}
        sc = scenario_from_dict(doc_hz)
        assert sc.omega == pytest.approx(2 * math.pi * 6.78e6)

    def test_negative_resistance_rejected_with_path(self, doc):
        bad = dict(doc)
        bad["rx_load_ohm"] = [-10.0]
        with pytest.raises(ScenarioError, match="rx_load"):
            scenario_from_dict(bad)

    def test_missing_key_reported(self, doc):
        bad = {k: v for k, v in doc.items() if k != "tx_resistance_ohm"}
        with pytest.raises(ScenarioError, match="tx_resistance_ohm"):
            scenario_from_dict(bad)

    def test_unknown_unit_rejected(self, doc):
        bad = dict(doc)
        bad["mutual_tx_rx"] = {"unit": "mH", "values": [[0.4], [0.2]]}
        with pytest.raises(ScenarioError, match="unit"):
            scenario_from_dict(bad)

    def test_asymmetric_cross_table_rejected(self, doc):
        # a file's TX-TX table is judged by the constructor's reciprocity rule,
        # not averaged with its transpose first
        tweaked = dict(doc)
        tweaked["mutual_tx_tx"] = {"unit": "uH", "values": [[0.0, 1.5], [1.6, 0.0]]}
        with pytest.raises(ScenarioError, match=r"^mutual_tx_tx\.values: must be symmetric"):
            scenario_from_dict(tweaked)

    @pytest.mark.parametrize("values", [
        [[0.4, 0.2]],          # the 2 x 1 table transposed
        [0.4, 0.2],            # flat
        [[0.4], [0.2], [0.1]],
        [[0.4], [0.2, 0.1]],   # ragged
    ])
    def test_coupling_table_of_another_shape_rejected(self, doc, values):
        bad = dict(doc)
        bad["mutual_tx_rx"] = {"unit": "uH", "values": values}
        with pytest.raises(ScenarioError, match=r"^mutual_tx_rx(: expected shape \(2, 1\)|\.values)"):
            scenario_from_dict(bad)

    @pytest.mark.parametrize("key, value", [("n_tx", 2.7), ("n_rx", 1.5), ("n_tx", "2"),
                                            ("n_rx", None), ("n_tx", math.inf)])
    def test_count_that_is_not_whole_rejected(self, doc, key, value):
        # from a file, and on construction
        with pytest.raises(ScenarioError, match=f"{key}: expected a whole number"):
            scenario_from_dict({**doc, key: value})
        with pytest.raises(ScenarioError, match=f"{key}: expected a whole number"):
            replace(scenario_from_dict(doc), **{key: value})

    @pytest.mark.parametrize("key, value, named", [
        ("n_tx", 3, "n_tx"), ("n_tx", 1e20, "n_tx"), ("n_rx", 0, "n_rx"),
        ("rx_load_ohm", [10.0, 10.0], "rx_load_ohm"),
        ("tx_resistance_ohm", [10.0], "tx_resistance_ohm")])
    def test_shape_error_names_the_field_out_of_line(self, doc, key, value, named):
        # a count is named when every table it sizes contradicts it, a table
        # when the others agree with the count; the peaks are omitted here, so
        # their defaults are sized without allocating n_tx entries
        with pytest.raises(ScenarioError, match=f"^{named}: expected shape"):
            scenario_from_dict({**doc, key: value})

    def test_whole_float_count_loads(self, doc):
        assert scenario_from_dict({**doc, "n_tx": 2.0}).n_tx == 2

    @pytest.mark.parametrize("metadata", [[[1, 2]], "ab", None])
    def test_metadata_that_is_not_an_object_rejected(self, doc, metadata):
        with pytest.raises(ScenarioError, match="^metadata: expected an object"):
            scenario_from_dict({**doc, "metadata": metadata})

    def test_invalid_json_reported(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ScenarioError):
            load_scenario(path)

    @pytest.mark.parametrize("name", ["missing.json", ".", "latin1.json"])
    def test_unreadable_file_reported(self, tmp_path, name):
        (tmp_path / "latin1.json").write_bytes(b'{"name": "\xe9"}')
        with pytest.raises(ScenarioError, match="cannot read the file"):
            load_scenario(tmp_path / name)


class TestRoundTrip:
    def test_bit_identical(self, tmp_path):
        sc = table_scenario()
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        save_scenario(sc, first)
        reloaded = load_scenario(first)
        save_scenario(reloaded, second)
        assert first.read_text() == second.read_text()
        assert scenario_hash(sc) == scenario_hash(reloaded)
        assert np.array_equal(sc.mutual_tx_rx, reloaded.mutual_tx_rx)

    def test_hash_changes_with_content(self):
        a = table_scenario()
        b = table_scenario([0, 1])
        assert scenario_hash(a) != scenario_hash(b)

    def test_dict_is_si(self):
        doc = scenario_to_dict(table_scenario())
        assert doc["mutual_tx_rx"]["unit"] == "H"
        assert doc["frequency"]["unit"] == "rad/s"


class TestSelectReceivers:
    def test_subset(self):
        sc = table_scenario([1])
        assert sc.n_rx == 1
        assert sc.mutual_tx_rx[:, 0] == pytest.approx(
            np.array([0.04747, 0.5642, 0.01945, 0.01116, 0.1526]) * 1e-6)

    def test_out_of_range(self):
        with pytest.raises(ScenarioError):
            select_receivers(table_scenario(), [4])

    def test_bundled_variants_match_builder(self):
        for name, idx in [("table2_miso", [1]), ("table2_two_user", [0, 1])]:
            loaded = load_scenario(bundled_scenario_path(name))
            built = table_scenario(idx)
            assert scenario_hash(loaded) == scenario_hash(built)


_TABLE2 = bundled_scenario_path("table2").read_text()


def _mutation_paths():
    # every key of the bundled table, every key of its unit objects and the
    # first entry of every table, as a key path and the steps that reach it
    doc = json.loads(_TABLE2)
    for key, value in doc.items():
        if key == "metadata":
            continue
        yield key, (key,)
        if isinstance(value, list):
            yield key, (key, 0)
        for sub in value if isinstance(value, dict) else ():
            yield f"{key}.{sub}", (key, sub)
            if sub == "values":
                yield f"{key}.values", (key, sub, 0, 0)


_MUTANTS = ["abc", None, [], {}, True, -1, 0, 1e400, [[1, 2]], "1e400"]
# the only mutations that leave a valid file: an omitted peak table takes its
# default, and a TX-RX coupling may be negative or zero
_LOADS = [("peak_voltage_v", (), None), ("peak_current_a", (), None),
          ("mutual_tx_rx.values", (0, 0), -1), ("mutual_tx_rx.values", (0, 0), 0),
          ("mutual_tx_tx.values", (0, 0), 0)]   # no change: the diagonal is 0


@pytest.mark.parametrize("key_path, steps", list(_mutation_paths()),
                         ids=lambda p: p if isinstance(p, str) else "/".join(map(str, p)))
def test_mutation_loads_or_is_refused_by_its_key(key_path, steps):
    entry = tuple(s for s in steps if isinstance(s, int))
    wrong = []
    for value in _MUTANTS:
        doc = json.loads(_TABLE2)
        parent = doc
        for step in steps[:-1]:
            parent = parent[step]
        parent[steps[-1]] = value
        try:
            scenario_from_dict(doc)
        except ScenarioError as exc:
            if not exc.field.startswith(key_path):
                wrong.append(f"{value!r}: {exc}")
        else:
            if (key_path, entry, value) not in _LOADS or type(value) is bool:
                wrong.append(f"{value!r}: loads")
    if not entry:
        # the key misspelled, its last letter dropped: refused by the new name
        doc = json.loads(_TABLE2)
        parent = doc
        for step in steps[:-1]:
            parent = parent[step]
        parent[steps[-1][:-1]] = parent.pop(steps[-1])
        try:
            scenario_from_dict(doc)
            wrong.append("misspelled key: loads")
        except ScenarioError as exc:
            if exc.field != key_path[:-1]:
                wrong.append(f"misspelled key: {exc}")
    assert not wrong


def test_readme_schema_lists_every_field():
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Scenario JSON schema\n\n```jsonc\n(.*?)```", readme, re.S).group(1)
    assert re.findall(r'^  "(\w+)":', block, re.M) == [f.key.partition(".")[0] for f in _FIELDS]

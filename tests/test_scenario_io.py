import json
import math
from dataclasses import replace

import numpy as np
import pytest

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

    def test_asymmetric_cross_table_symmetrized(self, doc):
        tweaked = dict(doc)
        tweaked["mutual_tx_tx"] = {"unit": "uH", "values": [[0.0, 1.5], [1.6, 0.0]]}
        sc = scenario_from_dict(tweaked)
        assert sc.mutual_tx_tx[0, 1] == pytest.approx(1.55e-6)

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

    def test_whole_float_count_loads(self, doc):
        assert scenario_from_dict({**doc, "n_tx": 2.0}).n_tx == 2

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

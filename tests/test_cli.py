import csv
import json

import numpy as np
import pytest

from magbeam.cli import main
from magbeam.scenario import bundled_scenario_path, save_scenario, table_scenario

MISO = str(bundled_scenario_path("table2_miso"))
TWO_USER = str(bundled_scenario_path("table2_two_user"))
TABLE = str(bundled_scenario_path("table2"))


class TestBeamform:
    def test_maximize_miso(self, tmp_path, capsys):
        out = tmp_path / "result.json"
        code = main(["beamform", MISO, "--maximize", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["maximized_power_w"] == pytest.approx(58.1, rel=0.01)
        assert doc["solution"]["method"] == "sdr_rank1"
        manifest = json.loads((tmp_path / "result.json.manifest.json").read_text())
        assert manifest["command"] == "beamform"
        assert len(manifest["scenario_sha256"]) == 64

    def test_zero_target(self, capsys):
        code = main(["beamform", MISO, "--alpha", "1", "--target-power", "0"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["solution"]["achieved_sum_power_w"] == 0.0

    def test_flag_conflict_is_usage_error(self, capsys):
        assert main(["beamform", MISO]) == 64
        assert main(["beamform", MISO, "--maximize", "--target-power", "2"]) == 64

    def test_infeasible_target(self, capsys):
        assert main(["beamform", MISO, "--target-power", "70"]) == 2

    def test_randomization_deterministic(self, tmp_path):
        args = ["beamform", TABLE, "--alpha", "0.25,0.25,0.25,0.25",
                "--target-power", "2", "--method", "randomization", "--seed", "7"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(args + ["--out", str(a), "--no-manifest"]) == 0
        assert main(args + ["--out", str(b), "--no-manifest"]) == 0
        assert a.read_text() == b.read_text()

    def test_benchmark_method(self, capsys):
        code = main(["beamform", MISO, "--method", "benchmark", "--maximize"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["solution"]["achieved_sum_power_w"] == pytest.approx(0.2056,
                                                                        abs=0.002)

    def test_alpha_required_for_multi_rx(self):
        assert main(["beamform", TWO_USER, "--maximize"]) == 64

    def test_reference_suite_runs(self, capsys):
        assert main(["beamform", "--reference-suite"]) == 0
        out = capsys.readouterr().out
        assert "maximized delivery" in out


class TestReferenceSuites:
    def test_region(self, capsys):
        assert main(["region", "--reference-suite"]) == 0
        assert "corner powers" in capsys.readouterr().out

    def test_estimate(self, capsys):
        assert main(["estimate", "--reference-suite"]) == 0
        assert "normalized MSE" in capsys.readouterr().out

    def test_validate(self, capsys):
        assert main(["validate", "--reference-suite"]) == 0
        out = capsys.readouterr().out
        assert out.count("--- ") == 3 and "[FAIL]" not in out


class TestRegion:
    def test_grid_two_rows(self, tmp_path):
        out = tmp_path / "region.csv"
        code = main(["region", TWO_USER, "--grid", "2", "--eps", "0.2",
                     "--out", str(out)])
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        summary = json.loads((tmp_path / "region.csv.summary.json").read_text())
        assert summary["n_points"] == 3

    def test_baseline_rows(self, tmp_path):
        out = tmp_path / "region.csv"
        code = main(["region", TWO_USER, "--grid", "2", "--eps", "0.2",
                     "--baseline", "--out", str(out)])
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        schemes = {r["scheme"] for r in rows}
        assert schemes == {"beamforming", "baseline"}
        assert len(rows) == 6

    def test_csv_numbers_parse_as_float(self, tmp_path):
        out = tmp_path / "region.csv"
        code = main(["region", TWO_USER, "--grid", "2", "--baseline",
                     "--out", str(out)])
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        numeric = [k for k in rows[0] if k not in ("scheme", "method")]
        for row in rows:
            for key in numeric:
                float(row[key])

    def test_q_mismatch_usage_error(self, tmp_path):
        out = tmp_path / "region.csv"
        assert main(["region", TABLE, "--out", str(out)]) == 64

    def test_explicit_alpha_for_four_users(self, tmp_path):
        out = tmp_path / "r4.csv"
        code = main(["region", TABLE, "--alpha", "0.25,0.25,0.25,0.25",
                     "--eps", "0.5", "--out", str(out)])
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1


class TestEstimate:
    def test_ls_run_and_manifest(self, tmp_path):
        out = tmp_path / "mse.csv"
        code = main(["estimate", TABLE, "--estimator", "ls", "--slots", "10",
                     "--snr-list", "30", "--trials", "2000", "--out", str(out)])
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert float(rows[0]["mse"]) == pytest.approx(2.8e-4, rel=0.5)
        manifest = json.loads((tmp_path / "mse.csv.manifest.json").read_text())
        assert manifest["options"]["trials"] == 2000

    def test_perfect_inf_snr(self, tmp_path):
        out = tmp_path / "mse.csv"
        code = main(["estimate", TABLE, "--estimator", "perfect",
                     "--snr-list", "inf", "--slots", "4", "--out", str(out)])
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert float(rows[0]["mse"]) <= 1e-18

    def test_pairwise_slots(self, tmp_path):
        out = tmp_path / "mse.csv"
        code = main(["estimate", TABLE, "--estimator", "pairwise",
                     "--snr-list", "30", "--trials", "500", "--slots", "20",
                     "--out", str(out)])
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["n_slots"] == "20"

    def test_too_few_slots_usage_error(self, tmp_path):
        out = tmp_path / "mse.csv"
        assert main(["estimate", TABLE, "--slots", "3", "--out", str(out)]) == 64

    def test_determinism(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["estimate", TABLE, "--slots", "10", "--snr-list", "20,30",
                "--trials", "3000", "--seed", "11", "--no-manifest"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_text() == b.read_text()


class TestValidate:
    def test_bundled_passes(self, capsys):
        assert main(["validate", TABLE]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out and "[FAIL]" not in out

    def test_nontriviality_violation_fails(self, tmp_path, capsys):
        sc = table_scenario()
        doc_path = tmp_path / "bad.json"
        save_scenario(sc, doc_path)
        doc = json.loads(doc_path.read_text())
        doc["total_power_cap_w"] = 1e9
        doc_path.write_text(json.dumps(doc))
        assert main(["validate", str(doc_path)]) == 1
        assert "total_power_cap" in capsys.readouterr().out

    def test_asymmetric_coupling_fails(self, tmp_path, capsys):
        sc = table_scenario()
        doc_path = tmp_path / "bad.json"
        save_scenario(sc, doc_path)
        doc = json.loads(doc_path.read_text())
        doc["mutual_tx_rx"]["values"][0][0] = float("nan")
        doc_path.write_text(json.dumps(doc))
        assert main(["validate", str(doc_path)]) == 1

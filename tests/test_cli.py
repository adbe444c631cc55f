import csv
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from magbeam import beamforming, cli, estimation, region
from magbeam.circuit import (Excitation, build_impedance, constraint_slacks,
                             delivered_powers, tx_total_power)
from magbeam.cli import main
from magbeam.conic import ConicSolution, kernel
from magbeam.scenario import (bundled_scenario_path, load_scenario, save_scenario,
                              table_scenario)

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

    @pytest.mark.parametrize("alpha, target", [("0.25,0.25,0.25,0.25", "12"),
                                               ("0.25,0.25,0.25,0.25", "23.65"),
                                               ("0.1,0.1,0.7,0.1", "12")])
    def test_target_met_by_a_rounding(self, alpha, target, tmp_path):
        # P0 delivers 39.41 W and 18.95 W at these shares; the P1 relaxation
        # has no exact realization here, and the written schedule keeps every
        # limit and meets every share
        out = tmp_path / "result.json"
        assert main(["beamform", TABLE, "--alpha", alpha, "--target-power", target,
                     "--out", str(out), "--no-manifest"]) == 0
        sc = load_scenario(TABLE)
        model = build_impedance(sc)
        per_rx, tx_power = 0.0, 0.0
        for slot in json.loads(out.read_text())["solution"]["slots"]:
            exc = Excitation(np.array(slot["currents_re"]) + 1j * np.array(slot["currents_im"]))
            rep = constraint_slacks(sc, model, exc)
            assert min(rep.voltage_slack.min(), rep.current_slack.min()) >= -1e-6
            per_rx = per_rx + slot["time_fraction"] * delivered_powers(sc, model, exc)
            tx_power += slot["time_fraction"] * tx_total_power(model, exc)
        assert tx_power <= sc.total_power_cap + 1e-6
        shares = np.array(alpha.split(","), dtype=float) * float(target)
        assert np.all(per_rx >= shares * (1 - 1e-5))

    def test_target_over_the_cap_is_infeasible(self, capsys):
        # no peak limit binds, but the schedule would draw about 240 W from
        # the 100 W cap; the identical-current baseline is refused alike
        args = ["beamform", TWO_USER, "--alpha", "0.5,0.5", "--target-power", "200",
                "--no-peaks"]
        assert main(args) == 2
        assert main(args + ["--method", "benchmark"]) == 2
        assert capsys.readouterr().out == ""

    def test_closed_form_over_the_cap_is_infeasible(self, capsys):
        # 200 W through the closed-form direction would draw 258.5 W of 100 W
        args = ["beamform", MISO, "--no-peaks", "--method", "closed_form",
                "--target-power", "200"]
        assert main(args) == 2
        assert capsys.readouterr().out == ""

    def test_closed_form_within_the_cap(self, capsys):
        code = main(["beamform", MISO, "--no-peaks", "--method", "closed_form",
                     "--target-power", "50", "--no-manifest"])
        assert code == 0
        sol = json.loads(capsys.readouterr().out)["solution"]
        assert sol["method"] == "closed_form"
        assert sol["achieved_sum_power_w"] == pytest.approx(50.0, rel=1e-12)
        assert sol["tx_power_w"] == pytest.approx(64.62175201777313, rel=1e-12)
        assert sol["slots"][0]["currents_re"] == pytest.approx(
            [0.10781909579816687, 1.281473222020766, 0.04417698363754678,
             0.025347821974037125, 0.3466019384621922], rel=1e-12)

    @pytest.mark.parametrize("goal", [["--maximize"], ["--target-power", "1"]],
                             ids=["maximize", "target"])
    @pytest.mark.parametrize("scenario", [
        [MISO],
        [TWO_USER, "--alpha", "0.5,0.5", "--no-peaks"],
    ], ids=["peaks-on", "two-rx"])
    def test_closed_form_outside_its_case_is_usage_error(self, scenario, goal, capsys):
        # the closed form is the single-RX optimum without peak limits
        argv = ["beamform", *scenario, "--method", "closed_form", *goal]
        assert main(argv) == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "closed_form" in captured.err

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

    def test_rank_bound_failure_exits_70(self, monkeypatch, capsys):
        # a relaxed rank above the provable bound is a numerical failure,
        # reported with its exit code rather than as a traceback
        monkeypatch.setattr(beamforming, "numerical_rank",
                            lambda evals, rel_tol=1e-6: 5)
        code = main(["beamform", TABLE, "--alpha", "0.25,0.25,0.25,0.25",
                     "--target-power", "2"])
        assert code == 70
        assert "provable bound" in capsys.readouterr().err


def _exit_code(argv):
    """``main``'s return code, or the code of the exit argparse makes."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("argv", [
    ["beamform", TWO_USER, "--alpha", "nan,1", "--maximize"],
    ["beamform", TWO_USER, "--alpha", "inf,1", "--maximize"],
    ["beamform", MISO, "--target-power", "nan"],
    ["beamform", MISO, "--target-power", "inf"],
    ["region", TWO_USER, "--alpha", "nan,1", "--out", "unused.csv"],
    ["region", TABLE, "--alpha", "0.5,0.5", "--out", "unused.csv"],
    ["beamform", TABLE, "--alpha", "0.25,0.25,0.25,0.25", "--target-power", "-1"],
    ["estimate", TABLE, "--snr-list", "nan", "--out", "unused.csv"],
    ["estimate", TABLE, "--snr-list", "30,nan", "--estimator", "pairwise",
     "--out", "unused.csv"],
    ["estimate", TABLE, "--snr-list", "30,x", "--out", "unused.csv"],
    ["estimate", TABLE, "--voltage", "nan", "--out", "unused.csv"],
    ["estimate", TABLE, "--voltage", "inf", "--out", "unused.csv"],
    ["estimate", TABLE, "--trials", "0", "--out", "unused.csv"],
    ["region", TWO_USER, "--grid", "0", "--out", "unused.csv"],
    ["region", TWO_USER, "--grid", "40", "--draws", "0", "--out", "unused.csv"],
    ["beamform", TABLE, "--alpha", "0.25,0.25,0.25,0.25", "--target-power", "2",
     "--method", "randomization", "--draws", "0"],
    # block training at T = 7 is not a multiple of N = 5
    ["estimate", TABLE, "--slots", "7", "--out", "unused.csv"],
], ids=["alpha-nan", "alpha-inf", "target-nan", "target-inf", "region-alpha-nan",
        "region-alpha-length", "target-negative", "snr-nan-ls", "snr-nan-pairwise",
        "snr-unparsable", "voltage-nan", "voltage-inf", "trials-zero", "grid-zero", "region-draws-zero",
        "beamform-draws-zero", "slots-not-multiple-of-n"])
def test_bad_number_is_usage_error(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert _exit_code(argv) == 64
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["estimate", TABLE, "--seed", "-1", "--out", "unused.csv"],
    ["region", TWO_USER, "--seed", "-1", "--out", "unused.csv"],
    ["beamform", TABLE, "--alpha", "0.25,0.25,0.25,0.25", "--target-power", "2",
     "--method", "randomization", "--seed", "-1"],
], ids=["estimate", "region", "beamform"])
def test_negative_seed_is_usage_error(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert _exit_code(argv) == 64
    assert "non-negative integer" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("estimator", ["ls", "pairwise", "perfect"])
def test_out_of_range_snr(estimator, tmp_path, monkeypatch, capsys):
    # a linear SNR above the float range leaves no noise; a noise variance
    # beyond it is a usage error, with nothing written
    monkeypatch.chdir(tmp_path)
    assert main(["estimate", TABLE, "--estimator", estimator, "--snr-list", "4000,1e308",
                 "--trials", "10", "--out", "mse.csv", "--no-manifest"]) == 0
    with open("mse.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [float(r["snr_db"]) for r in rows] == [4000.0, 1e308]
    assert all(float(r["mse"]) <= 1e-18 for r in rows)
    for snr in ("-4000", "-inf"):
        assert _exit_code(["estimate", TABLE, "--estimator", estimator,
                           f"--snr-list=30,{snr}", "--trials", "10", "--out", "bad.csv"]) == 64
        assert "float range" in capsys.readouterr().err
        assert not (tmp_path / "bad.csv").exists()


@pytest.mark.parametrize("estimator", ["ls", "pairwise"])
def test_out_of_range_snr_solves_no_row(estimator, tmp_path, monkeypatch, capsys):
    # every row's noise variance is checked before the first row's estimates
    monkeypatch.chdir(tmp_path)
    name = "_ls_estimates" if estimator == "ls" else "_pairwise_estimates"
    calls = []
    solve = getattr(estimation, name)
    monkeypatch.setattr(estimation, name, lambda *args: calls.append(1) or solve(*args))
    assert _exit_code(["estimate", TABLE, "--estimator", estimator,
                       "--snr-list=20,30,-4000", "--out", "bad.csv"]) == 64
    assert "float range" in capsys.readouterr().err
    assert calls == []
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["estimate", TABLE, "--trials", "1000000000000", "--out", "mse.csv"],
    ["beamform", TABLE, "--alpha", "0.25,0.25,0.25,0.25", "--target-power", "12",
     "--draws", "1000000000000"],
], ids=["estimate-trials", "beamform-draws"])
def test_run_beyond_memory_is_usage_error(argv, tmp_path, monkeypatch, capsys):
    # the squared errors of 1e12 trials and the normals of 1e12 draws: the
    # allocations are patched to refuse any array of more than 1e9 entries
    # as NumPy refuses one it cannot hold, so nothing that large is asked for
    def refusing(allocate):
        def allocation(shape, *args, **kwargs):
            if math.prod(np.atleast_1d(shape)) > 10 ** 9:
                raise MemoryError(f"Unable to allocate an array with shape {shape}")
            return allocate(shape, *args, **kwargs)
        return allocation

    rng = np.random.default_rng

    class Rng:
        def __init__(self, seed):
            self._rng = rng(seed)
            self.standard_normal = refusing(self._rng.standard_normal)

    monkeypatch.setattr(np, "empty", refusing(np.empty))
    monkeypatch.setattr(np.random, "default_rng", Rng)
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 64
    assert capsys.readouterr().err.startswith(
        "magbeam: usage error: not enough memory for this run (Unable to allocate")
    assert list(tmp_path.iterdir()) == []


def test_back_to_back_calls_parse_independently(tmp_path, capsys):
    # ``region --alpha`` appends; no call may see an earlier call's list
    def region_rows(*extra):
        out = tmp_path / "region.csv"
        assert main(["region", TWO_USER, "--no-peaks", "--grid", "2", *extra,
                     "--out", str(out), "--no-manifest"]) == 0
        with open(out, newline="") as fh:
            return list(csv.DictReader(fh))

    first = region_rows("--alpha", "0.25,0.75")
    assert main(["validate", TWO_USER]) == 0
    second = region_rows("--alpha", "0.5,0.5")
    grid = region_rows()
    assert len(first) == len(second) == 1
    assert float(first[0]["alpha_1"]) == 0.25 and float(second[0]["alpha_1"]) == 0.5
    assert len(grid) == 3


class TestRegion:
    def test_grid_two_rows(self, tmp_path):
        out = tmp_path / "region.csv"
        code = main(["region", TWO_USER, "--grid", "2",
                     "--out", str(out)])
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        summary = json.loads((tmp_path / "region.csv.summary.json").read_text())
        assert summary["n_points"] == 3

    def test_baseline_rows(self, tmp_path):
        out = tmp_path / "region.csv"
        code = main(["region", TWO_USER, "--grid", "2",
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
        numeric = [k for k in rows[0] if k not in ("scheme", "method", "relax_status")]
        for row in rows:
            for key in numeric:
                float(row[key])

    def test_q_mismatch_usage_error(self, tmp_path):
        out = tmp_path / "region.csv"
        assert main(["region", TABLE, "--out", str(out)]) == 64

    def test_explicit_alpha_for_four_users(self, tmp_path):
        out = tmp_path / "r4.csv"
        code = main(["region", TABLE, "--alpha", "0.25,0.25,0.25,0.25",
                     "--out", str(out)])
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
        # one noiseless estimate, whatever --trials asks for
        assert rows[0]["trials"] == "1" and float(rows[0]["stderr"]) == 0.0

    @pytest.mark.parametrize("estimator", ["ls", "pairwise"])
    def test_noisy_estimators_inf_snr(self, tmp_path, estimator):
        # every trial at an infinite SNR is the same noiseless estimate, so
        # the row is one; a finite-SNR row next to it keeps its trials
        out = tmp_path / "mse.csv"
        code = main(["estimate", TABLE, "--estimator", estimator, "--slots", "10",
                     "--snr-list", "inf,30", "--trials", "500", "--out", str(out)])
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert float(rows[0]["mse"]) <= 1e-18
        assert rows[0]["trials"] == "1" and float(rows[0]["stderr"]) == 0.0
        assert rows[1]["trials"] == "500" and float(rows[1]["stderr"]) > 0.0

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

    @pytest.mark.parametrize("estimator", ["ls", "pairwise", "perfect"])
    def test_no_receivers_usage_error(self, tmp_path, capsys, estimator):
        path = tmp_path / "no_rx.json"
        save_scenario(table_scenario([]), path)
        out = tmp_path / "mse.csv"
        assert main(["estimate", str(path), "--estimator", estimator, "--slots", "5",
                     "--out", str(out)]) == 64
        assert "no receivers" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("estimator", ["ls", "pairwise", "perfect"])
    def test_zero_voltage_usage_error(self, tmp_path, capsys, estimator):
        out = tmp_path / "mse.csv"
        assert main(["estimate", TABLE, "--estimator", estimator, "--voltage", "0",
                     "--trials", "100", "--out", str(out)]) == 64
        assert "training voltage" in capsys.readouterr().err
        assert not out.exists()

    def test_determinism(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["estimate", TABLE, "--slots", "10", "--snr-list", "20,30",
                "--trials", "3000", "--seed", "11", "--no-manifest"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_text() == b.read_text()


@pytest.mark.parametrize("argv", [
    ["beamform", "{path}", "--maximize"],
    ["region", "{path}", "--out", "unused.csv"],
    ["estimate", "{path}", "--out", "unused.csv"],
], ids=["beamform", "region", "estimate"])
@pytest.mark.parametrize("name", ["missing.json", "."], ids=["missing", "directory"])
def test_unreadable_scenario_is_usage_error(argv, name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    path = str(tmp_path / name)
    assert main([a.format(path=path) for a in argv]) == 64
    assert "cannot read the file" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


class TestValidate:
    @pytest.mark.parametrize("name", ["missing.json", "."], ids=["missing", "directory"])
    def test_unreadable_file_fails(self, tmp_path, capsys, name):
        assert main(["validate", str(tmp_path / name)]) == 1
        assert "[FAIL] schema and physical invariants" in capsys.readouterr().out

    @pytest.mark.parametrize("name", ["table2", "table2_miso", "table2_two_user"])
    def test_bundled_passes(self, name, capsys):
        assert main(["validate", str(bundled_scenario_path(name))]) == 0
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

    @staticmethod
    def _validate_with_column(tmp_path, capsys, rx, column):
        # the table deployment with receiver ``rx``'s TX couplings set to ``column``
        sc = table_scenario()
        mutual = sc.mutual_tx_rx.copy()
        mutual[:, rx] = column
        save_scenario(replace(sc, mutual_tx_rx=mutual), tmp_path / "edited.json")
        code = main(["validate", str(tmp_path / "edited.json")])
        return code, capsys.readouterr().out.splitlines()

    def test_uncoupled_receiver_fails(self, tmp_path, capsys):
        code, lines = self._validate_with_column(tmp_path, capsys, 1, 0.0)
        assert code == 1
        assert "[FAIL] every receiver coupled to a TX (RX 2 is not)" in lines

    def test_unidentifiable_coupling_fails(self, tmp_path, capsys):
        # RX 3 couples to every TX as RX 1 does: loadable and coupled, but no
        # training tells the two columns apart
        code, lines = self._validate_with_column(tmp_path, capsys, 2,
                                                 table_scenario().mutual_tx_rx[:, 0])
        assert code == 1
        assert "[PASS] every receiver coupled to a TX" in lines
        assert ("[FAIL] LS training identifies the coupling matrix (block training, "
                "5 noiseless slots: feedback Gram matrix is rank deficient)") in lines


class TestHookPoints:
    """Library names that outside tools patch to time and probe a CLI run."""

    def test_sweep_calls_boundary_point_per_profile(self, tmp_path, monkeypatch):
        # an op clock on ``magbeam.region.boundary_point`` sees one call per
        # profile of the sweep
        calls = []
        point = region.boundary_point

        def clocked(*args, **kwargs):
            calls.append(args[1])
            return point(*args, **kwargs)

        monkeypatch.setattr(region, "boundary_point", clocked)
        assert main(["region", TWO_USER, "--grid", "2", "--no-peaks",
                     "--out", str(tmp_path / "region.csv")]) == 0
        assert sorted(float(p.alpha[0]) for p in calls) == [0.0, 0.5, 1.0]

    def test_target_power_solution_carries_its_relaxation(self, monkeypatch, capsys):
        # ``beamform --target-power`` solves through ``cli.solve_p1``, whose
        # solution carries the optimal P1 relaxation that it realized
        solutions = []
        solve = cli.solve_p1

        def probe(*args, **kwargs):
            solutions.append(solve(*args, **kwargs))
            return solutions[-1]

        monkeypatch.setattr(cli, "solve_p1", probe)
        assert main(["beamform", TABLE, "--alpha", "0.25,0.25,0.25,0.25",
                     "--target-power", "2"]) == 0
        (sol,) = solutions
        conic, _ = beamforming.solve_relaxation(load_scenario(TABLE),
                                                beamforming.PowerProfile.uniform(4), 2.0)
        assert isinstance(sol.relaxation, ConicSolution) and sol.relaxation.is_optimal
        assert (sol.relaxation.value, sol.relaxation.iterations) == \
            (conic.value, conic.iterations)
        np.testing.assert_array_equal(sol.relaxation.x, conic.x)

    def test_region_calls_kernel_with_c_psd_and_b(self, tmp_path, monkeypatch):
        # a kernel span reads the PSD block from the keyword ``c_psd`` (n x n)
        # and the row count from the keyword ``b``; at each point of the
        # two-user sweep the relaxation has 2 delivery rows, the cap and 10
        # peak rows on a 5 x 5 block
        calls = []
        solve = kernel.solve_mixed_cone

        def spy(*args, **kwargs):
            calls.append((args, kwargs))
            return solve(*args, **kwargs)

        monkeypatch.setattr(kernel, "solve_mixed_cone", spy)
        assert main(["region", TWO_USER, "--grid", "2",
                     "--out", str(tmp_path / "region.csv")]) == 0
        assert calls and all(args == () for args, _ in calls)
        for _, kwargs in calls:
            n = kwargs["c_psd"].shape[0]
            assert kwargs["c_psd"].shape == (n, n) and kwargs["b"].ndim == 1
        relaxations = [kw for _, kw in calls if kw["c_psd"].shape == (5, 5)]
        assert len(relaxations) >= 3
        assert all(kw["b"].shape == (13,) for kw in relaxations)

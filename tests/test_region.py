import csv

import numpy as np
import pytest

from magbeam import beamforming
from magbeam.beamforming import PowerProfile, SolveOptions, solve_p0
from magbeam.circuit import build_impedance
from magbeam.conic import kernel, problems
from magbeam.region import (RegionSweep, boundary_point,
                            sweep_region, two_user_profiles, write_region_csv,
                            write_sweep_summary)
from magbeam.scenario import table_scenario

NO_PEAKS = SolveOptions(use_peak_constraints=False)


@pytest.fixture(scope="module")
def small_sweep(tabletop_two_user):
    return sweep_region(tabletop_two_user, grid_size=4, baseline=True)


class TestBoundaryPoint:
    def test_corner_unconstrained(self, tabletop_two_user):
        point = boundary_point(tabletop_two_user, [0.0, 1.0], options=NO_PEAKS)
        assert point.p_star == pytest.approx(77.5, rel=0.03)
        assert point.per_rx[1] == pytest.approx(point.p_star, rel=1e-3)

    def test_corner_constrained(self, tabletop_two_user):
        point = boundary_point(tabletop_two_user, [0.0, 1.0])
        assert point.p_star == pytest.approx(57.5, rel=0.03)

    def test_options_switch_off_peaks(self, tabletop_two_user):
        profile = PowerProfile([0.3, 0.7])
        point = boundary_point(tabletop_two_user, profile, options=NO_PEAKS)
        free, _ = solve_p0(tabletop_two_user, profile, options=NO_PEAKS)
        assert point.p_star == free
        assert not point.constrained

    def test_uncoupled_receiver_gives_origin(self, tabletop_two_user):
        stripped = table_scenario([0, 1])
        mutual = stripped.mutual_tx_rx.copy()
        mutual[:, 0] = 0.0
        from magbeam.circuit import Scenario
        sc = Scenario(n_tx=5, n_rx=2, omega=stripped.omega,
                      tx_resistance=stripped.tx_resistance,
                      rx_parasitic=stripped.rx_parasitic, rx_load=stripped.rx_load,
                      mutual_tx_rx=mutual, mutual_tx_tx=stripped.mutual_tx_tx,
                      total_power_cap=100.0, peak_voltage=stripped.peak_voltage,
                      peak_current=stripped.peak_current)
        point = boundary_point(sc, [1.0, 0.0])
        assert point.p_star == 0.0


class TestSweep:
    def test_grid_definition(self):
        profiles = two_user_profiles(2)
        assert len(profiles) == 3
        assert [p.alpha[0] for p in profiles] == pytest.approx([0.0, 0.5, 1.0])

    def test_sweep_points_and_order(self, small_sweep):
        assert len(small_sweep.points) == 5
        firsts = [p.alpha.alpha[0] for p in small_sweep.points]
        assert firsts == sorted(firsts)
        assert len(small_sweep.baseline_points) == 5

    def test_tradeoff_monotonicity(self, small_sweep):
        p1 = [p.per_rx[0] for p in small_sweep.points]
        p2 = [p.per_rx[1] for p in small_sweep.points]
        tol = 0.2  # rounding shortfall plus incidental-delivery wiggle
        assert all(b >= a - tol for a, b in zip(p1, p1[1:]))
        assert all(b <= a + tol for a, b in zip(p2, p2[1:]))

    def test_peaks_never_increase_power(self, tabletop_two_user):
        for alpha in ([0.3, 0.7], [0.8, 0.2]):
            free = boundary_point(tabletop_two_user, alpha, options=NO_PEAKS)
            capped = boundary_point(tabletop_two_user, alpha)
            assert capped.p_star <= free.p_star + 0.2

    def test_beamforming_dominates_baseline(self, small_sweep):
        for point, base in zip(small_sweep.points, small_sweep.baseline_points):
            assert point.p_star >= base.p_star - 1e-6

    def test_convexity_spot_check(self, tabletop_two_user, small_sweep):
        # the midpoint of two adjacent boundary tuples is achievable by
        # time-sharing them, so the boundary point along its own direction
        # must dominate it (region convexity)
        for a, b in zip(small_sweep.points, small_sweep.points[1:]):
            mid = (a.per_rx + b.per_rx) / 2.0
            if mid.sum() <= 0:
                continue
            probe = boundary_point(tabletop_two_user, mid / mid.sum())
            tol = 0.15 + 0.01 * mid
            assert np.all(probe.per_rx >= mid - tol)

    def test_four_user_explicit_profile(self, tabletop):
        prof = PowerProfile.normalized([0.1227, 0.03615, 0.7836, 0.05752])
        sweep = sweep_region(tabletop, alphas=[prof])
        assert len(sweep.points) == 1
        assert sweep.points[0].p_star > 5.0

    def test_grid_requires_two_users(self, tabletop):
        with pytest.raises(ValueError):
            sweep_region(tabletop, grid_size=4)


class TestWarmStartedSweep:
    """A sweep chains its relaxations; each point must keep its cold answer."""

    @staticmethod
    def _kernel_results(monkeypatch):
        results = []
        solve = kernel.solve_mixed_cone

        def spy(*args, **kwargs):
            res = solve(*args, **kwargs)
            results.append(res)
            return res

        monkeypatch.setattr(kernel, "solve_mixed_cone", spy)
        return results

    @pytest.mark.parametrize("use_peaks", [True, False], ids=["peaks", "no_peaks"])
    def test_grid_matches_cold_points(self, tabletop_two_user, use_peaks, monkeypatch):
        sc = tabletop_two_user
        options = SolveOptions(use_peak_constraints=use_peaks)
        results = self._kernel_results(monkeypatch)
        sweep = sweep_region(sc, grid_size=40, options=options)
        warm_kernel = sum(r.iterations for r in results)
        results.clear()
        model = build_impedance(sc)
        cold = [solve_p0(sc, p.alpha, options, model) for p in sweep.points]
        cold_kernel = sum(r.iterations for r in results)
        # alpha_1 = 0.55, 0.575 and 0.6 round with peaks (rank-penalty floors)
        floors = {22: 73.94, 23: 73.41, 24: 72.83} if use_peaks else {}
        for k, (point, (cold_p, cold_sol)) in enumerate(zip(sweep.points, cold)):
            assert point.relaxation.is_optimal
            assert (point.solution_method, point.sdr_rank) == \
                (cold_sol.method, cold_sol.sdr_rank)
            assert point.p_star == pytest.approx(cold_p, rel=2e-6)
            assert point.p_star <= point.relaxation.u[0] * (1 + 1e-6)
            assert point.p_star >= floors.get(k, 0.0)
        warm_relax = sum(p.relaxation.iterations for p in sweep.points)
        cold_relax = sum(sol.relaxation.iterations for _, sol in cold)
        # 463 against 925 iterations with peaks, 278 against 517 without
        assert warm_relax <= cold_relax * 2 / 3
        assert warm_kernel < cold_kernel

    def test_peak_sweep_iteration_budget(self, tabletop_two_user, monkeypatch):
        # a cheaper kernel iteration must not cost iterations: 41 relaxations
        # plus six re-solves and one LP at each of the three fallback points,
        # 678 iterations when this was written
        results = self._kernel_results(monkeypatch)
        sweep_region(tabletop_two_user, grid_size=40)
        assert len(results) == 62
        assert all(r.status == kernel.OPTIMAL for r in results)
        assert sum(r.iterations for r in results) <= 690


    def test_sweep_prepares_the_rows_once(self, tabletop_two_user, monkeypatch):
        # the first relaxation prepares the P0 rows (2 deliveries, the cap, 10
        # peaks); the other 40 relaxations and each fallback point's six
        # rank-penalty re-solves take them from their start, and only the
        # three time-sharing LPs (Q + 2 rows) prepare their own
        prepared, warm = [], []
        prepare, solve = problems._prepare, beamforming.solve_sdp

        def prepare_spy(problem, *args):
            prepared.append(len(problem.factors))
            return prepare(problem, *args)

        def solve_spy(problem, start=None):
            sol = solve(problem, start=start)
            if start is not None:
                warm.append((start.rows, sol.rows))
            return sol

        monkeypatch.setattr(problems, "_prepare", prepare_spy)
        monkeypatch.setattr(beamforming, "solve_sdp", solve_spy)
        sweep = sweep_region(tabletop_two_user, grid_size=40)
        assert prepared[0] == 13 and sorted(prepared[1:]) == [4, 4, 4]
        rows = sweep.points[0].relaxation.rows
        assert all(p.relaxation.rows is rows for p in sweep.points)
        assert len(warm) == 40 + 3 * 6
        assert all(start is rows and used is rows for start, used in warm)

    def test_peak_sweep_relaxation_iterations(self, tabletop_two_user):
        # each point's warm relaxation, as counted when the normal matrix
        # was first formed from the rows' vectors (463 in all): an edit that
        # changes the iterates beyond rounding shows here
        expected = [18, 7, 7, 7, 8, 10, 9, 10, 29, 33, 7, 8, 8, 8, 8, 7, 7, 7, 7, 8, 9,
                    10, 30, 35, 24, 19, 10, 8, 8, 7, 8, 8, 8, 8, 8, 8, 8, 9, 8, 8, 9]
        sweep = sweep_region(tabletop_two_user, grid_size=40)
        counts = [p.relaxation.iterations for p in sweep.points]
        assert abs(sum(counts) - sum(expected)) <= 5
        assert all(abs(c - e) <= 2 for c, e in zip(counts, expected, strict=True))

    def test_no_peak_sweep_relaxation_iterations(self, tabletop_two_user):
        # the real-dtype kernel path (no peak rows, 278 in all), pinned as above
        expected = [14, 12] + [6] * 28 + [9, 9, 9, 8, 6, 6, 6, 6, 7, 7, 11]
        sweep = sweep_region(tabletop_two_user, grid_size=40, options=NO_PEAKS)
        counts = [p.relaxation.iterations for p in sweep.points]
        assert abs(sum(counts) - sum(expected)) <= 5
        assert all(abs(c - e) <= 2 for c, e in zip(counts, expected, strict=True))

    @pytest.mark.parametrize("use_peaks, expected", [(True, 670), (False, 553)],
                             ids=["peaks", "no_peaks"])
    def test_four_user_sweep_relaxation_iterations(self, tabletop, use_peaks, expected):
        # the 40 seeded profiles of sweep_region's docstring
        alphas = np.random.default_rng(0).dirichlet(np.ones(4), 40)
        sweep = sweep_region(tabletop, alphas=alphas,
                             options=SolveOptions(use_peak_constraints=use_peaks))
        assert abs(sum(p.relaxation.iterations for p in sweep.points) - expected) <= 5


class TestBaselinePoint:
    def test_profile_capped_value(self, tabletop_two_user):
        # the baseline points come sorted by profile: [0, 1] first
        point2, point = sweep_region(tabletop_two_user, alphas=[[1.0, 0.0], [0.0, 1.0]],
                                     baseline=True, options=NO_PEAKS).baseline_points
        assert point.p_star == pytest.approx(50.4, rel=0.03)
        assert point2.p_star == pytest.approx(27.5, rel=0.03)


class TestOutputs:
    def test_csv_round_trip(self, small_sweep, tmp_path):
        path = tmp_path / "sweep.csv"
        write_region_csv(small_sweep, path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 10
        assert set(rows[0]) == {"alpha_1", "alpha_2", "p_star", "p_rx_1",
                                "p_rx_2", "scheme", "method", "sdr_rank",
                                "constrained", "relax_status", "relax_iterations"}
        beam = [r for r in rows if r["scheme"] == "beamforming"]
        assert float(beam[0]["p_star"]) == pytest.approx(
            small_sweep.points[0].p_star)

    def test_csv_relaxation_columns(self, small_sweep, tmp_path):
        path = tmp_path / "sweep.csv"
        write_region_csv(small_sweep, path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        beam = [r for r in rows if r["scheme"] == "beamforming"]
        base = [r for r in rows if r["scheme"] == "baseline"]
        assert [(r["relax_status"], int(r["relax_iterations"])) for r in beam] == \
            [("optimal", p.relaxation.iterations) for p in small_sweep.points]
        assert all(p.relaxation.iterations > 0 for p in small_sweep.points)
        assert {(r["relax_status"], r["relax_iterations"]) for r in base} == {("none", "0")}

    def test_summary(self, small_sweep, tmp_path):
        import json
        path = tmp_path / "sweep.summary.json"
        write_sweep_summary(small_sweep, path)
        doc = json.loads(path.read_text())
        assert doc["n_points"] == 5
        assert len(doc["scenario_sha256"]) == 64
        assert doc["settings"]["constrained"] is True

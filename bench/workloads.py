"""The three workloads: inputs made from a seed, CLI calls, output checks.

Every op goes through ``magbeam.cli.main`` in this process, so the op clock
and the tracer in ``spans.py`` see the library calls the CLI makes.  The
checks read what the CLI wrote and test it against references that do not
come from the code being timed: the acceptance reference numbers, and
constraint and delivery margins recomputed from the written currents.
"""

import csv
import itertools
import json
import math
import os
import re
from dataclasses import dataclass, field

import numpy as np

from magbeam import circuit, geometry
from magbeam import scenario as scenario_mod

DELIVERY_TOL = 1e-5      # relative, as the library's delivery check
SLACK_TOL = 1e-6         # absolute, as the library's peak-slack check

# a number printed inside a constructor call, as in "np.float64(0.35)"
_WRAPPED = re.compile(r"[A-Za-z_][\w.]*\((.*)\)")


@dataclass
class Call:
    """One CLI invocation; ``out`` is the file it writes."""

    argv: list
    out: str
    info: dict = field(default_factory=dict)


@dataclass
class Tally:
    """Defect counts and quality figures gathered by the checks."""

    csv_files: int = 0
    csv_unparsable_fields: int = 0
    region_mean_p_w: list = field(default_factory=list)
    trials: int = 0
    messages: list = field(default_factory=list)

    def fail(self, message):
        if len(self.messages) < 20:
            self.messages.append(message)
        return False

    def number(self, text):
        """Parse a CSV number, counting fields ``float`` rejects."""
        try:
            return float(text)
        except ValueError:
            self.csv_unparsable_fields += 1
            match = _WRAPPED.fullmatch(text.strip())
            return float(match.group(1)) if match else math.nan


def _delivers(per_rx, want):
    return bool(np.all(per_rx - want >= -DELIVERY_TOL * np.maximum(want, 1e-9)))


def _bundled(name):
    return str(scenario_mod.bundled_scenario_path(name))


class RegionSweep:
    """`magbeam region` on the two-user bundled scenario, peaks on, baseline.

    One op is one boundary point of the 41-point grid.  Each point runs a
    14-step bisection of small Hermitian SDPs (n=10 embedded) plus LPs and
    rounding, so per-call overhead and the bisection dominate.
    """

    name = "region_sweep"
    op_clock = ("magbeam.region", "boundary_point")
    cycle = 1
    grid = 40
    corners = {0.0: 57.5, 1.0: 46.0}     # alpha_1 -> acceptance corner power
    corner_tol = 0.03

    def setup(self, seed, workdir):
        path = _bundled("table2_two_user")
        scenario = scenario_mod.load_scenario(path)
        circuit.build_impedance(scenario)
        return {"path": path, "scenario": scenario, "seed": seed,
                "out": os.path.join(workdir, "region.csv")}

    def warmup(self, state):
        return Call(["region", state["path"], "--alpha", "0.5,0.5",
                     "--seed", str(state["seed"]), "--out", state["out"]],
                    state["out"])

    def calls(self, state):
        argv = ["region", state["path"], "--grid", str(self.grid), "--baseline",
                "--seed", str(state["seed"]), "--out", state["out"]]
        while True:
            yield Call(argv, state["out"])

    def check(self, state, call, n_ops, tally):
        """Per-op verdicts for the points of one sweep."""
        tally.csv_files += 1
        with open(call.out, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        cap = state["scenario"].total_power_cap
        parsed = []
        for row in rows:
            alpha = np.array([tally.number(row["alpha_1"]), tally.number(row["alpha_2"])])
            p_star = tally.number(row["p_star"])
            per_rx = np.array([tally.number(row["p_rx_1"]), tally.number(row["p_rx_2"])])
            tally.number(row["sdr_rank"])
            tally.number(row["constrained"])
            parsed.append((row["scheme"], alpha, p_star, per_rx))
        beam = [r for r in parsed if r[0] == "beamforming"]
        base = [r for r in parsed if r[0] == "baseline"]
        if len(beam) != n_ops or len(base) != n_ops:
            tally.fail(f"region CSV has {len(beam)}+{len(base)} rows for {n_ops} points")
            return [False] * n_ops
        verdicts = []
        for point, rows_of_point in enumerate(zip(beam, base)):
            ok = True
            for scheme, alpha, p_star, per_rx in rows_of_point:
                if not 0.0 <= p_star <= cap:
                    ok = tally.fail(f"{scheme} p*={p_star} outside [0, {cap}]")
                if not _delivers(per_rx, alpha * p_star):
                    ok = tally.fail(f"{scheme} alpha={alpha.tolist()} p_rx={per_rx.tolist()} "
                                    f"below alpha*p*={p_star}")
            _, alpha, p_star, _ = rows_of_point[0]
            ref = self.corners.get(float(alpha[0]))
            if ref is not None and abs(p_star / ref - 1.0) > self.corner_tol:
                ok = tally.fail(f"corner alpha={alpha.tolist()} p*={p_star} vs {ref}")
            verdicts.append(ok)
        tally.region_mean_p_w.append(float(np.mean([r[2] for r in beam])))
        return verdicts

    def figures(self, ops, wall, tally):
        if not tally.region_mean_p_w:
            return {}
        return {"region_mean_p_w": (float(np.mean(tally.region_mean_p_w)), "W", "higher")}


class WideArray:
    """Fixed-target `magbeam beamform` on seeded sixteen-charger tables.

    Chargers sit on a 4x4 grid under the table, four receivers at seeded
    spots on it; coil shapes are those of ``geometry.tabletop_layout`` and
    resistances, frequency, peaks and cap are copied from ``table2``.  Each op
    is one beamform call for a 20 mW sum target split evenly: a Hermitian
    SDP at n=32 embedded with 36 constraints, and no bisection.  A target deep
    inside the peak limits takes 11-13 interior-point iterations on every
    layout.  At 0.2 W the count spreads over 12-18 and at 1 W over 8-47, with
    some layouts infeasible, so the op time would measure the layout draw
    rather than the code.
    """

    name = "wide_array"
    op_clock = None
    grid_side = 4
    n_rx = 4
    deployments = 12
    cycle = deployments
    target_w = 0.02
    half_width_m = 0.6        # charger grid extent; receivers range 0.1 m wider
    quadrature = 128

    def setup(self, seed, workdir):
        base = scenario_mod.load_scenario(_bundled("table2"))
        tx_shape, rx_shape = (coils[0] for coils in geometry.tabletop_layout())
        xs = np.linspace(-self.half_width_m, self.half_width_m, self.grid_side)
        txs = [geometry.CoilGeometry(center=(x, y, 0.0), radius=tx_shape.radius,
                                     turns=tx_shape.turns) for y in xs for x in xs]
        n = len(txs)
        tx_tx = np.zeros((n, n))
        for i, j in itertools.combinations(range(n), 2):
            tx_tx[i, j] = tx_tx[j, i] = geometry.mutual_inductance(
                txs[i], txs[j], self.quadrature)
        rng = np.random.default_rng([seed, 0x57A7])
        reach = self.half_width_m + 0.1
        alpha = np.full(self.n_rx, 1.0 / self.n_rx)
        items = []
        for d in range(self.deployments):
            spots = rng.uniform(-reach, reach, (self.n_rx, 2))
            rxs = [geometry.CoilGeometry(center=(x, y, rx_shape.center[2]),
                                         radius=rx_shape.radius, turns=rx_shape.turns)
                   for x, y in spots]
            scenario = circuit.Scenario(
                n_tx=n, n_rx=self.n_rx, omega=base.omega,
                tx_resistance=np.full(n, base.tx_resistance[0]),
                rx_parasitic=np.full(self.n_rx, base.rx_parasitic[0]),
                rx_load=np.full(self.n_rx, base.rx_load[0]),
                mutual_tx_rx=geometry.layout_mutual_matrix(txs, rxs, self.quadrature),
                mutual_tx_tx=tx_tx, total_power_cap=base.total_power_cap,
                peak_voltage=np.full(n, base.peak_voltage[0]),
                peak_current=np.full(n, base.peak_current[0]),
                metadata={"generator": "bench wide_array", "seed": seed,
                          "deployment": d})
            path = os.path.join(workdir, f"wide-{d:02d}.json")
            scenario_mod.save_scenario(scenario, path)
            loaded = scenario_mod.load_scenario(path)
            items.append({"path": path, "scenario": loaded,
                          "model": circuit.build_impedance(loaded)})
        return {"items": items, "alpha": alpha, "seed": seed,
                "out": os.path.join(workdir, "beamform.json")}

    def _call(self, state, d):
        alpha = ",".join(repr(float(a)) for a in state["alpha"])
        return Call(["beamform", state["items"][d]["path"], "--alpha", alpha,
                     "--target-power", repr(self.target_w),
                     "--seed", str(state["seed"]), "--out", state["out"]],
                    state["out"], {"deployment": d})

    def warmup(self, state):
        return self._call(state, 0)

    def calls(self, state):
        for d in itertools.cycle(range(self.deployments)):
            yield self._call(state, d)

    def check(self, state, call, n_ops, tally):
        """Re-verify the written schedule: peaks per slot, cap and shares on average."""
        item = state["items"][call.info["deployment"]]
        scenario, model = item["scenario"], item["model"]
        with open(call.out, encoding="utf-8") as fh:
            slots = json.load(fh)["solution"]["slots"]
        taus = np.array([s["time_fraction"] for s in slots])
        ok = bool(abs(taus.sum() - 1.0) <= 1e-9) or \
            tally.fail(f"time fractions sum to {taus.sum()}")
        per_rx = np.zeros(scenario.n_rx)
        p_tx = 0.0
        for s, tau in zip(slots, taus):
            exc = circuit.Excitation(np.array(s["currents_re"]) + 1j * np.array(s["currents_im"]))
            rep = circuit.constraint_slacks(scenario, model, exc)
            if min(rep.voltage_slack.min(), rep.current_slack.min()) < -SLACK_TOL:
                ok = tally.fail(f"deployment {call.info['deployment']}: peak limit exceeded")
            per_rx += tau * circuit.delivered_powers(scenario, model, exc)
            p_tx += tau * (scenario.total_power_cap - rep.total_power_slack)
        if p_tx > scenario.total_power_cap * (1 + 1e-9):
            ok = tally.fail(f"deployment {call.info['deployment']}: TX power {p_tx} over cap")
        if not _delivers(per_rx, state["alpha"] * self.target_w):
            ok = tally.fail(f"deployment {call.info['deployment']}: delivers {per_rx.tolist()}")
        return [ok]

    def figures(self, ops, wall, tally):
        return {}


class EstimateMC:
    """`magbeam estimate` on ``table2``: LS at T=10 and pairwise, 20/30/40 dB.

    One op is one (estimator, SNR) row, run as its own CLI call.  Pairwise
    rows draw four times as many trials as LS rows, so both take about the
    same time and the op-time median is not split between two modes.  No
    conic code runs here.
    """

    name = "estimate_mc"
    op_clock = None
    rows = [("ls", 20.0), ("pairwise", 20.0), ("ls", 30.0),
            ("pairwise", 30.0), ("ls", 40.0), ("pairwise", 40.0)]
    cycle = len(rows)
    trials = {"ls": 100_000, "pairwise": 400_000}
    slots = 10
    ls_reference = {20.0: 2.8e-3, 30.0: 3e-4, 40.0: 3e-5}
    ls_tol = 0.20

    def setup(self, seed, workdir):
        path = _bundled("table2")
        circuit.build_impedance(scenario_mod.load_scenario(path))
        return {"path": path, "seed": seed, "out": os.path.join(workdir, "mse.csv")}

    def _call(self, state, estimator, snr):
        return Call(["estimate", state["path"], "--estimator", estimator,
                     "--slots", str(self.slots), "--snr-list", repr(snr),
                     "--trials", str(self.trials[estimator]),
                     "--seed", str(state["seed"]), "--out", state["out"]],
                    state["out"], {"estimator": estimator, "snr": snr})

    def warmup(self, state):
        return self._call(state, *self.rows[0])

    def calls(self, state):
        for estimator, snr in itertools.cycle(self.rows):
            yield self._call(state, estimator, snr)

    def check(self, state, call, n_ops, tally):
        tally.csv_files += 1
        with open(call.out, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != 1:
            return [tally.fail(f"estimate CSV has {len(rows)} rows")]
        row = rows[0]
        snr = tally.number(row["snr_db"])
        mse = tally.number(row["mse"])
        stderr = tally.number(row["stderr"])
        trials = tally.number(row["trials"])
        tally.number(row["n_slots"])
        estimator = call.info["estimator"]
        ok = True
        if row["estimator"] != estimator or snr != call.info["snr"] or \
                trials != self.trials[estimator]:
            ok = tally.fail(f"estimate row {row} does not match the request")
        if not (math.isfinite(mse) and mse > 0 and math.isfinite(stderr)):
            ok = tally.fail(f"{estimator} at {snr} dB: MSE {mse} +- {stderr}")
        if estimator == "ls" and abs(mse / self.ls_reference[snr] - 1.0) > self.ls_tol:
            ok = tally.fail(f"LS T={self.slots} at {snr} dB: MSE {mse} vs "
                            f"{self.ls_reference[snr]}")
        tally.trials += self.trials[estimator]
        return [ok]

    def figures(self, ops, wall, tally):
        out = {"trials_per_s": (tally.trials / wall, "1/s", "higher")}
        for estimator, trials in self.trials.items():
            seconds = [op.seconds for op in ops if op.call["estimator"] == estimator]
            out[f"trials_per_s.{estimator}"] = (trials * len(seconds) / sum(seconds),
                                                "1/s", "higher")
        return out


WORKLOADS = {w.name: w for w in (RegionSweep(), WideArray(), EstimateMC())}

"""Command-line front end: beamform / region / estimate / validate.

Exit codes: 0 success, 1 validation failure, 2 infeasible target,
64 usage error, 70 numerical failure.  Every run that writes files also
writes a manifest JSON capturing the scenario hash, options, seed and
tool version so results can be reproduced bit-for-bit.
"""

import argparse
import json
import math
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .beamforming import (PowerProfile, SolveOptions, benchmark_uncoordinated,
                          solve_p0_bisection, solve_p1)
from .circuit import (Excitation, build_impedance, constraint_slacks,
                      delivered_powers, efficiency, tx_total_power, tx_voltages)
from .errors import InfeasibleError, MagbeamError, ScenarioError, SolverError
from .estimation import (BLOCK_SINGLE_TX, DRIVEN_ZERO, OPEN_CIRCUIT,
                         RANDOM_VOLTAGE, TrainingProtocol, monte_carlo_mse,
                         write_mse_csv)
from .region import boundary_point, sweep_region, write_region_csv, write_sweep_summary
from .scenario import bundled_scenario_path, load_scenario, scenario_hash

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INFEASIBLE = 2
EXIT_USAGE = 64
EXIT_NUMERICAL = 70


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors exit with the documented code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


class UsageError(Exception):
    pass


def _parse_alpha(text):
    try:
        values = [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise UsageError(f"cannot parse profile {text!r}") from exc
    if not values:
        raise UsageError("empty profile")
    try:
        return PowerProfile(values)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _parse_snr_list(text):
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        out.append(math.inf if tok.lower() in ("inf", "infinity") else float(tok))
    if not out:
        raise UsageError("empty SNR list")
    return out


def _utc_now():
    return datetime.now(timezone.utc).isoformat()


def write_manifest(path, command, scenario, options, seed, outputs,
                   started, finished):
    """Reproducibility record for a run; everything needed to repeat it."""
    doc = {
        "command": command,
        "scenario_sha256": scenario_hash(scenario),
        "options": options,
        "seed": seed,
        "tool_version": __version__,
        "started_utc": started,
        "finished_utc": finished,
        "outputs": [str(p) for p in outputs],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def solution_to_dict(solution, scenario, model):
    slots = []
    for exc, tau in solution.slots:
        rep = constraint_slacks(scenario, model, exc)
        slots.append({
            "time_fraction": tau,
            "currents_re": exc.currents.real.tolist(),
            "currents_im": exc.currents.imag.tolist(),
            "voltages_abs": np.abs(tx_voltages(model, exc)).tolist(),
            "delivered_w": delivered_powers(scenario, model, exc).tolist(),
            "min_slack": rep.min_slack,
        })
    return {
        "method": solution.method,
        "sdr_rank": solution.sdr_rank,
        "achieved_sum_power_w": solution.achieved_sum_power,
        "tx_power_w": solution.tx_power,
        "per_rx_power_w": solution.per_rx_power.tolist(),
        "slots": slots,
    }


def _emit_json(doc, out_path):
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _reference_beamform():
    """End-to-end run of the bundled single-RX workflow with headline numbers."""
    scenario = load_scenario(bundled_scenario_path("table2_miso"))
    model = build_impedance(scenario)
    profile = PowerProfile([1.0])
    sol1 = solve_p1(scenario, profile, 1.0, model=model)
    eta1 = efficiency(scenario, model, list(sol1.slots))
    print(f"target 1 W: method={sol1.method} tx_power={sol1.tx_power:.4f} W "
          f"efficiency={eta1:.4f}")
    p_star, sol = solve_p0_bisection(scenario, profile, model=model)
    print(f"maximized delivery: {p_star:.3f} W at efficiency "
          f"{p_star / sol.tx_power:.4f}")
    bench = benchmark_uncoordinated(scenario, max_feasible=True, model=model)
    print(f"identical-current baseline: {bench.achieved_sum_power:.4f} W at "
          f"efficiency {bench.achieved_sum_power / bench.tx_power:.4f}")
    return EXIT_OK


def _reference_region():
    scenario = load_scenario(bundled_scenario_path("table2_two_user"))
    for constrained in (False, True):
        label = "with peaks" if constrained else "no peaks"
        corners = [boundary_point(scenario, [1.0, 0.0], constrained).p_star,
                   boundary_point(scenario, [0.0, 1.0], constrained).p_star]
        print(f"{label}: corner powers {corners[0]:.2f} / {corners[1]:.2f} W")
    return EXIT_OK


def _reference_estimate():
    scenario = load_scenario(bundled_scenario_path("table2"))
    rows = monte_carlo_mse(scenario, "ls", TrainingProtocol(n_slots=10),
                           [20.0, 30.0, 40.0], trials=20_000, seed=0)
    for r in rows:
        print(f"LS T=10 snr={r.snr_db:.0f} dB: normalized MSE {r.mse:.3e}")
    return EXIT_OK


def _reference_validate():
    for name in ("table2", "table2_miso", "table2_two_user"):
        print(f"--- {name} ---")
        code = cmd_validate(argparse.Namespace(
            scenario=bundled_scenario_path(name), reference_suite=False))
        if code != EXIT_OK:
            return code
    return EXIT_OK


def cmd_beamform(args):
    if args.reference_suite:
        return _reference_beamform()
    if not args.scenario:
        raise UsageError("scenario file is required")
    scenario = load_scenario(args.scenario)
    model = build_impedance(scenario)
    if args.alpha:
        profile = _parse_alpha(args.alpha)
    elif scenario.n_rx == 1:
        profile = PowerProfile([1.0])
    else:
        raise UsageError(f"--alpha is required for Q={scenario.n_rx} receivers")
    if profile.alpha.size != scenario.n_rx:
        raise UsageError(f"profile has {profile.alpha.size} entries for "
                         f"Q={scenario.n_rx} receivers")
    if (args.target_power is None) == (not args.maximize):
        raise UsageError("specify exactly one of --target-power or --maximize")

    started = _utc_now()
    options = SolveOptions(use_peak_constraints=not args.no_peaks,
                           method="auto" if args.method == "benchmark" else args.method,
                           seed=args.seed, randomization_draws=args.draws)
    if args.method == "benchmark":
        if args.maximize:
            sol = benchmark_uncoordinated(scenario, max_feasible=True,
                                          use_peak_constraints=not args.no_peaks,
                                          model=model)
            p_star = sol.achieved_sum_power
        else:
            sol = benchmark_uncoordinated(scenario, target_power=args.target_power,
                                          use_peak_constraints=not args.no_peaks,
                                          model=model)
            p_star = args.target_power
    elif args.maximize:
        p_star, sol = solve_p0_bisection(scenario, profile, args.eps, options, model)
    else:
        sol = solve_p1(scenario, profile, args.target_power, options, model)
        p_star = args.target_power

    doc = {
        "scenario_sha256": scenario_hash(scenario),
        "profile": profile.alpha.tolist(),
        "target_power_w": None if args.maximize else args.target_power,
        "maximized_power_w": p_star if args.maximize else None,
        "peak_constraints": not args.no_peaks,
        "solution": solution_to_dict(sol, scenario, model),
    }
    _emit_json(doc, args.out)
    if args.out and not args.no_manifest:
        write_manifest(args.out + ".manifest.json", "beamform", scenario,
                       _option_dict(args), args.seed, [args.out], started, _utc_now())
    return EXIT_OK


def cmd_region(args):
    if args.reference_suite:
        return _reference_region()
    if not args.scenario:
        raise UsageError("scenario file is required")
    if not args.out:
        raise UsageError("--out is required")
    scenario = load_scenario(args.scenario)
    alphas = [_parse_alpha(a) for a in args.alpha] if args.alpha else None
    if alphas is None and scenario.n_rx != 2:
        raise UsageError(f"the grid sweep needs Q=2; pass --alpha lists for "
                         f"Q={scenario.n_rx}")
    started = _utc_now()
    options = SolveOptions(use_peak_constraints=not args.no_peaks,
                           seed=args.seed, randomization_draws=args.draws)
    sweep = sweep_region(scenario, grid_size=args.grid,
                         constrained=not args.no_peaks, baseline=args.baseline,
                         alphas=alphas, eps=args.eps, options=options)
    write_region_csv(sweep, args.out)
    outputs = [args.out]
    summary = args.out + ".summary.json"
    write_sweep_summary(sweep, summary)
    outputs.append(summary)
    if not args.no_manifest:
        write_manifest(args.out + ".manifest.json", "region", scenario,
                       _option_dict(args), args.seed, outputs, started, _utc_now())
    return EXIT_OK


def cmd_estimate(args):
    if args.reference_suite:
        return _reference_estimate()
    if not args.scenario:
        raise UsageError("scenario file is required")
    if not args.out:
        raise UsageError("--out is required")
    scenario = load_scenario(args.scenario)
    if args.slots < scenario.n_rx:
        raise UsageError(f"need at least Q={scenario.n_rx} training slots, "
                         f"got {args.slots}")
    started = _utc_now()
    mode = RANDOM_VOLTAGE if args.mode == "random" else BLOCK_SINGLE_TX
    inactive = OPEN_CIRCUIT if args.inactive_tx == "open" else DRIVEN_ZERO
    protocol = TrainingProtocol(mode=mode, n_slots=args.slots,
                                active_voltage=args.voltage, seed=args.seed,
                                inactive_tx=inactive)
    rows = monte_carlo_mse(scenario, args.estimator, protocol,
                           _parse_snr_list(args.snr_list),
                           trials=args.trials, seed=args.seed)
    write_mse_csv(rows, args.out)
    if not args.no_manifest:
        write_manifest(args.out + ".manifest.json", "estimate", scenario,
                       _option_dict(args), args.seed, [args.out], started, _utc_now())
    return EXIT_OK


def cmd_validate(args):
    if getattr(args, "reference_suite", False):
        return _reference_validate()
    if not args.scenario:
        raise UsageError("scenario file is required")
    checks = []

    def add(name, ok, detail=""):
        checks.append((name, ok, detail))

    try:
        scenario = load_scenario(args.scenario)
        add("schema and physical invariants", True)
    except ScenarioError as exc:
        add("schema and physical invariants", False, str(exc))
        _print_checks(checks)
        return EXIT_CHECK_FAILED

    model = build_impedance(scenario)
    w_min = float(np.min(np.linalg.eigvalsh(model.b_bar)))
    add("resistive impedance matrix PSD",
        w_min >= -1e-9 * np.linalg.norm(model.b_bar), f"min eigenvalue {w_min:.3e}")

    margin = 0.5 * float(scenario.peak_voltage @ scenario.peak_current)
    add("peak limits exceed total power cap", margin > scenario.total_power_cap,
        f"0.5*sum(V*A) = {margin:.3f} W vs cap {scenario.total_power_cap:.3f} W")

    rng = np.random.default_rng(0)
    ok_recip, ok_energy = True, True
    for _ in range(8):
        cur = rng.standard_normal(scenario.n_tx) + 1j * rng.standard_normal(scenario.n_tx)
        from .circuit import Excitation, tx_total_power
        exc = Excitation(cur)
        v_direct = tx_voltages(model, exc)
        v_expanded = model.b_complex.conj() @ cur
        ok_recip &= bool(np.linalg.norm(v_direct - v_expanded)
                         <= 1e-10 * max(1.0, np.linalg.norm(v_direct)))
        p_in = tx_total_power(model, exc)
        coil = delivered_powers(scenario, model, exc) / scenario.rx_power_factor \
            if scenario.n_rx else np.zeros(0)
        ok_energy &= bool(coil.sum() <= p_in * (1 + 1e-9))
    add("voltage map consistency", ok_recip)
    add("energy conservation", ok_energy)

    ranks_ok = all(
        np.linalg.matrix_rank(model.rank_one_rx[q], tol=1e-12) <= 1
        for q in range(scenario.n_rx))
    add("coupling outer products rank one", ranks_ok)

    _print_checks(checks)
    return EXIT_OK if all(ok for _, ok, _ in checks) else EXIT_CHECK_FAILED


def _print_checks(checks):
    for name, ok, detail in checks:
        status = "PASS" if ok else "FAIL"
        line = f"[{status}] {name}"
        if detail:
            line += f" ({detail})"
        print(line)


def _option_dict(args):
    skip = {"func", "scenario"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def build_parser():
    parser = _Parser(prog="magbeam",
                     description="Magnetic beamforming toolkit for multi-coil "
                                 "resonant wireless power transfer")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    pb = sub.add_parser("beamform", help="optimize TX currents for a scenario")
    pb.add_argument("scenario", nargs="?", help="scenario JSON file")
    pb.add_argument("--reference-suite", action="store_true",
                    help=argparse.SUPPRESS)
    pb.add_argument("--alpha", help="comma-separated power-profile shares")
    pb.add_argument("--target-power", type=float, default=None,
                    help="delivered sum power to hit (W)")
    pb.add_argument("--maximize", action="store_true",
                    help="maximize the delivered sum power instead")
    pb.add_argument("--no-peaks", action="store_true",
                    help="drop per-TX peak voltage/current limits")
    pb.add_argument("--method", default="auto",
                    choices=["auto", "sdr", "ts", "randomization",
                             "closed_form", "benchmark"])
    pb.add_argument("--seed", type=int, default=0)
    pb.add_argument("--draws", type=int, default=4000,
                    help="randomization draw count")
    pb.add_argument("--eps", type=float, default=1e-2,
                    help="tolerance of the rank>1 fallback search (W)")
    pb.add_argument("--out", default=None, help="result JSON path (default stdout)")
    pb.add_argument("--no-manifest", action="store_true", help=argparse.SUPPRESS)
    pb.set_defaults(func=cmd_beamform)

    pr = sub.add_parser("region", help="trace the multi-user power region")
    pr.add_argument("scenario", nargs="?")
    pr.add_argument("--reference-suite", action="store_true",
                    help=argparse.SUPPRESS)
    pr.add_argument("--grid", type=int, default=40,
                    help="two-user grid resolution")
    pr.add_argument("--alpha", action="append",
                    help="explicit profile (repeatable); required for Q != 2")
    pr.add_argument("--no-peaks", action="store_true")
    pr.add_argument("--baseline", action="store_true",
                    help="also report the identical-current baseline")
    pr.add_argument("--seed", type=int, default=0)
    pr.add_argument("--draws", type=int, default=4000)
    pr.add_argument("--eps", type=float, default=1e-2,
                    help="tolerance of the rank>1 fallback search (W)")
    pr.add_argument("--out", default=None, help="output CSV path")
    pr.add_argument("--no-manifest", action="store_true", help=argparse.SUPPRESS)
    pr.set_defaults(func=cmd_region)

    pe = sub.add_parser("estimate", help="Monte-Carlo coupling-estimation MSE")
    pe.add_argument("scenario", nargs="?")
    pe.add_argument("--reference-suite", action="store_true",
                    help=argparse.SUPPRESS)
    pe.add_argument("--estimator", default="ls",
                    choices=["ls", "perfect", "pairwise"])
    pe.add_argument("--snr-list", default="20,30,40",
                    help="comma-separated SNRs in dB ('inf' allowed)")
    pe.add_argument("--slots", type=int, default=10, help="training slots T")
    pe.add_argument("--trials", type=int, default=100_000)
    pe.add_argument("--seed", type=int, default=0)
    pe.add_argument("--mode", default="block", choices=["block", "random"])
    pe.add_argument("--inactive-tx", default="open", choices=["open", "driven"],
                    help="idle-TX model in block mode")
    pe.add_argument("--voltage", type=float, default=0.75,
                    help="active-TX training voltage (V)")
    pe.add_argument("--out", default=None, help="output CSV path")
    pe.add_argument("--no-manifest", action="store_true", help=argparse.SUPPRESS)
    pe.set_defaults(func=cmd_estimate)

    pv = sub.add_parser("validate", help="check a scenario file's invariants")
    pv.add_argument("scenario", nargs="?")
    pv.add_argument("--reference-suite", action="store_true",
                    help=argparse.SUPPRESS)
    pv.set_defaults(func=cmd_validate)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"magbeam: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ScenarioError as exc:
        print(f"magbeam: invalid scenario: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InfeasibleError as exc:
        print(f"magbeam: infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except SolverError as exc:
        print(f"magbeam: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MagbeamError as exc:
        print(f"magbeam: error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())

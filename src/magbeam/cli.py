"""Command-line front end: beamform / region / estimate / validate.

Exit codes: 0 success, 1 validation failure, 2 infeasible target,
64 usage error (a run too large for the memory included), 70 numerical
failure.  Every run that writes files also writes a manifest JSON capturing
the scenario hash, options, seed and tool version so results can be
reproduced bit-for-bit.
"""

import argparse
import functools
import math
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .beamforming import (PowerProfile, SolveOptions, benchmark_uncoordinated,
                          solve_p0, solve_p1)
from .circuit import build_impedance, evaluate_currents
from .errors import (EstimationError, InfeasibleError, MagbeamError, ScenarioError,
                     SolverError)
from .estimation import (BLOCK_SINGLE_TX, DRIVEN_ZERO, OPEN_CIRCUIT,
                         RANDOM_VOLTAGE, TrainingProtocol, check_slots, estimate_ls,
                         monte_carlo_mse, simulate_training, write_mse_csv)
from .region import sweep_region, write_region_csv, write_sweep_summary
from .scenario import load_scenario, scenario_hash, write_json

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


def _parse_alpha(text, n_rx):
    """A ``--alpha`` list as the profile of a scenario with ``n_rx`` receivers."""
    try:
        values = [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise UsageError(f"cannot parse profile {text!r}") from exc
    if not values:
        raise UsageError("empty profile")
    try:
        profile = PowerProfile(values)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if profile.alpha.size != n_rx:
        raise UsageError(f"profile has {profile.alpha.size} entries for Q={n_rx} receivers")
    return profile


def _finite_float(text):
    """argparse type: a float that is neither infinite nor NaN."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _positive_int(text):
    """argparse type: an integer of at least 1 (argparse reports a ValueError)."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _nonnegative_int(text):
    """argparse type: an integer of at least 0, such as a seed."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


def _parse_snr_list(text):
    try:
        out = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise UsageError(f"cannot parse SNR list {text!r}") from exc
    if not out:
        raise UsageError("empty SNR list")
    if any(math.isnan(snr) for snr in out):
        raise UsageError(f"SNR list {text!r} has a NaN entry")
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
    write_json(doc, path)


def solution_to_dict(solution, scenario, model):
    ev = evaluate_currents(scenario, model,
                           np.stack([exc.currents for exc, _ in solution.slots], 1))
    slots = [{"time_fraction": tau,
              "currents_re": exc.currents.real.tolist(),
              "currents_im": exc.currents.imag.tolist(),
              "voltages_abs": np.abs(ev.voltages[:, l]).tolist(),
              "delivered_w": ev.delivered[:, l].tolist(),
              "min_slack": ev.slacks(scenario, l).min_slack}
             for l, (exc, tau) in enumerate(solution.slots)]
    return {
        "method": solution.method,
        "sdr_rank": solution.sdr_rank,
        "achieved_sum_power_w": solution.achieved_sum_power,
        "tx_power_w": solution.tx_power,
        "per_rx_power_w": solution.per_rx_power.tolist(),
        "slots": slots,
    }


def cmd_beamform(args):
    scenario = load_scenario(args.scenario)
    model = build_impedance(scenario)
    if args.alpha:
        profile = _parse_alpha(args.alpha, scenario.n_rx)
    elif scenario.n_rx == 1:
        profile = PowerProfile([1.0])
    else:
        raise UsageError(f"--alpha is required for Q={scenario.n_rx} receivers")
    if (args.target_power is None) == (not args.maximize):
        raise UsageError("specify exactly one of --target-power or --maximize")
    if args.target_power is not None and args.target_power < 0.0:
        raise UsageError(f"--target-power must be >= 0 W, got {args.target_power:g}")
    if args.method == "closed_form" and not args.no_peaks:
        raise UsageError("--method closed_form ignores peak limits; add --no-peaks")
    if args.method == "closed_form" and scenario.n_rx != 1:
        raise UsageError(f"--method closed_form needs Q=1 receiver, "
                         f"not Q={scenario.n_rx}")

    started = _utc_now()
    options = SolveOptions(use_peak_constraints=not args.no_peaks,
                           method="auto" if args.method == "benchmark" else args.method,
                           seed=args.seed, randomization_draws=args.draws)
    if args.method == "benchmark":
        sol = benchmark_uncoordinated(scenario, args.target_power, args.maximize,
                                      options.use_peak_constraints, model)
        p_star = sol.achieved_sum_power if args.maximize else args.target_power
    elif args.maximize:
        p_star, sol = solve_p0(scenario, profile, options, model)
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
    write_json(doc, args.out or None)
    if args.out and not args.no_manifest:
        write_manifest(args.out + ".manifest.json", "beamform", scenario,
                       _option_dict(args), args.seed, [args.out], started, _utc_now())
    return EXIT_OK


def cmd_region(args):
    if not args.out:
        raise UsageError("--out is required")
    if args.alpha and args.grid is not None:
        raise UsageError("--grid and --alpha exclude each other: a sweep is a grid or a list")
    scenario = load_scenario(args.scenario)
    alphas = [_parse_alpha(a, scenario.n_rx) for a in args.alpha] if args.alpha else None
    if alphas is None and scenario.n_rx != 2:
        raise UsageError(f"the grid sweep needs Q=2; pass --alpha lists for "
                         f"Q={scenario.n_rx}")
    if alphas is None and args.grid is None:
        args.grid = 40   # the default, so that the manifest records the grid swept
    started = _utc_now()
    options = SolveOptions(use_peak_constraints=not args.no_peaks,
                           seed=args.seed, randomization_draws=args.draws)
    sweep = sweep_region(scenario, grid_size=args.grid, baseline=args.baseline,
                         alphas=alphas, options=options)
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
    if not args.out:
        raise UsageError("--out is required")
    scenario = load_scenario(args.scenario)
    if scenario.n_rx == 0:
        raise UsageError("the scenario has no receivers to estimate")
    # pairwise and perfect rows train on slots of their own, whatever --slots says
    if args.estimator == "ls" and args.slots < scenario.n_rx:
        raise UsageError(f"need at least Q={scenario.n_rx} training slots, "
                         f"got {args.slots}")
    started = _utc_now()
    mode = RANDOM_VOLTAGE if args.mode == "random" else BLOCK_SINGLE_TX
    inactive = OPEN_CIRCUIT if args.inactive_tx == "open" else DRIVEN_ZERO
    try:
        protocol = TrainingProtocol(mode=mode, n_slots=args.slots,
                                    active_voltage=args.voltage, seed=args.seed,
                                    inactive_tx=inactive)
        if args.estimator == "ls":
            check_slots(scenario, protocol)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    try:   # an SNR whose noise variance leaves the float range
        rows = monte_carlo_mse(scenario, args.estimator, protocol,
                               _parse_snr_list(args.snr_list),
                               trials=args.trials, seed=args.seed)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    write_mse_csv(rows, args.out)
    if not args.no_manifest:
        write_manifest(args.out + ".manifest.json", "estimate", scenario,
                       _option_dict(args), args.seed, [args.out], started, _utc_now())
    return EXIT_OK


def cmd_validate(args):
    try:
        scenario = load_scenario(args.scenario)
    except ScenarioError as exc:
        return _report_checks([("schema and physical invariants", False, str(exc))])
    checks = [("schema and physical invariants", True, "")]

    uncoupled = np.flatnonzero(~np.any(scenario.mutual_tx_rx, axis=0)) + 1
    checks.append(("every receiver coupled to a TX", uncoupled.size == 0,
                   ", ".join(f"RX {q} is not" for q in uncoupled)))

    if scenario.n_rx:
        # block training's Gram has the rank of M over any whole number of
        # rounds of the TXs, so the fewest rounds with Q slots decide it
        slots = scenario.n_tx * -(-scenario.n_rx // scenario.n_tx)
        record = simulate_training(scenario, TrainingProtocol(n_slots=slots), math.inf)
        try:
            estimate_ls(record)
            error = ""
        except EstimationError as exc:
            error = f": {exc}"
        checks.append(("LS training identifies the coupling matrix", not error,
                       f"block training, {slots} noiseless slots{error}"))
    return _report_checks(checks)


def _report_checks(checks):
    """Print a PASS or FAIL line per ``(name, ok, detail)``; exit 1 if any failed."""
    for name, ok, detail in checks:
        status = "PASS" if ok else "FAIL"
        line = f"[{status}] {name}"
        if detail:
            line += f" ({detail})"
        print(line)
    return EXIT_OK if all(ok for _, ok, _ in checks) else EXIT_CHECK_FAILED


def _option_dict(args):
    skip = {"func", "scenario"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


@functools.cache  # parse_args leaves the parser as it was, so one serves every call
def build_parser():
    parser = _Parser(prog="magbeam",
                     description="Magnetic beamforming toolkit for multi-coil "
                                 "resonant wireless power transfer")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    pb = sub.add_parser("beamform", help="optimize TX currents for a scenario")
    pb.add_argument("scenario", help="scenario JSON file")
    pb.add_argument("--alpha", help="comma-separated power-profile shares")
    pb.add_argument("--target-power", type=_finite_float, default=None,
                    help="delivered sum power to hit (W)")
    pb.add_argument("--maximize", action="store_true",
                    help="maximize the delivered sum power instead")
    pb.add_argument("--no-peaks", action="store_true",
                    help="drop per-TX peak voltage/current limits")
    pb.add_argument("--method", default="auto",
                    choices=["auto", "sdr", "ts", "randomization",
                             "closed_form", "benchmark"])
    pb.add_argument("--seed", type=_nonnegative_int, default=0)
    pb.add_argument("--draws", type=_positive_int, default=4000,
                    help="randomization draw count")
    pb.add_argument("--out", default=None, help="result JSON path (default stdout)")
    pb.add_argument("--no-manifest", action="store_true", help=argparse.SUPPRESS)
    pb.set_defaults(func=cmd_beamform)

    pr = sub.add_parser("region", help="trace the multi-user power region")
    pr.add_argument("scenario")
    pr.add_argument("--grid", type=_positive_int, default=None,
                    help="two-user grid resolution (default 40); not with --alpha")
    pr.add_argument("--alpha", action="append",
                    help="explicit profile (repeatable); required for Q != 2")
    pr.add_argument("--no-peaks", action="store_true")
    pr.add_argument("--baseline", action="store_true",
                    help="also report the identical-current baseline")
    pr.add_argument("--seed", type=_nonnegative_int, default=0)
    pr.add_argument("--draws", type=_positive_int, default=4000)
    pr.add_argument("--out", default=None, help="output CSV path")
    pr.add_argument("--no-manifest", action="store_true", help=argparse.SUPPRESS)
    pr.set_defaults(func=cmd_region)

    pe = sub.add_parser("estimate", help="Monte-Carlo coupling-estimation MSE")
    pe.add_argument("scenario")
    pe.add_argument("--estimator", default="ls",
                    choices=["ls", "perfect", "pairwise"])
    pe.add_argument("--snr-list", default="20,30,40",
                    help="comma-separated SNRs in dB ('inf' allowed)")
    pe.add_argument("--slots", type=int, default=10, help="training slots T")
    pe.add_argument("--trials", type=_positive_int, default=100_000)
    pe.add_argument("--seed", type=_nonnegative_int, default=0)
    pe.add_argument("--mode", default="block", choices=["block", "random"])
    pe.add_argument("--inactive-tx", default="open", choices=["open", "driven"],
                    help="idle-TX model in block mode")
    pe.add_argument("--voltage", type=_finite_float, default=0.75,
                    help="active-TX training voltage (V)")
    pe.add_argument("--out", default=None, help="output CSV path")
    pe.add_argument("--no-manifest", action="store_true", help=argparse.SUPPRESS)
    pe.set_defaults(func=cmd_estimate)

    pv = sub.add_parser("validate", help="check a scenario file's invariants")
    pv.add_argument("scenario")
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
    except MemoryError as exc:
        # an array the machine cannot hold: NumPy refuses it before filling any
        print(f"magbeam: usage error: not enough memory for this run ({exc})", file=sys.stderr)
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
